"""The one observation seam: Scheduler.observe and the Observers fan-out."""

from repro.engine import Observer, Scheduler
from repro.engine.observer import HOOKS, Observers


class Recorder(Observer):
    """Watches scheduling only, and writes what it saw to a shared log."""

    def __init__(self, label, log):
        self.label = label
        self.log = log

    def on_schedule(self, now, time, name, housekeeping):
        self.log.append((self.label, name))

    def describe(self):
        return [f"{self.label}: {len(self.log)}"]


class TestObserve:
    def test_nothing_observes_by_default(self):
        assert Scheduler().observer is None

    def test_lone_observer_is_installed_as_itself(self):
        scheduler = Scheduler()
        recorder = Recorder("a", [])
        scheduler.observe(recorder)
        assert scheduler.observer is recorder

    def test_observe_with_nothing_removes(self):
        scheduler = Scheduler()
        scheduler.observe(Recorder("a", []))
        scheduler.observe()
        assert scheduler.observer is None

    def test_several_observers_see_every_hook_in_order(self):
        log = []
        scheduler = Scheduler()
        scheduler.observe(Recorder("a", log), Recorder("b", log))
        scheduler.call_at(1.0, lambda: None, name="tick")
        scheduler.run()
        assert log == [("a", "tick"), ("b", "tick")]


class TestObservers:
    def test_hook_one_member_overrides_is_its_bound_method(self):
        recorder = Recorder("a", [])
        fan_out = Observers([recorder, Observer()])
        assert fan_out.on_schedule == recorder.on_schedule

    def test_hook_no_member_overrides_stays_the_base_no_op(self):
        fan_out = Observers([Recorder("a", []), Recorder("b", [])])
        for hook in HOOKS:
            if hook != "on_schedule":
                assert getattr(type(fan_out), hook) is getattr(Observer, hook)
                assert hook not in vars(fan_out)

    def test_describe_concatenates_members(self):
        log = []
        fan_out = Observers([Recorder("a", log), Recorder("b", log)])
        assert fan_out.describe() == ["a: 0", "b: 0"]

