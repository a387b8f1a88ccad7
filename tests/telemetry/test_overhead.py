"""Telemetry is free when off: the disabled-path guard estimate stays < 2 %.

The cost of the ``if scheduler.telemetry is not None`` guard every hook
site executes cannot be A/B-tested against a guard-free build, so it is
estimated: a microbenchmark times one attribute read plus None check, and
that cost is multiplied by the number of hook fires a telemetry-on run of
the same sweep counts.  Best-of-N timings keep scheduler noise out of both
sides; the ceiling leaves several-fold headroom on a loaded machine.
"""

from repro.experiments import RunSettings
from repro.experiments.figures import figure4a
from repro.telemetry import Stopwatch, time_callable

DISABLED_OVERHEAD_CEILING = 0.02


def guard_seconds(iterations: int = 200_000) -> float:
    """Wall seconds one disabled-path guard costs (clamped at zero)."""

    class Holder:
        telemetry = None

    holder = Holder()
    indices = range(iterations)
    watch = Stopwatch.start()
    for _ in indices:
        pass
    empty = watch.elapsed()
    watch = Stopwatch.start()
    for _ in indices:
        if holder.telemetry is not None:
            raise AssertionError("unreachable")
    guarded = watch.elapsed()
    return max(0.0, (guarded - empty) / iterations)


def sweep(settings: RunSettings):
    return figure4a(sizes=(5, 8), mrai=2.0, seeds=(0,), settings=settings)


def test_disabled_telemetry_guards_cost_under_two_percent():
    off_seconds, _ = time_callable(lambda: sweep(RunSettings()), repeats=3)
    traced = sweep(RunSettings(telemetry=True)).telemetry
    # Counter totals of the enabled run stand in for the guards the
    # disabled run executed.  Byte counters hold byte totals, and the
    # trace/dataplane counters are filled in post-run without a per-event
    # guard.  Still conservative: one hook fire can bump several counters.
    hook_fires = sum(
        value
        for name, value in traced.counters.items()
        if not name.startswith(("net.bytes_sent.", "trace.", "dataplane."))
    )
    assert hook_fires > 0
    guard = min(guard_seconds() for _ in range(3))
    overhead = hook_fires * guard / off_seconds
    assert overhead < DISABLED_OVERHEAD_CEILING, (
        f"{hook_fires} hook fires x {guard * 1e9:.1f} ns = {overhead:.2%} of "
        f"the {off_seconds:.3f} s untraced sweep"
    )
