"""Property-based tests for the simulation engine."""

from hypothesis import given, strategies as st

from repro.engine import Scheduler, SerialProcessor


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=50))
def test_events_fire_in_non_decreasing_time_order(times):
    scheduler = Scheduler()
    fired = []
    for t in times:
        scheduler.call_at(t, lambda t=t: fired.append(scheduler.now))
    scheduler.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=30)
)
def test_same_time_events_fire_fifo(delays):
    scheduler = Scheduler()
    order = []
    for index, _ in enumerate(delays):
        scheduler.call_at(1.0, lambda i=index: order.append(i))
    scheduler.run()
    assert order == list(range(len(delays)))


@given(
    st.lists(
        st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_serial_processor_completion_times_are_prefix_sums(service_times):
    scheduler = Scheduler()
    cpu = SerialProcessor(scheduler)
    done = []
    for s in service_times:
        cpu.submit(s, lambda: done.append(scheduler.now))
    scheduler.run()
    expected = []
    acc = 0.0
    for s in service_times:
        acc += s
        expected.append(acc)
    assert len(done) == len(expected)
    for got, want in zip(done, expected):
        assert abs(got - want) < 1e-9 * max(1.0, want)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False), max_size=40),
    st.sets(st.integers(min_value=0, max_value=39)),
)
def test_cancelled_events_never_fire(times, cancel_indices):
    scheduler = Scheduler()
    fired = []
    handles = []
    for index, t in enumerate(times):
        handles.append(scheduler.call_at(t, lambda i=index: fired.append(i)))
    for index in cancel_indices:
        if index < len(handles):
            handles[index].cancel()
    scheduler.run()
    surviving = {i for i in range(len(times))} - {
        i for i in cancel_indices if i < len(times)
    }
    assert set(fired) == surviving
