"""Unit tests for repro.engine.rng."""

from repro.engine import RandomStreams


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = RandomStreams(42).stream("x")
        b = RandomStreams(42).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_give_different_sequences(self):
        streams = RandomStreams(42)
        xs = [streams.stream("x").random() for _ in range(5)]
        ys = [streams.stream("y").random() for _ in range(5)]
        assert xs != ys

    def test_different_seeds_give_different_sequences(self):
        xs = [RandomStreams(1).stream("x").random() for _ in range(5)]
        ys = [RandomStreams(2).stream("x").random() for _ in range(5)]
        assert xs != ys

    def test_stream_is_cached(self):
        streams = RandomStreams(0)
        assert streams.stream("a") is streams.stream("a")

    def test_creation_order_does_not_matter(self):
        polluted = RandomStreams(7)
        polluted.stream("a")  # create an unrelated stream first
        with_sibling = polluted.stream("b").random()
        alone = RandomStreams(7).stream("b").random()
        assert with_sibling == alone


class TestUniformHelper:
    def test_uniform_within_bounds(self):
        streams = RandomStreams(3)
        for _ in range(100):
            value = streams.uniform("proc", 0.1, 0.5)
            assert 0.1 <= value <= 0.5
