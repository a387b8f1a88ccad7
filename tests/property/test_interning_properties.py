"""Property-based tests for the AsPath intern table.

The hot-path speedup rests on three promises the intern table makes:
interning is idempotent (same sequence -> same object), value semantics
are indistinguishable from the un-interned tuple semantics, and pickling
is by value, so a result received from a sweep worker is equal to the
canonical values without growing the receiving process's tables.  Each
promise gets a property here.
"""

import pickle

from hypothesis import given, strategies as st

from repro.bgp import (
    AsPath,
    Route,
    intern_path,
    interning_scope,
    route_intern_table_size,
)
from repro.bgp.path import intern_table_size

# Valid AS paths: non-negative ASNs without duplicates.
as_sequences = st.lists(
    st.integers(min_value=0, max_value=10_000), unique=True, max_size=8
)


@given(as_sequences)
def test_intern_is_idempotent(ases):
    assert AsPath.of(ases) is AsPath.of(tuple(ases))
    assert AsPath.of(ases) is intern_path(ases)


@given(as_sequences, as_sequences)
def test_eq_and_hash_agree_with_tuple_semantics(left, right):
    a, b = AsPath.of(left), AsPath.of(right)
    assert (a == b) == (tuple(left) == tuple(right))
    if a == b:
        assert hash(a) == hash(b)
        assert a is b  # interning makes value equality an identity check


@given(as_sequences)
def test_uninterned_twin_is_equal_and_hash_compatible(ases):
    # Direct construction (tests, ad-hoc analysis) must stay value-
    # compatible with the canonical instance even though it is a
    # distinct object.
    interned = AsPath.of(ases)
    twin = AsPath(ases)
    assert twin == interned
    assert hash(twin) == hash(interned)
    if ases:
        assert twin is not interned


@given(as_sequences, st.integers(min_value=0, max_value=10_500))
def test_membership_matches_tuple_membership(ases, probe):
    assert (probe in AsPath.of(ases)) == (probe in tuple(ases))


@given(as_sequences.filter(bool))
def test_pickle_round_trip_is_by_value(ases):
    # A sweep's parent unpickles the results its workers send home: values
    # interned in another run, absent from the receiving tables.  Loading
    # them yields equal values and leaves both tables as they were.
    with interning_scope():
        path = AsPath.of(ases)
        route = Route.of("d", path, ases[0])
        shipped = pickle.dumps((path, route))
    sizes = intern_table_size(), route_intern_table_size()
    loaded_path, loaded_route = pickle.loads(shipped)
    assert (intern_table_size(), route_intern_table_size()) == sizes
    assert loaded_path == path and hash(loaded_path) == hash(path)
    assert loaded_route == route and hash(loaded_route) == hash(route)


@given(as_sequences, st.integers(min_value=10_001, max_value=10_100))
def test_algebra_results_are_interned(ases, head):
    path = AsPath.of(ases)
    prepended = path.prepend(head)
    assert prepended is AsPath.of((head, *ases))
    assert prepended.suffix_from(head) is prepended
    if ases:
        assert path.suffix_from(ases[0]) is path
    assert AsPath.empty() is AsPath.of(())
