"""Property-based tests for AS-path algebra."""

from hypothesis import given, strategies as st

from repro.bgp import AsPath

as_lists = st.lists(
    st.integers(min_value=0, max_value=1000), unique=True, max_size=12
)
nonempty_as_lists = st.lists(
    st.integers(min_value=0, max_value=1000), unique=True, min_size=1, max_size=12
)


@given(as_lists)
def test_roundtrip_through_tuple(ases):
    assert list(AsPath(ases)) == ases


@given(as_lists, st.integers(min_value=1001, max_value=2000))
def test_prepend_length_and_membership(ases, new_asn):
    path = AsPath(ases).prepend(new_asn)
    assert len(path) == len(ases) + 1
    assert path.head == new_asn
    assert new_asn in path
    assert all(a in path for a in ases)


@given(nonempty_as_lists)
def test_head_and_origin_are_ends(ases):
    path = AsPath(ases)
    assert path.head == ases[0]
    assert path.origin == ases[-1]


@given(nonempty_as_lists)
def test_suffix_from_every_member_ends_at_origin(ases):
    path = AsPath(ases)
    for asn in ases:
        suffix = path.suffix_from(asn)
        assert suffix is not None
        assert suffix.head == asn
        assert suffix.origin == path.origin
        assert len(suffix) == len(ases) - ases.index(asn)


@given(as_lists)
def test_suffix_from_nonmember_is_none(ases):
    outside = 5000
    assert AsPath(ases).suffix_from(outside) is None


@given(nonempty_as_lists)
def test_paths_hash_consistently(ases):
    assert hash(AsPath(ases)) == hash(AsPath(tuple(ases)))
    assert AsPath(ases) == AsPath(tuple(ases))
