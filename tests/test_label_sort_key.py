"""Exactness of the memoized :func:`label_sort_key`.

Every canonical byte in the repository (canonical hashes, cache keys,
certificates, journals) is ordered by ``label_sort_key``, so its process-
wide memo must be invisible: the same key for every label, in any call
order, as the plain recursion it replaced.  That recursion lives on below,
verbatim, as :func:`oracle_label_sort_key`.

The memo's domain is labels of exact type ``frozenset`` / ``tuple`` built
from exact ``str`` alone.  ``1 == True == 1.0`` while their keys differ,
so the tests interleave equal labels of different types and check that
none of them ever enters the memo.
"""

from contextlib import contextmanager
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import multiset
from repro.utils.multiset import Multiset, label_sort_key


def oracle_label_sort_key(label: Any) -> tuple:
    """The uncached recursion, verbatim (recursing into itself)."""
    if isinstance(label, frozenset):
        return (
            "frozenset",
            tuple(sorted(oracle_label_sort_key(element) for element in label)),
        )
    if isinstance(label, tuple):
        return ("tuple", tuple(oracle_label_sort_key(element) for element in label))
    return (type(label).__qualname__, repr(label))


@contextmanager
def fresh_memo():
    """Run with an empty memo; the process-wide one is restored after."""
    saved = multiset._sort_keys
    multiset._sort_keys = {}
    try:
        yield multiset._sort_keys
    finally:
        multiset._sort_keys = saved


def str_built(label: Any) -> bool:
    """Exact ``str``, or an exact ``frozenset``/``tuple`` of str-built labels."""
    if type(label) is str:
        return True
    if type(label) in (frozenset, tuple):
        return all(str_built(element) for element in label)
    return False


LEAVES = st.one_of(
    st.text(alphabet="ab1", max_size=2),
    st.integers(min_value=-2, max_value=2),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1.0, 1.5, float("inf")]),
)


def labels_up_to(depth: int):
    if depth == 0:
        return LEAVES
    inner = labels_up_to(depth - 1)
    return st.one_of(
        LEAVES,
        st.lists(inner, max_size=3).map(tuple),
        st.frozensets(inner, max_size=3),
    )


#: Nested labels up to depth 3 over str, int, bool, float, tuple, frozenset.
LABELS = labels_up_to(3)
#: The same, over str alone: the labels round elimination produces.
STR_LABELS = st.recursive(
    st.text(alphabet="abc", max_size=2),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple), st.frozensets(inner, max_size=3)
    ),
    max_leaves=8,
)

#: Equal labels (``1 == True == 1.0``) whose keys all differ.
EQUAL_BUT_DISTINCT = [
    frozenset({1}),
    frozenset({True}),
    frozenset({1.0}),
    (1,),
    (True,),
    frozenset({(1,)}),
    frozenset({(True,)}),
]
#: Their str-built look-alikes, the only ones the memo may hold.
STR_TWINS = [frozenset({"1"}), ("1",), frozenset({("1",)})]


class TestExactness:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(LABELS, max_size=12), st.randoms(use_true_random=False))
    def test_keys_equal_the_oracle_in_any_call_order(self, labels, rng):
        with fresh_memo():
            for label in labels:
                assert label_sort_key(label) == oracle_label_sort_key(label)
            shuffled = labels + labels
            rng.shuffle(shuffled)
            for label in shuffled:
                assert label_sort_key(label) == oracle_label_sort_key(label)

    @settings(max_examples=300, deadline=None)
    @given(st.permutations(EQUAL_BUT_DISTINCT + STR_TWINS))
    def test_equal_labels_of_different_types_keep_their_own_keys(self, order):
        with fresh_memo() as memo:
            for label in order:
                assert label_sort_key(label) == oracle_label_sort_key(label)
                # A second lookup must not find another type's entry.
                assert label_sort_key(label) == oracle_label_sort_key(label)
            assert set(memo) == set(STR_TWINS)

    def test_distinct_keys_for_equal_labels(self):
        keys = {label_sort_key(label) for label in EQUAL_BUT_DISTINCT}
        assert len(keys) == len(EQUAL_BUT_DISTINCT)


class TestMemoDomain:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(LABELS, max_size=12))
    def test_only_str_built_labels_enter_the_memo(self, labels):
        with fresh_memo() as memo:
            for label in labels:
                label_sort_key(label)
            for label, key in memo.items():
                assert str_built(label), label
                assert type(label) in (frozenset, tuple)
                assert key == oracle_label_sort_key(label)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(STR_LABELS, max_size=12))
    def test_str_built_containers_are_memoized(self, labels):
        with fresh_memo() as memo:
            for label in labels:
                label_sort_key(label)
                if type(label) is not str:
                    assert memo[label] == oracle_label_sort_key(label)

    def test_subclasses_take_the_uncached_path(self):
        class Labels(frozenset):
            pass

        class Pair(tuple):
            pass

        with fresh_memo() as memo:
            for label in (Labels({"a"}), Pair(("a", "b")), frozenset({Labels({"a"})})):
                assert label_sort_key(label) == oracle_label_sort_key(label)
            assert frozenset({Labels({"a"})}) not in memo
            assert Labels({"a"}) not in memo and Pair(("a", "b")) not in memo


@contextmanager
def memo_cap(cap: int):
    saved = multiset.SORT_KEY_MEMO_CAP
    multiset.SORT_KEY_MEMO_CAP = cap
    try:
        with fresh_memo() as memo:
            yield memo
    finally:
        multiset.SORT_KEY_MEMO_CAP = saved


class TestCap:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(STR_LABELS, min_size=1, max_size=30), st.integers(1, 4))
    def test_keys_survive_a_cap_triggered_clear(self, labels, cap):
        with memo_cap(cap) as memo:
            for label in labels + labels[::-1]:
                assert label_sort_key(label) == oracle_label_sort_key(label)
                assert len(memo) <= cap

    def test_reaching_the_cap_clears_the_memo(self):
        with memo_cap(3) as memo:
            for index in range(3):
                label_sort_key((str(index),))
            assert len(memo) == 3
            assert label_sort_key(("x",)) == oracle_label_sort_key(("x",))
            assert list(memo) == [("x",)]


class TestMultisetOrder:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(LABELS, STR_LABELS), max_size=8))
    def test_items_sort_exactly_as_under_the_oracle(self, items):
        # Compared by identity: ``==`` cannot tell ``1`` from ``True``.
        def oracle_order(labels):
            return [id(x) for x in sorted(labels, key=oracle_label_sort_key)]

        with fresh_memo():
            first = Multiset(items).items
            again = Multiset(items[::-1]).items
        assert [id(x) for x in first] == oracle_order(items)
        assert [id(x) for x in again] == oracle_order(items[::-1])
        assert [id(x) for x in Multiset(items).items] == oracle_order(items)
