"""Canonical, hashable multisets.

Node and edge configurations of node-edge-checkable LCL problems
(Definition 2.3 of the paper) are *multisets* of output labels.  Python has
no hashable multiset, so this module provides :class:`Multiset`: an
immutable multiset with a canonical tuple representation, suitable as a
dictionary key or set element.

Labels may be any hashable objects; internally elements are sorted by a
stable key (``(type qualname, repr)``) so that multisets over heterogeneous
or frozenset-valued labels (which arise after round elimination, where
labels are *sets* of labels) still canonicalize deterministically.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, Iterator

#: Entries the sort-key memo may hold; storing one more clears it first.
SORT_KEY_MEMO_CAP = 65_536

#: Exact ``frozenset`` / ``tuple`` labels built from ``str`` alone -> key.
_sort_keys: Dict[Any, tuple] = {}


def label_sort_key(label: Any) -> tuple:
    """A total order on arbitrary hashable labels.

    Round elimination turns labels into ``frozenset``s of labels (and then
    frozensets of frozensets, ...), whose ``repr`` depends on hash-based
    iteration order and therefore is not stable across interpreter runs.
    Frozensets and tuples are keyed recursively by their sorted element
    keys; everything else by ``(type qualname, repr)``, which keeps the
    order total (the type tag differs before the payloads are compared).

    Keys of nested labels are memoized for the life of the process.  The
    memo's domain is labels of exact type ``frozenset`` or ``tuple`` whose
    elements are exact ``str`` or are themselves in the memo, i.e. labels
    built from ``str`` alone.  Everything else (bare strings, numbers,
    bools, subclasses, containers holding any of these) is keyed afresh on
    every call: ``1 == True == 1.0`` but their keys differ, so
    ``frozenset({1})`` and ``frozenset({True})`` must never share an entry.
    The memo is exact under one precondition: no ``str`` subclass (nor any
    other object comparing equal to a ``str``) is used as a label, since a
    lookup would find the plain-``str`` twin's key.  It is cleared
    wholesale when it holds :data:`SORT_KEY_MEMO_CAP` entries.
    """
    kind = type(label)
    memoizable = kind is frozenset or kind is tuple
    if memoizable:
        key = _sort_keys.get(label)
        if key is not None:
            return key
    if isinstance(label, frozenset):
        key = (
            "frozenset",
            tuple(sorted(label_sort_key(element) for element in label)),
        )
    elif isinstance(label, tuple):
        key = ("tuple", tuple(label_sort_key(element) for element in label))
    else:
        return (kind.__qualname__, repr(label))
    if memoizable and all(map(_str_built, label)):
        if len(_sort_keys) >= SORT_KEY_MEMO_CAP:
            _sort_keys.clear()
        _sort_keys[label] = key
    return key


def _str_built(element: Any) -> bool:
    """Is ``element`` an exact ``str`` or a label already in the memo?"""
    kind = type(element)
    if kind is str:
        return True
    return (kind is frozenset or kind is tuple) and element in _sort_keys


class Multiset:
    """An immutable multiset of hashable elements.

    >>> Multiset(["A", "B", "A"]) == Multiset(["B", "A", "A"])
    True
    >>> len(Multiset(["A", "B", "A"]))
    3
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, items: Iterable[Any] = ()):
        self._items: tuple[Any, ...] = tuple(sorted(items, key=label_sort_key))
        self._hash = hash(self._items)

    @classmethod
    def _from_sorted(cls, items: tuple) -> "Multiset":
        """Internal fast path: trust ``items`` to already be canonical.

        The caller must guarantee ``tuple(sorted(items, key=label_sort_key))
        == tuple(items)`` — :mod:`repro.roundelim.bitset` does, by ordering
        its label universe once and emitting configurations through that
        precomputed order.  Skipping the per-element key computation here is
        what lets the compiled kernels avoid re-deriving deep recursive sort
        keys for every allowed configuration they emit.
        """
        multiset = object.__new__(cls)
        multiset._items = tuple(items)
        multiset._hash = hash(multiset._items)
        return multiset

    def __reduce__(self) -> tuple:
        # Rebuild from the items: the cached hash depends on the process's
        # string hash seed, so it must not travel with a pickle.
        return (type(self), (self._items,))

    @property
    def items(self) -> tuple[Any, ...]:
        """The elements in canonical (sorted) order, with multiplicity."""
        return self._items

    def counter(self) -> Counter:
        """Element multiplicities as a :class:`collections.Counter`."""
        return Counter(self._items)

    def support(self) -> frozenset:
        """The set of distinct elements."""
        return frozenset(self._items)

    def count(self, element: Any) -> int:
        """Multiplicity of ``element``."""
        return self._items.count(element)

    def add(self, element: Any) -> "Multiset":
        """A new multiset with ``element`` added once."""
        return Multiset(self._items + (element,))

    def remove_one(self, element: Any) -> "Multiset":
        """A new multiset with one occurrence of ``element`` removed.

        Raises ``ValueError`` if the element is absent.
        """
        items = list(self._items)
        items.remove(element)  # raises ValueError if missing
        return Multiset(items)

    def map(self, fn) -> "Multiset":
        """A new multiset with ``fn`` applied to every element."""
        return Multiset(fn(x) for x in self._items)

    def __contains__(self, element: Any) -> bool:
        return element in self._items

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._items == other._items

    def __le__(self, other: "Multiset") -> bool:
        """Multiset inclusion."""
        if not isinstance(other, Multiset):
            return NotImplemented
        mine, theirs = self.counter(), other.counter()
        return all(theirs[x] >= k for x, k in mine.items())

    def __repr__(self) -> str:
        inner = ", ".join(repr(x) for x in self._items)
        return f"Multiset([{inner}])"
