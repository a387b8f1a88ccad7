"""A path-compressed binary radix trie over structured prefixes.

This is the routing-table-scale index behind the prefix dimension: the
one-node-per-bit trie the data plane started with burns 32 node hops (and
32 allocated nodes) per /32 entry, which at 10k-prefix populations is the
difference between a FIB that fits in cache and one that does not.
:class:`RadixTrie` stores one node per *branching point* instead — the
classic PATRICIA layout — so a lookup touches O(distinct branch points)
nodes and an entry costs O(1) nodes amortized.

Three operations, one structure:

* **LPM** — :meth:`RadixTrie.lookup` resolves an address to its
  most-specific entry (:class:`~repro.dataplane.fib.MultiPrefixFib`, the
  general LPM table that the hop-by-hop ``walk_lpm`` oracle reads).
* **Specifics enumeration** — :meth:`RadixTrie.covered` yields every entry
  inside a covering prefix by subtree walk.
* **Exact-match bookkeeping** — :meth:`insert` / :meth:`remove` /
  :meth:`get` with dict-like semantics.

Determinism: iteration (:meth:`entries`, :meth:`covered`) is pre-order
left-before-right, which equals ``(value, length)`` ascending — a pure
function of the entry set, independent of insertion order.

Interior nodes are retained after :meth:`remove` (the entry just clears):
aggregation cycles re-insert the same specifics repeatedly, so keeping the
skeleton trades a bounded sliver of memory for churn-free updates — the
same policy the original bit-at-a-time trie used.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from . import ADDRESS_BITS, PrefixSpec

_TOP_BIT = 1 << (ADDRESS_BITS - 1)


class _RadixNode:
    """One branching point: the common prefix ``(value, length)`` of every
    entry beneath it.  ``payload`` is only meaningful while ``has_entry``."""

    __slots__ = ("value", "length", "children", "has_entry", "spec", "payload")

    def __init__(self, value: int, length: int) -> None:
        self.value = value
        self.length = length
        self.children: List[Optional["_RadixNode"]] = [None, None]
        self.has_entry = False
        # The exact PrefixSpec object given to insert(), kept so queries
        # return it without re-validating a fresh instance per hit.
        self.spec: Optional[PrefixSpec] = None
        self.payload: object = None


def _bit(value: int, position: int) -> int:
    """Bit ``position`` of a 32-bit value, MSB first (position 0 = top)."""
    return (value >> (ADDRESS_BITS - 1 - position)) & 1


def _truncate(value: int, length: int) -> int:
    """``value`` with everything below the top ``length`` bits cleared."""
    if length <= 0:
        return 0
    return value & (((1 << length) - 1) << (ADDRESS_BITS - length))


def _common_prefix_length(a: int, b: int, limit: int) -> int:
    """Length of the longest shared leading bit-run of ``a``/``b`` (≤ limit)."""
    diff = a ^ b
    if diff == 0:
        return limit
    return min(limit, ADDRESS_BITS - diff.bit_length())


class RadixTrie:
    """Structured prefixes → payloads, with LPM and subtree enumeration.

    The key type is :class:`~repro.prefixes.PrefixSpec`; payloads are
    arbitrary.  Re-inserting a key replaces its payload.
    """

    __slots__ = ("_root", "_size")

    def __init__(self) -> None:
        self._root = _RadixNode(0, 0)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, spec: PrefixSpec) -> bool:
        node = self._find(spec)
        return node is not None and node.has_entry

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, spec: PrefixSpec, payload: object) -> None:
        """Store ``payload`` under ``spec`` (replacing any previous value)."""
        node = self._root
        while True:
            if node.length == spec.length and node.value == spec.value:
                if not node.has_entry:
                    node.has_entry = True
                    self._size += 1
                node.spec = spec
                node.payload = payload
                return
            # Invariant: node's key is a proper prefix of spec's.
            side = _bit(spec.value, node.length)
            child = node.children[side]
            if child is None:
                leaf = _RadixNode(spec.value, spec.length)
                leaf.has_entry = True
                leaf.spec = spec
                leaf.payload = payload
                node.children[side] = leaf
                self._size += 1
                return
            shared = _common_prefix_length(
                child.value, spec.value, min(child.length, spec.length)
            )
            if shared == child.length:
                node = child  # child's key prefixes spec: descend
                continue
            # Diverge inside the compressed edge: split at the shared run.
            mid = _RadixNode(_truncate(spec.value, shared), shared)
            mid.children[_bit(child.value, shared)] = child
            node.children[side] = mid
            if shared == spec.length:
                mid.has_entry = True
                mid.spec = spec
                mid.payload = payload
            else:
                leaf = _RadixNode(spec.value, spec.length)
                leaf.has_entry = True
                leaf.spec = spec
                leaf.payload = payload
                mid.children[_bit(spec.value, shared)] = leaf
            self._size += 1
            return

    def remove(self, spec: PrefixSpec) -> bool:
        """Drop the entry for ``spec``; True when one existed."""
        node = self._find(spec)
        if node is None or not node.has_entry:
            return False
        node.has_entry = False
        node.spec = None
        node.payload = None
        self._size -= 1
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _find(self, spec: PrefixSpec) -> Optional[_RadixNode]:
        """The node holding exactly ``spec``'s key, or ``None``."""
        node = self._root
        while node.length < spec.length:
            child = node.children[_bit(spec.value, node.length)]
            if child is None or child.length > spec.length:
                return None
            if _truncate(spec.value, child.length) != child.value:
                return None
            node = child
        if node.length == spec.length and node.value == spec.value:
            return node
        return None

    def get(self, spec: PrefixSpec) -> Optional[object]:
        """The payload stored under exactly ``spec``, or ``None``."""
        node = self._find(spec)
        if node is None or not node.has_entry:
            return None
        return node.payload

    def lookup(self, address: int) -> Optional[Tuple[PrefixSpec, object]]:
        """Longest-prefix match: the most-specific entry containing
        ``address``, as ``(spec, payload)``, or ``None``."""
        best: Optional[_RadixNode] = None
        node: Optional[_RadixNode] = self._root
        while node is not None:
            if node.length and _truncate(address, node.length) != node.value:
                break
            if node.has_entry:
                best = node
            if node.length >= ADDRESS_BITS:
                break
            node = node.children[_bit(address, node.length)]
        if best is None:
            return None
        return (best.spec, best.payload)

    def covered(self, cover: PrefixSpec) -> List[Tuple[PrefixSpec, object]]:
        """Every entry equal to or more specific than ``cover``.

        This is specifics enumeration, by subtree walk.  Ordered
        ``(value, length)`` ascending, like :meth:`entries`.
        """
        node = self._root
        while node.length < cover.length:
            child = node.children[_bit(cover.value, node.length)]
            if child is None:
                return []
            if child.length >= cover.length:
                # The subtree at child either sits inside cover or misses it.
                if _truncate(child.value, cover.length) != cover.value:
                    return []
                node = child
                break
            if _truncate(cover.value, child.length) != child.value:
                return []
            node = child
        return list(self._walk(node))

    def entries(self) -> List[Tuple[PrefixSpec, object]]:
        """All live entries, ``(value, length)`` ascending — deterministic."""
        return list(self._walk(self._root))

    def _walk(self, node: _RadixNode) -> Iterator[Tuple[PrefixSpec, object]]:
        # Pre-order, left before right: ascending (value, length) because a
        # parent's value lower-bounds its subtree and bit-0 children sort
        # below bit-1 children.
        stack = [node]
        while stack:
            current = stack.pop()
            if current.has_entry:
                yield (current.spec, current.payload)
            right = current.children[1]
            if right is not None:
                stack.append(right)
            left = current.children[0]
            if left is not None:
                stack.append(left)
