"""Binary prefix trie for longest-prefix matching.

This is the lookup structure behind AS attribution: every captured source
address is mapped to the most specific announced prefix, whose origin AS then
identifies the operator (cloud provider or background ISP).  A per-family
bitwise trie gives O(prefix length) lookups independent of table size.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from .addresses import IPAddress, Prefix, V4_BITS, V6_BITS

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self):
        self.children: List[Optional["_Node[V]"]] = [None, None]
        self.value: Optional[V] = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """Longest-prefix-match table mapping :class:`Prefix` to arbitrary values.

    Both address families share one public interface; internally each family
    has its own root so bit positions never collide.
    """

    def __init__(self):
        self._roots: Dict[int, _Node[V]] = {4: _Node(), 6: _Node()}

    @staticmethod
    def _bits_for(family: int) -> int:
        return V4_BITS if family == 4 else V6_BITS

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value at ``prefix``."""
        node = self._roots[prefix.family]
        bits = self._bits_for(prefix.family)
        for depth in range(prefix.length):
            bit = (prefix.value >> (bits - 1 - depth)) & 1
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        node.value = value
        node.has_value = True

    def _longest_match(self, address: IPAddress) -> Optional[Tuple[int, V]]:
        """``(length, value)`` of the longest stored prefix holding
        ``address``, or None."""
        node = self._roots[address.family]
        bits = V4_BITS if address.family == 4 else V6_BITS
        value = address.value
        best: Optional[Tuple[int, V]] = (0, node.value) if node.has_value else None
        for depth in range(bits):
            node = node.children[(value >> (bits - 1 - depth)) & 1]
            if node is None:
                break
            if node.has_value:
                best = (depth + 1, node.value)
        return best

    def lookup(self, address: IPAddress) -> Optional[Tuple[Prefix, V]]:
        """Longest-prefix match; returns ``(matched_prefix, value)`` or None."""
        best = self._longest_match(address)
        if best is None:
            return None
        length, value = best
        shift = self._bits_for(address.family) - length
        network = (address.value >> shift) << shift if shift else address.value
        return Prefix(address.family, network, length), value

    def lookup_value(self, address: IPAddress) -> Optional[V]:
        """Longest-prefix match returning just the stored value (no
        :class:`Prefix` is built)."""
        best = self._longest_match(address)
        return None if best is None else best[1]

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Iterate all (prefix, value) pairs in trie order."""
        for family, root in self._roots.items():
            bits = self._bits_for(family)
            stack: List[Tuple[_Node[V], int, int]] = [(root, 0, 0)]
            while stack:
                node, value_bits, depth = stack.pop()
                if node.has_value:
                    network = value_bits << (bits - depth) if depth < bits else value_bits
                    yield Prefix(family, network, depth), node.value
                for bit in (1, 0):
                    child = node.children[bit]
                    if child is not None:
                        stack.append((child, (value_bits << 1) | bit, depth + 1))
