"""IP address and prefix arithmetic, implemented from scratch on integers.

The analysis pipeline attributes every captured query to an origin AS by
longest-prefix match on the source address, and splits traffic by address
family (the paper's Table 5/6).  We implement our own compact value types
rather than using :mod:`ipaddress` so that capture stores can hold millions
of addresses as plain integers and the prefix trie can work on (int, length)
pairs without object churn.
"""

from __future__ import annotations

from dataclasses import dataclass

V4_BITS = 32
V6_BITS = 128


class AddressError(ValueError):
    """Raised for malformed addresses or prefixes."""


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad IPv4 into its 32-bit integer value."""
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
            raise AddressError(f"bad IPv4 octet {part!r} in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"IPv4 octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Render a 32-bit integer as dotted-quad."""
    if not 0 <= value < 2**V4_BITS:
        raise AddressError("IPv4 value out of range")
    return f"{value >> 24 & 255}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"


def parse_ipv6(text: str) -> int:
    """Parse an RFC 4291 textual IPv6 address (with ``::`` support)."""
    if text.count("::") > 1:
        raise AddressError(f"multiple '::' in {text!r}")
    if "." in text:
        # Embedded IPv4 tail, e.g. ::ffff:192.0.2.1
        head, _, v4tail = text.rpartition(":")
        v4 = parse_ipv4(v4tail)
        text = f"{head}:{v4 >> 16:x}:{v4 & 0xFFFF:x}"
    if "::" in text:
        head_text, tail_text = text.split("::")
        if head_text.endswith(":") or tail_text.startswith(":"):
            raise AddressError(f"malformed '::' in {text!r}")
        head = [p for p in head_text.split(":") if p]
        tail = [p for p in tail_text.split(":") if p]
        missing = 8 - len(head) - len(tail)
        if missing < 1:
            raise AddressError(f"'::' expands to nothing in {text!r}")
        groups = head + ["0"] * missing + tail
    else:
        groups = text.split(":")
    if len(groups) != 8:
        raise AddressError(f"IPv6 address needs 8 groups: {text!r}")
    value = 0
    for group in groups:
        if not group or len(group) > 4:
            raise AddressError(f"bad IPv6 group {group!r} in {text!r}")
        value = (value << 16) | int(group, 16)
    return value


def format_ipv6(value: int) -> str:
    """Render a 128-bit integer per RFC 5952 (longest zero-run compressed)."""
    if not 0 <= value < 2**V6_BITS:
        raise AddressError("IPv6 value out of range")
    groups = [(value >> shift) & 0xFFFF for shift in range(112, -16, -16)]
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for i, g in enumerate(groups):
        if g == 0:
            if run_start < 0:
                run_start, run_len = i, 0
            run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_len < 2:
        return ":".join(f"{g:x}" for g in groups)
    head = ":".join(f"{g:x}" for g in groups[:best_start])
    tail = ":".join(f"{g:x}" for g in groups[best_start + best_len :])
    return f"{head}::{tail}"


@dataclass(frozen=True, order=True)
class IPAddress:
    """A single IP address: ``(family, value)``.

    ``family`` is 4 or 6; ``value`` is the address as an unsigned integer.
    Ordering sorts all IPv4 before IPv6 then by numeric value, giving stable
    deterministic iteration in reports.
    """

    family: int
    value: int

    def __post_init__(self):
        if self.family == 4:
            if not 0 <= self.value < 2**V4_BITS:
                raise AddressError("IPv4 value out of range")
        elif self.family == 6:
            if not 0 <= self.value < 2**V6_BITS:
                raise AddressError("IPv6 value out of range")
        else:
            raise AddressError(f"unknown address family {self.family}")

    @classmethod
    def parse(cls, text: str) -> "IPAddress":
        """Parse either family from its standard textual form."""
        if ":" in text:
            return cls(6, parse_ipv6(text))
        return cls(4, parse_ipv4(text))

    def to_text(self) -> str:
        return format_ipv4(self.value) if self.family == 4 else format_ipv6(self.value)

    def __str__(self) -> str:
        return self.to_text()

    @property
    def bits(self) -> int:
        return V4_BITS if self.family == 4 else V6_BITS


@dataclass(frozen=True)
class Prefix:
    """A CIDR prefix ``(family, network_value, length)``.

    The network value is stored already masked; constructing a prefix with
    host bits set raises :class:`AddressError` to surface config typos early.
    """

    family: int
    value: int
    length: int

    def __post_init__(self):
        bits = V4_BITS if self.family == 4 else V6_BITS
        if self.family not in (4, 6):
            raise AddressError(f"unknown address family {self.family}")
        if not 0 <= self.length <= bits:
            raise AddressError(f"prefix length {self.length} out of range")
        if self.value & ((1 << (bits - self.length)) - 1):
            raise AddressError("host bits set in prefix")
        if self.value >> bits:
            raise AddressError("prefix value out of range")

    @staticmethod
    def mask(bits: int, length: int) -> int:
        return ((1 << length) - 1) << (bits - length) if length else 0

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"203.0.113.0/24"`` or ``"2001:db8::/32"``."""
        addr_text, _, len_text = text.partition("/")
        if not len_text:
            raise AddressError(f"missing /length in {text!r}")
        address = IPAddress.parse(addr_text)
        return cls(address.family, address.value, int(len_text))

    @property
    def bits(self) -> int:
        return V4_BITS if self.family == 4 else V6_BITS

    def host(self, index: int) -> IPAddress:
        """The ``index``-th address inside the prefix (0 = network address)."""
        span = 1 << (self.bits - self.length)
        if not 0 <= index < span:
            raise AddressError(f"host index {index} outside /{self.length}")
        return IPAddress(self.family, self.value + index)

    def num_hosts(self) -> int:
        return 1 << (self.bits - self.length)

    def to_text(self) -> str:
        addr = format_ipv4(self.value) if self.family == 4 else format_ipv6(self.value)
        return f"{addr}/{self.length}"

    def __str__(self) -> str:
        return self.to_text()
