"""Domain name representation and algebra.

DNS names are sequences of labels (RFC 1034/1035).  This module implements an
immutable :class:`Name` type with the operations the rest of the library needs:

* parsing from and rendering to presentation format (``"www.example.nl."``),
* wire-format encoding/decoding, including message compression pointers,
* case-insensitive equality and hashing (RFC 1035 section 2.3.3),
* relationship predicates (``is_subdomain_of``, ``zone cut`` helpers),
* label arithmetic used by QNAME minimisation (``ancestor_with_labels``,
  ``parent``, ``relativize``).

A name's structure is plain slot attributes, each set once when the name is
built: ``labels`` (the byte-strings in their original case), ``label_count``,
``key`` (the casefolded labels) and ``canonical`` (``key`` reversed, the RFC
4034 order).  Reading one is an attribute load, not a call.  All comparisons
go through ``key``, so ``WWW.Example.NL`` and ``www.example.nl`` compare equal
but round-trip their original spelling; a table that only needs
case-insensitive identity can key by ``name.key`` itself, and then hashing
and equality run on a tuple of bytes, in C.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255

_ESCAPED = {ord("."), ord("\\")}

#: The octets presentation format spells as themselves: printable ASCII
#: other than the two that need a backslash.
_PLAIN = bytes(b for b in range(0x21, 0x7F) if b not in _ESCAPED)


class NameError_(ValueError):
    """Raised for malformed domain names (presentation or wire format)."""


def _escaped_label(label: bytes) -> str:
    """One label in presentation format, octet by octet: ``\\.`` and
    ``\\\\`` for the two specials, ``\\DDD`` for anything unprintable."""
    out = []
    for b in label:
        if b in _ESCAPED:
            out.append("\\" + chr(b))
        elif 0x21 <= b <= 0x7E:
            out.append(chr(b))
        else:
            out.append(f"\\{b:03d}")
    return "".join(out)


def _casefold_label(label: bytes) -> bytes:
    """Casefold a single label for comparison (ASCII-only, per RFC 1035)."""
    return label.lower()


class Name:
    """An immutable, fully-qualified DNS domain name.

    The root name is the empty tuple of labels and renders as ``"."``.

    ``labels``, ``label_count``, ``key`` and ``canonical`` are slots set at
    construction (in ``__init__``, or in ``_derived`` for names pieced
    together from validated ones) and never change; there is no property
    and no lazily computed key.  Only the renderings (``to_text``, the
    uncompressed ``to_wire``) and the parent are filled in on first use.

    Parameters
    ----------
    labels:
        Iterable of label byte-strings, *most specific first* and **without**
        the terminating empty root label (it is implicit).
    """

    __slots__ = (
        "labels", "label_count", "key", "canonical",
        "_hash", "_wire", "_text", "_parent",
    )

    #: The labels, most specific first, without the root label.
    labels: Tuple[bytes, ...]
    #: Number of non-root labels (the root name has 0).
    label_count: int
    #: The casefolded labels, most specific first: what equality, hashing
    #: and every table keyed by a name compare (RFC 1035 section 2.3.3).
    key: Tuple[bytes, ...]
    #: The canonical key (RFC 4034 section 6.1): ``key`` reversed, from the
    #: rightmost (least significant) label.  ``canonical[n]`` is the label
    #: directly below an ``n``-label ancestor.
    canonical: Tuple[bytes, ...]
    _hash: int
    _wire: Optional[bytes]
    _text: Optional[str]
    _parent: Optional["Name"]

    def __init__(self, labels: Iterable[bytes] = ()):
        labels = tuple(bytes(label) for label in labels)
        for label in labels:
            if not label:
                raise NameError_("empty label in name")
            if len(label) > MAX_LABEL_LENGTH:
                raise NameError_(
                    f"label exceeds {MAX_LABEL_LENGTH} octets: {label!r}"
                )
        # Wire length: one length octet per label plus label bytes, plus the
        # terminating root length octet.
        wire_len = sum(len(label) + 1 for label in labels) + 1
        if wire_len > MAX_NAME_LENGTH:
            raise NameError_(f"name exceeds {MAX_NAME_LENGTH} octets")
        key = tuple(_casefold_label(label) for label in labels)
        self.labels = labels
        self.label_count = len(labels)
        self.key = key
        self.canonical = key[::-1]
        self._hash = hash(key)
        self._wire = None
        self._text = None
        self._parent = None

    @classmethod
    def _derived(cls, labels: Tuple[bytes, ...], key: Tuple[bytes, ...]) -> "Name":
        """A name whose labels are already known to be valid — pieced
        together from validated names (``parent``/``prepend``) or bounded
        octet by octet while decoding (``from_wire``): nothing is checked
        or casefolded again."""
        name = object.__new__(cls)
        name.labels = labels
        name.label_count = len(labels)
        name.key = key
        name.canonical = key[::-1]
        name._hash = hash(key)
        name._wire = None
        name._text = None
        name._parent = None
        return name

    # -- construction ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse a name from presentation format.

        Both absolute (``"example.nl."``) and relative-looking
        (``"example.nl"``) spellings are accepted and treated as fully
        qualified, matching how the analysis pipeline normalises query names.
        Escapes of the form ``\\.`` and ``\\\\`` are honoured.
        """
        if text in (".", ""):
            return ROOT
        labels = []
        current = bytearray()
        it = iter(text)
        for ch in it:
            if ch == "\\":
                try:
                    nxt = next(it)
                except StopIteration:
                    raise NameError_("dangling escape at end of name") from None
                current.extend(nxt.encode("ascii", "strict"))
            elif ch == ".":
                if not current:
                    raise NameError_(f"empty label in {text!r}")
                labels.append(bytes(current))
                current = bytearray()
            else:
                current.extend(ch.encode("idna") if ord(ch) > 127 else ch.encode())
        if current:
            labels.append(bytes(current))
        return cls(labels)

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        """Render in absolute presentation format (trailing dot).

        Pure function of the immutable labels, so the rendering is computed
        once and interned on the instance.
        """
        text = self._text
        if text is not None:
            return text
        labels = self.labels
        if not labels:
            return "."
        if b"".join(labels).translate(None, _PLAIN):
            text = ".".join(map(_escaped_label, labels)) + "."
        else:
            # Every octet stands for itself: the labels are the text.
            text = b".".join(labels).decode("ascii") + "."
        self._text = text
        return text

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Name({self.to_text()!r})"

    # -- equality / ordering -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        # ``__class__`` first: no call on the common path.
        if other.__class__ is Name or isinstance(other, Name):
            return self.key == other.key
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def canonical_key(self) -> Tuple[bytes, ...]:
        """Sort key for canonical DNS ordering (RFC 4034 section 6.1): the
        :attr:`canonical` attribute.

        ``sorted(names, key=Name.canonical_key)`` orders like
        ``sorted(names)`` without a Python-level comparison per pair.
        """
        return self.canonical

    def __lt__(self, other: "Name") -> bool:
        """Canonical DNS ordering (RFC 4034 section 6.1): compare from the
        rightmost (least significant) label."""
        if not isinstance(other, Name):
            return NotImplemented
        return self.canonical < other.canonical

    # -- structure ---------------------------------------------------------

    def is_root(self) -> bool:
        return not self.label_count

    def parent(self) -> "Name":
        """The name with the leftmost label removed.

        Raises :class:`NameError_` on the root name.  Memoised per
        instance — QNAME minimisation walks parent chains on every send,
        and names are immutable.
        """
        parent = self._parent
        if parent is not None:
            return parent
        if not self.label_count:
            raise NameError_("the root name has no parent")
        parent = self._parent = Name._derived(self.labels[1:], self.key[1:])
        return parent

    def ancestors(self) -> Iterator["Name"]:
        """Yield every proper ancestor, nearest first, ending with the root."""
        name = self
        while name.label_count:
            name = name._parent or name.parent()
            yield name

    def ancestor_with_labels(self, count: int) -> "Name":
        """Return the ancestor (or self) having exactly ``count`` labels.

        This is the primitive QNAME minimisation needs: a minimising resolver
        asks for ``qname.ancestor_with_labels(len(zone) + 1)`` at each step
        (RFC 7816, "one label more than the zone").
        """
        if count < 0 or count > self.label_count:
            raise NameError_(
                f"{self.to_text()} has no ancestor with {count} labels"
            )
        # Walk the (memoised) parent chain instead of slicing into a fresh
        # Name: repeated minimisation over the same names reuses instances.
        name = self
        while name.label_count > count:
            name = name._parent or name.parent()
        return name

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if ``self`` equals or falls under ``other``."""
        n = other.label_count
        if n == 0:
            return True
        if n > self.label_count:
            return False
        return self.canonical[:n] == other.canonical

    def is_proper_subdomain_of(self, other: "Name") -> bool:
        return self != other and self.is_subdomain_of(other)

    def relativize(self, origin: "Name") -> Tuple[bytes, ...]:
        """Labels of ``self`` below ``origin`` (most specific first).

        Raises :class:`NameError_` if ``self`` is not a subdomain of
        ``origin``.
        """
        if not self.is_subdomain_of(origin):
            raise NameError_(
                f"{self.to_text()} is not a subdomain of {origin.to_text()}"
            )
        return self.labels[: self.label_count - origin.label_count]

    def prepend(self, *labels: bytes) -> "Name":
        """Return a new name with ``labels`` prepended (most specific first).

        Only the new labels and the total length are validated; this
        name's own labels, casefolded key included, are reused as they are.
        """
        prefix = Name(labels)
        wire_len = (
            sum(map(len, prefix.labels)) + prefix.label_count + len(self.to_wire())
        )
        if wire_len > MAX_NAME_LENGTH:
            raise NameError_(f"name exceeds {MAX_NAME_LENGTH} octets")
        return Name._derived(prefix.labels + self.labels, prefix.key + self.key)

    def prepend_text(self, text: str) -> "Name":
        """Prepend dotted textual labels, e.g. ``name.prepend_text("www")``."""
        prefix = Name.from_text(text) if text not in (".", "") else ROOT
        return Name(prefix.labels + self.labels)

    # -- wire format --------------------------------------------------------

    def to_wire(self, compress: Optional[dict] = None, offset: int = 0) -> bytes:
        """Encode to wire format.

        Parameters
        ----------
        compress:
            Optional mutable mapping of casefolded label-suffix tuples to
            wire offsets.  When provided, compression pointers (RFC 1035
            section 4.1.4) are emitted for suffixes already in the map and
            new suffixes are registered at their offsets.
        offset:
            Wire offset at which this name will be placed; only used to
            register compression targets.

        Compression-free encodings are position-independent and depend only
        on the (immutable) labels, so they are computed once per name and
        interned on the instance.
        """
        if compress is None:
            wire = self._wire
            if wire is None:
                plain = bytearray()
                for label in self.labels:
                    plain.append(len(label))
                    plain.extend(label)
                plain.append(0)
                wire = self._wire = bytes(plain)
            return wire
        out = bytearray()
        labels = self.labels
        key = self.key
        for i in range(len(labels)):
            suffix = key[i:]
            if compress is not None and suffix in compress:
                pointer = compress[suffix]
                out.append(0xC0 | (pointer >> 8))
                out.append(pointer & 0xFF)
                return bytes(out)
            if compress is not None:
                position = offset + len(out)
                # Pointers only address the first 16KiB - 2 bits of a message.
                if position < 0x4000:
                    compress[suffix] = position
            label = labels[i]
            out.append(len(label))
            out.extend(label)
        out.append(0)
        return bytes(out)

    @classmethod
    def from_wire(cls, wire: bytes, offset: int) -> Tuple["Name", int]:
        """Decode a name starting at ``offset``.

        Returns ``(name, next_offset)`` where ``next_offset`` is the offset
        immediately after the name *in the original stream* (compression
        pointers do not advance the caller past the pointer itself).
        """
        labels = []
        seen_offsets = set()
        cursor = offset
        after = None  # set when we chase the first pointer
        total = 0
        size = len(wire)
        while True:
            if cursor >= size:
                raise NameError_("truncated name")
            length = wire[cursor]
            if length & 0xC0 == 0xC0:
                if cursor + 1 >= size:
                    raise NameError_("truncated compression pointer")
                pointer = ((length & 0x3F) << 8) | wire[cursor + 1]
                if after is None:
                    after = cursor + 2
                # Every legitimate encoder (including :meth:`to_wire`) only
                # ever points at earlier message octets; a forward or self
                # pointer is either garbage or a crafted decompression bomb,
                # so reject it before chasing.  Strictly-backward targets
                # also guarantee termination on untrusted input.
                if pointer >= cursor:
                    raise NameError_(
                        f"forward compression pointer ({pointer} >= {cursor})"
                    )
                if pointer in seen_offsets:
                    raise NameError_("compression pointer loop")
                seen_offsets.add(pointer)
                cursor = pointer
                continue
            if length & 0xC0:
                raise NameError_(f"unsupported label type {length:#04x}")
            cursor += 1
            if length == 0:
                break
            if cursor + length > size:
                raise NameError_("label runs past end of message")
            labels.append(bytes(wire[cursor : cursor + length]))
            total += length + 1
            if total + 1 > MAX_NAME_LENGTH:
                raise NameError_("decoded name exceeds maximum length")
            cursor += length
        if after is None:
            after = cursor
        # Each label was bounded by its length octet (1..63, the two top
        # bits being clear) and the running total by MAX_NAME_LENGTH above,
        # which is all ``Name.__init__`` would check again.
        return cls._derived(tuple(labels), tuple(map(bytes.lower, labels))), after


#: The DNS root name (zero labels).
ROOT = Name()
