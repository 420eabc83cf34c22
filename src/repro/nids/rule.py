"""Rule AST: the parsed form of a Snort signature.

The AST keeps detection options (:class:`ContentMatch`, :class:`PcreMatch`)
in source order because Snort's relative modifiers (``distance``/``within``)
chain each match to the previous one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union


class HttpBuffer(enum.Enum):
    """Which reassembled buffer a content/pcre option inspects."""

    RAW = "raw"
    HTTP_URI = "http_uri"
    HTTP_HEADER = "http_header"
    HTTP_COOKIE = "http_cookie"
    HTTP_CLIENT_BODY = "http_client_body"
    HTTP_METHOD = "http_method"


@dataclass(frozen=True)
class ContentMatch:
    """A ``content`` option with its modifiers."""

    pattern: bytes
    nocase: bool = False
    buffer: HttpBuffer = HttpBuffer.RAW
    negated: bool = False
    offset: Optional[int] = None
    depth: Optional[int] = None
    distance: Optional[int] = None
    within: Optional[int] = None
    fast_pattern: bool = False

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("empty content pattern")
        if self.depth is not None and self.depth < len(self.pattern):
            raise ValueError("depth shorter than pattern")

    @property
    def is_relative(self) -> bool:
        """Whether the match anchors to the previous option's end."""
        return self.distance is not None or self.within is not None


@dataclass(frozen=True)
class PcreMatch:
    """A ``pcre`` option (Python ``re`` subset of PCRE)."""

    pattern: str
    flags: int = 0
    buffer: HttpBuffer = HttpBuffer.RAW
    negated: bool = False


class PortSpec:
    """A Snort port constraint: ``any``, ``80``, ``!80``, ``[80,8080]``,
    ``8000:8100`` or combinations inside brackets.

    A parsed spec keeps the text it was read from, which :attr:`text`
    writes back (so ``[80, 8080]`` keeps its space); a spec built directly
    renders in canonical form.  Equality and hashing ignore the text."""

    def __init__(
        self,
        *,
        any_port: bool = False,
        ports: Tuple[int, ...] = (),
        ranges: Tuple[Tuple[int, int], ...] = (),
        negated: bool = False,
        text: Optional[str] = None,
    ) -> None:
        self.any_port = any_port
        self.ports = frozenset(ports)
        self.ranges = tuple(ranges)
        self.negated = negated
        self._text = text

    @classmethod
    def parse(cls, text: str) -> "PortSpec":
        """Parse a port specification.

        >>> PortSpec.parse("any").matches(1234)
        True
        >>> PortSpec.parse("[80,8080]").matches(8080)
        True
        >>> PortSpec.parse("!80").matches(80)
        False
        >>> PortSpec.parse("8000:8100").matches(8050)
        True
        """
        source = text = text.strip()
        negated = text.startswith("!")
        if negated:
            text = text[1:].strip()
        if text.lower() == "any":
            if negated:
                raise ValueError("!any is not a valid port spec")
            return cls(any_port=True, text=source)
        if text.startswith("[") and text.endswith("]"):
            text = text[1:-1]
        ports = []
        ranges = []
        for piece in text.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if ":" in piece:
                low_text, _, high_text = piece.partition(":")
                low = int(low_text) if low_text else 0
                high = int(high_text) if high_text else 65535
                if low > high:
                    raise ValueError(f"inverted port range: {piece!r}")
                ranges.append((low, high))
            else:
                ports.append(int(piece))
        if not ports and not ranges:
            raise ValueError(f"empty port spec: {text!r}")
        return cls(
            ports=tuple(ports), ranges=tuple(ranges), negated=negated, text=source
        )

    @property
    def text(self) -> str:
        """The spec as rule text: as parsed, else canonical."""
        if self._text is not None:
            return self._text
        if self.any_port:
            return "any"
        parts = [str(port) for port in sorted(self.ports)]
        parts += [f"{low}:{high}" for low, high in self.ranges]
        body = parts[0] if len(parts) == 1 else "[" + ",".join(parts) + "]"
        return ("!" if self.negated else "") + body

    def matches(self, port: int) -> bool:
        if self.any_port:
            return True
        inside = port in self.ports or any(
            low <= port <= high for low, high in self.ranges
        )
        return not inside if self.negated else inside

    def _key(self) -> Tuple[bool, frozenset, Tuple[Tuple[int, int], ...], bool]:
        return (self.any_port, self.ports, tuple(sorted(self.ranges)), self.negated)

    def __eq__(self, other: object) -> bool:
        """Structural equality (same accepted port set as written), so a
        rendered rule's :class:`Rule` compares equal after a parse
        round-trip."""
        if not isinstance(other, PortSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.any_port:
            return "PortSpec(any)"
        prefix = "!" if self.negated else ""
        parts = sorted(self.ports) + [f"{lo}:{hi}" for lo, hi in self.ranges]
        return f"PortSpec({prefix}{parts})"


ANY_PORT = PortSpec(any_port=True)


@dataclass(frozen=True)
class SizeBound:
    """A numeric size constraint: ``urilen`` (URI length) or ``dsize``
    (payload size).  Supports exact, ``<N``, ``>N`` and ``N<>M`` ranges."""

    kind: str  # "urilen" | "dsize"
    low: Optional[int] = None
    high: Optional[int] = None
    exact: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("urilen", "dsize"):
            raise ValueError(f"unknown size option {self.kind!r}")
        if self.exact is None and self.low is None and self.high is None:
            raise ValueError("size bound needs a constraint")

    @classmethod
    def parse(cls, kind: str, text: str) -> "SizeBound":
        """Parse Snort size syntax.

        >>> SizeBound.parse("dsize", ">100").matches(150)
        True
        >>> SizeBound.parse("urilen", "10<>20").matches(15)
        True
        """
        text = text.strip()
        if "<>" in text:
            low_text, _, high_text = text.partition("<>")
            return cls(kind=kind, low=int(low_text), high=int(high_text))
        if text.startswith("<"):
            return cls(kind=kind, high=int(text[1:]))
        if text.startswith(">"):
            return cls(kind=kind, low=int(text[1:]))
        return cls(kind=kind, exact=int(text))

    def matches(self, size: int) -> bool:
        if self.exact is not None:
            return size == self.exact
        if self.low is not None and size <= self.low:
            return False
        if self.high is not None and size >= self.high:
            return False
        return True


@dataclass(frozen=True)
class IsDataAt:
    """``isdataat``: require (or forbid, negated) payload data at an
    offset, optionally relative to the previous match."""

    offset: int
    relative: bool = False
    negated: bool = False

    @classmethod
    def parse(cls, text: str) -> "IsDataAt":
        text = text.strip()
        negated = text.startswith("!")
        if negated:
            text = text[1:]
        parts = [part.strip() for part in text.split(",")]
        return cls(
            offset=int(parts[0]),
            relative="relative" in parts[1:],
            negated=negated,
        )


DetectionOption = Union[ContentMatch, PcreMatch, SizeBound, IsDataAt]


@dataclass(frozen=True)
class Rule:
    """A parsed Snort rule."""

    action: str
    protocol: str
    src: str
    src_ports: PortSpec
    dst: str
    dst_ports: PortSpec
    msg: str
    sid: int
    rev: int = 1
    options: Tuple[DetectionOption, ...] = ()
    references: Tuple[Tuple[str, str], ...] = ()
    metadata: Dict[str, str] = field(default_factory=dict)
    flow_to_server: bool = False

    def __post_init__(self) -> None:
        if self.sid <= 0:
            raise ValueError(f"invalid sid: {self.sid}")

    @property
    def cve_ids(self) -> Tuple[str, ...]:
        """CVE identifiers from ``reference:cve,...`` options."""
        return tuple(
            f"CVE-{value}" if not value.upper().startswith("CVE-") else value.upper()
            for scheme, value in self.references
            if scheme.lower() == "cve"
        )

    def port_insensitive(self) -> "Rule":
        """The study's rewrite: drop all port constraints (Section 3.1).
        Not ``dataclasses.replace``, which re-reads the fields per call."""
        return Rule(
            action=self.action, protocol=self.protocol, src=self.src,
            src_ports=ANY_PORT, dst=self.dst, dst_ports=ANY_PORT,
            msg=self.msg, sid=self.sid, rev=self.rev, options=self.options,
            references=self.references, metadata=self.metadata,
            flow_to_server=self.flow_to_server,
        )

    @property
    def fast_pattern(self) -> Optional[ContentMatch]:
        """The content used for prefiltering: the explicit ``fast_pattern``
        option if present, else the longest positive content."""
        explicit = [
            option
            for option in self.options
            if isinstance(option, ContentMatch) and option.fast_pattern
        ]
        if explicit:
            return explicit[0]
        candidates = [
            option
            for option in self.options
            if isinstance(option, ContentMatch) and not option.negated
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda option: len(option.pattern))
