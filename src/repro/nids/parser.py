"""Snort rule-text parser and renderer.

Parses the classic single-line rule format::

    alert tcp $EXTERNAL_NET any -> $HOME_NET [80,8080] (msg:"..."; \
        flow:to_server,established; content:"${jndi:"; nocase; http_header; \
        pcre:"/\\x24\\x7bjndi/iH"; reference:cve,2021-44228; sid:58722; rev:3;)

Supported option vocabulary is the subset the study's synthetic ruleset
uses (see :mod:`repro.nids.rule`); unknown options are preserved in the
rule's metadata rather than rejected, mirroring how an engine skips
non-detection options it does not implement.

:func:`format_rule` is :func:`parse_rule`'s inverse and the one place that
writes rule text: the study and scaled rule generators build
:class:`~repro.nids.rule.Rule` ASTs, and their text is rendered from them.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import re
from typing import Dict, Iterable, List, Optional, Tuple

from repro.nids.matcher import _compiled as _compiled_pcre
from repro.nids.rule import (
    ContentMatch,
    DetectionOption,
    HttpBuffer,
    IsDataAt,
    PcreMatch,
    PortSpec,
    Rule,
    SizeBound,
)


class RuleParseError(ValueError):
    """Raised when rule text cannot be parsed."""


# An address or port field is either a bracketed list, possibly negated —
# which may contain spaces, e.g. ``![80, 8080]``, valid Snort — or a single
# bare token.
_HEADER_FIELD = r"(?:!?\[[^\]]*\]|\S+)"

_HEADER_RE = re.compile(
    r"^\s*(?P<action>\w+)\s+(?P<proto>\w+)"
    rf"\s+(?P<src>{_HEADER_FIELD})\s+(?P<sports>{_HEADER_FIELD})\s+"
    rf"(?P<dir>->|<>)\s+(?P<dst>{_HEADER_FIELD})\s+(?P<dports>{_HEADER_FIELD})"
    r"\s*\((?P<options>.*)\)\s*$",
    re.DOTALL,
)

#: pcre trailing-flag characters -> (re flag, buffer)
_PCRE_FLAGS = {
    "i": (re.IGNORECASE, None),
    "s": (re.DOTALL, None),
    "m": (re.MULTILINE, None),
    "U": (0, HttpBuffer.HTTP_URI),
    "H": (0, HttpBuffer.HTTP_HEADER),
    "C": (0, HttpBuffer.HTTP_COOKIE),
    "P": (0, HttpBuffer.HTTP_CLIENT_BODY),
    "M": (0, HttpBuffer.HTTP_METHOD),
}
#: Every ``re`` flag a pcre letter stands for.
_PCRE_RE_FLAGS = functools.reduce(
    operator.or_, (re_flag for re_flag, _ in _PCRE_FLAGS.values())
)

#: buffer modifier option (``http_uri`` ...) -> buffer; the enum's values
#: are the modifier names.
_BUFFERS = {
    buffer.value: buffer for buffer in HttpBuffer if buffer is not HttpBuffer.RAW
}


def _split_options(text: str) -> List[str]:
    """Split the option block on semicolons, respecting quoted strings."""
    options: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in text:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == ";" and not in_quotes:
            option = "".join(current).strip()
            if option:
                options.append(option)
            current = []
            continue
        current.append(char)
    tail = "".join(current).strip()
    if tail:
        options.append(tail)
    if in_quotes:
        raise RuleParseError("unterminated quoted string in options")
    return options


def _content_byte(char: str) -> int:
    """One content character as a byte (latin-1); raises on non-latin-1.

    Content patterns are byte strings: characters U+0000..U+00FF map to
    their latin-1 byte, anything beyond has no single-byte encoding and
    must be written as a ``|hex|`` run instead of crashing the parser with
    a bare ``bytearray`` range error.
    """
    code = ord(char)
    if code > 0xFF:
        raise RuleParseError(
            f"non-latin-1 character {char!r} in content pattern; "
            "encode it as a |hex| run (e.g. UTF-8 bytes)"
        )
    return code


def _decode_content(text: str) -> bytes:
    """Decode a quoted content pattern with Snort escapes and |hex| runs."""
    if not (text.startswith('"') and text.endswith('"') and len(text) >= 2):
        raise RuleParseError(f"content pattern must be quoted: {text!r}")
    body = text[1:-1]
    out = bytearray()
    index = 0
    while index < len(body):
        char = body[index]
        if char == "\\":
            if index + 1 >= len(body):
                raise RuleParseError("dangling escape in content")
            out.append(_content_byte(body[index + 1]))
            index += 2
        elif char == "|":
            end = body.find("|", index + 1)
            if end < 0:
                raise RuleParseError("unterminated hex run in content")
            hex_text = body[index + 1 : end].replace(" ", "")
            if len(hex_text) % 2:
                raise RuleParseError(f"odd-length hex run: {hex_text!r}")
            out.extend(bytes.fromhex(hex_text))
            index = end + 1
        else:
            out.append(_content_byte(char))
            index += 1
    return bytes(out)


#: A maximal run of bytes a content body cannot hold literally: anything
#: outside printable ASCII, plus the quote/semicolon/backslash/pipe specials.
_HEX_RUN = re.compile(rb"[^\x20\x21\x23-\x3a\x3c-\x5b\x5d-\x7b\x7d\x7e]+")


def _hex_run(match: "re.Match[bytes]") -> bytes:
    return b"|" + match.group().hex(" ").upper().encode("ascii") + b"|"


def encode_content(pattern: bytes) -> str:
    """Render raw bytes as a Snort content body (inverse of
    :func:`_decode_content`): printable ASCII stays literal, everything
    else — including the quote/semicolon/backslash/pipe specials — becomes
    a ``|hex|`` run, so every rule :func:`format_rule` renders round-trips
    through :func:`parse_rule`."""
    return _HEX_RUN.sub(_hex_run, pattern).decode("ascii")


def _int_option(key: str, value: str) -> int:
    """Parse an integer option value; malformed input is a parse error
    (with the option named), not a bare ``ValueError`` traceback."""
    try:
        return int(value)
    except ValueError:
        raise RuleParseError(
            f"option {key} requires an integer, got {value!r}"
        ) from None


def _parse_pcre(value: str) -> PcreMatch:
    value = value.strip()
    negated = value.startswith("!")
    if negated:
        value = value[1:].strip()
    if value.startswith('"') and value.endswith('"'):
        value = value[1:-1]
    if not value.startswith("/"):
        raise RuleParseError(f"pcre must start with '/': {value!r}")
    closing = value.rfind("/")
    if closing == 0:
        raise RuleParseError(f"unterminated pcre: {value!r}")
    pattern = value[1:closing]
    flags = 0
    buffer = HttpBuffer.RAW
    for flag_char in value[closing + 1 :]:
        if flag_char not in _PCRE_FLAGS:
            raise RuleParseError(f"unsupported pcre flag {flag_char!r}")
        re_flag, flag_buffer = _PCRE_FLAGS[flag_char]
        flags |= re_flag
        if flag_buffer is not None:
            buffer = flag_buffer
    # Compiled through the scan's cache: a bad pcre fails here, not mid-scan.
    try:
        _compiled_pcre(pattern, flags)
    except (re.error, OverflowError) as error:
        raise RuleParseError(f"bad pcre option {value!r}: {error}") from None
    return PcreMatch(pattern=pattern, flags=flags, buffer=buffer, negated=negated)


def parse_rule(text: str) -> Rule:
    """Parse one rule; raises :class:`RuleParseError` on malformed input.

    Every parse failure is a :class:`RuleParseError` carrying the offending
    rule's head — at generated-ruleset volume, an error without rule context
    is undebuggable — never a bare ``ValueError`` from an ``int()`` or
    ``bytearray`` internal.
    """
    stripped = text.strip()
    if not stripped or stripped.startswith("#"):
        raise RuleParseError("empty or comment line")
    try:
        return _parse_stripped(stripped)
    except RuleParseError as error:
        message = str(error)
        if "(rule: " in message:  # pragma: no cover - already annotated
            raise
        raise RuleParseError(f"{message} (rule: {stripped[:80]!r})") from None


def _parse_stripped(stripped: str) -> Rule:
    match = _HEADER_RE.match(stripped)
    if match is None:
        raise RuleParseError("unparseable rule header")

    options: List = []
    msg = ""
    sid: Optional[int] = None
    rev = 1
    references: List[Tuple[str, str]] = []
    metadata: Dict[str, str] = {}
    flow_to_server = False

    def last_content() -> ContentMatch:
        for option in reversed(options):
            if isinstance(option, ContentMatch):
                return option
        raise RuleParseError("modifier before any content option")

    def replace_last_content(updated: ContentMatch) -> None:
        for index in range(len(options) - 1, -1, -1):
            if isinstance(options[index], ContentMatch):
                options[index] = updated
                return
        raise RuleParseError("modifier before any content option")

    for option_text in _split_options(match.group("options")):
        key, colon, value = option_text.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "msg":
            # Strip exactly one matched surrounding quote pair: stripping
            # *all* quote characters mangles messages with embedded or
            # doubled quotes (e.g. ``""quoted""``).
            if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
                msg = value[1:-1]
            else:
                msg = value
        elif key == "content":
            negated = value.startswith("!")
            if negated:
                value = value[1:].strip()
            options.append(
                ContentMatch(pattern=_decode_content(value), negated=negated)
            )
        elif key == "pcre":
            options.append(_parse_pcre(value))
        elif key == "nocase":
            replace_last_content(dataclasses.replace(last_content(), nocase=True))
        elif key == "fast_pattern":
            replace_last_content(
                dataclasses.replace(last_content(), fast_pattern=True)
            )
        elif key in _BUFFERS:
            replace_last_content(
                dataclasses.replace(last_content(), buffer=_BUFFERS[key])
            )
        elif key in ("offset", "depth", "distance", "within"):
            replace_last_content(
                dataclasses.replace(
                    last_content(), **{key: _int_option(key, value)}
                )
            )
        elif key in ("urilen", "dsize"):
            try:
                options.append(SizeBound.parse(key, value))
            except RuleParseError:
                raise
            except ValueError as error:
                raise RuleParseError(
                    f"bad {key} option {value!r}: {error}"
                ) from None
        elif key == "isdataat":
            try:
                options.append(IsDataAt.parse(value))
            except RuleParseError:
                raise
            except ValueError as error:
                raise RuleParseError(
                    f"bad isdataat option {value!r}: {error}"
                ) from None
        elif key == "sid":
            sid = _int_option(key, value)
        elif key == "rev":
            rev = _int_option(key, value)
        elif key == "reference":
            scheme, _, ref_value = value.partition(",")
            references.append((scheme.strip(), ref_value.strip()))
        elif key == "flow":
            flow_to_server = "to_server" in value
        elif key == "metadata":
            for piece in value.split(","):
                piece = piece.strip()
                if not piece:
                    continue
                meta_key, _, meta_value = piece.partition(" ")
                metadata[meta_key] = meta_value
        elif not colon:
            metadata[key] = ""
        else:
            metadata[key] = value

    if sid is None:
        raise RuleParseError("rule missing sid")

    def _ports(which: str, text_value: str) -> PortSpec:
        try:
            return PortSpec.parse(text_value)
        except RuleParseError:
            raise
        except ValueError as error:
            raise RuleParseError(
                f"bad {which} port spec {text_value!r}: {error}"
            ) from None

    return Rule(
        action=match.group("action"),
        protocol=match.group("proto"),
        src=match.group("src"),
        src_ports=_ports("source", match.group("sports")),
        dst=match.group("dst"),
        dst_ports=_ports("destination", match.group("dports")),
        msg=msg,
        sid=sid,
        rev=rev,
        options=tuple(options),
        references=tuple(references),
        metadata=metadata,
        flow_to_server=flow_to_server,
    )


def parse_rules(lines: Iterable[str]) -> List[Rule]:
    """Parse a rule file's lines, skipping blanks and comments."""
    rules: List[Rule] = []
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rules.append(parse_rule(stripped))
    return rules


def _format_option(option: DetectionOption) -> str:
    """One detection option as rule text, its modifiers included."""
    if isinstance(option, SizeBound):
        if option.exact is not None:
            bound = str(option.exact)
        elif option.low is not None and option.high is not None:
            bound = f"{option.low}<>{option.high}"
        elif option.high is not None:
            bound = f"<{option.high}"
        else:
            bound = f">{option.low}"
        return f"{option.kind}:{bound};"
    bang = "!" if option.negated else ""
    if isinstance(option, ContentMatch):
        parts = [f'content:{bang}"{encode_content(option.pattern)}";']
        if option.nocase:
            parts.append("nocase;")
        if option.buffer is not HttpBuffer.RAW:
            parts.append(f"{option.buffer.value};")
        for key in ("offset", "depth", "distance", "within"):
            value = getattr(option, key)
            if value is not None:
                parts.append(f"{key}:{value};")
        if option.fast_pattern:
            parts.append("fast_pattern;")
        return " ".join(parts)
    if isinstance(option, PcreMatch):
        unlettered = option.flags & ~_PCRE_RE_FLAGS
        if unlettered:
            raise ValueError(
                f"pcre flags {re.RegexFlag(unlettered)!r} have no Snort letter"
            )
        flags = "".join(
            char
            for char, (re_flag, buffer) in _PCRE_FLAGS.items()
            if option.flags & re_flag or buffer is option.buffer
        )
        return f'pcre:{bang}"/{option.pattern}/{flags}";'
    relative = ",relative" if option.relative else ""
    return f"isdataat:{bang}{option.offset}{relative};"


def format_rule(rule: Rule) -> str:
    """Render a :class:`Rule` as one line of Snort rule text, the inverse of
    :func:`parse_rule`: ``parse_rule(format_rule(rule)) == rule``.

    Options follow in a fixed order: ``msg``, ``flow`` (to-server rules),
    the detection options in AST order, ``reference``s, the metadata in
    insertion order (``classtype`` as its own option, any other key as
    ``metadata:key value``), then ``sid`` and ``rev``.
    """
    options = [f'msg:"{rule.msg}";']
    if rule.flow_to_server:
        options.append("flow:to_server,established;")
    options.extend(_format_option(option) for option in rule.options)
    options.extend(f"reference:{scheme},{value};" for scheme, value in rule.references)
    for key, value in rule.metadata.items():
        if key == "classtype":
            options.append(f"classtype:{value};")
        else:
            options.append(f"metadata:{key} {value};")
    options.append(f"sid:{rule.sid}; rev:{rule.rev};")
    return (
        f"{rule.action} {rule.protocol} {rule.src} {rule.src_ports.text} -> "
        f"{rule.dst} {rule.dst_ports.text} ({' '.join(options)})"
    )
