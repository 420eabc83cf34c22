"""Differential oracle: the scaled-rule generator, frozen.

This is :mod:`repro.nids.scale`'s rule synthesis as it drew every value
through ``random.Random``'s method layers (``choice``, ``randint``,
``randrange``, ``choices(cum_weights=)``, one ``choice`` per tail
character), and as it wrote each rule's text beside its AST, fragment by
fragment, with its own content renderer and byte-at-a-time escaper.  It is
kept verbatim so tests can assert that
:func:`repro.nids.scale.generate_scaled`, which draws through
``rng.random()`` and ``rng.getrandbits()`` directly and renders text from
the AST with :func:`repro.nids.parser.format_rule`, emits the same text,
AST, publication instant and fodder category for every rule.  Only the
data tables are imported from the module under test.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from random import Random
from typing import Dict, List, Optional, Tuple

from repro.nids.rule import (
    ContentMatch,
    HttpBuffer,
    IsDataAt,
    PcreMatch,
    Rule,
    SizeBound,
)
from repro.nids.scale import (
    _BUFFER_CUM_WEIGHTS,
    _BUFFERS,
    _CLASSTYPES,
    _CONTENT_COUNT_CUM_WEIGHTS,
    _FAMILIES,
    _GENERIC_FODDER,
    _PARSED_PORTS,
    _PORT_CUM_WEIGHTS,
    _PORT_TEXTS,
    _SUFFIX_ALPHABET,
    WINDOW_START,
    ScaleConfig,
)


@dataclass(frozen=True)
class OracleRule:
    """One frozen-generated rule: its text, the AST the text must parse
    back to, its publication instant and its fodder category."""

    text: str
    rule: Rule
    published: datetime
    fodder: Optional[str] = None


def encode_content_bytewise(pattern: bytes) -> str:
    """Raw bytes as a Snort content body, a byte at a time: printable ASCII
    stays literal, everything else (the quote/semicolon/backslash/pipe
    specials included) becomes a ``|hex|`` run."""
    out = []
    hex_run = []

    def flush_hex():
        if hex_run:
            out.append("|" + " ".join(hex_run) + "|")
            hex_run.clear()

    for byte in pattern:
        if 0x20 <= byte < 0x7F and chr(byte) not in ('"', ";", "\\", "|"):
            flush_hex()
            out.append(chr(byte))
        else:
            hex_run.append(f"{byte:02X}")
    flush_hex()
    return "".join(out)


_BUFFER_MODIFIER = {
    HttpBuffer.HTTP_URI: "http_uri",
    HttpBuffer.HTTP_HEADER: "http_header",
    HttpBuffer.HTTP_COOKIE: "http_cookie",
    HttpBuffer.HTTP_CLIENT_BODY: "http_client_body",
    HttpBuffer.HTTP_METHOD: "http_method",
}


def _render_content(content: ContentMatch) -> str:
    """Option text for a :class:`ContentMatch`, modifiers included."""
    bang = "!" if content.negated else ""
    parts = [f'content:{bang}"{encode_content_bytewise(content.pattern)}";']
    if content.nocase:
        parts.append("nocase;")
    if content.buffer is not HttpBuffer.RAW:
        parts.append(f"{_BUFFER_MODIFIER[content.buffer]};")
    if content.offset is not None:
        parts.append(f"offset:{content.offset};")
    if content.depth is not None:
        parts.append(f"depth:{content.depth};")
    if content.distance is not None:
        parts.append(f"distance:{content.distance};")
    if content.within is not None:
        parts.append(f"within:{content.within};")
    if content.fast_pattern:
        parts.append("fast_pattern;")
    return " ".join(parts)


def _pattern_for(rng: Random, *, upper: bool) -> bytes:
    """One content pattern: family prefix + tail of realistic length."""
    family = rng.choice(_FAMILIES)
    # ~8% of patterns are a bare family prefix — a strict prefix of the
    # sibling patterns, forcing the prefix-closure path.
    if rng.random() < 0.08:
        return family
    bucket = rng.random()
    if bucket < 0.3:
        tail_len = rng.randint(2, 6)  # short-ish tails, heavy overlap
    elif bucket < 0.85:
        tail_len = rng.randint(7, 18)
    else:
        tail_len = rng.randint(19, 36)
    choice = rng.choice
    tail = "".join([choice(_SUFFIX_ALPHABET) for _ in range(tail_len)])
    if upper:
        tail = tail.upper()
    return family + tail.encode("ascii")


def _regular_options(
    rng: Random, config: ScaleConfig
) -> Tuple[List[str], List[object]]:
    """Detection options (text fragments + expected AST) for a sound rule."""
    fragments: List[str] = []
    options: List[object] = []

    n_contents = rng.choices((1, 2, 3), cum_weights=_CONTENT_COUNT_CUM_WEIGHTS)[0]
    for position in range(n_contents):
        pattern = _pattern_for(rng, upper=rng.random() < 0.1)
        nocase = rng.random() < 0.4
        buffer = rng.choices(_BUFFERS, cum_weights=_BUFFER_CUM_WEIGHTS)[0]
        offset = depth = distance = within = None
        if position == 0:
            if rng.random() < 0.1:
                offset = rng.randint(0, 8)
                if rng.random() < 0.5:
                    depth = len(pattern) + offset + rng.randint(0, 24)
        elif rng.random() < 0.5:
            distance = rng.randint(0, 8)
            if rng.random() < 0.5:
                within = len(pattern) + rng.randint(0, 16)
        content = ContentMatch(
            pattern=pattern,
            nocase=nocase,
            buffer=buffer,
            offset=offset,
            depth=depth,
            distance=distance,
            within=within,
            fast_pattern=(position == 0 and rng.random() < 0.05),
        )
        fragments.append(_render_content(content))
        options.append(content)

    if rng.random() < 0.05:
        negated = ContentMatch(
            pattern=b"X-Scaled-Bypass" + rng.choice(b"0123456789").to_bytes(1, "big"),
            negated=True,
        )
        fragments.append(_render_content(negated))
        options.append(negated)

    if rng.random() < config.pcre_fraction:
        token = "".join([rng.choice(_SUFFIX_ALPHABET[:36]) for _ in range(6)])
        body = f"{token}[0-9]{{1,3}}"
        flags_text = "i" if rng.random() < 0.5 else ""
        negated_pcre = rng.random() < 0.05
        bang = "!" if negated_pcre else ""
        fragments.append(f'pcre:{bang}"/{body}/{flags_text}";')
        options.append(
            PcreMatch(
                pattern=body,
                flags=re.IGNORECASE if flags_text else 0,
                negated=negated_pcre,
            )
        )

    if rng.random() < 0.05:
        bound_text = f">{rng.randint(32, 256)}"
        fragments.append(f"dsize:{bound_text};")
        options.append(SizeBound.parse("dsize", bound_text))

    if rng.random() < 0.03:
        offset = rng.randint(16, 512)
        fragments.append(f"isdataat:{offset},relative;")
        options.append(IsDataAt(offset=offset, relative=True))

    return fragments, options


def _fodder_options(rng: Random) -> Tuple[str, List[str], List[object]]:
    """Detection options for one deliberately unsound (fodder) rule."""
    category = rng.choice(("generic", "short", "pure_pcre"))
    fragments: List[str] = []
    options: List[object] = []
    if category == "generic":
        for pattern in rng.sample(_GENERIC_FODDER, rng.randint(1, 2)):
            content = ContentMatch(pattern=pattern, nocase=True)
            fragments.append(_render_content(content))
            options.append(content)
    elif category == "short":
        content = ContentMatch(
            pattern="".join(rng.choice(_SUFFIX_ALPHABET[:36]) for _ in range(3)).encode()
        )
        fragments.append(_render_content(content))
        options.append(content)
    else:  # pure_pcre: no content at all — bypasses the prefilter
        token = "".join(rng.choice(_SUFFIX_ALPHABET[:36]) for _ in range(8))
        fragments.append(f'pcre:"/{token}[0-9]{{2}}/i";')
        options.append(PcreMatch(pattern=f"{token}[0-9]{{2}}", flags=re.IGNORECASE))
    return category, fragments, options


def _generate_one(config: ScaleConfig, index: int) -> OracleRule:
    """Rule ``index`` of the sequence (prefix-stable: independent stream)."""
    rng = Random(config.seed * 1_000_003 + index)
    sid = config.sid_base + index
    published = WINDOW_START + timedelta(
        days=rng.randrange(config.window_days), hours=rng.randrange(24)
    )

    fodder: Optional[str] = None
    if rng.random() < config.fodder_fraction:
        fodder, fragments, options = _fodder_options(rng)
    else:
        fragments, options = _regular_options(rng, config)

    msg = f"SCALED-{fodder or 'RULE'} synthetic signature {index}".upper()
    head = [f'msg:"{msg}";']
    flow_to_server = rng.random() < 0.7
    if flow_to_server:
        head.append("flow:to_server,established;")

    tail: List[str] = []
    references: List[Tuple[str, str]] = []
    if rng.random() < 0.9:
        cve = f"{published.year}-{rng.randint(1000, 99999)}"
        tail.append(f"reference:cve,{cve};")
        references.append(("cve", cve))
    metadata: Dict[str, str] = {}
    if rng.random() < 0.8:
        classtype = rng.choice(_CLASSTYPES)
        tail.append(f"classtype:{classtype};")
        metadata["classtype"] = classtype
    created = published.strftime("%Y_%m_%d")
    tail.append(f"metadata:created_at {created};")
    metadata["created_at"] = created
    rev = rng.randint(1, 3)
    tail.append(f"sid:{sid}; rev:{rev};")

    sport_text = "any"
    dport_text = rng.choices(_PORT_TEXTS, cum_weights=_PORT_CUM_WEIGHTS)[0]
    option_block = " ".join(head + fragments + tail)
    text = (
        f"alert tcp $EXTERNAL_NET {sport_text} -> $HOME_NET {dport_text} "
        f"({option_block})"
    )
    rule = Rule(
        action="alert",
        protocol="tcp",
        src="$EXTERNAL_NET",
        src_ports=_PARSED_PORTS[sport_text],
        dst="$HOME_NET",
        dst_ports=_PARSED_PORTS[dport_text],
        msg=msg,
        sid=sid,
        rev=rev,
        options=tuple(options),
        references=tuple(references),
        metadata=metadata,
        flow_to_server=flow_to_server,
    )
    return OracleRule(text=text, rule=rule, published=published, fodder=fodder)


def oracle_generate_scaled(config: ScaleConfig = ScaleConfig()) -> List[OracleRule]:
    """The full scaled sequence for a config, drawn the frozen way."""
    return [_generate_one(config, index) for index in range(config.size)]
