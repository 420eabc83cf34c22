"""Synthetic ruleset scaler: Snort rule *text* at production rule counts.

The paper's production ruleset is >48k Talos signatures; the study rules
(:mod:`repro.exploits.rulegen`) are dozens.  Everything between — the trie
prefilter's factoring, the plan compiler, the publication-ordered merge,
the parallel scan — behaves differently at four orders of magnitude,
so this module grows a *deterministic*, seeded ruleset to O(10k) rules and
emits it **as rule text**, so the parser is exercised at the same scale as
the engine (several parser crashes only ever surfaced through generated
text at volume; see the regression tests in ``tests/test_nids.py``).

Realism knobs, mirrored from what production rulesets look like:

* **pattern lengths** mix short (collision-prone), medium, and long
  contents, drawn per-family so related signatures share byte prefixes —
  the shape that stresses the trie prefix-closure and overlap-confirm
  paths of :class:`repro.nids.prefilter.RegexPrefilter`;
* **port lists** mix ``any``, single ports, negations, ranges, and
  bracketed lists *with spaces* (``[80, 8080]`` — valid Snort, and a
  former parser crash);
* **publication dates** spread over the study's two-year window with
  collisions, exercising the (published, insertion index) rank ordering;
* a small **fodder fraction** of deliberately unsound rules (generic
  endpoints, sub-4-byte contents, pure pcre) keeps the linter honest:
  every gating finding must map back to a fodder SID
  (:func:`unexpected_findings`).

Every generated rule records the exact :class:`~repro.nids.rule.Rule` AST
its text must parse back to — the hypothesis round-trip property in
``tests/test_rule_scale.py`` is ``parse_rule(scaled.text) == scaled.rule``.

Generation is prefix-stable: rule ``i`` is derived from its own
``random.Random(seed, i)`` stream, so a 64-rule ruleset is literally the
first 64 rules of the 10k one — which is what lets the
``rules-vs-throughput`` sweep (:func:`throughput_sweep`) vary only ruleset
size while holding the rule *population* fixed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import accumulate
from random import Random
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.net.session import TcpSession
from repro.nids.lint import LintFinding, lint_rules
from repro.nids.parser import encode_content, parse_rule
from repro.nids.rule import (
    ContentMatch,
    HttpBuffer,
    IsDataAt,
    PcreMatch,
    PortSpec,
    Rule,
    SizeBound,
)
from repro.nids.ruleset import Ruleset
from repro.util.timeutil import utc

#: Start of the synthetic publication window (the study's two years).
WINDOW_START = utc(2021, 6, 1)

#: Content families: related signatures share these byte prefixes, which is
#: exactly the shape that exercises trie factoring, prefix-closure, and
#: overlap confirmation in the prefilter.  Deliberately free of the
#: linter's generic-endpoint fragments so a non-fodder rule never trips a
#: gating check.
_FAMILIES: Tuple[bytes, ...] = (
    b"/owa/auth/logon.aspx?replaceCurrent=",
    b"/solr/select?q=",
    b"/struts2-showcase/",
    b"/HNAP1/SOAPAction/",
    b"/vpn/../vpns/portal/scripts/",
    b"/telescope/probe/v1/",
    b"${jndi:ldap://",
    b"/boaform/formPing?target_addr=",
    b"User-Agent: Mozilla/zgrab-",
    b"\xde\xad\xbe\xef\x00\x01scaled-",
    b"/plugins/servlet/oauth/users/icon-uri?consumerUri=",
    b"/shell?cd+/tmp;rm+-rf+",
)

#: Suffix alphabet for per-rule pattern tails (kept clear of content
#: specials and of characters that could assemble a generic endpoint).
_SUFFIX_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHJKLMNPQRSTUVWXYZ0123456789_-."

#: Destination-port spec texts with rough production weights.  The
#: bracketed-list-with-spaces form is deliberate: valid Snort that the
#: pre-fix header tokenizer could not split.
_PORT_SPECS: Tuple[Tuple[str, int], ...] = (
    ("any", 40),
    ("80", 10),
    ("443", 5),
    ("[80, 8080]", 10),
    ("[443,8443]", 5),
    ("8000:8100", 10),
    ("!80", 5),
    ("[80,443,8000:8100]", 15),
)

# Fixed-weight ``rng.choices`` calls take precomputed cumulative weights
# (``choices`` accumulates ``weights`` itself: the draws are identical).
# Rules share one parsed, never-mutated ``PortSpec`` per spec text.
_PORT_TEXTS = tuple(text for text, _ in _PORT_SPECS)
_PORT_CUM_WEIGHTS = tuple(accumulate(weight for _, weight in _PORT_SPECS))
_PARSED_PORTS = {text: PortSpec.parse(text) for text in _PORT_TEXTS}
_CONTENT_COUNT_CUM_WEIGHTS = tuple(accumulate((60, 30, 10)))
_BUFFERS = (
    HttpBuffer.RAW, HttpBuffer.HTTP_URI, HttpBuffer.HTTP_HEADER, HttpBuffer.HTTP_CLIENT_BODY
)
_BUFFER_CUM_WEIGHTS = tuple(accumulate((60, 20, 10, 10)))

_CLASSTYPES = (
    "attempted-admin",
    "web-application-attack",
    "attempted-user",
    "trojan-activity",
    "misc-attack",
)

_BUFFER_MODIFIER = {
    HttpBuffer.HTTP_URI: "http_uri",
    HttpBuffer.HTTP_HEADER: "http_header",
    HttpBuffer.HTTP_COOKIE: "http_cookie",
    HttpBuffer.HTTP_CLIENT_BODY: "http_client_body",
    HttpBuffer.HTTP_METHOD: "http_method",
}

#: Lint checks that indicate an unsound rule *shape* (as opposed to the
#: expected-at-volume port/reference findings).  The lint gate requires
#: every finding from these checks to map to a fodder SID.
GATING_CHECKS = ("short-content", "generic-endpoint", "no-fast-pattern")

#: Generic-endpoint fodder contents (lowercase variants hit the linter's
#: endpoint fragments; none carries structure hints).
_GENERIC_FODDER = (
    b"/login.cgi?user=",
    b"/admin/config.php",
    b"/manager/status/all",
    b"/index.jsp?page=",
    b"/wp-login.php?redirect=",
)


@dataclass(frozen=True)
class ScaleConfig:
    """Knobs for one deterministic scaled ruleset."""

    size: int = 10_000
    seed: int = 20260801
    sid_base: int = 3_000_000
    #: Fraction of rules that are deliberately unsound (lint fodder).
    fodder_fraction: float = 0.01
    #: Fraction of *regular* rules that carry a pcre alongside contents.
    pcre_fraction: float = 0.15
    #: Publication window length in days.
    window_days: int = 730

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if not 0.0 <= self.fodder_fraction <= 1.0:
            raise ValueError("fodder_fraction must be in [0, 1]")


@dataclass(frozen=True)
class ScaledRule:
    """One generated rule: its text, the AST the text must parse back to,
    its publication instant, and its fodder category (None for sound
    rules; ``generic`` / ``short`` / ``pure_pcre`` otherwise)."""

    text: str
    rule: Rule
    published: datetime
    fodder: Optional[str] = None


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


def _render_content(content: ContentMatch) -> str:
    """Option text for a :class:`ContentMatch`, modifiers included."""
    bang = "!" if content.negated else ""
    parts = [f'content:{bang}"{encode_content(content.pattern)}";']
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


def _generate_one(config: ScaleConfig, index: int) -> ScaledRule:
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
    return ScaledRule(text=text, rule=rule, published=published, fodder=fodder)


def generate_scaled(config: ScaleConfig = ScaleConfig()) -> List[ScaledRule]:
    """The full scaled sequence for a config (deterministic, prefix-stable)."""
    return [_generate_one(config, index) for index in range(config.size)]


def generate_texts(config: ScaleConfig = ScaleConfig()) -> List[str]:
    """Just the rule texts (``repro rules gen`` output; feed to
    :func:`repro.nids.parser.parse_rules`)."""
    return [scaled.text for scaled in generate_scaled(config)]


def build_scaled_ruleset(
    config: ScaleConfig = ScaleConfig(),
    *,
    port_insensitive: bool = True,
    shards: Optional[int] = None,
) -> Ruleset:
    """Parse the generated texts into a ready :class:`Ruleset`.

    Always goes *through the text* (``parse_rule``, never the recorded
    AST), so every build exercises the parser at full scale.
    """
    ruleset = Ruleset(port_insensitive=port_insensitive, shards=shards)
    for scaled in generate_scaled(config):
        ruleset.add(parse_rule(scaled.text), scaled.published)
    return ruleset


def unexpected_findings(
    scaled: Sequence[ScaledRule], findings: Iterable[LintFinding]
) -> List[LintFinding]:
    """Gating lint findings that do *not* map to a fodder SID.

    The generator promises that every sound rule is lint-clean on the
    unsound-shape checks (:data:`GATING_CHECKS`); anything this returns is
    either a generator regression or a linter regression.
    """
    fodder_sids = {item.rule.sid for item in scaled if item.fodder is not None}
    return [
        finding
        for finding in findings
        if finding.check in GATING_CHECKS and finding.sid not in fodder_sids
    ]


def lint_scaled(
    scaled: Sequence[ScaledRule],
) -> Tuple[Dict[str, int], List[LintFinding]]:
    """Lint a scaled sequence: (per-check counts, unexpected gating findings)."""
    findings = lint_rules([item.rule for item in scaled])
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.check] = counts.get(finding.check, 0) + 1
    return counts, unexpected_findings(scaled, findings)


# -- synthetic traffic against a scaled ruleset -------------------------------

_BENIGN_PATHS = (
    "/",
    "/favicon.ico",
    "/robots.txt",
    "/static/app.js",
    "/healthz",
    "/metrics",
    "/img/logo.png",
)


def synthesize_sessions(
    count: int,
    scaled: Sequence[ScaledRule],
    *,
    seed: int = 7,
    hit_fraction: float = 0.3,
) -> List[TcpSession]:
    """A deterministic session corpus mixing benign traffic with payloads
    that embed scaled fast patterns (``hit_fraction`` of sessions).

    Embedded payloads guarantee prefilter nominations; rules whose full
    option chain is satisfiable from a flat embed (the single-content
    majority) also alert, so the corpus exercises nomination, ordered
    evaluation, and retention without hand-building per-rule traffic.
    """
    rng = Random(seed)
    with_patterns = [
        item
        for item in scaled
        if item.rule.fast_pattern is not None
    ]
    sessions: List[TcpSession] = []
    for session_id in range(count):
        start = WINDOW_START + timedelta(
            days=rng.randrange(730), seconds=rng.randrange(86400)
        )
        if with_patterns and rng.random() < hit_fraction:
            pattern = rng.choice(with_patterns).rule.fast_pattern.pattern
            payload = (
                b"GET /x" + pattern + b" HTTP/1.1\r\nHost: scaled.test\r\n\r\n"
            )
        else:
            path = rng.choice(_BENIGN_PATHS)
            payload = (
                f"GET {path}?r={rng.randrange(10**6)} HTTP/1.1\r\n"
                f"Host: host-{rng.randrange(512)}.example\r\n\r\n"
            ).encode("ascii")
        sessions.append(
            TcpSession(
                session_id=session_id,
                start=start,
                src_ip=rng.randrange(1, 2**32),
                src_port=rng.randrange(1024, 65536),
                dst_ip=rng.randrange(1, 2**32),
                dst_port=rng.choice((80, 443, 8080, 8443, 81)),
                payload=payload,
            )
        )
    return sessions


def throughput_sweep(
    *,
    sizes: Sequence[int] = (64, 1024, 4096, 10_000),
    session_count: int = 2000,
    seed: int = 20260801,
    workers: int = 2,
) -> Dict[str, object]:
    """Rules-vs-throughput: scan one corpus against rulesets of each size.

    Returns the ``rules_sweep`` record published to ``BENCH_pipeline.json``
    (and printed by ``repro rules bench``): per size, serial and parallel
    throughput plus the shard/compile telemetry that explains it.  The
    parallel pass forces the pool on (``threshold=0``) so small sweeps
    still measure pool dispatch rather than the break-even fallback.
    """
    from repro.nids.engine import parallel_scan, scan_stream

    entries: List[Dict[str, object]] = []
    for size in sizes:
        config = ScaleConfig(size=size, seed=seed)
        scaled = generate_scaled(config)
        clock = perf_counter()
        ruleset = build_scaled_ruleset(config)
        build_seconds = perf_counter() - clock
        sessions = synthesize_sessions(session_count, scaled, seed=seed)

        entry: Dict[str, object] = {
            "rules": size,
            "build_seconds": round(build_seconds, 4),
            "prefilter_shards": ruleset.prefilter_shards,
        }
        serial_alerts, scanned, serial_tel = scan_stream(ruleset, sessions)
        entry["serial"] = {
            "seconds": round(serial_tel.wall_seconds, 4),
            "sessions_per_second": round(
                scanned / serial_tel.wall_seconds if serial_tel.wall_seconds else 0.0,
                1,
            ),
            "alerts": len(serial_alerts),
            "shards_compiled": serial_tel.shards_compiled,
            "candidates_evaluated": serial_tel.candidates_evaluated,
        }
        parallel_alerts, scanned, parallel_tel = parallel_scan(
            ruleset, sessions, workers=workers, threshold=0
        )
        entry["parallel"] = {
            "workers": workers,
            "seconds": round(parallel_tel.wall_seconds, 4),
            "sessions_per_second": round(
                scanned / parallel_tel.wall_seconds
                if parallel_tel.wall_seconds
                else 0.0,
                1,
            ),
            "alerts": len(parallel_alerts),
            "shards_compiled": parallel_tel.shards_compiled,
        }
        entry["alerts_equal"] = serial_alerts == parallel_alerts
        entries.append(entry)
    return {
        "sizes": list(sizes),
        "session_count": session_count,
        "seed": seed,
        "entries": entries,
    }
