"""Synthetic ruleset scaler: Snort rules at production rule counts.

The paper's production ruleset is >48k Talos signatures; the study rules
(:mod:`repro.exploits.rulegen`) are dozens.  Everything between — the trie
prefilter's factoring, the plan compiler, the publication-ordered merge,
the parallel scan — behaves differently at four orders of magnitude,
so this module grows a *deterministic*, seeded ruleset to O(10k) rules.
Each rule is generated as its :class:`~repro.nids.rule.Rule` AST; its text
is rendered from that AST by :func:`~repro.nids.parser.format_rule` only
when text is asked for.  ``repro rules gen`` and
:func:`build_scaled_ruleset` go through the text, so the parser is
exercised at the same scale as the engine (several parser crashes only
ever surfaced through generated text at volume; see the regression tests
in ``tests/test_nids.py``).

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

The AST is the record and the text a view of it — the hypothesis
round-trip property in ``tests/test_rule_scale.py`` is
``parse_rule(scaled.text) == scaled.rule``.

Generation is prefix-stable: rule ``i`` is derived from its own
``random.Random(seed, i)`` stream, so a 64-rule ruleset is literally the
first 64 rules of the 10k one — which is what lets the
``rules-vs-throughput`` sweep (:func:`throughput_sweep`) vary only ruleset
size while holding the rule *population* fixed.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import lru_cache
from itertools import accumulate
from random import Random
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.net.session import TcpSession
from repro.nids.lint import LintFinding, lint_rules
from repro.nids.parser import format_rule, parse_rule
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

_FODDER_CATEGORIES = ("generic", "short", "pure_pcre")

_CLASSTYPES = (
    "attempted-admin",
    "web-application-attack",
    "attempted-user",
    "trojan-activity",
    "misc-attack",
)

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
        if self.window_days < 1:
            raise ValueError("window_days must be >= 1")


@dataclass(frozen=True)
class ScaledRule:
    """One generated rule: its AST, its publication instant, and its fodder
    category (None for sound rules; ``generic`` / ``short`` / ``pure_pcre``
    otherwise).  The text is rendered from the AST on read."""

    rule: Rule
    published: datetime
    fodder: Optional[str] = None

    @property
    def text(self) -> str:
        """The rule as Snort text (:func:`~repro.nids.parser.format_rule`)."""
        return format_rule(self.rule)


# -- draws ---------------------------------------------------------------------
#
# Synthesis draws through ``rng.random()`` and ``rng.getrandbits()`` alone,
# with ``random.Random``'s own arithmetic: ``_randbelow(n)`` redraws
# ``getrandbits(n.bit_length())`` until it is below ``n``; ``randint(a, b)``
# is ``a + _randbelow(b - a + 1)``; ``randrange(n)`` and ``choice(seq)`` are
# ``_randbelow(n)`` and ``seq[_randbelow(len(seq))]``; and
# ``choices(population, cum_weights=c)[0]`` is
# ``population[bisect(c, random() * float(c[-1]), 0, len(c) - 1)]``.  The
# streams, hence the rules, are the ones those methods drew
# (``tests/scale_oracle.py``).


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """``Random._randbelow(n)``: uniform on ``[0, n)``."""
    bits = n.bit_length()
    value = getrandbits(bits)
    while value >= n:
        value = getrandbits(bits)
    return value


def _char_table(alphabet: str) -> Tuple[bytes, bytes]:
    """``(translate table, rejected bytes)`` for batched ``choice(alphabet)``
    draws.  ``getrandbits(k)`` for ``k <= 8`` keeps the top ``k`` bits of
    one 32-bit word, which is the top of that word's most significant byte,
    so a byte maps to ``alphabet[byte >> (8 - k)]`` or is rejected."""
    bits = len(alphabet).bit_length()
    table = bytearray(256)
    rejected = bytearray()
    for byte in range(256):
        value = byte >> (8 - bits)
        if value < len(alphabet):
            table[byte] = ord(alphabet[value])
        else:
            rejected.append(byte)
    return bytes(table), bytes(rejected)


_SUFFIX_CHARS = _char_table(_SUFFIX_ALPHABET)
_TOKEN_CHARS = _char_table(_SUFFIX_ALPHABET[:36])


def _chars(
    getrandbits: Callable[[int], int], count: int, chars: Tuple[bytes, bytes]
) -> bytes:
    """``count`` successive ``choice(alphabet)`` draws for the alphabet of
    :func:`_char_table`, ``count`` words at a time.  ``getrandbits(32 * n)``
    returns the next ``n`` words little-endian; a rejected word is skipped,
    as ``_randbelow`` skips it, and only the rejected draws are redrawn."""
    table, rejected = chars
    drawn = b""
    while len(drawn) < count:
        need = count - len(drawn)
        words = getrandbits(32 * need).to_bytes(4 * need, "little")
        drawn += words[3::4].translate(table, rejected)
    return drawn


def _pick(random: Callable[[], float], population: Sequence, cum_weights: Sequence[int]):
    """``Random.choices(population, cum_weights=cum_weights)[0]``."""
    return population[
        bisect_right(cum_weights, random() * float(cum_weights[-1]), 0, len(cum_weights) - 1)
    ]


def _pattern_for(rng: Random, *, upper: bool) -> bytes:
    """One content pattern: family prefix + tail of realistic length."""
    random = rng.random
    getrandbits = rng.getrandbits
    family = _FAMILIES[_below(getrandbits, len(_FAMILIES))]
    # ~8% of patterns are a bare family prefix — a strict prefix of the
    # sibling patterns, forcing the prefix-closure path.
    if random() < 0.08:
        return family
    bucket = random()
    if bucket < 0.3:
        tail_len = 2 + _below(getrandbits, 5)  # short-ish tails, heavy overlap
    elif bucket < 0.85:
        tail_len = 7 + _below(getrandbits, 12)
    else:
        tail_len = 19 + _below(getrandbits, 18)
    tail = _chars(getrandbits, tail_len, _SUFFIX_CHARS)
    if upper:
        tail = tail.upper()
    return family + tail


def _regular_options(rng: Random, config: ScaleConfig) -> List[DetectionOption]:
    """Detection options for a sound rule."""
    random = rng.random
    getrandbits = rng.getrandbits
    options: List[DetectionOption] = []

    n_contents = _pick(random, (1, 2, 3), _CONTENT_COUNT_CUM_WEIGHTS)
    for position in range(n_contents):
        pattern = _pattern_for(rng, upper=random() < 0.1)
        nocase = random() < 0.4
        buffer = _pick(random, _BUFFERS, _BUFFER_CUM_WEIGHTS)
        offset = depth = distance = within = None
        if position == 0:
            if random() < 0.1:
                offset = _below(getrandbits, 9)
                if random() < 0.5:
                    depth = len(pattern) + offset + _below(getrandbits, 25)
        elif random() < 0.5:
            distance = _below(getrandbits, 9)
            if random() < 0.5:
                within = len(pattern) + _below(getrandbits, 17)
        content = ContentMatch(
            pattern=pattern,
            nocase=nocase,
            buffer=buffer,
            offset=offset,
            depth=depth,
            distance=distance,
            within=within,
            fast_pattern=(position == 0 and random() < 0.05),
        )
        options.append(content)

    if random() < 0.05:
        digit = b"0123456789"[_below(getrandbits, 10)]
        negated = ContentMatch(
            pattern=b"X-Scaled-Bypass" + digit.to_bytes(1, "big"),
            negated=True,
        )
        options.append(negated)

    if random() < config.pcre_fraction:
        token = _chars(getrandbits, 6, _TOKEN_CHARS).decode("ascii")
        body = f"{token}[0-9]{{1,3}}"
        flags = re.IGNORECASE if random() < 0.5 else 0
        options.append(PcreMatch(pattern=body, flags=flags, negated=random() < 0.05))

    if random() < 0.05:
        options.append(SizeBound(kind="dsize", low=32 + _below(getrandbits, 225)))

    if random() < 0.03:
        options.append(IsDataAt(offset=16 + _below(getrandbits, 497), relative=True))

    return options


def _fodder_options(rng: Random) -> Tuple[str, List[DetectionOption]]:
    """Detection options for one deliberately unsound (fodder) rule."""
    getrandbits = rng.getrandbits
    category = _FODDER_CATEGORIES[_below(getrandbits, 3)]
    options: List[DetectionOption]
    if category == "generic":
        options = [
            ContentMatch(pattern=pattern, nocase=True)
            for pattern in rng.sample(_GENERIC_FODDER, 1 + _below(getrandbits, 2))
        ]
    elif category == "short":
        options = [ContentMatch(pattern=_chars(getrandbits, 3, _TOKEN_CHARS))]
    else:  # pure_pcre: no content at all — bypasses the prefilter
        token = _chars(getrandbits, 8, _TOKEN_CHARS).decode("ascii")
        options = [PcreMatch(pattern=f"{token}[0-9]{{2}}", flags=re.IGNORECASE)]
    return category, options


@lru_cache(maxsize=None)
def _created_at(days: int) -> str:
    """The ``created_at`` metadata for a rule published ``days`` into the
    window: :data:`WINDOW_START` is midnight, so the day offset alone fixes
    the date."""
    return (WINDOW_START + timedelta(days=days)).strftime("%Y_%m_%d")


def _generate_one(config: ScaleConfig, index: int) -> ScaledRule:
    """Rule ``index`` of the sequence (prefix-stable: independent stream)."""
    rng = Random(config.seed * 1_000_003 + index)
    random = rng.random
    getrandbits = rng.getrandbits
    days = _below(getrandbits, config.window_days)
    published = WINDOW_START + timedelta(days=days, hours=_below(getrandbits, 24))

    fodder: Optional[str] = None
    if random() < config.fodder_fraction:
        fodder, options = _fodder_options(rng)
    else:
        options = _regular_options(rng, config)

    flow_to_server = random() < 0.7
    references: Tuple[Tuple[str, str], ...] = ()
    if random() < 0.9:
        references = (("cve", f"{published.year}-{1000 + _below(getrandbits, 99000)}"),)
    metadata: Dict[str, str] = {}
    if random() < 0.8:
        metadata["classtype"] = _CLASSTYPES[_below(getrandbits, len(_CLASSTYPES))]
    metadata["created_at"] = _created_at(days)
    rev = 1 + _below(getrandbits, 3)
    dst_ports = _PARSED_PORTS[_pick(random, _PORT_TEXTS, _PORT_CUM_WEIGHTS)]

    rule = Rule(
        action="alert",
        protocol="tcp",
        src="$EXTERNAL_NET",
        src_ports=_PARSED_PORTS["any"],
        dst="$HOME_NET",
        dst_ports=dst_ports,
        msg=f"SCALED-{fodder or 'RULE'} synthetic signature {index}".upper(),
        sid=config.sid_base + index,
        rev=rev,
        options=tuple(options),
        references=references,
        metadata=metadata,
        flow_to_server=flow_to_server,
    )
    return ScaledRule(rule=rule, published=published, fodder=fodder)


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
    """Parse the rendered texts into a ready :class:`Ruleset`.

    Always goes *through the text* (``parse_rule`` of each rendered rule,
    never the recorded AST), so every build exercises the renderer and the
    parser at full scale.
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
    (and printed by ``repro rules bench``): per size, serial (one worker)
    and parallel throughput plus the shard/compile telemetry that explains
    it.  Both passes run :func:`~repro.nids.engine.parallel_scan`; the
    parallel one forces the pool on (``threshold=0``) so small sweeps
    still measure pool dispatch rather than the break-even fallback.
    """
    from repro.nids.engine import parallel_scan

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
        alerts = {}
        for side, count in (("serial", 1), ("parallel", workers)):
            alerts[side], scanned, telemetry = parallel_scan(
                ruleset, sessions, workers=count, threshold=0
            )
            seconds = telemetry.wall_seconds
            entry[side] = {
                "workers": count,
                "seconds": round(seconds, 4),
                "sessions_per_second": round(
                    scanned / seconds if seconds else 0.0, 1
                ),
                "alerts": len(alerts[side]),
                "shards_compiled": telemetry.shards_compiled,
                "candidates_evaluated": telemetry.candidates_evaluated,
            }
        entry["alerts_equal"] = alerts["serial"] == alerts["parallel"]
        entries.append(entry)
    return {
        "sizes": list(sizes),
        "session_count": session_count,
        "seed": seed,
        "entries": entries,
    }
