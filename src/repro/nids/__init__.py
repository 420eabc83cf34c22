"""Snort-compatible network intrusion detection subsystem.

Implements the subset of the Snort rule language the study depends on:
``content`` matches (with ``nocase``/``depth``/``offset``/``distance``/
``within`` and hex escapes), ``pcre``, HTTP sticky buffers (``http_uri``,
``http_header``, ``http_cookie``, ``http_client_body``, ``http_method``),
port constraints, and rule metadata (``sid``, ``rev``, ``msg``,
``reference:cve``).

Two study-specific behaviours from the paper's methodology (Section 3.1):

* rules are rewritten to be **port-insensitive**, because Talos rules
  constrain ports while scanners target non-standard ports;
* for each TCP session only the **earliest-published** matching signature is
  retained, and signatures are evaluated **post-facto** over the stored
  archive so exploit traffic predating a signature's release is still found.
"""

from repro.nids.rule import (
    ContentMatch,
    HttpBuffer,
    PcreMatch,
    PortSpec,
    Rule,
)
from repro.nids.parser import RuleParseError, format_rule, parse_rule, parse_rules
from repro.nids.matcher import match_rule
from repro.nids.ruleset import Alert, Ruleset
from repro.nids.engine import (
    DetectionEngine,
    DetectionStats,
    ScanTelemetry,
    parallel_scan,
    scan_stream,
)
from repro.nids.prefilter import RegexPrefilter, ShardedPrefilter
from repro.nids.live import LiveDetectionEngine, compare_live_vs_wayback
from repro.nids.lint import LintFinding, lint_rule, lint_rules
from repro.nids.scale import (
    ScaleConfig,
    ScaledRule,
    build_scaled_ruleset,
    generate_scaled,
    generate_texts,
    synthesize_sessions,
    throughput_sweep,
)

__all__ = [
    "ContentMatch",
    "HttpBuffer",
    "PcreMatch",
    "PortSpec",
    "Rule",
    "RuleParseError",
    "format_rule",
    "parse_rule",
    "parse_rules",
    "match_rule",
    "Alert",
    "Ruleset",
    "DetectionEngine",
    "DetectionStats",
    "ScanTelemetry",
    "scan_stream",
    "parallel_scan",
    "RegexPrefilter",
    "ShardedPrefilter",
    "ScaleConfig",
    "ScaledRule",
    "build_scaled_ruleset",
    "generate_scaled",
    "generate_texts",
    "synthesize_sessions",
    "throughput_sweep",
    "LiveDetectionEngine",
    "compare_live_vs_wayback",
    "LintFinding",
    "lint_rule",
    "lint_rules",
]
