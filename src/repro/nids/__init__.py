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

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.nids.rule": ("ContentMatch", "HttpBuffer", "PcreMatch", "PortSpec", "Rule"),
    "repro.nids.parser": ("RuleParseError", "format_rule", "parse_rule", "parse_rules"),
    "repro.nids.matcher": ("match_rule",),
    "repro.nids.ruleset": ("Alert", "Ruleset"),
    "repro.nids.engine": (
        "DetectionEngine", "DetectionStats", "ScanTelemetry", "scan_stream",
        "parallel_scan",
    ),
    "repro.nids.prefilter": ("RegexPrefilter", "ShardedPrefilter"),
    "repro.nids.scale": (
        "ScaleConfig", "ScaledRule", "build_scaled_ruleset", "generate_scaled",
        "generate_texts", "synthesize_sessions", "throughput_sweep",
    ),
    "repro.nids.live": ("LiveDetectionEngine", "compare_live_vs_wayback"),
    "repro.nids.lint": ("LintFinding", "lint_rule", "lint_rules"),
})
