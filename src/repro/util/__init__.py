"""Shared utilities: time handling, deterministic RNG streams, statistics,
ASCII tables, and IPv4 helpers.

These modules deliberately have no dependencies on the rest of the package so
that every subsystem (telescope, NIDS, datasets, analysis) can build on them
without import cycles.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.util.timeutil": (
        "Duration", "TimeWindow", "format_offset", "hours", "days",
        "parse_offset", "to_days", "to_hours", "utc",
    ),
    "repro.util.rng": ("derive_rng", "derive_seed"),
    "repro.util.stats": ("Ecdf", "bin_counts", "ecdf", "fraction", "quantile"),
    "repro.util.tables": ("render_table",),
    "repro.util.iputil": ("format_ipv4", "ipv4_in_network", "parse_ipv4"),
})
