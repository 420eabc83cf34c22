"""Offline-first adapters for real public vulnerability feeds.

Each adapter is a :class:`repro.datasets.sources.DatasetSource` backed by a
local snapshot file — NVD 2.0 JSON, CISA KEV JSON, or a CVEfixes-style
fix-date table — normalised into the same record schemata the synthetic
builders emit, so the identical pipeline runs on real data.  No adapter
ever touches the network; :mod:`repro.datasets.feeds.fetch` downloads and
content-hashes snapshots on explicit request (``repro feeds fetch``).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.datasets.feeds.base": ("FeedParseError",),
    "repro.datasets.feeds.fixes": ("FixesFeedSource",),
    "repro.datasets.feeds.kevjson": ("KevFeedSource",),
    "repro.datasets.feeds.nvd2": ("Nvd2FeedSource",),
})
