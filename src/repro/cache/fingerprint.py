"""Code fingerprinting for cache invalidation.

A cached study is only valid while the code that produced it is unchanged.
Rather than trusting a manually bumped version number, the cache key folds
in a digest of the *source bytes* of every module on the generate → capture
→ scan path: edit any of them and every existing entry silently becomes a
miss.  (Pure-analysis modules downstream of the cached stages are excluded
on purpose — they rerun on every study anyway.)
"""

from __future__ import annotations

import hashlib
import importlib.util
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Tuple

from repro._version import __version__

#: Every module whose behaviour shapes the cached intermediates (session
#: store, alert list): the import closure of ``repro.analysis.pipeline``
#: minus the cache's own format modules and the stages downstream of the
#: cache.  A test checks this list against the closure, both ways; it is
#: kept literal so no run walks the import graph.
STAGE_MODULES: Tuple[str, ...] = (
    "repro.analysis.pipeline",
    "repro.datasets.catalog",
    "repro.datasets.feeds.base",
    "repro.datasets.feeds.fixes",
    "repro.datasets.feeds.kevjson",
    "repro.datasets.feeds.nvd2",
    "repro.datasets.kev",
    "repro.datasets.loader",
    "repro.datasets.nvd",
    "repro.datasets.records",
    "repro.datasets.seed_cves",
    "repro.datasets.seed_log4shell",
    "repro.datasets.sources",
    "repro.datasets.suciu",
    "repro.datasets.talos",
    "repro.exploits.log4shell",
    "repro.exploits.rulegen",
    "repro.exploits.templates",
    "repro.net.http",
    "repro.net.pcapstore",
    "repro.net.session",
    "repro.nids.engine",
    "repro.nids.lint",
    "repro.nids.matcher",
    "repro.nids.parser",
    "repro.nids.prefilter",
    "repro.nids.rule",
    "repro.nids.ruleset",
    "repro.nids.scale",
    "repro.obs.manifest",
    "repro.obs.metrics",
    "repro.obs.profile",
    "repro.obs.trace",
    "repro.scenarios",
    "repro.scenarios.builtins",
    "repro.scenarios.registry",
    "repro.scenarios.resolve",
    "repro.scenarios.spec",
    "repro.telescope.collector",
    "repro.telescope.config",
    "repro.telescope.pool",
    "repro.traffic.actors",
    "repro.traffic.arrivals",
    "repro.traffic.generator",
    "repro.traffic.temporal",
    "repro.util.iputil",
    "repro.util.rng",
    "repro.util.timeutil",
)


def digest_file(path, *, digest_size: int = 16) -> str:
    """Streamed BLAKE2b digest of a file's bytes.

    Shared by module fingerprinting and cache-entry checksums: both need a
    stable content digest of on-disk bytes without holding the file in
    memory.
    """
    hasher = hashlib.blake2b(digest_size=digest_size)
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()


@lru_cache(maxsize=8)
def _fingerprint(module_names: Tuple[str, ...]) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(__version__.encode("utf-8"))
    for name in module_names:
        # Found, not imported: only the module's parent packages run.
        spec = importlib.util.find_spec(name)
        if spec is None or not spec.has_location or spec.origin is None:
            raise ModuleNotFoundError(f"no source file for {name!r}", name=name)
        hasher.update(name.encode("utf-8"))
        hasher.update(digest_file(spec.origin).encode("ascii"))
    return hasher.hexdigest()


def code_fingerprint(module_names: Iterable[str] = STAGE_MODULES) -> str:
    """Digest of the package version plus the stage modules' source bytes."""
    return _fingerprint(tuple(module_names))
