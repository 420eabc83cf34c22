"""The cache's code fingerprint covers exactly the modules that shape a
cached study."""

from repro.cache.fingerprint import STAGE_MODULES
from tests import import_closure

#: Modules the pipeline imports whose source must not key the cache.
EXCLUDED = {
    # The entry format: CACHE_SCHEMA keys it, so a format change bumps the
    # schema instead of the code digest.
    "repro.cache",
    "repro.cache.checkpoint",
    "repro.cache.fingerprint",
    "repro.cache.gc",
    "repro.cache.integrity",
    "repro.cache.study",
    "repro.store.columnar",
    "repro.store.shard",
    # Downstream of the cached stages: these rerun on every study.
    "repro.analysis.streaming",
    "repro.lifecycle.assembly",
    "repro.lifecycle.events",
    "repro.lifecycle.exploit_events",
    "repro.lifecycle.rca",
    # Hashed directly as the package version.
    "repro._version",
}


def test_stage_modules_are_the_pipeline_closure():
    closure = import_closure.closure("repro.analysis.pipeline")
    assert EXCLUDED <= closure, sorted(EXCLUDED - closure)
    assert set(STAGE_MODULES) == closure - EXCLUDED


def test_nvd_source_digest_changes_code_fingerprint(monkeypatch):
    """An edit to datasets/nvd.py (the NVD background draws) must change the
    cache key's code digest."""
    before, after = import_closure.fingerprint_after_edit(monkeypatch, "nvd.py")
    assert after != before
