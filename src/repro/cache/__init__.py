"""On-disk caching of study intermediates.

The paper's measurement is one expensive pass (two years of traffic scanned
post-facto) feeding many cheap analyses; this package makes the expensive
pass run once per configuration *per machine* instead of once per process.

Layering:

* :mod:`repro.cache.study` — the cache itself: keying, the atomic
  publish protocol, verified loads, telemetry;
* :mod:`repro.cache.integrity` — per-file checksums and entry verification;
* :mod:`repro.cache.gc` — staging-dir cleanup and age/size-bounded eviction;
* :mod:`repro.cache.fingerprint` — code fingerprinting for invalidation;
* :mod:`repro.cache.checkpoint` — crash-recovery checkpoints: the stages of
  a run's partial entry, which the cache publishes when the run finishes.
"""

from repro.cache.checkpoint import CheckpointStore, CheckpointTelemetry
from repro.cache.fingerprint import STAGE_MODULES, code_fingerprint, digest_file
from repro.cache.gc import (
    GcReport,
    ManifestGcReport,
    collect_garbage,
    collect_manifest_garbage,
)
from repro.cache.integrity import EntryReport, verify_entry
from repro.cache.study import (
    CACHE_SCHEMA,
    CachedStudy,
    CacheTelemetry,
    StudyCache,
    default_cache_root,
    semantic_config,
    study_key,
)

__all__ = [
    "CACHE_SCHEMA",
    "CachedStudy",
    "CacheTelemetry",
    "CheckpointStore",
    "CheckpointTelemetry",
    "EntryReport",
    "GcReport",
    "ManifestGcReport",
    "STAGE_MODULES",
    "StudyCache",
    "code_fingerprint",
    "collect_garbage",
    "collect_manifest_garbage",
    "default_cache_root",
    "digest_file",
    "semantic_config",
    "study_key",
    "verify_entry",
]
