"""Columnar read plane: pack once, mmap forever, answer with array ops.

The batch pipeline writes dataclasses; this package is the read-optimized
mirror of a finished study:

* :mod:`repro.store.columnar` — the struct-of-arrays representation
  (:class:`ColumnarStudy`): int64 µs timestamps, interned string tables,
  parallel column groups in the pipeline's canonical orders;
* :mod:`repro.store.shard` — the binary shard format plus
  :class:`ShardStore`, content-keyed under ``<cache root>/shards/`` and
  loaded zero-copy via ``mmap`` + ``np.frombuffer``;
* :mod:`repro.store.kernels` — vectorized aggregations value-identical to
  the ``derive_analysis`` dataclass path;
* :mod:`repro.store.service` — the query handlers ``repro serve`` and
  ``repro query`` share;
* :mod:`repro.store.server` — the stdlib-asyncio HTTP/1.1 query plane.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple, Union

from repro import lazy_exports
from repro.store.columnar import MISSING, ColumnarStudy, from_micros, to_micros
from repro.store.kernels import (
    a_before_p_rate,
    delta_days,
    kev_rollup,
    skill_rollup,
    vendor_rollup,
    window_cdf,
)
from repro.store.service import QUERY_NAMES, QueryError, StudyService
from repro.store.shard import (
    SHARD_SCHEMA,
    ShardStore,
    load_shard,
    write_shard,
)


def shard_for_config(
    config=None,
    *,
    cache_root: Optional[Union[str, Path]] = None,
    build: bool = True,
) -> Tuple[Optional[ColumnarStudy], bool]:
    """The shard for a study config: load it, or build and publish it.

    Returns ``(study, built)``.  A shard already on disk (keyed by the
    config+code fingerprint) is mmapped and returned **without re-running
    the study** — the warm path a serving process relies on.  Otherwise
    the study runs (through the study cache, so its own hit short-circuits
    the heavy stages), is packed, and the shard published for next time.
    ``build=False`` probes without running anything (``(None, False)`` on
    a miss).
    """
    from repro.analysis.pipeline import StudyConfig, run_study
    from repro.cache import study_key

    config = config or StudyConfig()
    store = ShardStore(root=cache_root)
    etag = study_key(config)
    loaded = store.load(etag)
    if loaded is not None:
        return loaded, False
    if not build:
        return None, False
    result = run_study(config, cache=str(store.root))
    packed = ColumnarStudy.from_study(result)
    path = store.save(packed)
    # Serve from the mmapped bytes rather than the in-memory pack, so the
    # first server process exercises the same plane as every later one.
    return load_shard(path), True


__all__ = [
    "MISSING",
    "QUERY_NAMES",
    "ColumnarStudy",
    "QueryError",
    "SHARD_SCHEMA",
    "ShardStore",
    "StudyServer",
    "StudyService",
    "a_before_p_rate",
    "delta_days",
    "from_micros",
    "kev_rollup",
    "load_shard",
    "serve",
    "shard_for_config",
    "skill_rollup",
    "to_micros",
    "vendor_rollup",
    "window_cdf",
    "write_shard",
]

# The HTTP server (and asyncio) load only where ``repro serve`` reads them.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.store.server": ("StudyServer", "serve"),
})[1:]
