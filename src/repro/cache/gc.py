"""Cache lifecycle: staging-dir cleanup and bounded eviction.

A healthy cache directory contains only complete entries.  Everything else
is garbage this module collects:

* ``<key>.tmp<pid>`` **staging directories** left by writers that died
  mid-save.  One is garbage when its owning pid is gone, or when it has
  outlived :data:`STAGING_GRACE_SECONDS` (a live but unrelated process may
  have recycled the pid);
* **torn entries** — directories with no readable ``meta.json``, i.e. debris
  from a crash or partial eviction.  These are the dangerous kind: left in
  place, they squat on their key and (before the publish-protocol fix)
  blocked every future save of that configuration;
* entries past an **age bound** (``max_age``), and the oldest entries past a
  **size bound** (``max_bytes``), evicted oldest-first by modification time.

:func:`collect_garbage` is pure directory surgery — it never consults the
in-process :class:`~repro.cache.study.StudyCache` state, so any process
(the CLI, a benchmark session, a cron job) can run it against a shared
cache root.
"""

from __future__ import annotations

import os
import re
import shutil
import time
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import List, Optional, Tuple

from repro.cache.integrity import read_meta

#: A staging dir younger than this and owned by a live pid is presumed to be
#: an in-flight save and left alone.
STAGING_GRACE_SECONDS = 3600.0

_STAGING_RE = re.compile(r"^(?P<key>.+)\.tmp(?P<pid>\d+)$")


@dataclass
class GcReport:
    """What one garbage-collection pass removed and what remains."""

    staging_removed: int = 0
    torn_removed: int = 0
    expired_removed: int = 0
    size_evicted: int = 0
    bytes_freed: int = 0
    entries_kept: int = 0
    bytes_kept: int = 0
    removed_paths: List[str] = field(default_factory=list)

    @property
    def entries_removed(self) -> int:
        return self.torn_removed + self.expired_removed + self.size_evicted

    @property
    def removed_anything(self) -> bool:
        return self.staging_removed + self.entries_removed > 0


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, other user
        return True
    except OSError:  # pragma: no cover - e.g. pid out of range
        return False
    return True


def dir_bytes(path: Path) -> int:
    """Total size of all regular files under a directory."""
    total = 0
    for child in path.rglob("*"):
        try:
            if child.is_file():
                total += child.stat().st_size
        except OSError:  # pragma: no cover - racing deletion
            continue
    return total


def _mtime(path: Path) -> float:
    # meta.json is written last, so its mtime is the publication time; fall
    # back to the directory for torn entries.
    meta = path / "meta.json"
    try:
        return (meta if meta.exists() else path).stat().st_mtime
    except OSError:  # pragma: no cover - racing deletion
        return 0.0


def _remove(path: Path, report: GcReport) -> int:
    freed = dir_bytes(path)
    shutil.rmtree(path, ignore_errors=True)
    report.bytes_freed += freed
    report.removed_paths.append(path.name)
    return freed


def _is_stale_staging(
    path: Path, *, now: float, grace: float
) -> Optional[bool]:
    """True/False for staging dirs, None for anything else."""
    match = _STAGING_RE.match(path.name)
    if match is None:
        return None
    if now - _mtime(path) > grace:
        return True
    return not _pid_alive(int(match.group("pid")))


def collect_garbage(
    study_root: Path,
    *,
    max_age: Optional[timedelta] = None,
    max_bytes: Optional[int] = None,
    staging_grace: float = STAGING_GRACE_SECONDS,
    now: Optional[float] = None,
) -> GcReport:
    """One GC pass over a cache's ``study/`` directory.

    Always removes stale staging dirs and torn entries; ``max_age`` and
    ``max_bytes`` additionally bound the surviving population.  Complete
    entries within bounds are never touched.
    """
    report = GcReport()
    if not study_root.is_dir():
        return report
    now = time.time() if now is None else now

    survivors: List[Tuple[float, int, Path]] = []  # (mtime, bytes, path)
    for child in sorted(study_root.iterdir()):
        if not child.is_dir():
            continue
        staging_stale = _is_stale_staging(
            child, now=now, grace=staging_grace
        )
        if staging_stale is not None:
            if staging_stale:
                _remove(child, report)
                report.staging_removed += 1
            continue
        if read_meta(child) is None:
            _remove(child, report)
            report.torn_removed += 1
            continue
        mtime = _mtime(child)
        if max_age is not None and now - mtime > max_age.total_seconds():
            _remove(child, report)
            report.expired_removed += 1
            continue
        survivors.append((mtime, dir_bytes(child), child))

    if max_bytes is not None:
        total = sum(size for _, size, _ in survivors)
        survivors.sort()  # oldest first
        while survivors and total > max_bytes:
            _, size, oldest = survivors.pop(0)
            _remove(oldest, report)
            report.size_evicted += 1
            total -= size

    report.entries_kept = len(survivors)
    report.bytes_kept = sum(size for _, size, _ in survivors)
    return report


# ---------------------------------------------------------------------------
# Watch-manifest sweep
# ---------------------------------------------------------------------------

#: ``watch-<study key>-<NNNNN>.json`` — the rolling manifests a ``repro
#: watch`` run emits, grouped for GC by their ``watch-<study key>`` prefix.
_WATCH_MANIFEST_RE = re.compile(
    r"^(?P<prefix>watch-[0-9a-f]+)-(?P<index>\d+)\.json$"
)


@dataclass
class ManifestGcReport:
    """What one watch-manifest sweep removed and what remains."""

    expired_removed: int = 0
    count_evicted: int = 0
    staging_removed: int = 0
    manifests_kept: int = 0
    bytes_freed: int = 0
    removed_names: List[str] = field(default_factory=list)

    @property
    def manifests_removed(self) -> int:
        return self.expired_removed + self.count_evicted

    @property
    def removed_anything(self) -> bool:
        return self.manifests_removed + self.staging_removed > 0


def collect_manifest_garbage(
    manifest_root: Path,
    *,
    max_age: Optional[timedelta] = None,
    max_count: Optional[int] = None,
    staging_grace: float = STAGING_GRACE_SECONDS,
    now: Optional[float] = None,
) -> ManifestGcReport:
    """Bound the rolling ``watch-*`` manifests under a manifest directory.

    A long-lived ``repro watch`` run emits one manifest per window and
    nothing ever deletes them.  This sweep applies an age bound
    (``max_age``, by mtime) and a per-run count bound (``max_count``
    newest windows kept per ``watch-<study key>`` prefix) — **always
    keeping at least the newest manifest of every prefix**, so the live
    resume point (window index, cursor) survives any bound.  Batch run
    manifests (``<study key>.json``) are never touched; orphaned
    ``*.tmp<pid>`` staging files are swept under the same pid-liveness +
    grace policy as cache staging dirs.
    """
    report = ManifestGcReport()
    if not manifest_root.is_dir():
        return report
    now = time.time() if now is None else now

    groups: dict = {}
    for child in sorted(manifest_root.iterdir()):
        if not child.is_file():
            continue
        if ".tmp" in child.name:
            stale = _is_stale_staging(child, now=now, grace=staging_grace)
            if stale:
                try:
                    size = child.stat().st_size
                    child.unlink()
                except OSError:  # pragma: no cover - racing deletion
                    continue
                report.staging_removed += 1
                report.bytes_freed += size
                report.removed_names.append(child.name)
            continue
        match = _WATCH_MANIFEST_RE.match(child.name)
        if match is None:
            continue
        groups.setdefault(match.group("prefix"), []).append(
            (int(match.group("index")), child)
        )

    for members in groups.values():
        members.sort()  # by window index: oldest first, newest last
        survivors = []
        for position, (_, path) in enumerate(members):
            newest = position == len(members) - 1
            if newest:
                survivors.append(path)
                continue
            try:
                mtime = path.stat().st_mtime
            except OSError:  # pragma: no cover - racing deletion
                continue
            if max_age is not None and now - mtime > max_age.total_seconds():
                report.expired_removed += _unlink_file(path, report)
                continue
            survivors.append(path)
        if max_count is not None and max_count >= 1:
            while len(survivors) > max_count:
                report.count_evicted += _unlink_file(survivors.pop(0), report)
        report.manifests_kept += len(survivors)
    return report


def _unlink_file(path: Path, report: ManifestGcReport) -> int:
    """Remove one manifest file; returns 1 when it was actually removed."""
    try:
        size = path.stat().st_size
        path.unlink()
    except OSError:  # pragma: no cover - racing deletion
        return 0
    report.bytes_freed += size
    report.removed_names.append(path.name)
    return 1
