"""Cache entry integrity: per-file checksums and verification.

A cache entry is a directory of data files (one compressed column
container per heavy stage, named by :data:`repro.cache.study.STAGES`) plus
a ``meta.json`` completion marker.  The marker records, for every data
file, its byte size and a BLAKE2b digest of its on-disk (compressed)
bytes, plus every stage's record count.  :func:`verify_entry` checks an
entry against its own manifest and the file names the caller expects; the
cache calls it before trusting a hit, the publish path calls it
(shallowly) to distinguish a *complete* concurrent entry from stale debris
squatting on the slot, and ``repro cache verify`` exposes it to operators.
The digests guard the bytes; what they decode to is checked by the stage
readers, which reject malformed content with ``ValueError``.

The distinction matters because the failure modes differ:

* a **complete** entry (readable manifest, every file present at the
  recorded size, digests matching) is equivalent to anything a concurrent
  writer would publish — losing the rename race to it is benign;
* a **torn** entry (no readable ``meta.json``, or files missing/short) is
  debris from a crashed or interrupted writer — it must be evicted, or it
  blocks its key forever.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.cache.fingerprint import digest_file


@dataclass
class EntryReport:
    """Outcome of verifying one cache entry."""

    path: Path
    key: str
    ok: bool
    problems: List[str] = field(default_factory=list)
    #: Total on-disk bytes of the files named by the manifest (0 if the
    #: manifest itself is unreadable).
    bytes: int = 0
    meta: Optional[dict] = None

    @property
    def summary(self) -> str:
        state = "ok" if self.ok else "; ".join(self.problems)
        return f"{self.key}: {state}"


def read_meta(entry: Path) -> Optional[dict]:
    """The entry's ``meta.json`` as a dict, or None if missing/unreadable."""
    try:
        meta = json.loads((entry / "meta.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return meta if isinstance(meta, dict) else None


def file_entry(path: Path) -> Dict[str, object]:
    """One data file's manifest entry: BLAKE2b digest and byte size.

    Computed when a file is written (into an entry's staging directory or a
    partial entry), so the manifest describes exactly the bytes that get
    published.
    """
    return {"blake2b": digest_file(path), "bytes": path.stat().st_size}


def verify_entry(
    entry: Path,
    *,
    deep: bool = True,
    expect_schema: Optional[int] = None,
    expect_files: Iterable[str] = (),
) -> EntryReport:
    """Check one entry directory against its own manifest.

    Every name in ``expect_files`` must be listed in the manifest.
    Shallow (``deep=False``) checks the manifest is readable and every
    listed file exists at its recorded size — enough to tell a complete
    entry from a torn one without reading data bytes.  Deep verification
    additionally recomputes every file's BLAKE2b digest.
    """
    report = EntryReport(path=entry, key=entry.name, ok=False)
    meta = read_meta(entry)
    if meta is None:
        report.problems.append("missing or unreadable meta.json")
        return report
    report.meta = meta
    if expect_schema is not None and meta.get("schema") != expect_schema:
        report.problems.append(
            f"schema {meta.get('schema')!r} != expected {expect_schema}"
        )
    manifest = meta.get("files")
    if not isinstance(manifest, dict) or not manifest:
        report.problems.append("meta.json lacks a file manifest")
        return report
    for name in expect_files:
        if name not in manifest:
            report.problems.append(f"{name}: absent from manifest")
    for name, expected in sorted(manifest.items()):
        path = entry / name
        if not path.is_file():
            report.problems.append(f"{name}: missing")
            continue
        size = path.stat().st_size
        report.bytes += size
        if size != expected.get("bytes"):
            report.problems.append(
                f"{name}: {size} bytes on disk != {expected.get('bytes')} recorded"
            )
            continue
        if deep and digest_file(path) != expected.get("blake2b"):
            report.problems.append(f"{name}: checksum mismatch")
    report.ok = not report.problems
    return report
