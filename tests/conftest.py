"""Shared fixtures.

The full study pipeline is deterministic, so one small-scale run is shared
(session-scoped) by every integration-style test; unit tests build their own
fixtures.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.pipeline import StudyConfig, StudyResult, run_study
from repro.nids import engine


@pytest.fixture(scope="session")
def study() -> StudyResult:
    """A small but complete study run (same seed as the benchmarks)."""
    return run_study(
        StudyConfig(
            volume_scale=0.02,
            background_per_exploit=0.3,
            background_nvd_count=2000,
        )
    )


@pytest.fixture(scope="session")
def bundle(study: StudyResult):
    return study.bundle


@pytest.fixture()
def scan_fault(monkeypatch):
    """Make one chunk of every parallel scan in the test fail in its worker.

    ``scan_fault("worker_crash:<k>", workers=n)`` makes the pool worker
    scanning chunk ``k`` of an ``n``-worker scan die through ``os._exit``,
    which breaks the whole pool; ``"chunk_error:<k>"`` makes it raise.  The
    patched scan core reaches the workers through fork.  The parent holds
    no worker columns, so its own rescans run the real scan.
    """
    real = engine.scan_rows

    def install(spec: str, *, workers: int) -> None:
        kind, chunk = spec.split(":")
        if kind not in ("worker_crash", "chunk_error"):
            raise ValueError(f"unknown fault {spec!r}")
        chunk = int(chunk)

        def faulty(ruleset, columns, start, stop):
            inherited = engine._worker_columns
            if inherited is not None:
                size = -(-len(inherited) // (workers * engine.CHUNKS_PER_WORKER))
                if start == chunk * size:
                    if kind == "worker_crash":
                        os._exit(99)
                    raise RuntimeError(f"injected {spec}")
            return real(ruleset, columns, start, stop)

        monkeypatch.setattr(engine, "scan_rows", faulty)

    return install
