"""Opt-in ``cProfile`` hooks for the pipeline's hot stages.

Tracing says *which stage* was slow; profiling says *which function inside
it*.  Profiling is never free, so it is opt-in: set ``REPRO_PROFILE=1``
(or any truthy value) and :class:`StageProfiler` wraps each hot stage —
traffic generation, telescope capture, the NIDS scan — in its own
``cProfile.Profile``, keeping the top-N functions by cumulative time.  The
digest attaches to the run manifest's ``execution.profile`` section, so a
slow run's flame evidence travels with the run record.

With the variable unset every hook is a no-op ``nullcontext`` — zero
overhead on the paths every other run takes.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only; loaded where profiling runs
    import cProfile

#: Functions kept per stage, ranked by cumulative time.
TOP_N = 20

_FALSY = {"", "0", "false", "no", "off"}


def profiling_enabled() -> bool:
    """Whether ``REPRO_PROFILE`` asks for stage profiles."""
    return os.environ.get("REPRO_PROFILE", "").strip().lower() not in _FALSY


def _top_functions(profile: cProfile.Profile, limit: int) -> List[Dict[str, object]]:
    import pstats

    stats = pstats.Stats(profile)
    rows = []
    for func, (cc, nc, tottime, cumtime, _callers) in stats.stats.items():  # type: ignore[attr-defined]
        filename, lineno, name = func
        rows.append(
            {
                "function": f"{os.path.basename(filename)}:{lineno}({name})",
                "ncalls": nc,
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
            }
        )
    rows.sort(key=lambda row: row["cumtime"], reverse=True)  # type: ignore[arg-type, return-value]
    return rows[:limit]


class StageProfiler:
    """Collects per-stage profiles for one run (when enabled)."""

    def __init__(
        self, *, enabled: Optional[bool] = None, top_n: int = TOP_N
    ) -> None:
        self.enabled = profiling_enabled() if enabled is None else enabled
        self.top_n = top_n
        self._stages: Dict[str, List[Dict[str, object]]] = {}

    def stage(self, name: str):
        """Context manager profiling one stage (no-op when disabled)."""
        if not self.enabled:
            return nullcontext(None)
        return self._profile_stage(name)

    @contextmanager
    def _profile_stage(self, name: str) -> Iterator[cProfile.Profile]:
        import cProfile

        profile = cProfile.Profile()
        profile.enable()
        try:
            yield profile
        finally:
            profile.disable()
            self._stages[name] = _top_functions(profile, self.top_n)

    def results(self) -> Optional[Dict[str, List[Dict[str, object]]]]:
        """Per-stage top-N digests (None when profiling was off or unused)."""
        return dict(self._stages) if self._stages else None
