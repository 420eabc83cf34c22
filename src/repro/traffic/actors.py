"""Scanner actors: who sends the traffic.

The paper observes that of 15M source IPs contacting DSCOPE, only ~3.6k
sourced traffic targeting new CVEs — exploit campaigns are concentrated in
a small population of sources, while the bulk of scanning is credential
stuffing and longstanding-vulnerability probing.  :class:`ScannerPopulation`
models both groups: a small pool of exploit-scanner sources shared across
CVE campaigns, and a much larger background population.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.util.rng import derive_rng

#: Address blocks scanners commonly originate from (hosting providers and
#: bulletproof ranges); values are arbitrary non-cloud prefixes.
_SCANNER_PREFIXES = [
    (0x2D000000, 8),   # 45.0.0.0/8
    (0x5B000000, 8),   # 91.0.0.0/8
    (0xB9000000, 8),   # 185.0.0.0/8
    (0xCB000000, 8),   # 203.0.0.0/8
]

assert all(prefix_len == 8 for _, prefix_len in _SCANNER_PREFIXES), (
    "_scanner_pool draws 24 host bits: every scanner prefix must be a /8"
)
_SCANNER_BASES = np.array([base for base, _ in _SCANNER_PREFIXES], dtype=np.int64)

#: ``(prefix, host)`` pairs per broadcast draw.  Blocks keep each array
#: small enough for the allocator to reuse, so the pool's peak memory is
#: that of its Python ints.
_DRAW_BLOCK = 4096


def _scanner_pool(rng: np.random.Generator, count: int) -> List[int]:
    """The distinct addresses, sorted, of ``count`` scanner draws: a
    uniform prefix, then a host in ``[1, 2**24 - 2]`` under it.

    Each block is one broadcast draw of ``(prefix, host)`` pairs; on
    numpy's ``Generator`` this consumes the same stream as interleaved
    scalar draws of the prefix index and the host."""
    pool = set()
    for start in range(0, count, _DRAW_BLOCK):
        draws = rng.integers(
            np.array([0, 1]),
            np.array([len(_SCANNER_PREFIXES), (1 << 24) - 1]),
            size=(min(_DRAW_BLOCK, count - start), 2),
        )
        pool.update((_SCANNER_BASES[draws[:, 0]] | draws[:, 1]).tolist())
    return sorted(pool)


class ScannerPopulation:
    """Deterministic pools of scanner source addresses.

    ``exploit_sources`` is the small pool campaigns draw from (paper: 3.6k
    sources across all studied CVEs); ``background_sources`` is the large
    pool of everything else.
    """

    def __init__(
        self,
        *,
        seed: int,
        exploit_source_count: int = 3600,
        background_source_count: int = 150000,
    ) -> None:
        if exploit_source_count <= 0 or background_source_count <= 0:
            raise ValueError("source counts must be positive")
        rng = derive_rng(seed, "scanner-population")
        self.exploit_sources = _scanner_pool(rng, exploit_source_count)
        self.background_sources = _scanner_pool(rng, background_source_count)
        self._seed = seed

    def campaign_sources(self, cve_id: str, events: int) -> List[int]:
        """The source IPs running one CVE's campaign.

        Campaign size scales sub-linearly with event volume: a handful of
        sources for rare CVEs, hundreds for the mass campaigns (Hikvision,
        Confluence), drawn from the shared exploit-source pool so sources
        overlap across campaigns as the paper's source counts imply.
        """
        rng = derive_rng(self._seed, "campaign", cve_id)
        size = int(np.clip(round(events ** 0.55), 1, len(self.exploit_sources)))
        picks = rng.choice(len(self.exploit_sources), size=size, replace=False)
        return [self.exploit_sources[int(i)] for i in picks]

    def source_for_event(
        self, sources: List[int], rng: np.random.Generator
    ) -> int:
        """Pick the source for one event (heavy-tailed: few sources send
        most of a campaign's traffic)."""
        if not sources:
            raise ValueError("empty campaign source list")
        # Zipf-ish weighting over the campaign's sources.
        rank = int(rng.zipf(1.5)) - 1
        return sources[min(rank, len(sources) - 1)]

    def background_source(self, rng: np.random.Generator) -> int:
        index = int(rng.integers(0, len(self.background_sources)))
        return self.background_sources[index]
