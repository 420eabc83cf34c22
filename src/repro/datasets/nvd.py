"""Synthetic NVD feed.

Two products:

* :func:`studied_cve_records` — NVD records for the 63-CVE study set, built
  from the Appendix E seed table plus the categorical catalog.  Publication
  dates and severities are the paper's.
* :func:`background_cvss` — the CVSS column of a synthetic "all CVEs
  published 2021-2023" population for Figure 2's impact-CDF comparison.
  The paper compares the studied set (median CVSS 9.8) and KEV against the
  full NVD population; only the *severity distribution* of that population
  matters, so we sample CVSS scores from the well-known NVD severity
  histogram (mode in the 7.0-8.0 HIGH band, thin CRITICAL tail) and build
  no per-CVE records.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.datasets.catalog import CVE_PROFILES
from repro.datasets.records import CveRecord
from repro.datasets.seed_cves import SEED_CVES, STUDY_WINDOW
from repro.util.rng import derive_rng
from repro.util.timeutil import TimeWindow

#: NVD CVSS v3 base-score histogram (bucket lower edge -> weight).  Values
#: approximate the published NVD distribution for 2021-2023: LOW is rare,
#: MEDIUM and HIGH dominate, a modest CRITICAL share.
_CVSS_BUCKETS = [
    (2.0, 0.01),
    (3.0, 0.02),
    (4.0, 0.08),
    (5.0, 0.16),
    (6.0, 0.20),
    (7.0, 0.24),
    (8.0, 0.13),
    (9.0, 0.13),
    (9.8, 0.03),
]


def studied_cve_records() -> List[CveRecord]:
    """NVD records for the studied CVEs (P dates and CVSS from the paper)."""
    records = []
    for seed in SEED_CVES:
        profile = CVE_PROFILES[seed.cve_id]
        records.append(
            CveRecord(
                cve_id=seed.cve_id,
                published=seed.published,
                cvss=seed.impact,
                description=seed.description,
                vendor=profile.vendor,
                cwe=profile.cwe,
                assigner=profile.assigner,
            )
        )
    return records


def background_cvss(
    *,
    seed: int,
    count: int = 20000,
    window: Optional[TimeWindow] = None,
) -> Tuple[float, ...]:
    """CVSS scores of a synthetic full-NVD population, in draw order.

    The real window saw ~50k CVEs; ``count`` defaults lower because only the
    severity CDF is consumed (Figure 2) and it converges quickly.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    window = window or STUDY_WINDOW
    rng = derive_rng(seed, "nvd-background")
    edges = [edge for edge, _ in _CVSS_BUCKETS]
    weights = [weight for _, weight in _CVSS_BUCKETS]
    total = sum(weights)
    probabilities = [weight / total for weight in weights]
    bucket_choices = rng.choice(len(edges), size=count, p=probabilities)
    # The publication-offset draw is thrown away (nothing reads a background
    # CVE's date), but it stays: dropping it would shift every score drawn
    # after it, and with them Figure 2.
    rng.uniform(0.0, window.duration.total_seconds(), size=count)
    # One broadcast draw over every score's bucket bounds consumes the
    # stream a scalar ``rng.uniform(low, high)`` per score would.
    bounds = np.array(edges + [10.0])
    scores = rng.uniform(bounds[bucket_choices], bounds[bucket_choices + 1])
    return tuple(np.minimum(round_tenths(scores), 10.0).tolist())


def round_tenths(values: np.ndarray) -> np.ndarray:
    """``round(value, 1)`` for every value in [0, 10], as one array pass.

    Python's ``round`` rounds the value's exact decimal expansion, ties to
    even; ``np.round`` scales by 10 first and so differs near ties.  Here
    ``10 * value`` is off by at most one ulp, so away from a tie its floor
    and fraction pick the same tenth ``round`` does, and the tenth divided
    by 10 is the same double.  Values within 1e-6 of a half-tenth go
    through ``round`` itself.
    """
    scaled = values * 10.0
    tenths = np.floor(scaled)
    fraction = scaled - tenths
    rounded = (tenths + (fraction > 0.5)) / 10.0
    for index in np.flatnonzero(np.abs(fraction - 0.5) < 1e-6).tolist():
        rounded[index] = round(float(values[index]), 1)
    return rounded
