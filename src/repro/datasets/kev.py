"""Synthetic CISA Known Exploited Vulnerabilities catalog.

The paper compares DSCOPE-observed exploitation against KEV (Section 7.2):

* 424 KEV CVEs were published during the study window;
* 44 of the 63 studied CVEs (70%) appear in KEV;
* for overlapping CVEs, DSCOPE saw first exploitation *before* the KEV
  addition in 59% of cases, and 50% of CVEs were seen over 30 days earlier
  (Figure 11);
* treating the KEV addition date as "attack known" (A), 18% of KEV CVEs
  show A < P (Figure 10);
* KEV skews toward high CVSS, but less sharply than the studied set
  (Figure 2).

The builder reproduces those aggregates.  Overlap membership and KEV lag
for studied CVEs are drawn deterministically from the per-CVE RNG stream, so
the same seed always yields the same catalog.
"""

from __future__ import annotations

from datetime import datetime, timedelta
from typing import Dict, List, Optional

import numpy as np

from repro.datasets.nvd import round_tenths
from repro.datasets.records import KevEntry
from repro.datasets.seed_cves import SEED_CVES, STUDY_WINDOW, SeedCve
from repro.util.rng import derive_rng
from repro.util.timeutil import TimeWindow, utc

#: KEV launched November 2021, part-way through the study period.
KEV_PROGRAM_START = utc(2021, 11, 3)

#: Paper aggregates we calibrate against.
KEV_TOTAL_IN_WINDOW = 424
KEV_STUDIED_OVERLAP = 44

#: CVSS histogram for KEV entries: high-skewed but with a broader HIGH band
#: than the studied set (Figure 2's middle curve).
_KEV_CVSS_BUCKETS = [
    (5.0, 0.04),
    (6.0, 0.08),
    (7.0, 0.22),
    (8.0, 0.24),
    (9.0, 0.12),
    (9.8, 0.30),
]


def _overlap_seeds(seed: int) -> List[SeedCve]:
    """Deterministically choose which studied CVEs appear in KEV.

    CVEs with high expected exploitability and large event counts are the
    most likely to be reported to CISA; we rank by that and take the top 44,
    which also matches the paper's observation that the KEV-absent 30% were
    "observed by DSCOPE but not known-exploited in existing data".
    """
    rng = derive_rng(seed, "kev", "overlap")

    def reportability(row: SeedCve) -> float:
        score = row.exploitability if row.exploitability is not None else 50.0
        jitter = float(rng.uniform(0, 10))
        return score + min(row.events, 1000) / 100.0 + jitter

    ranked = sorted(SEED_CVES, key=reportability, reverse=True)
    return ranked[:KEV_STUDIED_OVERLAP]


#: Target share of overlap CVEs where DSCOPE observes exploitation before
#: the KEV addition (Figure 11 reports 59%).
DSCOPE_FIRST_SHARE = 0.59


def _kev_floor(row: SeedCve) -> datetime:
    """Earliest possible KEV addition for a CVE: after the program launched
    and after the CVE was published (KEV only tracks published CVEs)."""
    return max(KEV_PROGRAM_START, row.published + timedelta(hours=6))


def _kev_added_dates(rows: List[SeedCve], seed: int) -> Dict[str, datetime]:
    """KEV addition dates for the studied overlap CVEs.

    Calibrated to Figure 11.  CVEs whose first observed attack predates the
    KEV program launch (or their own publication) are *necessarily*
    DSCOPE-first — KEV cannot have listed them earlier.  Among the remaining
    CVEs, the DSCOPE-first share is assigned deterministically by hashed
    rank so that the overall composition lands on the paper's 59%
    irrespective of RNG stream luck; only lag magnitudes are drawn.
    """
    # The rows are distinct seed CVEs (cve_id is unique in SEED_CVES), so a
    # row is forced exactly when its cve_id is.
    forced = {
        row.cve_id for row in rows
        if (row.first_attack or row.published) <= _kev_floor(row)
    }
    flexible = [row for row in rows if row.cve_id not in forced]
    target_first = round(DSCOPE_FIRST_SHARE * len(rows))
    extra_first = max(target_first - len(forced), 0)
    ranked = sorted(
        flexible, key=lambda row: derive_rng(seed, "kev", "rank", row.cve_id).random()
    )
    dscope_first = set(row.cve_id for row in ranked[:extra_first])

    added: Dict[str, datetime] = {}
    for row in rows:
        rng = derive_rng(seed, "kev", "lag", row.cve_id)
        anchor = row.first_attack or row.published
        floor = _kev_floor(row)
        if row.cve_id in forced:
            # Reports reach CISA some time after the program can list them.
            lag = timedelta(days=float(rng.lognormal(mean=2.5, sigma=1.0)))
            added[row.cve_id] = floor + lag
        elif row.cve_id in dscope_first:
            # DSCOPE saw traffic first; KEV follows once reports accumulate
            # (median ~66 days, so most of these exceed the paper's
            # 30-days-earlier headline).
            lag = timedelta(days=float(rng.lognormal(mean=4.2, sigma=0.8)))
            added[row.cve_id] = max(anchor + lag, floor)
        else:
            # Other parties reported exploitation before the telescope's
            # first observation.
            lead = timedelta(days=float(rng.lognormal(mean=3.0, sigma=1.2)))
            added[row.cve_id] = max(anchor - lead, floor)
    return added


def build_kev(
    *,
    seed: int,
    window: Optional[TimeWindow] = None,
    total: int = KEV_TOTAL_IN_WINDOW,
) -> List[KevEntry]:
    """Build the synthetic KEV catalog restricted to the study window."""
    window = window or STUDY_WINDOW
    entries: List[KevEntry] = []
    overlap = _overlap_seeds(seed)
    added_dates = _kev_added_dates(overlap, seed)
    for row in overlap:
        entries.append(
            KevEntry(
                cve_id=row.cve_id,
                date_added=added_dates[row.cve_id],
                published=row.published,
                product=row.description.split(" ")[0],
            )
        )

    rng = derive_rng(seed, "kev", "background")
    remaining = total - len(entries)
    if remaining < 0:
        raise ValueError(f"total {total} smaller than overlap {len(entries)}")
    for index in range(remaining):
        published = window.start + timedelta(
            seconds=float(rng.uniform(0, window.duration.total_seconds()))
        )
        # A - P (Figure 10): 18% of KEV CVEs were added before their NVD
        # publication, usually by long durations (retrospective zero-days);
        # the rest follow publication with a heavy right tail.  The draw
        # probability is above the 18% target because the program-start
        # floor converts negatives for pre-Nov-2021 publications (and the
        # studied overlap never draws negative), leaving ~0.59 of draws
        # effective: 0.30 x 0.59 ~= 0.18 post-clamp.
        if rng.random() < 0.30:
            a_minus_p = -float(rng.lognormal(mean=3.0, sigma=1.3))
        else:
            a_minus_p = float(rng.lognormal(mean=3.4, sigma=1.2))
        date_added = max(published + timedelta(days=a_minus_p), KEV_PROGRAM_START)
        entries.append(
            KevEntry(
                cve_id=f"CVE-{published.year}-8{index:04d}",
                date_added=date_added,
                published=published,
            )
        )
    return entries


def kev_cvss_scores(entries: List[KevEntry], *, seed: int) -> Dict[str, float]:
    """Assign CVSS scores to KEV entries (Figure 2's KEV curve).

    Studied CVEs keep their paper-reported impact; synthetic background
    entries draw from the KEV severity histogram.  Each background entry
    draws a bucket, as ``rng.choice(p=)`` would, then a score, as
    ``rng.uniform(low, high)`` would: all of those uniforms come from one
    ``rng.random`` call, even ones through the choice's ``cdf.searchsorted``
    and odd ones through the uniform's ``low + (high - low) * u``.
    """
    studied_impact = {row.cve_id: row.impact for row in SEED_CVES}
    rng = derive_rng(seed, "kev", "cvss")
    edges = [edge for edge, _ in _KEV_CVSS_BUCKETS]
    weights = [weight for _, weight in _KEV_CVSS_BUCKETS]
    total_weight = sum(weights)
    background = [entry.cve_id for entry in entries if entry.cve_id not in studied_impact]
    uniforms = rng.random(2 * len(background))
    cdf = np.array([w / total_weight for w in weights]).cumsum()
    cdf /= cdf[-1]
    buckets = cdf.searchsorted(uniforms[0::2], side="right")
    bounds = np.array(edges + [10.0])
    low, high = bounds[buckets], bounds[buckets + 1]
    scores = np.minimum(low + (high - low) * uniforms[1::2], 10.0)
    # A repeated CVE keeps its last draw, as it would from scalar draws.
    drawn = dict(zip(background, round_tenths(scores).tolist()))
    return {
        cve_id: studied_impact[cve_id] if cve_id in studied_impact else drawn[cve_id]
        for cve_id in (entry.cve_id for entry in entries)
    }
