"""The :class:`DatasetSource` protocol: every study input as pluggable data.

The paper's Table 2 lists six data sources.  This module turns each into
an object satisfying one small protocol:

* ``fetch()`` returns the slot's records (already normalised into the
  :mod:`repro.datasets.records` schemata).  The ``nvd_background`` slot is
  the exception: its source returns a column of CVSS scores, because
  Figure 2's "all CVEs" CDF is the only reader of that population.  Feed
  adapters that parse full records fill it through :class:`CvssColumn`;
* ``fingerprint()`` returns a stable content digest of *what the source
  would fetch* — parameters for synthetic builders, file bytes for feed
  snapshots — so the study cache key, columnar shards, and serve ETags can
  tell two data populations apart without fetching either.

A :class:`DatasetPlan` maps every bundle slot to a source;
:func:`repro.datasets.loader.build_bundle` consumes the plan.  The synthetic
sources here reproduce the historical builders bit-for-bit; the real-feed
adapters live in :mod:`repro.datasets.feeds`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.datasets.kev import build_kev
from repro.datasets.nvd import background_cvss, studied_cve_records
from repro.datasets.seed_cves import STUDY_WINDOW
from repro.datasets.suciu import exploit_evidence_from_seeds
from repro.datasets.talos import rule_history_from_seeds, talos_reports_from_seeds
from repro.util.timeutil import TimeWindow

#: Seed of the paper-default study (the submission date, YYYYMMDD).
DEFAULT_SEED = 20230321

#: The bundle slots a plan must fill, in :class:`DatasetBundle` field order.
SLOTS: Tuple[str, ...] = (
    "nvd",
    "nvd_background",
    "kev",
    "rule_history",
    "talos_reports",
    "exploit_evidence",
)


class DatasetSource:
    """Protocol for one data source (structural; subclassing optional).

    Implementations carry a ``name`` (the registry identity), ``fetch()``
    returning the slot's record list (CVSS scores for ``nvd_background``),
    and ``fingerprint()`` — a digest that changes exactly when ``fetch()``
    would return different records.
    """

    name: str = "abstract"

    def fetch(self) -> Sequence[object]:  # pragma: no cover - protocol
        raise NotImplementedError

    def fingerprint(self) -> str:  # pragma: no cover - protocol
        raise NotImplementedError


def params_fingerprint(name: str, params: Mapping[str, object]) -> str:
    """Digest of a synthetic source's identity: its name plus parameters."""
    payload = json.dumps(
        {"source": name, "params": dict(params)}, sort_keys=True, default=str
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


@dataclass(frozen=True)
class SyntheticStudiedNvd(DatasetSource):
    """NVD records for the studied CVEs (Appendix E + catalog, verbatim)."""

    name: str = field(default="synthetic-nvd-studied", init=False)

    def fetch(self):
        return studied_cve_records()

    def fingerprint(self) -> str:
        return params_fingerprint(self.name, {})


@dataclass(frozen=True)
class SyntheticNvdBackground(DatasetSource):
    """Synthetic full-NVD CVSS column (Figure 2's background CDF)."""

    seed: int
    count: int = 20000
    window: Optional[TimeWindow] = None
    name: str = field(default="synthetic-nvd-background", init=False)

    def fetch(self):
        return background_cvss(
            seed=self.seed, count=self.count, window=self.window or STUDY_WINDOW
        )

    def fingerprint(self) -> str:
        window = self.window or STUDY_WINDOW
        return params_fingerprint(
            self.name,
            {"seed": self.seed, "count": self.count, "window": str(window)},
        )


@dataclass(frozen=True)
class CvssColumn(DatasetSource):
    """Reduce a record source to the ``nvd_background`` slot's CVSS column.

    ``fetch()`` still parses and validates every record through the wrapped
    source; the column has the same fingerprint, because it is a function
    of what the wrapped source fetches.
    """

    source: DatasetSource

    @property
    def name(self) -> str:
        return self.source.name

    def fetch(self):
        return [record.cvss for record in self.source.fetch()]

    def fingerprint(self) -> str:
        return self.source.fingerprint()


@dataclass(frozen=True)
class SyntheticKev(DatasetSource):
    """Synthetic CISA KEV catalog calibrated to the paper's aggregates."""

    seed: int
    window: Optional[TimeWindow] = None
    name: str = field(default="synthetic-kev", init=False)

    def fetch(self):
        return build_kev(seed=self.seed, window=self.window or STUDY_WINDOW)

    def fingerprint(self) -> str:
        window = self.window or STUDY_WINDOW
        return params_fingerprint(
            self.name, {"seed": self.seed, "window": str(window)}
        )


@dataclass(frozen=True)
class SyntheticRuleHistory(DatasetSource):
    """Talos rule availability history from the seed table (F and D)."""

    delayed_days: int = 0
    name: str = field(default="synthetic-rule-history", init=False)

    def fetch(self):
        return rule_history_from_seeds(delayed_days=self.delayed_days)

    def fingerprint(self) -> str:
        return params_fingerprint(self.name, {"delayed_days": self.delayed_days})


@dataclass(frozen=True)
class SyntheticTalosReports(DatasetSource):
    """Talos vulnerability report history (V for Talos-disclosed CVEs)."""

    name: str = field(default="synthetic-talos-reports", init=False)

    def fetch(self):
        return talos_reports_from_seeds()

    def fingerprint(self) -> str:
        return params_fingerprint(self.name, {})


@dataclass(frozen=True)
class SyntheticExploitEvidence(DatasetSource):
    """Suciu et al. exploit evidence transcribed from Appendix E."""

    name: str = field(default="synthetic-exploit-evidence", init=False)

    def fetch(self):
        return exploit_evidence_from_seeds()

    def fingerprint(self) -> str:
        return params_fingerprint(self.name, {})


@dataclass(frozen=True)
class DatasetPlan:
    """Which source fills each bundle slot, plus the window/seed frame.

    ``seed`` seeds the cross-source derivations the bundle builder performs
    itself (today: KEV CVSS score assignment); the individual sources carry
    their own seeds where they need one.
    """

    seed: int
    window: TimeWindow
    sources: Mapping[str, DatasetSource]

    def __post_init__(self) -> None:
        missing = [slot for slot in SLOTS if slot not in self.sources]
        if missing:
            raise ValueError(f"plan missing sources for slots: {missing}")
        unknown = [slot for slot in self.sources if slot not in SLOTS]
        if unknown:
            raise ValueError(f"plan names unknown slots: {unknown}")

    def fingerprint(self) -> str:
        """Digest over every slot's source fingerprint (plus the frame)."""
        payload = json.dumps(
            {
                "seed": self.seed,
                "window": str(self.window),
                "sources": {
                    slot: self.sources[slot].fingerprint() for slot in SLOTS
                },
            },
            sort_keys=True,
        )
        return hashlib.blake2b(
            payload.encode("utf-8"), digest_size=16
        ).hexdigest()


def default_plan(
    *,
    seed: int = DEFAULT_SEED,
    window: Optional[TimeWindow] = None,
    background_count: int = 20000,
    rule_delay_days: int = 0,
) -> DatasetPlan:
    """The paper-default plan: every slot filled by its synthetic builder."""
    window = window or STUDY_WINDOW
    sources: Dict[str, DatasetSource] = {
        "nvd": SyntheticStudiedNvd(),
        "nvd_background": SyntheticNvdBackground(
            seed=seed, count=background_count, window=window
        ),
        "kev": SyntheticKev(seed=seed, window=window),
        "rule_history": SyntheticRuleHistory(delayed_days=rule_delay_days),
        "talos_reports": SyntheticTalosReports(),
        "exploit_evidence": SyntheticExploitEvidence(),
    }
    return DatasetPlan(seed=seed, window=window, sources=sources)
