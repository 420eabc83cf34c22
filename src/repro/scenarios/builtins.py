"""Built-in components and scenarios (registered on package import).

Each component factory takes the effective :class:`StudyConfig` (plus, for
window-bound kinds, the study window) and keyword params from the
scenario's :class:`ComponentRef`.  The ``paper-*`` components reproduce the
pipeline's historical hard-wired constructors exactly; everything else is
a variation the registry makes possible.
"""

from __future__ import annotations

from datetime import timedelta
from pathlib import Path

import numpy as np

from repro.datasets.feeds import FixesFeedSource, KevFeedSource, Nvd2FeedSource
from repro.datasets.seed_cves import STUDY_WINDOW
from repro.datasets.sources import (
    CvssColumn,
    DatasetPlan,
    SyntheticExploitEvidence,
    SyntheticStudiedNvd,
    SyntheticTalosReports,
    default_plan,
)
from repro.exploits.rulegen import build_study_ruleset
from repro.lifecycle.rca import RootCauseAnalysis
from repro.scenarios.registry import scenario
from repro.scenarios.resolve import register_scenario
from repro.scenarios.spec import ComponentRef, Scenario
from repro.telescope.collector import DscopeCollector
from repro.telescope.config import TelescopeConfig
from repro.traffic.arrivals import ArrivalColumns
from repro.traffic.generator import TrafficConfig, TrafficGenerator
from repro.util.rng import derive_seed

#: Default location of the committed feed snapshots (repo-relative).
DEFAULT_FEED_DIR = "tests/data/feeds"


def _rule_delay_days(config) -> int:
    return int(config.rule_delay.total_seconds() // 86400)


# --------------------------------------------------------------------------
# dataset components
# --------------------------------------------------------------------------


@scenario.register(
    "synthetic-default",
    kind="dataset",
    description="Every Table-2 slot from its synthetic builder (paper default)",
)
def synthetic_default(config, **params) -> DatasetPlan:
    return default_plan(
        seed=config.seed,
        background_count=config.background_nvd_count,
        rule_delay_days=_rule_delay_days(config),
        **params,
    )


@scenario.register(
    "real-feeds",
    kind="dataset",
    description="NVD 2.0 + CISA KEV + CVEfixes snapshots from --feed-dir",
)
def real_feeds(
    config,
    *,
    nvd: str = "nvd.json",
    kev: str = "kev.json",
    fixes: str = "fixes.csv",
) -> DatasetPlan:
    feed_dir = Path(getattr(config, "feed_dir", None) or DEFAULT_FEED_DIR)
    for filename in (nvd, kev, fixes):
        if not (feed_dir / filename).is_file():
            raise FileNotFoundError(
                f"feed snapshot {feed_dir / filename} not found "
                "(pass --feed-dir / StudyConfig(feed_dir=...) pointing at "
                "a directory holding nvd.json, kev.json, fixes.csv)"
            )
    window = STUDY_WINDOW
    return DatasetPlan(
        seed=config.seed,
        window=window,
        sources={
            # The studied frame (which CVEs the paper follows) stays
            # synthetic; the populations joined against it come from the
            # real snapshots.
            "nvd": SyntheticStudiedNvd(),
            "nvd_background": CvssColumn(
                Nvd2FeedSource(str(feed_dir / nvd), window=window)
            ),
            "kev": KevFeedSource(str(feed_dir / kev), window=window),
            "rule_history": FixesFeedSource(str(feed_dir / fixes), window=window),
            "talos_reports": SyntheticTalosReports(),
            "exploit_evidence": SyntheticExploitEvidence(),
        },
    )


# --------------------------------------------------------------------------
# traffic components
# --------------------------------------------------------------------------


@scenario.register(
    "paper-traffic",
    kind="traffic",
    description="The paper's scanner mix (campaigns + Log4Shell + background)",
)
def paper_traffic(config, window, **params) -> TrafficGenerator:
    return TrafficGenerator(
        TrafficConfig(
            seed=config.seed,
            volume_scale=config.volume_scale,
            background_per_exploit=config.background_per_exploit,
            **params,
        ),
        window=window,
    )


@scenario.register(
    "botnet-burst",
    kind="traffic",
    description="Coordinated botnet: 2x exploit sources, tight port targeting",
)
def botnet_burst(
    config,
    window,
    *,
    exploit_source_count: int = 7200,
    offport_fraction: float = 0.05,
    background_shards: int = 2,
) -> TrafficGenerator:
    return TrafficGenerator(
        TrafficConfig(
            seed=config.seed,
            volume_scale=config.volume_scale,
            background_per_exploit=config.background_per_exploit,
            exploit_source_count=exploit_source_count,
            offport_fraction=offport_fraction,
            background_shards=background_shards,
        ),
        window=window,
    )


class EvasiveTraffic:
    """Wrap a traffic source, deterministically mutating exploit payloads.

    Models scanners that mangle payloads to dodge signatures: per exploit
    arrival a seed derived from (study seed, absolute arrival index) picks
    leave-alone, null-padding (survives content matches), or ASCII
    case-flipping (defeats case-sensitive content matches).  The mangling
    is keyed by index, so an arrival's payload depends only on its place
    in the stream.
    """

    def __init__(self, inner: TrafficGenerator, *, seed: int, pad_max: int = 12):
        self.inner = inner
        self.seed = seed
        self.pad_max = pad_max

    def _mangle(self, payload: bytes, index: int) -> bytes:
        """The exploit payload of the arrival at ``index``, as sent."""
        token = derive_seed(self.seed, "evasive", index)
        mode = token % 3
        if mode == 1:
            return payload + b"\x00" * (1 + (token >> 2) % self.pad_max)
        if mode == 2:
            return payload.swapcase()
        return payload

    def generate(self, *, tracer=None) -> ArrivalColumns:
        """The inner stream with each exploit row's payload index pointing
        at its mangled payload, interned into the heap."""
        arrivals = self.inner.generate(tracer=tracer)
        heap = {payload: code for code, payload in enumerate(arrivals.heap)}
        codes = arrivals.payload.tolist()
        for row in np.flatnonzero(arrivals.truth >= 0).tolist():
            payload = self._mangle(arrivals.heap[codes[row]], row)
            codes[row] = heap.setdefault(payload, len(heap))
        return arrivals.with_payloads(np.array(codes, np.int32), list(heap))

    #: The rows of :meth:`generate` from a cursor, as for the inner source.
    stream = TrafficGenerator.stream


@scenario.register(
    "evasive-payloads",
    kind="traffic",
    description="Paper mix with deterministic per-arrival payload mangling",
)
def evasive_payloads(config, window, *, pad_max: int = 12) -> EvasiveTraffic:
    return EvasiveTraffic(
        paper_traffic(config, window), seed=config.seed, pad_max=pad_max
    )


# --------------------------------------------------------------------------
# telescope components
# --------------------------------------------------------------------------


@scenario.register(
    "paper-telescope",
    kind="telescope",
    description="DSCOPE defaults: config.telescope_instances, 10-min lifetime",
)
def paper_telescope(config, window, **params) -> DscopeCollector:
    return DscopeCollector(
        TelescopeConfig(
            concurrent_instances=config.telescope_instances,
            seed=config.seed,
            **params,
        ),
        window=window,
    )


@scenario.register(
    "sparse-telescope",
    kind="telescope",
    description="Quarter-size pool with longer-lived instances",
)
def sparse_telescope(
    config,
    window,
    *,
    instances: int = 75,
    lifetime_minutes: int = 30,
) -> DscopeCollector:
    return DscopeCollector(
        TelescopeConfig(
            concurrent_instances=instances,
            instance_lifetime=timedelta(minutes=lifetime_minutes),
            seed=config.seed,
        ),
        window=window,
    )


# --------------------------------------------------------------------------
# rules components
# --------------------------------------------------------------------------


@scenario.register(
    "paper-rules",
    kind="rules",
    description="The retrospective study ruleset (signatures + FP fodder)",
)
def paper_rules(config, **params):
    return build_study_ruleset(rule_delay=config.rule_delay, **params)


@scenario.register(
    "scaled-rules",
    kind="rules",
    description="Study ruleset merged with a synthetic scaled corpus",
)
def scaled_rules(config, *, size: int = 2000):
    from repro.nids.scale import ScaleConfig, generate_scaled

    ruleset = build_study_ruleset(rule_delay=config.rule_delay)
    scale_config = ScaleConfig(size=size, seed=derive_seed(config.seed, "scaled-rules"))
    for scaled in generate_scaled(scale_config):
        if scaled.fodder is None:
            ruleset.add(scaled.rule, scaled.published)
    return ruleset


# --------------------------------------------------------------------------
# rca components
# --------------------------------------------------------------------------


@scenario.register(
    "paper-rca",
    kind="rca",
    description="Paper RCA: 0.5 exploit threshold over 50 leading sessions",
)
def paper_rca(config, payloads, **params) -> RootCauseAnalysis:
    return RootCauseAnalysis(payloads, **params)


@scenario.register(
    "strict-rca",
    kind="rca",
    description="Aggressive FP pruning: 0.8 threshold, 25 leading sessions",
)
def strict_rca(
    config,
    payloads,
    *,
    exploit_threshold: float = 0.8,
    leading_sample: int = 25,
) -> RootCauseAnalysis:
    return RootCauseAnalysis(
        payloads,
        exploit_threshold=exploit_threshold,
        leading_sample=leading_sample,
    )


# --------------------------------------------------------------------------
# built-in scenarios
# --------------------------------------------------------------------------

register_scenario(
    Scenario(
        name="paper-default",
        description="The paper's pipeline exactly as hard-wired historically",
    )
)

#: The sized scenarios (quick / standard / full); config
#: overrides only, so their cache keys match equivalent hand-built configs.
PRESET_SCENARIOS = {
    "quick": dict(
        volume_scale=0.02, background_per_exploit=0.3, background_nvd_count=2000
    ),
    "standard": dict(
        volume_scale=0.1, background_per_exploit=0.5, background_nvd_count=20000
    ),
    "full": dict(
        volume_scale=1.0, background_per_exploit=1.0, background_nvd_count=20000
    ),
}

_PRESET_BLURBS = {
    "quick": "CI-sized run (2% volume, 2k background CVEs)",
    "standard": "Interactive run (10% volume)",
    "full": "The paper's complete traffic volume",
}

for _name, _overrides in PRESET_SCENARIOS.items():
    register_scenario(
        Scenario(name=_name, description=_PRESET_BLURBS[_name], config=_overrides)
    )

register_scenario(
    Scenario(
        name="sparse-telescope",
        description="75 longer-lived telescope instances instead of 300",
        components={
            "telescope": ComponentRef(
                "sparse-telescope", {"instances": 75, "lifetime_minutes": 30}
            )
        },
    )
)

register_scenario(
    Scenario(
        name="botnet-burst",
        description="Coordinated botnet scanner population",
        components={"traffic": ComponentRef("botnet-burst")},
    )
)

register_scenario(
    Scenario(
        name="evasive-payloads",
        description="Exploit payloads deterministically mangled to test evasion",
        components={"traffic": ComponentRef("evasive-payloads")},
    )
)

register_scenario(
    Scenario(
        name="scaled-rules",
        description="Detection under a 2k-rule synthetic corpus merged in",
        components={"rules": ComponentRef("scaled-rules", {"size": 2000})},
    )
)

register_scenario(
    Scenario(
        name="strict-rca",
        description="Aggressive root-cause pruning (0.8 threshold)",
        components={"rca": ComponentRef("strict-rca")},
    )
)

register_scenario(
    Scenario(
        name="real-feeds",
        description="NVD/KEV/fixes populations from local feed snapshots",
        components={"dataset": ComponentRef("real-feeds")},
    )
)
