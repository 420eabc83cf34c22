"""The paper's analytical core: the CERT (Householder–Spring) model of CVD
and the paper's two refinements of it.

* :mod:`repro.core.desiderata` — the event-ordering desiderata (Table 3).
* :mod:`repro.core.histories` — admissible event histories under a
  uniform-transition Markov process, and the exact baseline probability of
  each desideratum being satisfied by luck.
* :mod:`repro.core.skill` — the skill statistic
  ``a_d = (f_obs − f_d) / (1 − f_d)`` over measured timelines (Table 4).
* :mod:`repro.core.perevent` — per-exploit-event satisfaction (Table 5),
  the paper's exposure-weighted refinement.
* :mod:`repro.core.windows` — windows of vulnerability: time-difference
  CDFs between events (Figure 5, Appendix D).
* :mod:`repro.core.hypothetical` — the Finding 7 counterfactual (include
  IDS vendors in disclosure).
* :mod:`repro.core.exposure` — mitigated vs unmitigated exposure over time
  (Figures 6-7).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.desiderata": (
        "DESIDERATA", "Desideratum", "OrderingRelation", "desiderata_matrix",
    ),
    "repro.core.histories": (
        "EventModel", "HOUSEHOLDER_SPRING_MODEL", "THIS_WORK_MODEL",
        "baseline_frequencies", "enumerate_histories", "simulate_history",
    ),
    "repro.core.skill": ("SkillReport", "compute_skill", "skill", "skill_table"),
    "repro.core.perevent": ("per_event_satisfaction", "per_event_table"),
    "repro.core.windows": ("delta_series", "window_cdf"),
    "repro.core.hypothetical": ("ids_vendor_inclusion_experiment",),
    "repro.core.exposure": ("exposure_cdf", "mitigated_share", "unique_cve_bins"),
    "repro.core.bootstrap": ("BootstrapReport", "bootstrap_skill"),
    "repro.core.autopatch": ("auto_patch_outcome", "auto_patch_sweep"),
    "repro.core.adoption": (
        "AdoptionCurve", "DEFAULT_ADOPTION", "IMMEDIATE_ADOPTION", "expected_exposure",
    ),
    "repro.core.mpcvd": (
        "MpcvdCase", "MultiPartyModel", "generate_mpcvd_cases", "summarise_cases",
    ),
})
