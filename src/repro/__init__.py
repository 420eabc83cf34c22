"""repro — a reproduction of "The CVE Wayback Machine: Measuring Coordinated
Disclosure from Exploits against Two Years of Zero-Days" (IMC 2023).

The package rebuilds the paper's full measurement stack:

* :mod:`repro.telescope` — DSCOPE, the cloud-based interactive Internet
  telescope (simulated AWS fleet: rotating IPs, 10-minute instances);
* :mod:`repro.traffic` — the synthetic Internet: exploit campaigns seeded
  by the paper's Appendix E, credential stuffers, background radiation;
* :mod:`repro.nids` — a Snort-compatible detection engine with
  port-insensitive, post-facto, earliest-signature-retained evaluation;
* :mod:`repro.datasets` — schemata and synthetic builders for NVD, CISA
  KEV, Talos rule/report histories, and the Suciu et al. exploit data;
* :mod:`repro.lifecycle` — CVE timelines (V, F, P, D, X, A), exploit-event
  extraction, root-cause analysis;
* :mod:`repro.core` — the CERT/Householder-Spring CVD model: desiderata,
  admissible histories, skill, windows of vulnerability, exposure;
* :mod:`repro.analysis` — the study pipeline and every figure's analysis;
* :mod:`repro.experiments` — the table/figure regeneration registry.

Quickstart::

    from repro import run_study, StudyConfig, run_experiment

    result = run_study(StudyConfig(volume_scale=0.1))
    print(run_experiment("table4", result).text)
"""

from repro._version import __version__
from repro.analysis.pipeline import StudyConfig, StudyResult, run_study
from repro.core.skill import compute_skill, mean_skill, skill
from repro.datasets.loader import DatasetBundle, build_bundle
from repro.datasets.sources import DatasetPlan, DatasetSource, default_plan
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentResult,
    list_experiments,
    run_experiment,
)
from repro.lifecycle.assembly import assemble_timelines
from repro.lifecycle.events import CveTimeline, LifecycleEvent

__all__ = [
    "__version__",
    "StudyConfig",
    "StudyResult",
    "run_study",
    "compute_skill",
    "mean_skill",
    "skill",
    "DatasetBundle",
    "DatasetPlan",
    "DatasetSource",
    "build_bundle",
    "default_plan",
    "EXPERIMENTS",
    "ExperimentResult",
    "list_experiments",
    "run_experiment",
    "assemble_timelines",
    "CveTimeline",
    "LifecycleEvent",
]
