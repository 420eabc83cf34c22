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

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro._version import __version__


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """A package's ``__all__``, ``__getattr__`` and ``__dir__`` (PEP 562)
    for the names it re-exports.

    ``exports`` maps each defining module to the names the package takes
    from it.  A name's module is imported on the name's first access, and
    the value is then bound in the package, so importing a package costs
    nothing until one of its re-exports is read.  A name that is also its
    defining submodule's name (``repro.core.skill.skill``) is bound at
    once: imported later, the submodule would take the package attribute.
    """
    owners: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = sys.modules[package].__dict__
    for name, module in owners.items():
        if module == f"{package}.{name}":
            namespace[name] = getattr(importlib.import_module(module), name)

    def __getattr__(name: str) -> object:
        if name not in owners:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(owners[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return list(owners), __getattr__, __dir__


__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.pipeline": ("StudyConfig", "StudyResult", "run_study"),
    "repro.core.skill": ("compute_skill", "mean_skill", "skill"),
    "repro.datasets.loader": ("DatasetBundle", "build_bundle"),
    "repro.datasets.sources": ("DatasetPlan", "DatasetSource", "default_plan"),
    "repro.experiments.registry": (
        "EXPERIMENTS", "ExperimentResult", "list_experiments", "run_experiment",
    ),
    "repro.lifecycle.assembly": ("assemble_timelines",),
    "repro.lifecycle.events": ("CveTimeline", "LifecycleEvent"),
})
__all__.insert(0, "__version__")
