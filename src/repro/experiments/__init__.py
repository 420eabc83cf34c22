"""Experiment registry: one regeneration function per paper table/figure."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.registry": (
        "EXPERIMENTS", "ExperimentResult", "list_experiments", "run_experiment",
    ),
})
