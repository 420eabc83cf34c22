"""Scenario resolution: spec + config → instantiated pipeline components.

:func:`resolve` looks every component ref up in the registry (defaults for
kinds the scenario leaves unset) and returns a :class:`ResolvedScenario`
whose ``build_*`` methods the pipeline calls in place of its historical
hard-wired constructors.

The resolved **fingerprint** is the scenario's cache identity: a digest of
the component refs + params plus the dataset plan's content fingerprint.
Deliberately excluded are the scenario *name* (two names composing the
identical pipeline should share cache entries) and the scenario's
``config`` overrides (those land in :class:`StudyConfig` fields, which the
cache key already covers) — so a params-only scenario like ``quick``
fingerprints identically to ``paper-default`` under the same effective
config, which is exactly what keeps ``from_scenario("paper-default")``
byte-identical to a hand-built default config.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple, Union

from repro.scenarios.registry import Registration, scenario
from repro.scenarios.spec import COMPONENT_KINDS, ComponentRef, Scenario

#: The paper-default component for each kind (used when a scenario leaves
#: the kind unset).
DEFAULT_COMPONENTS: Mapping[str, str] = {
    "dataset": "synthetic-default",
    "traffic": "paper-traffic",
    "telescope": "paper-telescope",
    "rules": "paper-rules",
    "rca": "paper-rca",
}


def register_scenario(spec: Scenario, *, replace: bool = False) -> Scenario:
    """Register a declarative scenario under its own name."""
    scenario.register(
        spec.name, kind="scenario", description=spec.description, replace=replace
    )(lambda spec=spec: spec)
    return spec


def get_scenario(name: str) -> Scenario:
    """Fetch a registered scenario spec by name (KeyError lists known)."""
    return scenario.get("scenario", name).factory()


@dataclass
class ResolvedScenario:
    """A scenario with every component ref resolved against the registry."""

    spec: Scenario
    config: Any  # StudyConfig; typed loosely to avoid a pipeline import
    components: Mapping[str, Tuple[Registration, Dict[str, Any]]]
    plan: Any  # DatasetPlan
    _fingerprint: str = field(default="", repr=False)

    @property
    def fingerprint(self) -> str:
        """Cache identity: component composition + dataset content."""
        if not self._fingerprint:
            payload = json.dumps(
                {
                    "components": {
                        kind: {"ref": registration.name, "params": params}
                        for kind, (registration, params) in sorted(
                            self.components.items()
                        )
                    },
                    "plan": self.plan.fingerprint(),
                },
                sort_keys=True,
                default=str,
            )
            object.__setattr__(
                self,
                "_fingerprint",
                hashlib.blake2b(
                    payload.encode("utf-8"), digest_size=16
                ).hexdigest(),
            )
        return self._fingerprint

    def _build(self, kind: str, *args: Any) -> Any:
        registration, params = self.components[kind]
        return registration.factory(self.config, *args, **params)

    def build_traffic(self, window: Any) -> Any:
        """The arrival source: ``.generate(tracer=)`` / ``.stream(cursor=)``."""
        return self._build("traffic", window)

    def build_collector(self, window: Any) -> Any:
        """The telescope collector for this scenario."""
        return self._build("telescope", window)

    def build_ruleset(self) -> Any:
        """The NIDS ruleset for this scenario."""
        return self._build("rules")

    def build_rca(self, payloads: Any) -> Any:
        """The root-cause-analysis heuristic over captured payloads."""
        return self._build("rca", payloads)


def resolve(spec: Union[str, Scenario], config: Any) -> ResolvedScenario:
    """Resolve a scenario (by name or spec) against ``config``.

    Raises :class:`KeyError` on unknown scenario or component names.
    """
    if isinstance(spec, str):
        spec = get_scenario(spec)
    components: Dict[str, Tuple[Registration, Dict[str, Any]]] = {}
    for kind in COMPONENT_KINDS:
        ref = spec.components.get(kind) or ComponentRef(DEFAULT_COMPONENTS[kind])
        components[kind] = (scenario.get(kind, ref.ref), dict(ref.params))
    registration, params = components["dataset"]
    plan = registration.factory(config, **params)
    return ResolvedScenario(
        spec=spec, config=config, components=components, plan=plan
    )
