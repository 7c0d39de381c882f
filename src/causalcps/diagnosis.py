"""Consistency-based root-cause diagnosis over deviation reports.

A fault hypothesis is a set of components assumed broken, with unknown
behavior.  It is consistent with the observations when

  (a) every deviating sensor is one of a hypothesized component's own sensors
      or causally downstream of one, and
  (b) re-running the reference scenario with each hypothesized component's
      rule table removed (the component does nothing; the rest of the system
      forces what it forces) predicts, on every observed sensor that did NOT
      deviate, exactly the state-label trajectory of the fault-free run.

Consistency is judged on state labels alone, which never depend on the seed,
so both the fault-free reference and the re-run in (b) come from
``simulation.label_steps``: it samples no values and logs no events, and a
check stops at the first tick on which a nominal sensor's predicted label
differs from the reference.

Only normal behavior is modeled; no fault modes are enumerated.  A deviating
sensor whose observed causal descendants are all nominal additionally yields a
synthetic single-sensor hypothesis "sensor-fault:<id>": nothing downstream
noticed anything, so the reading itself is suspect.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .detection import Deviation
from .model import (
    CausalEdge,
    ModelError,
    SystemModel,
    causal_descendants,
    derive_causal_graph,
)
from .simulation import FaultSpec, ScriptedIntervention, label_steps
from .simulation import run_script  # noqa: F401  (perfbench/tracing.py wraps diagnosis.run_script)

SENSOR_FAULT_PREFIX = "sensor-fault:"


@dataclass(frozen=True)
class FaultHypothesis:
    components: frozenset[str]
    cardinality: int
    consistent: bool
    explained: frozenset[str]

    def sorted_components(self) -> tuple[str, ...]:
        return tuple(sorted(self.components))

    def is_sensor_fault(self) -> bool:
        return any(c.startswith(SENSOR_FAULT_PREFIX) for c in self.components)


@dataclass(frozen=True)
class CausalPath:
    """Shortest edge path from a hypothesized component's sensor to a deviating one."""

    sensor: str
    edges: tuple[CausalEdge, ...]


class _ConsistencyChecker:
    """Shared state for evaluating hypothesis candidates against one scenario."""

    def __init__(
        self,
        model: SystemModel,
        interventions: Sequence[ScriptedIntervention],
        horizon: int,
        deviating: set[str],
        observed: set[str],
    ):
        self.model = model
        self.interventions = tuple(interventions)
        self.horizon = horizon
        self.deviating = deviating
        self.nominal = sorted(observed - deviating)
        graph = derive_causal_graph(model)
        self.reach = {
            sid: causal_descendants(graph, sid) for sid in model.sensor_ids()
        }
        self.expected = [
            tuple(labels[s] for s in self.nominal)
            for labels in label_steps(model, horizon, interventions=self.interventions)
        ]
        self.component_sensors = {
            sub.id: tuple(sub.sensors) for sub in model.subsystems
        }

    def sensors_of(self, component: str) -> tuple[str, ...]:
        if component.startswith(SENSOR_FAULT_PREFIX):
            return (component[len(SENSOR_FAULT_PREFIX) :],)
        return self.component_sensors[component]

    def covers(self, components: Sequence[str]) -> bool:
        covered: set[str] = set()
        for component in components:
            for sensor in self.sensors_of(component):
                covered.add(sensor)
                covered.update(self.reach[sensor])
        return self.deviating <= covered

    def predicts_nominal(self, components: Sequence[str]) -> bool:
        real = [c for c in components if not c.startswith(SENSOR_FAULT_PREFIX)]
        if not real or not self.nominal:
            # Nothing removed (the prediction is the reference itself), or
            # nothing nominal that a prediction could contradict.
            return True
        faults = [
            FaultSpec(component=c, replacement_rules=(), activation=0) for c in real
        ]
        predicted = label_steps(
            self.model, self.horizon, interventions=self.interventions, faults=faults
        )
        for labels, expected in zip(predicted, self.expected):
            if tuple(labels[s] for s in self.nominal) != expected:
                return False
        return True

    def is_consistent(self, components: Sequence[str]) -> bool:
        return self.covers(components) and self.predicts_nominal(components)


def diagnose(
    model: SystemModel,
    interventions: Sequence[ScriptedIntervention],
    horizon: int,
    deviations: Sequence[Deviation],
    observed: Sequence[str],
    max_cardinality: int = 2,
) -> list[FaultHypothesis]:
    """Enumerate minimal consistent fault hypotheses, most parsimonious first.

    ``interventions`` and ``horizon`` describe the reference scenario that the
    deviations were measured against; consistency checking re-simulates its
    labels with candidate components disabled, up to the first divergence.
    Returns only consistent hypotheses, ranked by (cardinality, sorted
    component ids); no returned hypothesis is a strict superset of another.
    """
    if max_cardinality < 1:
        raise ValueError(f"max_cardinality must be >= 1, got {max_cardinality}")
    observed_set = set(observed)
    for sensor in observed_set:
        model.sensor(sensor)
    deviating = {d.sensor for d in deviations if d.sensor in observed_set}
    if not deviating:
        raise ValueError("nothing to diagnose: no deviations on observed sensors")

    checker = _ConsistencyChecker(model, interventions, horizon, deviating, observed_set)
    component_ids = sorted(model.component_ids())

    sensor_fault_ids = []
    for sensor in sorted(deviating):
        downstream = checker.reach[sensor] & observed_set
        if not downstream & deviating:
            sensor_fault_ids.append(SENSOR_FAULT_PREFIX + sensor)

    found: list[frozenset[str]] = []
    results: list[FaultHypothesis] = []

    def consider(candidate: tuple[str, ...]) -> None:
        candidate_set = frozenset(candidate)
        if any(prior <= candidate_set for prior in found):
            return
        if checker.is_consistent(candidate):
            found.append(candidate_set)
            results.append(
                FaultHypothesis(
                    components=candidate_set,
                    cardinality=len(candidate_set),
                    consistent=True,
                    explained=frozenset(deviating),
                )
            )

    for sf in sensor_fault_ids:
        consider((sf,))
    for cardinality in range(1, max_cardinality + 1):
        for combo in combinations(component_ids, cardinality):
            consider(combo)

    results.sort(key=lambda h: (h.cardinality, h.sorted_components()))
    return results


def explain(
    model: SystemModel,
    hypothesis: FaultHypothesis,
    deviations: Sequence[Deviation],
) -> list[CausalPath]:
    """Shortest causal path from the hypothesis to each deviating sensor.

    The path is empty when the deviating sensor belongs to a hypothesized
    component itself.  Paths are simple (a visited set keeps cyclic graph
    regions from recurring).
    """
    if not hypothesis.consistent:
        raise ValueError("cannot explain an inconsistent hypothesis")
    graph = derive_causal_graph(model)
    sources: set[str] = set()
    for component in sorted(hypothesis.components):
        if component.startswith(SENSOR_FAULT_PREFIX):
            sources.add(component[len(SENSOR_FAULT_PREFIX) :])
        else:
            sources.update(model.subsystem(component).sensors)

    # Multi-source BFS; predecessor map reconstructs one shortest edge path.
    predecessor: dict[str, CausalEdge] = {}
    visited = set(sources)
    frontier = sorted(sources)
    while frontier:
        next_frontier = []
        for current in frontier:
            for edge in graph.out_edges(current):
                if edge.effect in visited:
                    continue
                visited.add(edge.effect)
                predecessor[edge.effect] = edge
                next_frontier.append(edge.effect)
        frontier = sorted(next_frontier)

    paths = []
    for sensor in sorted({d.sensor for d in deviations}):
        if sensor not in visited:
            raise ModelError(
                f"deviating sensor {sensor!r} is not reachable from hypothesis "
                f"{sorted(hypothesis.components)}"
            )
        edges = []
        current = sensor
        while current not in sources:
            edge = predecessor[current]
            edges.append(edge)
            current = edge.cause
        paths.append(CausalPath(sensor=sensor, edges=tuple(reversed(edges))))
    return paths
