"""Consistency-based root-cause diagnosis over deviation reports.

A fault hypothesis is a set of components assumed broken.  Their behavior
is not left unknown: rule (b) below predicts it with one fault mode, the
dead mode, in which a component's rule table is removed.  It is consistent
with the observations when

  (a) every deviating sensor is one of a hypothesized component's own sensors
      or causally downstream of one, and
  (b) re-running the reference scenario with each hypothesized component's
      rule table removed (the component does nothing; the rest of the system
      forces what it forces) predicts, on every observed sensor that did NOT
      deviate, exactly the state-label trajectory of the fault-free run.

Consistency is judged on state labels alone, which never depend on the seed,
so both the fault-free reference and any re-run in (b) come from
``simulation.label_steps``: it samples no values and logs no events, and a
re-run stops at the first tick on which a nominal sensor's predicted label
differs from the reference.

A candidate's verdict is reached by the first of these that applies,
cheapest first.

1. Cone: the candidate cannot change any nominal sensor (below): consistent.
2. First divergence, read from the reference run with no simulation (as in
   concurrent fault simulation, which follows a faulty machine only where
   it differs from the good one).  Up to the first tick t0 at which the run
   without the candidate leaves the reference, every other subsystem sees
   reference labels and so queues its reference effects.  At t0 a sensor
   therefore takes the highest-ranked due effect of a subsystem outside the
   candidate, an intervention, or its previous label.  Only phase 1's
   contests (``simulation``) whose winner is in the candidate can differ;
   the reference run records them, indexed by winning subsystem when first
   needed.  No divergence: consistent.  A nominal sensor diverges at t0:
   inconsistent.
3. Otherwise the candidate's cone is re-simulated.

Causality is known by construction, so (3) re-simulates only what a
candidate can change (the cone-of-influence reduction of model checking).
The cone of a component holds its rules' effect targets and is closed under
one step: any other subsystem whose guards read a cone sensor adds all of
its effect targets.  No other sensor can leave its reference labels, since
every effect on it comes from a subsystem that sees only reference labels.
A candidate's cone is the union of its members' cones, each walked once:
the union is closed under every subsystem outside the candidate.  A cone
with no nominal sensor predicts the reference on every nominal sensor
without a run.  Otherwise only the subsystems that write into the cone are
advanced, their effects outside it dropped, and every other sensor they
read replays its reference labels as scripted interventions.

The dead mode is the only fault mode; no other is enumerated.  A component
that fails otherwise can be refuted although it is the true fault: its dead
mode moves a nominal sensor that the real fault left alone.  On generated
scenarios with one injected table per component, the true fault was refuted
in this way, in runs that kept every nominal sensor on its reference
labels, in 16 of 675 cases with a stuck table (one empty-guard rule forcing
a target to a fixed label) and 54 of 499 with a wrong one (the same guards,
each effect's label redrawn); with an empty table, never.  The weak fault
model of GDE, which asks whether some behavior of the component is
consistent, is not approximated: over label sequences in time it is an
existential search with no bound given here.

A deviating sensor whose observed causal descendants are all nominal
additionally yields a synthetic single-sensor hypothesis "sensor-fault:<id>":
nothing downstream noticed anything, so the reading itself is suspect.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, combinations
from operator import itemgetter
from typing import Sequence

from .detection import Deviation
from .distributions import ANOMALOUS
from .model import (
    CausalEdge,
    ModelError,
    Rule,
    Subsystem,
    SystemModel,
    causal_descendants,
    derive_causal_graph,
)
from .simulation import ScriptedIntervention, label_steps
from .simulation import run_script  # noqa: F401  (perfbench/tracing.py wraps diagnosis.run_script)

SENSOR_FAULT_PREFIX = "sensor-fault:"


class NothingToDiagnose(ValueError):
    """No deviation lies on an observed sensor."""


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
        self.nominal = frozenset(observed - deviating)
        graph = derive_causal_graph(model)
        self.reach = {
            sid: causal_descendants(graph, sid) for sid in model.sensor_ids()
        }
        # The fault-free labels, one column per sensor (label_steps yields
        # each tick's labels in model sensor order), and each tick's contests.
        self.contests: list[tuple[int, tuple]] = []
        steps = label_steps(model, horizon, self.interventions, contests=self.contests)
        self.reference = dict(zip(model.sensor_ids(), map(list, zip(*steps))))
        self.initial = {sensor.id: sensor.initial_state for sensor in model.sensors}
        self.sub_index = {sub.id: i for i, sub in enumerate(model.subsystems)}
        # What a fault of each candidate component can explain: the sensors
        # it owns and their causal descendants.
        self.explains = {
            sub.id: frozenset(sub.sensors).union(*map(self.reach.__getitem__, sub.sensors))
            for sub in model.subsystems
        }
        for sid, below in self.reach.items():
            self.explains[SENSOR_FAULT_PREFIX + sid] = frozenset(below) | {sid}
        # What each subsystem's rules read (guard sensors) and write (effect targets).
        self.reads = {
            sub.id: frozenset(sensor for rule in sub.rules for sensor in rule.guard)
            for sub in model.subsystems
        }
        self.writes = {
            sub.id: frozenset(effect.target for rule in sub.rules for effect in rule.effects)
            for sub in model.subsystems
        }
        self.readers: dict[str, list[str]] = {}
        for sub in model.subsystems:
            for sensor in self.reads[sub.id]:
                self.readers.setdefault(sensor, []).append(sub.id)
        self.cones: dict[str, frozenset[str]] = {}
        self.changes: dict[str, list[ScriptedIntervention]] = {}

    def covers(self, components: Sequence[str]) -> bool:
        return self.deviating <= frozenset().union(*map(self.explains.__getitem__, components))

    def cone(self, component: str) -> frozenset[str]:
        """The sensors whose labels removing ``component``'s table can change.

        It holds the table's effect targets and is closed under one step:
        when another subsystem has a guard that reads a cone sensor, all of
        that subsystem's effect targets are in the cone too.
        """
        cone = self.cones.get(component)
        if cone is None:
            found: set[str] = set()
            todo = list(self.writes[component])
            while todo:
                sensor = todo.pop()
                if sensor in found:
                    continue
                found.add(sensor)
                for reader in self.readers.get(sensor, ()):
                    if reader != component:
                        todo.extend(self.writes[reader])
            cone = self.cones[component] = frozenset(found)
        return cone

    def predicts_nominal(self, components: Sequence[str]) -> bool:
        """Whether removing ``components``' tables leaves every nominal sensor
        on its reference labels.  A cone without nominal sensors says yes,
        the first divergence settles most candidates, and a replay of the
        cone decides the rest."""
        real = frozenset(c for c in components if not c.startswith(SENSOR_FAULT_PREFIX))
        if not real or not self.nominal:
            # Nothing removed (the prediction is the reference itself), or
            # nothing nominal that a prediction could contradict.
            return True
        cone = frozenset().union(*map(self.cone, real))
        if self.nominal.isdisjoint(cone):
            return True
        divergence = self.first_divergence(real)
        if divergence is None:
            return True
        if divergence[1] & self.nominal:
            return False
        return self._replay_cone(real, cone)

    @cached_property
    def contests_by_winner(self) -> dict[int, list]:
        """The reference run's (tick, contest) pairs, by the subsystem index
        of the contest's winner, in tick order."""
        index: dict[int, list] = {}
        for tick, contests in self.contests:
            for ranked in contests:
                index.setdefault(ranked[0].sub_index, []).append((tick, ranked))
        return index

    def first_divergence(self, components: frozenset[str]) -> tuple[int, frozenset[str]] | None:
        """The first tick at which the run without ``components``' tables leaves
        the reference, and the sensors that leave it then; None if it never
        does.  Read from the reference run's contests, with no simulation.

        Up to that tick every other subsystem sees reference labels, so it
        queues its reference effects: a contested sensor whose reference
        winner is in ``components`` takes the highest-ranked due effect of a
        subsystem outside it, else keeps its previous label.
        """
        members = {self.sub_index[component] for component in components}
        by_winner = self.contests_by_winner
        contests = sorted(
            chain.from_iterable(by_winner.get(m, ()) for m in members), key=itemgetter(0)
        )
        first, moved = None, set()
        for tick, ranked in contests:
            if first is not None and tick > first:
                break
            target = ranked[0].target
            label = next((q.state for q in ranked if q.sub_index not in members), None)
            if label is None:
                label = self.reference[target][tick - 1] if tick else self.initial[target]
            if label != ranked[0].state:
                first = tick
                moved.add(target)
        return None if first is None else (first, frozenset(moved))

    def _replay_cone(self, components: frozenset[str], cone: frozenset[str]) -> bool:
        """Whether re-simulating ``cone`` without ``components``' tables keeps
        every nominal sensor in it on its reference labels."""
        checked = sorted(self.nominal & cone)
        # Only subsystems that write into the cone are advanced, with their
        # effects outside it dropped.  Every other sensor they read replays
        # its reference labels as interventions: labels never depend on the
        # seed, so the replay is exact.  The replay model skips build_model,
        # whose checks the full model has passed.
        writers = [
            sub
            for sub in self.model.subsystems
            if sub.id not in components and self.writes[sub.id] & cone
        ]
        boundary = set().union(*(self.reads[sub.id] for sub in writers)) - cone
        replay = SystemModel(
            sensors=tuple(s for s in self.model.sensors if s.id in cone or s.id in boundary),
            subsystems=tuple(
                sub if self.writes[sub.id] <= cone else _effects_into(sub, cone) for sub in writers
            ),
        )
        interventions = [item for item in self.interventions if item.sensor in cone]
        for sensor in sorted(boundary):
            interventions.extend(self._reference_changes(sensor))
        predicted = label_steps(replay, self.horizon, interventions=interventions)
        expected = zip(*(self.reference[sensor] for sensor in checked))
        order = replay.sensor_ids()
        positions = [order.index(sensor) for sensor in checked]
        return all(tuple(map(p.__getitem__, positions)) == e for p, e in zip(predicted, expected))

    def _reference_changes(self, sensor: str) -> list[ScriptedIntervention]:
        """One intervention per tick on which ``sensor``'s reference label
        differs from the one before it (its initial state before tick 0)."""
        changes = self.changes.get(sensor)
        if changes is None:
            changes = self.changes[sensor] = []
            previous = self.initial[sensor]
            for tick, label in enumerate(self.reference[sensor]):
                if label != previous:
                    previous = label
                    changes.append(ScriptedIntervention(tick, sensor, label))
        return changes


def _effects_into(sub: Subsystem, cone: frozenset[str]) -> Subsystem:
    """``sub`` with each rule keeping only its effects on ``cone`` sensors."""
    rules = tuple(
        Rule(rule.guard, tuple(e for e in rule.effects if e.target in cone)) for rule in sub.rules
    )
    return replace(sub, rules=rules)


def _check_deviation(model: SystemModel, deviation: Deviation, horizon: int) -> None:
    """Reject a deviation that no detect run of this scenario could report."""
    where = f"deviation on {deviation.sensor!r} at window start {deviation.start}"
    try:
        labels = model.sensor(deviation.sensor).labels()
    except ModelError as exc:
        raise ModelError(f"{where}: {exc}") from None
    if deviation.expected not in labels:
        raise ModelError(f"{where}: the sensor has no state {deviation.expected!r}")
    if deviation.matched not in labels and deviation.matched != ANOMALOUS:
        raise ModelError(f"{where}: the sensor has no state {deviation.matched!r}")
    if deviation.matched == deviation.expected:
        raise ModelError(f"{where}: the matched state is the expected state {deviation.expected!r}")
    if not 0 <= deviation.start < horizon:
        raise ModelError(f"{where}: the window start is outside the horizon [0, {horizon})")


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
    Every deviation must fit the scenario (a known sensor, states it has or
    ``ANOMALOUS`` as the match, a match other than the expected state, a
    window start in ``[0, horizon)``), else a ModelError names the first
    that does not; likewise the first unknown sensor in ``observed``.
    NothingToDiagnose means that no deviation lies on an observed sensor.
    """
    if max_cardinality < 1:
        raise ValueError(f"max_cardinality must be >= 1, got {max_cardinality}")
    for deviation in deviations:
        _check_deviation(model, deviation, horizon)
    for sensor in observed:
        model.sensor(sensor)
    observed_set = set(observed)
    deviating = {d.sensor for d in deviations if d.sensor in observed_set}
    if not deviating:
        raise NothingToDiagnose("nothing to diagnose: no deviations on observed sensors")

    checker = _ConsistencyChecker(model, interventions, horizon, deviating, observed_set)
    component_ids = sorted(model.component_ids())

    found: list[frozenset[str]] = []
    results: list[FaultHypothesis] = []

    def consider(candidate: tuple[str, ...]) -> None:
        candidate_set = frozenset(candidate)
        if any(prior <= candidate_set for prior in found):
            return
        if checker.covers(candidate) and checker.predicts_nominal(candidate):
            found.append(candidate_set)
            results.append(
                FaultHypothesis(
                    components=candidate_set,
                    cardinality=len(candidate_set),
                    consistent=True,
                    explained=frozenset(deviating),
                )
            )

    for sensor in sorted(deviating):
        # No observed causal descendant deviates: the reading itself is suspect.
        if not checker.reach[sensor] & deviating:
            consider((SENSOR_FAULT_PREFIX + sensor,))
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
