"""Discrete-time execution of a system model.

Each tick runs three phases:

1. apply queued effects that are due, then pending interventions (an
   intervention is exogenous forcing and overrides rule effects on the same
   sensor at the same tick); activate faults scheduled for this tick;
2. evaluate every subsystem's rule table in priority order against the
   current joint state and enqueue the effects of each matching rule at
   ``tick + delay``;
3. draw one value per sensor from its current state's distribution.

When several queued effects land on the same sensor in the same tick, the one
enqueued by the higher-priority subsystem wins; within one subsystem, the rule
later in its table wins, and within one rule the later effect wins.  State
labels never depend on the random seed -- randomness only enters through the
sampled values.

Phases 1-2 are one method, ``Simulator._advance``.  ``Simulator.step`` runs it
and then logs the tick's events and samples its values; ``label_steps`` runs
it alone and yields only the labels, for callers that judge a run on its label
trajectory (diagnosis consistency checks) and can stop at the first tick that
settles the question.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .distributions import draw
from .model import ModelError, Rule, SystemModel, validate_rules

RULE_FIRED = "RULE_FIRED"
EFFECT_APPLIED = "EFFECT_APPLIED"
INTERVENTION = "INTERVENTION"
FAULT_ACTIVATED = "FAULT_ACTIVATED"


@dataclass(frozen=True)
class Event:
    kind: str
    tick: int
    sensor: str | None = None
    state: str | None = None
    subsystem: str | None = None
    rule_index: int | None = None
    fire_tick: int | None = None


@dataclass(frozen=True)
class ScriptedIntervention:
    tick: int
    sensor: str
    state: str


@dataclass(frozen=True)
class FaultSpec:
    """Replace a component's rule table from ``activation`` on."""

    component: str
    replacement_rules: tuple[Rule, ...]
    activation: int


@dataclass(frozen=True)
class TickRecord:
    tick: int
    values: dict[str, float]
    labels: dict[str, str]
    events: tuple[Event, ...]


@dataclass(frozen=True)
class Trace:
    """Per-tick sampled values, ground-truth state labels and event log."""

    sensor_ids: tuple[str, ...]
    records: tuple[TickRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def values_for(self, sensor: str) -> np.ndarray:
        return np.array([r.values[sensor] for r in self.records])

    def labels_for(self, sensor: str) -> list[str]:
        return [r.labels[sensor] for r in self.records]

    def events(self, kind: str | None = None) -> Iterator[Event]:
        for record in self.records:
            for event in record.events:
                if kind is None or event.kind == kind:
                    yield event

    def final_labels(self) -> dict[str, str]:
        if not self.records:
            raise ValueError("empty trace")
        return dict(self.records[-1].labels)


class _QueuedEffect(NamedTuple):
    sub_index: int
    rule_index: int
    effect_index: int
    fire_tick: int
    target: str
    state: str


class Simulator:
    """Single-owner simulation handle for one model run."""

    def __init__(self, model: SystemModel, seed: int = 0):
        self._model = model
        self._rng = np.random.default_rng(seed)
        self._labels = model.initial_labels()
        self._tick = 0
        self._queue: dict[int, list[_QueuedEffect]] = {}
        self._pending_interventions: list[tuple[str, str]] = []
        self._faults: dict[int, list[FaultSpec]] = {}
        self._tables: dict[str, tuple[Rule, ...]] = {s.id: s.rules for s in model.subsystems}
        self._records: list[TickRecord] = []

    @property
    def model(self) -> SystemModel:
        return self._model

    @property
    def tick(self) -> int:
        """The next tick to execute."""
        return self._tick

    def current_labels(self) -> dict[str, str]:
        return dict(self._labels)

    def intervene(self, sensor: str, state: str) -> None:
        """Force a sensor's state at the next executed tick, before rules run."""
        if state not in self._model.sensor(sensor).labels():
            raise ModelError(f"sensor {sensor!r} has no state {state!r}")
        self._pending_interventions.append((sensor, state))

    def inject_fault(self, fault: FaultSpec) -> None:
        """Schedule a rule-table replacement for a component."""
        self._model.subsystem(fault.component)
        validate_rules(self._model, fault.component, fault.replacement_rules)
        if fault.activation < self._tick:
            raise ModelError(
                f"fault activation {fault.activation} is before the current tick {self._tick}"
            )
        self._faults.setdefault(fault.activation, []).append(fault)

    def _advance(self) -> tuple[
        int, list[_QueuedEffect], list[tuple[str, str]], list[FaultSpec], list[tuple[int, int]]
    ]:
        """Phases 1-2 of the next tick: the only code that moves labels.

        Returns the tick executed, the queued effects applied, the
        interventions applied, the faults activated and the (subsystem
        index, rule index) of every rule that fired, each in event order.
        """
        t = self._tick
        self._tick += 1

        # Phase 1: due effects, losers resolved away before anything is applied.
        due = self._queue.pop(t, [])
        winners: dict[str, _QueuedEffect] = {}
        for queued in sorted(due, key=lambda q: (-q.sub_index, q.rule_index, q.effect_index)):
            winners[queued.target] = queued
        interventions, self._pending_interventions = self._pending_interventions, []
        intervened = {sensor for sensor, _ in interventions}
        applied = [winners[target] for target in sorted(winners) if target not in intervened]
        for queued in applied:
            self._labels[queued.target] = queued.state
        for sensor, state in interventions:
            self._labels[sensor] = state
        faults = self._faults.pop(t, [])
        for fault in faults:
            self._tables[fault.component] = tuple(fault.replacement_rules)

        # Phase 2: evaluate rule tables against the updated joint state.
        fired: list[tuple[int, int]] = []
        for sub_index, sub in enumerate(self._model.subsystems):
            for rule_index, rule in enumerate(self._tables[sub.id]):
                if not rule.matches(self._labels):
                    continue
                fired.append((sub_index, rule_index))
                for effect_index, effect in enumerate(rule.effects):
                    self._queue.setdefault(t + effect.delay, []).append(
                        _QueuedEffect(
                            sub_index=sub_index,
                            rule_index=rule_index,
                            effect_index=effect_index,
                            fire_tick=t,
                            target=effect.target,
                            state=effect.state,
                        )
                    )
        return t, applied, interventions, faults, fired

    def step(self) -> TickRecord:
        t, applied, interventions, faults, fired = self._advance()
        subsystems = self._model.subsystems
        events = [
            Event(
                kind=EFFECT_APPLIED,
                tick=t,
                sensor=queued.target,
                state=queued.state,
                subsystem=subsystems[queued.sub_index].id,
                rule_index=queued.rule_index,
                fire_tick=queued.fire_tick,
            )
            for queued in applied
        ]
        events.extend(
            Event(kind=INTERVENTION, tick=t, sensor=sensor, state=state)
            for sensor, state in interventions
        )
        events.extend(
            Event(kind=FAULT_ACTIVATED, tick=t, subsystem=fault.component) for fault in faults
        )
        events.extend(
            Event(kind=RULE_FIRED, tick=t, subsystem=subsystems[sub_index].id, rule_index=rule_index)
            for sub_index, rule_index in fired
        )

        # Phase 3: one sampled value per sensor from its current state.
        values = {
            sensor.id: float(
                draw(sensor.distribution(self._labels[sensor.id]), self._rng, 1)[0]
            )
            for sensor in self._model.sensors
        }

        record = TickRecord(tick=t, values=values, labels=dict(self._labels), events=tuple(events))
        self._records.append(record)
        return record

    def run(self, horizon: int) -> Trace:
        """Step until ``horizon`` ticks have executed; returns the full trace."""
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        while self._tick < horizon:
            self.step()
        return self.trace()

    def trace(self) -> Trace:
        return Trace(sensor_ids=self._model.sensor_ids(), records=tuple(self._records))


def _script(
    sim: Simulator,
    horizon: int,
    interventions: Sequence[ScriptedIntervention],
    faults: Sequence[FaultSpec],
) -> Iterator[int]:
    """Schedule ``faults`` on ``sim``, then yield each tick up to ``horizon``
    with that tick's interventions queued; the caller executes the tick."""
    for fault in faults:
        sim.inject_fault(fault)
    by_tick: dict[int, list[ScriptedIntervention]] = {}
    for item in interventions:
        by_tick.setdefault(item.tick, []).append(item)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    while sim.tick < horizon:
        for item in by_tick.get(sim.tick, []):
            sim.intervene(item.sensor, item.state)
        yield sim.tick


def run_script(
    model: SystemModel,
    seed: int,
    horizon: int,
    interventions: Sequence[ScriptedIntervention] = (),
    faults: Sequence[FaultSpec] = (),
) -> Trace:
    """Run a model with scripted interventions and faults up to ``horizon``."""
    sim = Simulator(model, seed=seed)
    for _ in _script(sim, horizon, interventions, faults):
        sim.step()
    return sim.trace()


def label_steps(
    model: SystemModel,
    horizon: int,
    interventions: Sequence[ScriptedIntervention] = (),
    faults: Sequence[FaultSpec] = (),
) -> Iterator[dict[str, str]]:
    """Yield the joint labels after each tick of the same run as run_script.

    Runs phases 1-2 only: nothing is sampled and no record or event is kept,
    so a consumer that has seen enough can stop early at no further cost.
    Labels never depend on the seed, so none is taken.  Errors surface as
    iteration reaches them, as in run_script: a bad horizon or fault on the
    first tick, a bad intervention on its own tick.
    """
    sim = Simulator(model)
    for _ in _script(sim, horizon, interventions, faults):
        sim._advance()
        yield sim.current_labels()
