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

Phase 2 does not test rules one by one.  Each rule table is compiled once, when
the simulator is made and again when a fault swaps a table in, into one dict
per set of guard sensors, keyed by those sensors' labels; a tick costs one
lookup per set.  Validation guarantees that at most one rule of a table
matches any joint state, so the first hit is the table's only match.  Phase 3
calls one scalar sampler per sensor from a (sensor, state) table built on the
first sampled tick: ``rng.normal(mean, sd)``, ``rng.uniform(lo, hi)``, or the
point mass as a float with no RNG call.  The scalar calls run the same numpy
routines as one-element draws, so a seed gives the same values as
``draw(dist, rng, 1)[0]`` sensor by sensor.  ``Event`` is a ``NamedTuple``,
built positionally like the queue's ``_QueuedEffect``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from operator import itemgetter
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .distributions import Degenerate, Distribution, Normal, Uniform
from .model import ModelError, Rule, SystemModel, validate_rules

RULE_FIRED = "RULE_FIRED"
EFFECT_APPLIED = "EFFECT_APPLIED"
INTERVENTION = "INTERVENTION"
FAULT_ACTIVATED = "FAULT_ACTIVATED"


class Event(NamedTuple):
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


def _no_key(labels: Mapping[str, str]) -> tuple[()]:
    return ()


def _compile_table(
    rules: Sequence[Rule],
) -> tuple[tuple[Callable[[Mapping[str, str]], object], dict[object, tuple[int, Rule]]], ...]:
    """Compile a rule table into one (key_of, rules) pair per guard-key set.

    ``key_of`` reads the labels of that set's sensors off a joint assignment
    and ``rules`` maps those labels to (rule index, rule).  A rule's own key is
    ``key_of`` applied to its guard, so an assignment finds the rule iff it
    agrees with the whole guard, which is ``Rule.matches``.
    """
    groups: dict[tuple[str, ...], tuple[Callable, dict[object, tuple[int, Rule]]]] = {}
    for rule_index, rule in enumerate(rules):
        keys = tuple(sorted(rule.guard))
        if keys not in groups:
            groups[keys] = (itemgetter(*keys) if keys else _no_key, {})
        key_of, table = groups[keys]
        table[key_of(rule.guard)] = (rule_index, rule)
    return tuple(groups.values())


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
        self._sub_ids = tuple(sub.id for sub in model.subsystems)
        self._sub_index = {sub_id: i for i, sub_id in enumerate(self._sub_ids)}
        self._lookups = [_compile_table(sub.rules) for sub in model.subsystems]
        self._records: list[TickRecord] = []

    @cached_property
    def _samplers(self) -> tuple[tuple[str, dict[str, Callable[[], float]]], ...]:
        """Per sensor, in model order: state label -> zero-argument draw of one
        value.  Built on the first sampled tick, so ``label_steps`` never builds it."""
        rng = self._rng

        def sampler(dist: Distribution) -> Callable[[], float]:
            if isinstance(dist, Normal):
                return partial(rng.normal, dist.mean, dist.stddev)
            if isinstance(dist, Uniform):
                return partial(rng.uniform, dist.lo, dist.hi)
            if isinstance(dist, Degenerate):
                return partial(float, dist.value)
            raise TypeError(f"not a distribution: {dist!r}")

        return tuple(
            (sensor.id, {label: sampler(dist) for label, dist in sensor.states})
            for sensor in self._model.sensors
        )

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
            self._lookups[self._sub_index[fault.component]] = _compile_table(
                fault.replacement_rules
            )

        # Phase 2: look the updated joint state up in every rule table.  At
        # most one rule of a validated table matches, so the first hit is it.
        labels = self._labels
        queue = self._queue
        fired: list[tuple[int, int]] = []
        for sub_index, lookup in enumerate(self._lookups):
            for key_of, rules in lookup:
                hit = rules.get(key_of(labels))
                if hit is None:
                    continue
                rule_index, rule = hit
                fired.append((sub_index, rule_index))
                for effect_index, effect in enumerate(rule.effects):
                    queue.setdefault(t + effect.delay, []).append(
                        _QueuedEffect(
                            sub_index, rule_index, effect_index, t, effect.target, effect.state
                        )
                    )
                break
        return t, applied, interventions, faults, fired

    def step(self) -> TickRecord:
        t, applied, interventions, faults, fired = self._advance()
        sub_ids = self._sub_ids
        events = [
            Event(EFFECT_APPLIED, t, target, state, sub_ids[sub_index], rule_index, fire_tick)
            for sub_index, rule_index, _, fire_tick, target, state in applied
        ]
        events.extend(Event(INTERVENTION, t, sensor, state) for sensor, state in interventions)
        events.extend(Event(FAULT_ACTIVATED, t, None, None, fault.component) for fault in faults)
        events.extend(
            Event(RULE_FIRED, t, None, None, sub_ids[sub_index], rule_index)
            for sub_index, rule_index in fired
        )

        # Phase 3: one sampled value per sensor from its current state.
        labels = self._labels
        values = {sensor: samplers[labels[sensor]]() for sensor, samplers in self._samplers}

        record = TickRecord(tick=t, values=values, labels=dict(labels), events=tuple(events))
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
