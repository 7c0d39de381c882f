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

Phases 1-2 are one method, ``Simulator._advance``; ``label_steps`` runs it
alone and yields only the labels, for callers that judge a run on its label
trajectory (diagnosis) and can stop at the first tick that settles the
question.  A full run keeps, per tick, what ``_advance`` returned as the raw
event log, plus one label row and one value row.

A ``Trace`` is columnar: a T x N float64 value matrix, a T x N matrix of
integer label codes with one label table per sensor (the model's state
order), and the raw log.  ``values_for`` and ``codes_for`` are column reads.
``Event``s and the per-tick ``TickRecord`` view (``Trace.events``,
``Trace.records``, ``Simulator.step``'s return value) are built from the log
and the columns only when asked for, in the order and with the values a
record-per-tick run would have had.

Phase 2 does not test rules one by one.  Each rule table is compiled once, when
the simulator is made and again when a fault swaps a table in, into one dict
per set of guard sensors, keyed by those sensors' labels; a tick costs one
lookup per set.  Validation guarantees that at most one rule of a table
matches any joint state, so the first hit is the table's only match.  Each
compiled rule carries its effects as ready-made queue entries, shared by
every tick it fires on.  Phase 3 calls one scalar sampler per sensor from a
(sensor, state) table built on the first sampled tick: ``rng.normal(mean,
sd)``, ``rng.uniform(lo, hi)``, or the point mass as a float with no RNG
call; the samplers of a joint label row are looked up once, when the row
first occurs.  The scalar calls run the same numpy routines as one-element
draws, so a seed gives the same values as ``draw(dist, rng, 1)[0]`` sensor
by sensor.
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


# What ``Simulator._advance`` returns for one tick: the tick, the queued
# effects applied, the interventions applied, the faults activated and the
# (subsystem index, rule index) of every rule that fired.
_TickLog = tuple[
    int, list["_QueuedEffect"], list[tuple[str, str]], list["FaultSpec"], list[tuple[int, int]]
]


def _tick_events(sub_ids: Sequence[str], entry: _TickLog) -> tuple[Event, ...]:
    """The events of one logged tick, in log order."""
    t, applied, interventions, faults, fired = entry
    events = [
        Event(EFFECT_APPLIED, t, target, state, sub_ids[sub_index], rule_index, t - delay)
        for _, sub_index, rule_index, delay, target, state in applied
    ]
    events.extend(Event(INTERVENTION, t, sensor, state) for sensor, state in interventions)
    events.extend(Event(FAULT_ACTIVATED, t, None, None, fault.component) for fault in faults)
    events.extend(
        Event(RULE_FIRED, t, None, None, sub_ids[sub_index], rule_index)
        for sub_index, rule_index in fired
    )
    return tuple(events)


@dataclass(frozen=True, eq=False)
class Trace:
    """Sampled values, ground-truth state labels and event log of one run, by column.

    ``values[t, j]`` is the value of sensor ``sensor_ids[j]`` at tick ``t`` and
    ``label_tables[j][codes[t, j]]`` its label.  ``log`` holds the raw output
    of ``Simulator._advance`` for every tick, and ``subsystem_ids`` names the
    subsystem indices in it; a trace read from CSV has no log.  Events and
    per-tick records are built from these only when asked for.  Two traces
    are equal when their sensor ids and records are.
    """

    sensor_ids: tuple[str, ...]
    values: np.ndarray
    codes: np.ndarray
    label_tables: tuple[tuple[str, ...], ...]
    subsystem_ids: tuple[str, ...] = ()
    log: tuple[_TickLog, ...] = ()

    def __post_init__(self) -> None:
        shape = (len(self.values), len(self.sensor_ids))
        if (
            self.values.shape != shape
            or self.codes.shape != shape
            or len(self.label_tables) != shape[1]
            or len(self.log) not in (0, shape[0])
        ):
            raise ValueError("trace columns, label tables and log disagree in shape")
        self.values.flags.writeable = False
        self.codes.flags.writeable = False

    @classmethod
    def from_columns(
        cls, values: Mapping[str, Sequence[float]], labels: Mapping[str, Sequence[str]]
    ) -> Trace:
        """A trace without an event log from per-sensor value and label
        sequences of one length, sensors in the order of ``values``.  Each
        sensor's label table lists its labels sorted."""
        sensor_ids = tuple(values)
        horizon = len(values[sensor_ids[0]]) if sensor_ids else 0
        value_matrix = np.empty((horizon, len(sensor_ids)))
        codes = np.empty((horizon, len(sensor_ids)), dtype=np.intp)
        tables = []
        for j, sensor in enumerate(sensor_ids):
            value_matrix[:, j] = values[sensor]
            table, codes[:, j] = np.unique(
                np.asarray(labels[sensor], dtype=str), return_inverse=True
            )
            tables.append(tuple(table.tolist()))
        return cls(sensor_ids, value_matrix, codes, tuple(tables))

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.sensor_ids == other.sensor_ids and self.records == other.records

    @cached_property
    def _columns(self) -> dict[str, int]:
        return {sensor: j for j, sensor in enumerate(self.sensor_ids)}

    def values_for(self, sensor: str) -> np.ndarray:
        return self.values[:, self._columns[sensor]]

    def codes_for(self, sensor: str) -> np.ndarray:
        return self.codes[:, self._columns[sensor]]

    def label_table(self, sensor: str) -> tuple[str, ...]:
        return self.label_tables[self._columns[sensor]]

    def labels_for(self, sensor: str) -> list[str]:
        return list(map(self.label_table(sensor).__getitem__, self.codes_for(sensor).tolist()))

    @cached_property
    def records(self) -> tuple[TickRecord, ...]:
        """One record per tick, built from the columns and the log on first use."""
        ids = self.sensor_ids
        labels = zip(*map(self.labels_for, ids))
        if self.log:
            events = (_tick_events(self.subsystem_ids, entry) for entry in self.log)
        else:
            events = ((),) * len(self)
        return tuple(
            TickRecord(t, dict(zip(ids, value_row)), dict(zip(ids, label_row)), tick_events)
            for t, (value_row, label_row, tick_events) in enumerate(
                zip(self.values.tolist(), labels, events)
            )
        )

    def events(self, kind: str | None = None) -> Iterator[Event]:
        for entry in self.log:
            for event in _tick_events(self.subsystem_ids, entry):
                if kind is None or event.kind == kind:
                    yield event

    def final_labels(self) -> dict[str, str]:
        if not len(self):
            raise ValueError("empty trace")
        last = self.codes[-1].tolist()
        return {
            sensor: table[code]
            for sensor, table, code in zip(self.sensor_ids, self.label_tables, last)
        }


class _QueuedEffect(NamedTuple):
    """One effect of one rule, made once when its table is compiled and queued
    by reference each time the rule fires; it fired ``delay`` ticks before
    the tick it lands on."""

    rank: tuple[int, int, int]  # (-subsystem index, rule index, effect index)
    sub_index: int
    rule_index: int
    delay: int
    target: str
    state: str


_rank = itemgetter(0)


def _no_key(labels: Mapping[str, str]) -> tuple[()]:
    return ()


_CompiledRule = tuple[tuple[int, int], tuple[_QueuedEffect, ...]]


def _compile_table(
    sub_index: int, rules: Sequence[Rule]
) -> tuple[tuple[Callable[[Mapping[str, str]], object], dict[object, _CompiledRule]], ...]:
    """Compile subsystem ``sub_index``'s rule table into one (key_of, rules)
    pair per guard-key set.

    ``key_of`` reads the labels of that set's sensors off a joint assignment
    and ``rules`` maps those labels to the rule's (subsystem index, rule
    index) and its queued effects.  A rule's own key is ``key_of`` applied to
    its guard, so an assignment finds the rule iff it agrees with the whole
    guard, which is ``Rule.matches``.
    """
    groups: dict[tuple[str, ...], tuple[Callable, dict[object, _CompiledRule]]] = {}
    for rule_index, rule in enumerate(rules):
        keys = tuple(sorted(rule.guard))
        if keys not in groups:
            groups[keys] = (itemgetter(*keys) if keys else _no_key, {})
        key_of, table = groups[keys]
        effects = tuple(
            _QueuedEffect(
                (-sub_index, rule_index, effect_index),
                sub_index,
                rule_index,
                effect.delay,
                effect.target,
                effect.state,
            )
            for effect_index, effect in enumerate(rule.effects)
        )
        table[key_of(rule.guard)] = ((sub_index, rule_index), effects)
    return tuple(groups.values())


class Simulator:
    """Single-owner simulation handle for one model run."""

    def __init__(self, model: SystemModel, seed: int = 0):
        self._model = model
        self._seed = seed
        self._labels = model.initial_labels()
        self._tick = 0
        self._queue: dict[int, list[_QueuedEffect]] = {}
        self._pending_interventions: list[tuple[str, str]] = []
        self._faults: dict[int, list[FaultSpec]] = {}
        self._sub_ids = tuple(sub.id for sub in model.subsystems)
        self._sub_index = {sub_id: i for i, sub_id in enumerate(self._sub_ids)}
        self._lookups = [_compile_table(i, sub.rules) for i, sub in enumerate(model.subsystems)]
        self._sensor_ids = model.sensor_ids()
        self._log: list[_TickLog] = []
        self._value_rows: list[list[float]] = []
        self._row_indices: list[int] = []
        # Distinct label rows seen, in model order -> (row index, row samplers).
        self._label_rows: dict[tuple[str, ...], tuple[int, tuple[Callable[[], float], ...]]] = {}

    @cached_property
    def _samplers(self) -> tuple[dict[str, Callable[[], float]], ...]:
        """Per sensor, in model order: state label -> zero-argument draw of one
        value.  Built on the first sampled tick, with the random generator they
        draw from, so ``label_steps`` builds neither."""
        rng = np.random.default_rng(self._seed)

        def sampler(dist: Distribution) -> Callable[[], float]:
            if isinstance(dist, Normal):
                return partial(rng.normal, dist.mean, dist.stddev)
            if isinstance(dist, Uniform):
                return partial(rng.uniform, dist.lo, dist.hi)
            if isinstance(dist, Degenerate):
                return partial(float, dist.value)
            raise TypeError(f"not a distribution: {dist!r}")

        return tuple(
            {label: sampler(dist) for label, dist in sensor.states}
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
        # The stable sort keeps effects of equal rank in the order they fired.
        due = self._queue.pop(t, [])
        winners: dict[str, _QueuedEffect] = {}
        for queued in sorted(due, key=_rank):
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
            sub_index = self._sub_index[fault.component]
            self._lookups[sub_index] = _compile_table(sub_index, fault.replacement_rules)

        # Phase 2: look the updated joint state up in every rule table.  At
        # most one rule of a validated table matches, so the first hit is it.
        labels = self._labels
        queue = self._queue
        fired: list[tuple[int, int]] = []
        for lookup in self._lookups:
            for key_of, rules in lookup:
                hit = rules.get(key_of(labels))
                if hit is None:
                    continue
                fired_rule, effects = hit
                fired.append(fired_rule)
                for queued in effects:
                    queue.setdefault(t + queued.delay, []).append(queued)
                break
        return t, applied, interventions, faults, fired

    def _step(self) -> None:
        """Execute the next tick and append its log entry, label row and value row."""
        self._log.append(self._advance())

        # Phase 3: one sampled value per sensor from its current state.  The
        # samplers of a label row are looked up once, when the row first occurs.
        labels = self._labels
        row = tuple(map(labels.__getitem__, self._sensor_ids))
        seen = self._label_rows.get(row)
        if seen is None:
            samplers = tuple(by_label[label] for by_label, label in zip(self._samplers, row))
            seen = self._label_rows[row] = (len(self._label_rows), samplers)
        index, samplers = seen
        self._row_indices.append(index)
        self._value_rows.append([draw() for draw in samplers])

    def step(self) -> TickRecord:
        """Execute the next tick and return its record."""
        self._step()
        ids = self._sensor_ids
        return TickRecord(
            self._log[-1][0],
            dict(zip(ids, self._value_rows[-1])),
            self.current_labels(),
            _tick_events(self._sub_ids, self._log[-1]),
        )

    def run(self, horizon: int) -> Trace:
        """Step until ``horizon`` ticks have executed; returns the full trace."""
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        while self._tick < horizon:
            self._step()
        return self.trace()

    def trace(self) -> Trace:
        ids = self._sensor_ids
        tables = tuple(sensor.labels() for sensor in self._model.sensors)
        code_of = [{label: code for code, label in enumerate(table)} for table in tables]
        distinct = np.array(
            [[codes[label] for codes, label in zip(code_of, row)] for row in self._label_rows],
            dtype=np.intp,
        ).reshape(len(self._label_rows), len(ids))
        return Trace(
            sensor_ids=ids,
            values=np.array(self._value_rows, dtype=float).reshape(len(self._log), len(ids)),
            codes=distinct[self._row_indices],
            label_tables=tables,
            subsystem_ids=self._sub_ids,
            log=tuple(self._log),
        )


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
        sim._step()
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
