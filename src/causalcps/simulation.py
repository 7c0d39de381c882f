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
event log, the index of its distinct label row and its standard draws.

Phases 1-2 are a memoized transition.  The labels are one row tuple in model
sensor order, and the queue holds, per landing tick, ids of effect groups: a
group is the tuple of queued effects that one tick fires with one delay,
interned by content, so the same group always has the same id.  The
transition's key is (the row before the tick, the ids of the due groups in
queue order, the tuple of pending interventions); its value is (the row
after, the effects applied, the rules fired, the (delay, group id) pairs to
queue, the contests).  A contest is phase 1's choice on one target that
removing some due effects could change: its winning effect is applied and
not every due effect on it carries its label before the tick.
``Simulator._transition`` computes a value only on a miss, and only a miss
consults the rule tables; every tick is still executed and logged on its
own, so the log, the values and the events are those of a tick-by-tick
run.  The groups of a landing tick concatenate to its due effects in the
order they fired, so the stable rank sort and its tie-breaks are unchanged.

Why the memo is sound: between fault activations, phase 1 reads only the
due effects, the interventions and the labels, and phase 2 reads only the
labels after phase 1 and the compiled rule tables.  The key holds the first
three, and the labels after phase 1 follow from them.  Tables change only
when a fault activates, after phase 1 and before phase 2 of its tick, so
the cache is cleared right there; as phase 1 reads no table, ``_advance``
activates a tick's faults before the lookup.  A model's state repeats for
long stretches between set-point changes, so a run computes few
transitions: 5 for the 1,000 ticks of the thermostat fixture.

A ``Trace`` is columnar, and it is the only form a run takes: a T x N
float64 value matrix, a T x N matrix of integer label codes with one label
table per sensor (the model's state order), and the raw log.  ``values_for``
and ``codes_for`` are column reads.  ``Event``s are built from the log only
when ``Trace.events`` is read.  ``Simulator.step`` executes one tick and
returns nothing; values exist only once ``trace`` has built the matrix.

Phase 2 does not test rules one by one.  Each rule table is compiled once, when
the simulator is made and again when a fault swaps a table in, into one dict
per set of guard sensors, keyed by those sensors' labels; a tick costs one
lookup per set.  Validation guarantees that at most one rule of a table
matches any joint state, so the first hit is the table's only match.  Each
compiled rule carries its effects as ready-made queue entries, shared by
every tick it fires on.

Phase 3 is split in two.  Per tick, it makes one zero-argument call per
random sensor, in sensor order, and keeps the raw draw:
``rng.standard_normal()`` for a normal state, and for a uniform one
``random_sample()`` of a ``RandomState`` that wraps ``rng``'s own bit
generator; a point mass makes no call.  The draw methods of a joint label
row are looked up once, when the row first occurs.  Every ``_CHUNK`` draws
or so go into one float64 array, so a run holds few draws as Python
floats.  Once per run, ``trace`` turns the draws into values with
whole-array arithmetic, ``offset + scale * draw``, where the offset is the
mean or ``lo`` and the scale the standard deviation or ``hi - lo`` of the
cell's (sensor, state); a point-mass cell takes its value as it is, with
no ``0.0 * draw`` term, so ``-0.0`` survives.  Normal draws stay scalar
calls: a normal consumes a varying number of words (the ziggurat rejects
and retries), so the normals of a row that also draws uniforms cannot be
taken in one block.

The values are bit-identical to sampling with ``draw(dist, rng, 1)[0]``
sensor by sensor.  ``RandomState.random_sample()`` and
``Generator.random()`` both return the bit generator's ``next_double``,
which for PCG64 is ``(next64 >> 11) * 2**-53``, and consume one 64-bit word
of the one shared stream; the ``RandomState`` call costs about half as
much, as it parses no ``dtype`` or ``out`` argument.  So each zero-argument
call consumes the same bits in the same order as numpy's own scalar call,
and numpy computes ``Generator.normal(m, s)`` as ``m + s *
random_standard_normal`` and ``Generator.uniform(lo, hi)`` as ``lo + (hi -
lo) * next_double``: one multiply and one add, each rounded on its own.
Python float operations and numpy ufuncs never fuse a multiply and an add
into one fused multiply-add (FMA).  The assumption is that numpy's C does
not fuse them either: on x86-64 it is compiled for a baseline without FMA
instructions (x86-64-v2 for numpy 2.x).  A numpy build that contracts
them, possible where the baseline has FMA (aarch64), would change the last
bit of some values; ``tests/test_simulation.py`` compares both ways bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


# What ``Simulator._advance`` returns for one tick: the tick, the queued
# effects applied, the interventions applied, the faults activated and the
# (subsystem index, rule index) of every rule that fired.
_TickLog = tuple[
    int,
    Sequence["_QueuedEffect"],
    Sequence[tuple[str, str]],
    Sequence["FaultSpec"],
    Sequence[tuple[int, int]],
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
    subsystem indices in it; a trace read from CSV has no log.  Events are
    built from the log only when asked for.  Two traces are equal when their
    lengths, sensor ids, every sensor's labels (not its codes, so the order
    of a label table does not matter), their values (float ``==``) and their
    events are.
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
        # A trace is equal to itself even with a nan value, as the per-tick
        # dicts it was once compared by were.
        return self is other or (
            len(self) == len(other)
            and self.sensor_ids == other.sensor_ids
            and all(self.labels_for(s) == other.labels_for(s) for s in self.sensor_ids)
            and np.array_equal(self.values, other.values)
            and list(self.events()) == list(other.events())
        )

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


class _Law(NamedTuple):
    """One state's law as an affine map of a standard draw: a value is
    ``offset + scale * draw()``, or ``offset`` itself when ``draw`` is None
    (a point mass)."""

    draw: Callable[[], float] | None  # standard_normal, or random_sample of a RandomState
    offset: float  # mean, lo or the point
    scale: float  # stddev, hi - lo, or 0.0 for a point mass


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

# A run keeps at most about this many standard draws as Python floats; it
# moves them into a float64 array whenever it has that many.
_CHUNK = 8192

# A tick's contests: per contested target, the due effects on it, highest
# rank (the winner) first.
_Contests = tuple[tuple[_QueuedEffect, ...], ...]

# A memoized tick: the labels after it, the queued effects applied, the
# (subsystem index, rule index) of every rule fired, the (delay, effect
# group id) pairs to queue and its contests (see ``Simulator._transition``).
_Transition = tuple[
    tuple[str, ...],
    tuple[_QueuedEffect, ...],
    tuple[tuple[int, int], ...],
    tuple[tuple[int, int], ...],
    _Contests,
]


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
        self._sensor_ids = model.sensor_ids()
        # The joint labels, in model sensor order.
        self._row = tuple(sensor.initial_state for sensor in model.sensors)
        # The contests of the last executed tick.
        self._contests: _Contests = ()
        self._tick = 0
        # Landing tick -> ids of the effect groups due then, in the order queued.
        self._queue: dict[int, list[int]] = {}
        self._pending_interventions: list[tuple[str, str]] = []
        self._faults: dict[int, list[FaultSpec]] = {}
        self._sub_ids = tuple(sub.id for sub in model.subsystems)
        self._sub_index = {sub_id: i for i, sub_id in enumerate(self._sub_ids)}
        self._lookups = [_compile_table(i, sub.rules) for i, sub in enumerate(model.subsystems)]
        # Effect groups interned by content: group -> id, and id -> group.
        self._group_ids: dict[tuple[_QueuedEffect, ...], int] = {}
        self._groups: list[tuple[_QueuedEffect, ...]] = []
        # (row before, due group ids, interventions) -> _Transition.
        self._transitions: dict[
            tuple[tuple[str, ...], tuple[int, ...], tuple[tuple[str, str], ...]], _Transition
        ] = {}
        self._log: list[_TickLog] = []
        # The standard draws of every tick, in tick then sensor order: float64
        # chunks of about _CHUNK draws, then the latest as Python floats; and
        # each tick's label-row index.
        self._chunks: list[np.ndarray] = []
        self._draws: list[float] = []
        self._row_indices: list[int] = []
        # Distinct label rows seen, in model order -> (row index, the row's
        # standard-draw methods in sensor order, every sensor's law).
        self._label_rows: dict[
            tuple[str, ...], tuple[int, tuple[Callable[[], float], ...], tuple[_Law, ...]]
        ] = {}

    @cached_property
    def _laws(self) -> tuple[dict[str, _Law], ...]:
        """Per sensor, in model order: state label -> its ``_Law``.  Built on
        the first sampled tick, with the random generator the laws draw from,
        so ``label_steps`` builds neither."""
        rng = np.random.default_rng(self._seed)
        # The legacy wrapper around the same bit generator: its zero-argument
        # random_sample() is Generator.random() at half the call cost.
        uniform = np.random.RandomState(rng.bit_generator).random_sample

        def law(dist: Distribution) -> _Law:
            if isinstance(dist, Normal):
                return _Law(rng.standard_normal, float(dist.mean), float(dist.stddev))
            if isinstance(dist, Uniform):
                lo = float(dist.lo)
                return _Law(uniform, lo, float(dist.hi) - lo)
            if isinstance(dist, Degenerate):
                return _Law(None, float(dist.value), 0.0)
            raise TypeError(f"not a distribution: {dist!r}")

        return tuple(
            {label: law(dist) for label, dist in sensor.states} for sensor in self._model.sensors
        )

    @property
    def model(self) -> SystemModel:
        return self._model

    @property
    def tick(self) -> int:
        """The next tick to execute."""
        return self._tick

    def current_labels(self) -> dict[str, str]:
        return dict(zip(self._sensor_ids, self._row))

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

    def _advance(self) -> _TickLog:
        """Phases 1-2 of the next tick: the only code that moves labels.

        Returns the tick executed, the queued effects applied, the
        interventions applied, the faults activated and the (subsystem
        index, rule index) of every rule that fired, each in event order.
        The labels and the effects to queue come from the memoized
        transition of (labels, due groups, interventions); ``_transition``
        computes one the first time it is needed.
        """
        t = self._tick
        self._tick += 1
        # Phase 1 reads no rule table, so the tick's faults may swap theirs
        # in before it as well as after it; every transition cached so far
        # read the old tables.
        faults = self._faults.pop(t, ())
        for fault in faults:
            sub_index = self._sub_index[fault.component]
            self._lookups[sub_index] = _compile_table(sub_index, fault.replacement_rules)
        if faults:
            self._transitions.clear()

        due = self._queue.pop(t, None)
        pending = self._pending_interventions
        if pending:
            self._pending_interventions = []
        interventions = tuple(pending)
        key = (self._row, tuple(due) if due else (), interventions)
        transition = self._transitions.get(key)
        if transition is None:
            transition = self._transitions[key] = self._transition(*key)
        self._row, applied, fired, queued, self._contests = transition
        queue = self._queue
        for delay, group in queued:
            queue.setdefault(t + delay, []).append(group)
        return t, applied, interventions, faults, fired

    def _transition(
        self,
        row: tuple[str, ...],
        due_groups: tuple[int, ...],
        interventions: tuple[tuple[str, str], ...],
    ) -> _Transition:
        """Phases 1-2 from the labels ``row`` with the current rule tables."""
        labels = dict(zip(self._sensor_ids, row))

        # Phase 1: due effects, losers resolved away before anything is applied.
        # The groups concatenate to the due effects in the order they fired,
        # and the stable sort keeps effects of equal rank in that order.
        due = [queued for group in due_groups for queued in self._groups[group]]
        ranked = sorted(due, key=_rank)
        winners: dict[str, _QueuedEffect] = {}
        for queued in ranked:
            winners[queued.target] = queued
        intervened = {sensor for sensor, _ in interventions}
        applied = tuple(winners[target] for target in sorted(winners) if target not in intervened)
        moved = {queued.target for queued in due if queued.state != labels[queued.target]}
        contested: dict[str, list[_QueuedEffect]] = {t: [] for t in sorted(moved - intervened)}
        for queued in reversed(ranked):
            if queued.target in contested:
                contested[queued.target].append(queued)
        contests = tuple(map(tuple, contested.values()))
        for queued in applied:
            labels[queued.target] = queued.state
        for sensor, state in interventions:
            labels[sensor] = state

        # Phase 2: look the updated joint state up in every rule table.  At
        # most one rule of a validated table matches, so the first hit is it.
        fired: list[tuple[int, int]] = []
        by_delay: dict[int, list[_QueuedEffect]] = {}
        for lookup in self._lookups:
            for key_of, rules in lookup:
                hit = rules.get(key_of(labels))
                if hit is None:
                    continue
                fired_rule, effects = hit
                fired.append(fired_rule)
                for queued in effects:
                    by_delay.setdefault(queued.delay, []).append(queued)
                break
        groups = []
        for delay, effects in by_delay.items():
            group = tuple(effects)
            group_id = self._group_ids.get(group)
            if group_id is None:
                group_id = self._group_ids[group] = len(self._groups)
                self._groups.append(group)
            groups.append((delay, group_id))
        row = tuple(map(labels.__getitem__, self._sensor_ids))
        return row, applied, tuple(fired), tuple(groups), contests

    def step(self) -> None:
        """Execute the next tick and append its log entry, label-row index and
        standard draws; ``trace`` turns them into the run's columns."""
        self._log.append(self._advance())

        # Phase 3: one standard draw per random sensor, in sensor order.  The
        # draw methods of a label row are looked up once, when it first occurs.
        row = self._row
        seen = self._label_rows.get(row)
        if seen is None:
            laws = tuple(by_label[label] for by_label, label in zip(self._laws, row))
            samplers = tuple(law.draw for law in laws if law.draw is not None)
            seen = self._label_rows[row] = (len(self._label_rows), samplers, laws)
        index, samplers, _ = seen
        self._row_indices.append(index)
        draws = self._draws
        draws += [draw() for draw in samplers]
        if len(draws) >= _CHUNK:
            self._chunks.append(np.array(draws, dtype=float))
            self._draws = []

    def run(self, horizon: int) -> Trace:
        """Step until ``horizon`` ticks have executed; returns the full trace."""
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        while self._tick < horizon:
            self.step()
        return self.trace()

    def trace(self) -> Trace:
        ids = self._sensor_ids
        shape = (len(self._label_rows), len(ids))
        tables = tuple(sensor.labels() for sensor in self._model.sensors)
        code_of = [{label: code for code, label in enumerate(table)} for table in tables]
        distinct = np.array(
            [[codes[label] for codes, label in zip(code_of, row)] for row in self._label_rows],
            dtype=np.intp,
        ).reshape(shape)
        laws = [row_laws for _, _, row_laws in self._label_rows.values()]
        offset = np.array([[law.offset for law in row] for row in laws]).reshape(shape)
        scale = np.array([[law.scale for law in row] for row in laws]).reshape(shape)
        drawn = np.array(
            [[law.draw is not None for law in row] for row in laws], dtype=bool
        ).reshape(shape)
        # Point-mass cells keep their offset as it is; every drawn cell, in
        # tick then sensor order, is offset + scale * its standard draw.  A
        # normal law near the float limit can overflow to inf here, silently,
        # as numpy's scalar ``normal`` does.
        rows = np.array(self._row_indices, dtype=np.intp)
        values = offset[rows]
        cells = drawn[rows]
        with np.errstate(over="ignore"):
            values[cells] += scale[rows][cells] * np.concatenate(
                [*self._chunks, np.array(self._draws, dtype=float)]
            )
        return Trace(
            sensor_ids=ids,
            values=values,
            codes=distinct[rows],
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
        sim.step()
    return sim.trace()


def label_steps(
    model: SystemModel,
    horizon: int,
    interventions: Sequence[ScriptedIntervention] = (),
    faults: Sequence[FaultSpec] = (),
    contests: list[tuple[int, _Contests]] | None = None,
) -> Iterator[tuple[str, ...]]:
    """Yield the joint labels after each tick of the same run as run_script,
    as one tuple in model sensor order.

    Runs phases 1-2 only: nothing is sampled and no event is logged,
    so a consumer that has seen enough can stop early at no further cost.
    Labels never depend on the seed, so none is taken.  Errors surface as
    iteration reaches them, as in run_script: a bad horizon or fault on the
    first tick, a bad intervention on its own tick.  When ``contests`` is a
    list, each tick that has contests (``Simulator._transition``) appends
    (the tick, its contests) to it before its labels are yielded.
    """
    sim = Simulator(model)
    for tick in _script(sim, horizon, interventions, faults):
        sim._advance()
        if contests is not None and sim._contests:
            contests.append((tick, sim._contests))
        yield sim._row
