"""System model: sensors with finite state sets, rule-table subsystems, and
the causal graph read off the rules.

A subsystem's behavior is a finite table of rules.  Each rule has a guard (a
partial assignment over the subsystem's own sensors) and a list of delayed
effects on arbitrary sensors.  Build-time validation checks that no two guards
can match at once, so the table always defines a deterministic transformation.
Two guards can both match iff they agree on every sensor they share, so the
check compares guards pairwise instead of enumerating the joint state set.

Models are immutable after construction; every modifying operation (compose)
returns a new model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .distributions import ANOMALOUS, Distribution


class ModelError(ValueError):
    """Raised when a model or one of its parts fails validation."""


class SubsystemKind(Enum):
    COMPONENT = "component"
    MODULE = "module"
    PRODUCT = "product"


@dataclass(frozen=True)
class Sensor:
    """A sensor with a finite set of labeled states and an initial state."""

    id: str
    states: tuple[tuple[str, Distribution], ...]
    initial_state: str

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.states)

    def distribution(self, label: str) -> Distribution:
        for state_label, dist in self.states:
            if state_label == label:
                return dist
        raise ModelError(f"sensor {self.id!r} has no state {label!r}")


@dataclass(frozen=True)
class Effect:
    """A delayed state change: set ``target`` to ``state`` after ``delay`` ticks."""

    target: str
    state: str
    delay: int


@dataclass(frozen=True)
class Rule:
    """Guard over the owning subsystem's sensors plus the effects it triggers."""

    guard: dict[str, str]
    effects: tuple[Effect, ...]

    def matches(self, assignment: Mapping[str, str]) -> bool:
        return self.guard.items() <= assignment.items()


def guards_overlap(a: Mapping[str, str], b: Mapping[str, str]) -> bool:
    """Whether some assignment matches both conjunctive guards: exactly when
    they agree on every sensor they share."""
    return all(a[k] == b[k] for k in a.keys() & b.keys())


@dataclass(frozen=True)
class Subsystem:
    id: str
    kind: SubsystemKind
    sensors: tuple[str, ...]
    rules: tuple[Rule, ...]


@dataclass(frozen=True)
class CausalEdge:
    cause: str
    effect: str
    via: str
    delay: int


@dataclass(frozen=True)
class CausalGraph:
    """Directed sensor-to-sensor influence graph.  Cycles are permitted."""

    sensors: frozenset[str]
    edges: frozenset[CausalEdge]

    @cached_property
    def _out(self) -> dict[str, tuple[CausalEdge, ...]]:
        """Edges by cause, each sorted by (effect, via, delay); built once,
        outside the fields that eq and hash read."""
        return _index(self.edges, lambda e: e.cause, lambda e: (e.effect, e.via, e.delay))

    @cached_property
    def _in(self) -> dict[str, tuple[CausalEdge, ...]]:
        """Edges by effect, each sorted by (cause, via, delay)."""
        return _index(self.edges, lambda e: e.effect, lambda e: (e.cause, e.via, e.delay))

    def out_edges(self, sensor: str) -> list[CausalEdge]:
        return list(self._out.get(sensor, ()))

    def in_edges(self, sensor: str) -> list[CausalEdge]:
        return list(self._in.get(sensor, ()))


def _index(
    edges: frozenset[CausalEdge],
    key_of: Callable[[CausalEdge], str],
    order: Callable[[CausalEdge], tuple],
) -> dict[str, tuple[CausalEdge, ...]]:
    groups: dict[str, list[CausalEdge]] = {}
    for edge in edges:
        groups.setdefault(key_of(edge), []).append(edge)
    return {key: tuple(sorted(group, key=order)) for key, group in groups.items()}


@dataclass(frozen=True)
class SystemModel:
    """All sensors plus the priority-ordered subsystems acting on them.

    Construct through build_model, which enforces every invariant; the
    subsystem tuple order is the conflict-resolution priority (first wins).
    """

    sensors: tuple[Sensor, ...]
    subsystems: tuple[Subsystem, ...]

    @cached_property
    def _sensor_map(self) -> dict[str, Sensor]:
        return {s.id: s for s in self.sensors}

    @cached_property
    def _subsystem_map(self) -> dict[str, Subsystem]:
        return {s.id: s for s in self.subsystems}

    def sensor(self, sensor_id: str) -> Sensor:
        try:
            return self._sensor_map[sensor_id]
        except KeyError:
            raise ModelError(f"unknown sensor id {sensor_id!r}") from None

    def subsystem(self, subsystem_id: str) -> Subsystem:
        try:
            return self._subsystem_map[subsystem_id]
        except KeyError:
            raise ModelError(f"unknown subsystem id {subsystem_id!r}") from None

    def sensor_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.sensors)

    def initial_labels(self) -> dict[str, str]:
        return {s.id: s.initial_state for s in self.sensors}

    def component_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.subsystems if s.kind is SubsystemKind.COMPONENT)

    def product_sensor_ids(self) -> tuple[str, ...]:
        """Sensors owned by PRODUCT-kind subsystems, in model sensor order."""
        owned: set[str] = set()
        for sub in self.subsystems:
            if sub.kind is SubsystemKind.PRODUCT:
                owned.update(sub.sensors)
        return tuple(sid for sid in self.sensor_ids() if sid in owned)

    def check_assignment(self, assignment: Mapping[str, str], total: bool = True) -> None:
        """Validate a (partial or total) sensor-to-label assignment."""
        for sensor_id, label in assignment.items():
            sensor = self.sensor(sensor_id)
            if label not in sensor.labels():
                raise ModelError(f"sensor {sensor_id!r} has no state {label!r}")
        if total:
            missing = set(self.sensor_ids()) - set(assignment)
            if missing:
                raise ModelError(f"assignment missing sensors: {sorted(missing)}")


def _check_sensor(sensor: Sensor) -> None:
    if not sensor.id:
        raise ModelError("sensor id must be a nonempty string")
    if not sensor.states:
        raise ModelError(f"sensor {sensor.id!r} needs at least one state")
    labels = sensor.labels()
    if len(set(labels)) != len(labels):
        raise ModelError(f"sensor {sensor.id!r} has duplicate state labels")
    if ANOMALOUS in labels:
        raise ModelError(f"sensor {sensor.id!r}: state label {ANOMALOUS!r} is reserved")
    if sensor.initial_state not in labels:
        raise ModelError(
            f"sensor {sensor.id!r}: initial state {sensor.initial_state!r} not in state set"
        )
    dists = [dist for _, dist in sensor.states]
    for i, a in enumerate(dists):
        for b in dists[i + 1 :]:
            if a == b:
                raise ModelError(f"sensor {sensor.id!r} has identical distributions for two states")


def validate_rules(
    model: SystemModel, subsystem_id: str, rules: Sequence[Rule]
) -> None:
    """Validate a rule table against a subsystem of ``model``.

    Used for the subsystem's own table at build time and for fault
    replacement tables at injection time; both must satisfy the same
    constraints, including the determinism check: no two guards may agree on
    every sensor they share, since some joint state would then match both.
    """
    sub = model.subsystem(subsystem_id)
    own = set(sub.sensors)
    for i, rule in enumerate(rules):
        for sensor_id, label in rule.guard.items():
            if sensor_id not in own:
                raise ModelError(
                    f"subsystem {subsystem_id!r} rule {i}: guard sensor {sensor_id!r} "
                    f"is not one of its sensors"
                )
            if label not in model.sensor(sensor_id).labels():
                raise ModelError(
                    f"subsystem {subsystem_id!r} rule {i}: sensor {sensor_id!r} "
                    f"has no state {label!r}"
                )
        for effect in rule.effects:
            sensor = model.sensor(effect.target)
            if effect.state not in sensor.labels():
                raise ModelError(
                    f"subsystem {subsystem_id!r} rule {i}: sensor {effect.target!r} "
                    f"has no state {effect.state!r}"
                )
            if effect.delay < 1:
                raise ModelError(
                    f"subsystem {subsystem_id!r} rule {i}: delay {effect.delay} invalid, "
                    f"effect must follow cause (delay >= 1)"
                )
    # Pairwise determinism check; exact because guards are conjunctions over
    # the validated labels of this subsystem's sensors.
    guards = [rule.guard for rule in rules]
    for i, a in enumerate(guards):
        for j, b in enumerate(guards[i + 1 :], start=i + 1):
            if guards_overlap(a, b):
                witness = {sid: model.sensor(sid).labels()[0] for sid in sub.sensors} | a | b
                raise ModelError(
                    f"subsystem {subsystem_id!r}: overlapping guards, rules {i} and "
                    f"{j} both match {witness!r} "
                    f"(nondeterministic functional representation)"
                )


def build_model(
    sensors: Sequence[Sensor],
    subsystems: Sequence[Subsystem],
    priority_order: Sequence[str] | None = None,
) -> SystemModel:
    """Validate and assemble a system model.

    ``priority_order`` (subsystem ids) overrides the declaration order; by
    default the subsystem list order is the priority order.
    """
    sensor_ids = [s.id for s in sensors]
    if len(set(sensor_ids)) != len(sensor_ids):
        raise ModelError(f"duplicate sensor ids: {sensor_ids}")
    for sensor in sensors:
        _check_sensor(sensor)

    subsystem_ids = [s.id for s in subsystems]
    if len(set(subsystem_ids)) != len(subsystem_ids):
        raise ModelError(f"duplicate subsystem ids: {subsystem_ids}")
    if priority_order is not None:
        if sorted(priority_order) != sorted(subsystem_ids):
            raise ModelError(
                f"priority order {list(priority_order)} is not a permutation of "
                f"subsystem ids {subsystem_ids}"
            )
        by_id = {s.id: s for s in subsystems}
        subsystems = [by_id[sid] for sid in priority_order]

    model = SystemModel(sensors=tuple(sensors), subsystems=tuple(subsystems))
    all_ids = set(sensor_ids)
    for sub in model.subsystems:
        if not sub.id:
            raise ModelError("subsystem id must be a nonempty string")
        if not sub.sensors:
            raise ModelError(f"subsystem {sub.id!r} must own at least one sensor")
        if len(set(sub.sensors)) != len(sub.sensors):
            raise ModelError(f"subsystem {sub.id!r} lists a sensor twice")
        unknown = set(sub.sensors) - all_ids
        if unknown:
            raise ModelError(f"subsystem {sub.id!r} references unknown sensors {sorted(unknown)}")
        if set(sub.sensors) == all_ids:
            raise ModelError(
                f"subsystem {sub.id!r} owns every sensor; it must be a proper subset"
            )
        if not isinstance(sub.kind, SubsystemKind):
            raise ModelError(f"subsystem {sub.id!r} has invalid kind {sub.kind!r}")
        validate_rules(model, sub.id, sub.rules)
    return model


def _single_match(rules: Sequence[Rule], assignment: Mapping[str, str]) -> Rule | None:
    for rule in rules:
        if rule.matches(assignment):
            return rule
    return None


def _merge_effects(first: Sequence[Effect], second: Sequence[Effect]) -> tuple[Effect, ...]:
    # Effects of the prioritized table shadow same-target effects landing on
    # the same tick; different delays land on different ticks and both apply.
    taken = {(e.target, e.delay) for e in first}
    merged = list(first)
    merged.extend(e for e in second if (e.target, e.delay) not in taken)
    return tuple(merged)


def _expand_joint_rules(
    model: SystemModel, first: Subsystem, second: Subsystem, union: Sequence[str]
) -> tuple[Rule, ...]:
    """Joint rule table equivalent to applying ``first`` then ``second``.

    One rule per joint state of the guard sensors (those of ``union`` that
    some guard of either table reads) that matches either table.  Whether a
    rule matches depends on those sensors only, and guards that are total
    over one sensor set are pairwise disjoint, so the result satisfies the
    determinism invariant while preserving the priority of ``first`` on
    conflicting same-tick effects.
    """
    read = {sid for rule in first.rules + second.rules for sid in rule.guard}
    guarded = [sid for sid in union if sid in read]
    domains = [model.sensor(sid).labels() for sid in guarded]
    rules = []
    for combo in itertools.product(*domains):
        assignment = dict(zip(guarded, combo))
        rule_a = _single_match(first.rules, assignment)
        rule_b = _single_match(second.rules, assignment)
        if rule_a is None and rule_b is None:
            continue
        effects_a = rule_a.effects if rule_a else ()
        effects_b = rule_b.effects if rule_b else ()
        rules.append(Rule(guard=assignment, effects=_merge_effects(effects_a, effects_b)))
    return tuple(rules)


def compose(model: SystemModel, id_a: str, id_b: str, new_id: str) -> SystemModel:
    """Replace two subsystems with one over their sensor union.

    When the plain union of both rule tables is already deterministic it is
    kept as-is; otherwise the table is expanded over the joint states of the
    sensors its guards read, with ``id_a``'s effects taking priority on
    same-tick conflicts, so one tick of the composed subsystem equals
    applying ``id_a``'s table then ``id_b``'s.
    The new subsystem takes ``id_a``'s kind and the better (smaller) of the
    two priority positions.
    """
    if id_a == id_b:
        raise ModelError("cannot compose a subsystem with itself")
    sub_a = model.subsystem(id_a)
    sub_b = model.subsystem(id_b)
    remaining_ids = {s.id for s in model.subsystems} - {id_a, id_b}
    if new_id in remaining_ids:
        raise ModelError(f"subsystem id {new_id!r} already in use")

    union = tuple(dict.fromkeys(sub_a.sensors + sub_b.sensors))
    if set(union) == set(model.sensor_ids()):
        raise ModelError(
            f"composing {id_a!r} and {id_b!r} would own every sensor; "
            f"a subsystem must be a proper subset"
        )

    plain = Subsystem(id=new_id, kind=sub_a.kind, sensors=union, rules=sub_a.rules + sub_b.rules)
    probe = SystemModel(sensors=model.sensors, subsystems=(plain,))
    try:
        validate_rules(probe, new_id, plain.rules)
        composed = plain
    except ModelError:
        composed = Subsystem(
            id=new_id,
            kind=sub_a.kind,
            sensors=union,
            rules=_expand_joint_rules(model, sub_a, sub_b, union),
        )

    indices = {s.id: i for i, s in enumerate(model.subsystems)}
    insert_at = min(indices[id_a], indices[id_b])
    new_subs = [s for s in model.subsystems if s.id not in (id_a, id_b)]
    new_subs.insert(min(insert_at, len(new_subs)), composed)
    return build_model(model.sensors, new_subs)


def derive_causal_graph(model: SystemModel) -> CausalGraph:
    """One edge per (guard sensor, effect) pair per rule, minimal delay kept."""
    best: dict[tuple[str, str, str], int] = {}
    for sub in model.subsystems:
        for rule in sub.rules:
            for cause in rule.guard:
                for effect in rule.effects:
                    key = (cause, effect.target, sub.id)
                    if key not in best or effect.delay < best[key]:
                        best[key] = effect.delay
    edges = frozenset(
        CausalEdge(cause=c, effect=e, via=v, delay=d) for (c, e, v), d in best.items()
    )
    return CausalGraph(sensors=frozenset(model.sensor_ids()), edges=edges)


def causal_ancestors(graph: CausalGraph, sensor: str) -> set[tuple[str, str]]:
    """Sensors from which ``sensor`` is reachable, with the subsystem of the
    edge they act through.  Safe on cyclic graphs."""
    if sensor not in graph.sensors:
        raise ModelError(f"unknown sensor id {sensor!r}")
    result: set[tuple[str, str]] = set()
    frontier = [sensor]
    visited = {sensor}
    while frontier:
        current = frontier.pop()
        for edge in graph.in_edges(current):
            result.add((edge.cause, edge.via))
            if edge.cause not in visited:
                visited.add(edge.cause)
                frontier.append(edge.cause)
    return result


def causal_descendants(graph: CausalGraph, sensor: str) -> set[str]:
    """Sensors reachable from ``sensor`` along one or more edges."""
    if sensor not in graph.sensors:
        raise ModelError(f"unknown sensor id {sensor!r}")
    result: set[str] = set()
    frontier = [sensor]
    seen: set[str] = set()
    while frontier:
        current = frontier.pop()
        for edge in graph.out_edges(current):
            result.add(edge.effect)
            if edge.effect not in seen:
                seen.add(edge.effect)
                frontier.append(edge.effect)
    return result
