"""System model: sensors with finite state sets, rule-table subsystems, and
the causal graph read off the rules.

A subsystem's behavior is a finite table of rules.  Each rule has a guard (a
partial assignment over the subsystem's own sensors) and a list of delayed
effects on arbitrary sensors.  Build-time validation checks that no two guards
can match at once, so the table always defines a deterministic transformation.
Two guards can both match iff they agree on every sensor they share, so the
check compares guards instead of enumerating the joint state set, and only
guards that can agree: those with different labels on one sensor never do
(see ``first_overlap``).

Composition, too, builds its joint table from pairwise guard merges on one
path, with no joint state enumerated (see ``compose``).

Models are immutable after construction; every modifying operation (compose)
returns a new model.
"""

from __future__ import annotations

from bisect import bisect_right
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

    @cached_property
    def _labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.states)

    def labels(self) -> tuple[str, ...]:
        """The state labels in state order, one tuple built once per sensor."""
        return self._labels

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
        return holds(self.guard, assignment)


def holds(partial: Mapping[str, str], state: Mapping[str, str]) -> bool:
    """Whether every sensor of ``partial`` has its label in ``state``."""
    return partial.items() <= state.items()


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

    @cached_property
    def _label_sets(self) -> dict[str, frozenset[str]]:
        """Each sensor's state labels as a set, for rule validation."""
        return {s.id: frozenset(s.labels()) for s in self.sensors}

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
    # Laws are frozen dataclasses of finite floats: equal laws hash equal.
    dists = [dist for _, dist in sensor.states]
    if len(set(dists)) != len(dists):
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
    label_sets = model._label_sets
    for i, rule in enumerate(rules):
        for sensor_id, label in rule.guard.items():
            if sensor_id not in own:
                raise ModelError(
                    f"subsystem {subsystem_id!r} rule {i}: guard sensor {sensor_id!r} "
                    f"is not one of its sensors"
                )
            if label not in label_sets[sensor_id]:
                raise ModelError(
                    f"subsystem {subsystem_id!r} rule {i}: sensor {sensor_id!r} "
                    f"has no state {label!r}"
                )
        for effect in rule.effects:
            if effect.target not in label_sets:
                model.sensor(effect.target)  # raises the unknown-sensor error
            if effect.state not in label_sets[effect.target]:
                raise ModelError(
                    f"subsystem {subsystem_id!r} rule {i}: sensor {effect.target!r} "
                    f"has no state {effect.state!r}"
                )
            if effect.delay < 1:
                raise ModelError(
                    f"subsystem {subsystem_id!r} rule {i}: delay {effect.delay} invalid, "
                    f"effect must follow cause (delay >= 1)"
                )
    # Determinism check; exact because guards are conjunctions over the
    # validated labels of this subsystem's sensors.
    guards = [rule.guard for rule in rules]
    pair = first_overlap(guards)
    if pair is not None:
        i, j = pair
        witness = {sid: model.sensor(sid).labels()[0] for sid in sub.sensors}
        witness |= guards[i] | guards[j]
        raise ModelError(
            f"subsystem {subsystem_id!r}: overlapping guards, rules {i} and "
            f"{j} both match {witness!r} "
            f"(nondeterministic functional representation)"
        )


def pivot_groups(
    guards: Sequence[Mapping[str, str]],
) -> tuple[str | None, dict[str | None, list[int]]]:
    """The pivot of ``guards``, the sensor most of them read (the first such
    met; None when no guard reads one), and the guards' indices grouped by
    their label on it (None: not read), each group in index order.  Two
    guards with different labels on the pivot never agree."""
    reads: dict[str, int] = {}
    for guard in guards:
        for sensor in guard:
            reads[sensor] = reads.get(sensor, 0) + 1
    pivot = max(reads, key=reads.__getitem__, default=None)
    groups: dict[str | None, list[int]] = {}
    for i, guard in enumerate(guards):
        groups.setdefault(guard.get(pivot), []).append(i)
    return pivot, groups


def first_overlap(guards: Sequence[Mapping[str, str]]) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, in lexicographic order, of guards that
    agree on every sensor they share (``guards_overlap``), or None.  Called
    on a rule table by ``validate_rules`` and on each parameter value's
    transitions by ``planning.Functionality``.

    Only guards that can agree are compared (see ``pivot_groups``): a guard
    that reads the pivot is compared with the later guards of its label and
    the later guards that do not read it, and a guard that does not read it
    with every later guard.  Taking each guard's first match in index order
    gives the pairwise loop's first pair, whatever the pivot.  A table of
    one-sensor guards on distinct labels costs one pass.
    """
    pivot, groups = pivot_groups(guards)
    free = groups.get(None, [])
    # The guards of each label met so far: the next one's place in its group.
    met: dict[str, int] = {}
    for i, guard in enumerate(guards):
        label = guard.get(pivot)
        if label is None:
            later: Sequence[int] = range(i + 1, len(guards))
        else:
            met[label] = place = met.get(label, 0) + 1
            later = groups[label][place:]
            if free:
                later = sorted(later + free[bisect_right(free, i) :])
        for j in later:
            if guards_overlap(guard, guards[j]):
                return i, j
    return None


def build_model(sensors: Sequence[Sensor], subsystems: Sequence[Subsystem]) -> SystemModel:
    """Validate and assemble a system model; the subsystem list order is the
    priority order."""
    sensor_ids = [s.id for s in sensors]
    if len(set(sensor_ids)) != len(sensor_ids):
        raise ModelError(f"duplicate sensor ids: {sensor_ids}")
    for sensor in sensors:
        _check_sensor(sensor)

    subsystem_ids = [s.id for s in subsystems]
    if len(set(subsystem_ids)) != len(subsystem_ids):
        raise ModelError(f"duplicate subsystem ids: {subsystem_ids}")

    model = SystemModel(sensors=tuple(sensors), subsystems=tuple(subsystems))
    all_ids = set(sensor_ids)
    for sub in model.subsystems:
        if not sub.id:
            raise ModelError("subsystem id must be a nonempty string")
        if not sub.sensors:
            raise ModelError(f"subsystem {sub.id!r} must own at least one sensor")
        owned = set(sub.sensors)
        if len(owned) != len(sub.sensors):
            raise ModelError(f"subsystem {sub.id!r} lists a sensor twice")
        unknown = owned - all_ids
        if unknown:
            raise ModelError(f"subsystem {sub.id!r} references unknown sensors {sorted(unknown)}")
        if owned == all_ids:
            raise ModelError(
                f"subsystem {sub.id!r} owns every sensor; it must be a proper subset"
            )
        if not isinstance(sub.kind, SubsystemKind):
            raise ModelError(f"subsystem {sub.id!r} has invalid kind {sub.kind!r}")
        validate_rules(model, sub.id, sub.rules)
    return model


def _merge_effects(first: Sequence[Effect], second: Sequence[Effect]) -> tuple[Effect, ...]:
    # Effects of the prioritized table shadow same-target effects landing on
    # the same tick; different delays land on different ticks and both apply.
    taken = {(e.target, e.delay) for e in first}
    merged = list(first)
    merged.extend(e for e in second if (e.target, e.delay) not in taken)
    return tuple(merged)


def _unmatched(model: SystemModel, rule: Rule, table: Sequence[Rule]) -> list[Rule]:
    """``rule`` on the part of its guard that no rule of ``table`` matches,
    split into disjoint guards by subtracting each overlapping guard in turn
    (the disjoint sharp of two-level logic minimisation): fix the other
    guard's sensors one at a time and branch on the other labels of each.
    """
    pieces = [rule.guard]
    for other in table:
        rest = []
        for piece in pieces:
            if not guards_overlap(piece, other.guard):
                rest.append(piece)
                continue
            fixed = dict(piece)
            for sensor_id, label in other.guard.items():
                if sensor_id not in fixed:
                    rest.extend(
                        fixed | {sensor_id: branch}
                        for branch in model.sensor(sensor_id).labels()
                        if branch != label
                    )
                    fixed[sensor_id] = label
        pieces = rest
    return [Rule(guard=piece, effects=rule.effects) for piece in pieces]


def compose(model: SystemModel, id_a: str, id_b: str, new_id: str) -> SystemModel:
    """Replace two subsystems with one over their sensor union.

    The joint table is built from pairwise guard merges.  Each pair of
    overlapping guards gives one rule on their union whose effects are both
    rules' effects, with ``id_a``'s taking priority on same-tick conflicts.
    Each rule of either table keeps its own effects on the part of its guard
    that no rule of the other table matches, split into disjoint guards.  So
    one tick of the composed subsystem equals applying ``id_a``'s table then
    ``id_b``'s, and when no guards overlap the table is the plain union.
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

    rules: list[Rule] = []
    for rule_a in sub_a.rules:
        rules.extend(_unmatched(model, rule_a, sub_b.rules))
        rules.extend(
            Rule(rule_a.guard | rule_b.guard, _merge_effects(rule_a.effects, rule_b.effects))
            for rule_b in sub_b.rules
            if guards_overlap(rule_a.guard, rule_b.guard)
        )
    for rule_b in sub_b.rules:
        rules.extend(_unmatched(model, rule_b, sub_a.rules))
    composed = Subsystem(id=new_id, kind=sub_a.kind, sensors=union, rules=tuple(rules))

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
