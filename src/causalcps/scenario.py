"""Scenario files, trace/report serialization and the bundled fixtures.

A scenario is a YAML document describing a complete runnable setup::

    name: knife-hardening        # optional string
    seed: 42                     # default 0
    horizon: 300                 # ticks to simulate
    detection:                   # optional, defaults shown
      window: 50                 # >= 1
      stride: 25                 # >= 1
      alpha: 0.01                # in (0, 1)
    sensors:
      - id: oven_temp
        initial: Ambient
        states:
          - {label: Ambient, dist: normal(20, 2)}
          - {label: Hot, dist: normal(800, 10)}
    subsystems:                  # list order = priority order (first wins)
      - id: oven_chamber
        kind: component          # component | module | product
        sensors: [burner_set, lid_state, oven_temp]
        rules:
          - when: {burner_set: S100, lid_state: Closed}
            then: [{sensor: oven_temp, state: Hot, delay: 2}]
    functionalities:             # optional; planner actions
      - module: oven
        name: heat
        parameters: [0, 25, 50, 75, 100]
        duration: 8
        transitions:
          - {param: 100, when: {knife_temp: Cold}, then: {knife_temp: Hot}}
    script:                      # optional timed events, ticks < horizon
      interventions:
        - {tick: 5, sensor: burner_cmd, state: C100}
      faults:
        - component: lid_actuator
          activation: 0
          rules: []              # replacement rule table, same shape as above

Distributions are written ``normal(mean, stddev)``, ``uniform(lo, hi)`` or
``degenerate(value)``.  Unknown fields are rejected; semantic errors are
raised by model validation.

The knife-hardening scenario ships as package data in
``causalcps/scenarios/knife.yaml``, its only definition; ``knife_fixture``
parses that file.  The chain and thermostat fixtures are built in Python.

Trace CSVs hold the columns of a ``Trace`` (values and labels, not its event
log), one ``tick,sensor_id,value,state_label`` row per tick and sensor.
``export_trace`` builds all rows from the value and label-code matrices in
bulk, values written with ``repr``.  ``import_trace`` splits the text once
and converts whole columns with ``int`` and ``float``; only when some row is
bad, repeated or missing does it walk the rows one by one, to name the first
bad row in file order.
"""

from __future__ import annotations

import csv
import importlib.resources
import io
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator, Mapping, NoReturn, Sequence

import numpy as np
import yaml

from .detection import (
    DEFAULT_ALPHA,
    DEFAULT_STRIDE,
    DEFAULT_WINDOW,
    AnomalyReport,
    Deviation,
)
from .diagnosis import CausalPath, FaultHypothesis
from .distributions import Degenerate, Distribution, Normal, Uniform
from .model import (
    Effect,
    Rule,
    Sensor,
    Subsystem,
    SubsystemKind,
    SystemModel,
    build_model,
    validate_rules,
)
from .planning import Functionality, Plan, PlanningProblem, TransitionEntry
from .simulation import FaultSpec, ScriptedIntervention, Trace, run_script


# libyaml's C parser when PyYAML was built with it; same documents, same types.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioError(ValueError):
    """Scenario text that cannot be parsed or fails schema validation."""


@dataclass(frozen=True)
class ScenarioDocument:
    """Parsed and validated scenario."""

    name: str
    seed: int
    horizon: int
    window: int
    stride: int
    alpha: float
    sensors: tuple[Sensor, ...]
    subsystems: tuple[Subsystem, ...]
    functionalities: tuple[Functionality, ...]
    interventions: tuple[ScriptedIntervention, ...]
    faults: tuple[FaultSpec, ...]

    @cached_property
    def _model(self) -> SystemModel:
        return build_model(self.sensors, self.subsystems)

    def build(self) -> SystemModel:
        return self._model

    def run(
        self,
        seed: int | None = None,
        horizon: int | None = None,
        include_faults: bool = True,
    ) -> Trace:
        """Simulate the scenario; ``include_faults=False`` gives the fault-free
        reference run of the same script."""
        return run_script(
            self.build(),
            seed=self.seed if seed is None else seed,
            horizon=self.horizon if horizon is None else horizon,
            interventions=self.interventions,
            faults=self.faults if include_faults else (),
        )

    def planning_problem(self, goal: Mapping[str, str]) -> PlanningProblem:
        """Planning problem over the product sensors with the model's initial state."""
        model = self.build()
        product_ids = model.product_sensor_ids()
        if not product_ids:
            raise ScenarioError("scenario has no product-kind subsystem to plan for")
        for sensor_id, label in goal.items():
            if sensor_id not in product_ids:
                raise ScenarioError(f"goal sensor {sensor_id!r} is not a product sensor")
            if label not in model.sensor(sensor_id).labels():
                raise ScenarioError(f"sensor {sensor_id!r} has no state {label!r}")
        initial = {sid: model.sensor(sid).initial_state for sid in product_ids}
        return PlanningProblem(
            functionalities=self.functionalities, initial=initial, goal=dict(goal)
        )


# ---------------------------------------------------------------------------
# Distribution spec syntax
# ---------------------------------------------------------------------------

_DIST_RE = re.compile(r"^\s*(normal|uniform|degenerate)\s*\(([^)]*)\)\s*$")


def parse_distribution(text: str, where: str = "dist") -> Distribution:
    match = _DIST_RE.match(text)
    if not match:
        raise ScenarioError(
            f"{where}: expected normal(m, s), uniform(lo, hi) or degenerate(v), got {text!r}"
        )
    kind, args_text = match.groups()
    try:
        args = [float(part) for part in args_text.split(",")]
    except ValueError:
        raise ScenarioError(f"{where}: non-numeric parameter in {text!r}") from None
    expected = 1 if kind == "degenerate" else 2
    if len(args) != expected:
        raise ScenarioError(f"{where}: {kind} takes {expected} parameter(s), got {len(args)}")
    try:
        if kind == "normal":
            return Normal(mean=args[0], stddev=args[1])
        if kind == "uniform":
            return Uniform(lo=args[0], hi=args[1])
        return Degenerate(value=args[0])
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def format_distribution(dist: Distribution) -> str:
    """The spec text of ``dist``; each parameter is written as the shortest
    text that parses back to the same float."""
    if isinstance(dist, Normal):
        return f"normal({float(dist.mean)!r}, {float(dist.stddev)!r})"
    if isinstance(dist, Uniform):
        return f"uniform({float(dist.lo)!r}, {float(dist.hi)!r})"
    return f"degenerate({float(dist.value)!r})"


# ---------------------------------------------------------------------------
# Parsing helpers (strict: unknown fields are errors, with field-path context)
# ---------------------------------------------------------------------------


def _expect_mapping(node: Any, where: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioError(f"{where}: expected a mapping, got {type(node).__name__}")
    return node


def _expect_list(node: Any, where: str) -> list:
    if not isinstance(node, list):
        raise ScenarioError(f"{where}: expected a list, got {type(node).__name__}")
    return node


def _reject_unknown(node: Mapping, allowed: set[str], where: str) -> None:
    unknown = set(node) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown field(s) {sorted(unknown)}")


def _get_str(node: Mapping, key: str, where: str) -> str:
    if key not in node:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    value = node[key]
    if not isinstance(value, str) or not value:
        raise ScenarioError(f"{where}.{key}: expected a nonempty string")
    return value


def _get_int(
    node: Mapping, key: str, where: str, default: int | None = None, minimum: int | None = None
) -> int:
    if key not in node:
        if default is None:
            raise ScenarioError(f"{where}: missing required field {key!r}")
        return default
    value = node[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{where}.{key}: expected an integer")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{where}.{key}: must be >= {minimum}, got {value}")
    return value


def _parse_label_map(node: Any, where: str) -> dict[str, str]:
    mapping = _expect_mapping(node, where)
    out = {}
    for key, value in mapping.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise ScenarioError(f"{where}: expected string-to-string entries")
        out[key] = value
    return out


def _parse_sensor(node: Any, where: str) -> Sensor:
    mapping = _expect_mapping(node, where)
    _reject_unknown(mapping, {"id", "initial", "states"}, where)
    sensor_id = _get_str(mapping, "id", where)
    states = []
    for i, state_node in enumerate(_expect_list(mapping.get("states"), f"{where}.states")):
        state_where = f"{where}.states[{i}]"
        state_map = _expect_mapping(state_node, state_where)
        _reject_unknown(state_map, {"label", "dist"}, state_where)
        label = _get_str(state_map, "label", state_where)
        dist = parse_distribution(_get_str(state_map, "dist", state_where), f"{state_where}.dist")
        states.append((label, dist))
    return Sensor(
        id=sensor_id,
        states=tuple(states),
        initial_state=_get_str(mapping, "initial", where),
    )


def _parse_rule(node: Any, where: str) -> Rule:
    mapping = _expect_mapping(node, where)
    _reject_unknown(mapping, {"when", "then"}, where)
    guard = _parse_label_map(mapping.get("when", {}), f"{where}.when")
    effects = []
    for i, effect_node in enumerate(_expect_list(mapping.get("then", []), f"{where}.then")):
        effect_where = f"{where}.then[{i}]"
        effect_map = _expect_mapping(effect_node, effect_where)
        _reject_unknown(effect_map, {"sensor", "state", "delay"}, effect_where)
        effects.append(
            Effect(
                target=_get_str(effect_map, "sensor", effect_where),
                state=_get_str(effect_map, "state", effect_where),
                delay=_get_int(effect_map, "delay", effect_where),
            )
        )
    return Rule(guard=guard, effects=tuple(effects))


def _parse_subsystem(node: Any, where: str) -> Subsystem:
    mapping = _expect_mapping(node, where)
    _reject_unknown(mapping, {"id", "kind", "sensors", "rules"}, where)
    kind_text = _get_str(mapping, "kind", where)
    try:
        kind = SubsystemKind(kind_text)
    except ValueError:
        raise ScenarioError(
            f"{where}.kind: expected one of component/module/product, got {kind_text!r}"
        ) from None
    sensors = _expect_list(mapping.get("sensors"), f"{where}.sensors")
    if not all(isinstance(s, str) for s in sensors):
        raise ScenarioError(f"{where}.sensors: expected a list of sensor ids")
    rules = tuple(
        _parse_rule(rule_node, f"{where}.rules[{i}]")
        for i, rule_node in enumerate(_expect_list(mapping.get("rules", []), f"{where}.rules"))
    )
    return Subsystem(
        id=_get_str(mapping, "id", where), kind=kind, sensors=tuple(sensors), rules=rules
    )


def _parse_functionality(node: Any, where: str) -> Functionality:
    mapping = _expect_mapping(node, where)
    _reject_unknown(mapping, {"module", "name", "parameters", "duration", "transitions"}, where)
    params = _expect_list(mapping.get("parameters"), f"{where}.parameters")
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in params):
        raise ScenarioError(f"{where}.parameters: expected a list of numbers")
    transitions = []
    for i, entry_node in enumerate(
        _expect_list(mapping.get("transitions", []), f"{where}.transitions")
    ):
        entry_where = f"{where}.transitions[{i}]"
        entry_map = _expect_mapping(entry_node, entry_where)
        _reject_unknown(entry_map, {"param", "when", "then"}, entry_where)
        param = entry_map.get("param")
        if not isinstance(param, (int, float)) or isinstance(param, bool):
            raise ScenarioError(f"{entry_where}.param: expected a number")
        transitions.append(
            TransitionEntry(
                param=float(param),
                guard=_parse_label_map(entry_map.get("when", {}), f"{entry_where}.when"),
                effect=_parse_label_map(entry_map.get("then", {}), f"{entry_where}.then"),
            )
        )
    try:
        return Functionality(
            module=_get_str(mapping, "module", where),
            name=_get_str(mapping, "name", where),
            parameter_domain=tuple(float(p) for p in params),
            transitions=tuple(transitions),
            duration=_get_int(mapping, "duration", where),
        )
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _parse_script(
    node: Any, where: str, horizon: int
) -> tuple[tuple[ScriptedIntervention, ...], tuple[FaultSpec, ...]]:
    mapping = _expect_mapping(node, where)
    _reject_unknown(mapping, {"interventions", "faults"}, where)
    interventions = []
    for i, iv_node in enumerate(
        _expect_list(mapping.get("interventions", []), f"{where}.interventions")
    ):
        iv_where = f"{where}.interventions[{i}]"
        iv_map = _expect_mapping(iv_node, iv_where)
        _reject_unknown(iv_map, {"tick", "sensor", "state"}, iv_where)
        tick = _get_int(iv_map, "tick", iv_where)
        if not 0 <= tick < horizon:
            raise ScenarioError(f"{iv_where}.tick: {tick} not in [0, horizon={horizon})")
        interventions.append(
            ScriptedIntervention(
                tick=tick,
                sensor=_get_str(iv_map, "sensor", iv_where),
                state=_get_str(iv_map, "state", iv_where),
            )
        )
    faults = []
    for i, fault_node in enumerate(_expect_list(mapping.get("faults", []), f"{where}.faults")):
        fault_where = f"{where}.faults[{i}]"
        fault_map = _expect_mapping(fault_node, fault_where)
        _reject_unknown(fault_map, {"component", "activation", "rules"}, fault_where)
        activation = _get_int(fault_map, "activation", fault_where)
        if not 0 <= activation < horizon:
            raise ScenarioError(
                f"{fault_where}.activation: {activation} not in [0, horizon={horizon})"
            )
        rules = tuple(
            _parse_rule(rule_node, f"{fault_where}.rules[{j}]")
            for j, rule_node in enumerate(
                _expect_list(fault_map.get("rules", []), f"{fault_where}.rules")
            )
        )
        faults.append(
            FaultSpec(
                component=_get_str(fault_map, "component", fault_where),
                replacement_rules=rules,
                activation=activation,
            )
        )
    return tuple(interventions), tuple(faults)


_TOP_LEVEL_FIELDS = {
    "name",
    "seed",
    "horizon",
    "detection",
    "sensors",
    "subsystems",
    "functionalities",
    "script",
}


def parse_scenario(text: str) -> ScenarioDocument:
    """Parse and fully validate a scenario document.

    Schema violations raise ScenarioError with field context; semantic
    violations (bad references, overlapping guards, delays < 1, ...) are
    raised by model validation.
    """
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is None:
            raise ScenarioError(f"invalid YAML: {exc}") from None
        # libyaml puts the stream end past an implied final newline; clamp to
        # the text's last line so both loaders name the same line.
        line = min(mark.line + 1, text.count("\n") + 1)
        raise ScenarioError(f"line {line}: invalid YAML: {exc}") from None
    root = _expect_mapping(raw, "document")
    _reject_unknown(root, _TOP_LEVEL_FIELDS, "document")

    horizon = _get_int(root, "horizon", "document", minimum=1)
    detection = _expect_mapping(root.get("detection", {}), "document.detection")
    _reject_unknown(detection, {"window", "stride", "alpha"}, "document.detection")
    alpha = detection.get("alpha", DEFAULT_ALPHA)
    if not isinstance(alpha, (int, float)) or not 0 < alpha < 1:
        raise ScenarioError(f"document.detection.alpha: expected a number in (0, 1), got {alpha!r}")

    sensors = tuple(
        _parse_sensor(node, f"sensors[{i}]")
        for i, node in enumerate(_expect_list(root.get("sensors"), "document.sensors"))
    )
    subsystems = tuple(
        _parse_subsystem(node, f"subsystems[{i}]")
        for i, node in enumerate(_expect_list(root.get("subsystems", []), "document.subsystems"))
    )
    functionalities = tuple(
        _parse_functionality(node, f"functionalities[{i}]")
        for i, node in enumerate(
            _expect_list(root.get("functionalities", []), "document.functionalities")
        )
    )
    interventions, faults = _parse_script(root.get("script", {}), "script", horizon)
    name = root.get("name", "")
    if not isinstance(name, str):
        raise ScenarioError(f"document.name: expected a string, got {type(name).__name__}")

    doc = ScenarioDocument(
        name=name,
        seed=_get_int(root, "seed", "document", default=0),
        horizon=horizon,
        window=_get_int(
            detection, "window", "document.detection", default=DEFAULT_WINDOW, minimum=1
        ),
        stride=_get_int(
            detection, "stride", "document.detection", default=DEFAULT_STRIDE, minimum=1
        ),
        alpha=float(alpha),
        sensors=sensors,
        subsystems=subsystems,
        functionalities=functionalities,
        interventions=interventions,
        faults=faults,
    )
    _validate_semantics(doc)
    return doc


def _validate_semantics(doc: ScenarioDocument) -> None:
    model = doc.build()  # delegated model validation; raises ModelError
    module_ids = {s.id for s in model.subsystems if s.kind is SubsystemKind.MODULE}
    product_ids = set(model.product_sensor_ids())
    for functionality in doc.functionalities:
        where = f"functionality {functionality.module}.{functionality.name}"
        if functionality.module not in module_ids:
            raise ScenarioError(f"{where}: module is not a module-kind subsystem")
        for entry in functionality.transitions:
            for sensor_id, label in list(entry.guard.items()) + list(entry.effect.items()):
                if sensor_id not in product_ids:
                    raise ScenarioError(
                        f"{where}: transition touches non-product sensor {sensor_id!r}"
                    )
                if label not in model.sensor(sensor_id).labels():
                    raise ScenarioError(
                        f"{where}: sensor {sensor_id!r} has no state {label!r}"
                    )
    for item in doc.interventions:
        model.check_assignment({item.sensor: item.state}, total=False)
    for fault in doc.faults:
        model.subsystem(fault.component)
        validate_rules(model, fault.component, fault.replacement_rules)


# ---------------------------------------------------------------------------
# Serialization back to YAML
# ---------------------------------------------------------------------------


def _rule_to_node(rule: Rule) -> dict:
    return {
        "when": dict(rule.guard),
        "then": [
            {"sensor": e.target, "state": e.state, "delay": e.delay} for e in rule.effects
        ],
    }


def serialize_scenario(doc: ScenarioDocument) -> str:
    """Render a document back to scenario YAML; parsing it again yields an
    equal document."""
    node: dict[str, Any] = {}
    if doc.name:
        node["name"] = doc.name
    node["seed"] = doc.seed
    node["horizon"] = doc.horizon
    node["detection"] = {"window": doc.window, "stride": doc.stride, "alpha": doc.alpha}
    node["sensors"] = [
        {
            "id": s.id,
            "initial": s.initial_state,
            "states": [
                {"label": label, "dist": format_distribution(dist)} for label, dist in s.states
            ],
        }
        for s in doc.sensors
    ]
    node["subsystems"] = [
        {
            "id": s.id,
            "kind": s.kind.value,
            "sensors": list(s.sensors),
            "rules": [_rule_to_node(r) for r in s.rules],
        }
        for s in doc.subsystems
    ]
    if doc.functionalities:
        node["functionalities"] = [
            {
                "module": f.module,
                "name": f.name,
                "parameters": list(f.parameter_domain),
                "duration": f.duration,
                "transitions": [
                    {"param": t.param, "when": dict(t.guard), "then": dict(t.effect)}
                    for t in f.transitions
                ],
            }
            for f in doc.functionalities
        ]
    if doc.interventions or doc.faults:
        script: dict[str, Any] = {}
        if doc.interventions:
            script["interventions"] = [
                {"tick": i.tick, "sensor": i.sensor, "state": i.state}
                for i in doc.interventions
            ]
        if doc.faults:
            script["faults"] = [
                {
                    "component": f.component,
                    "activation": f.activation,
                    "rules": [_rule_to_node(r) for r in f.replacement_rules],
                }
                for f in doc.faults
            ]
        node["script"] = script
    return yaml.safe_dump(node, sort_keys=False, default_flow_style=False)


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------


def export_trace(trace: Trace) -> str:
    """Trace CSV: ``tick,sensor_id,value,state_label``, rows sorted by
    (tick, sensor_id); float repr keeps the values bit-exact on re-import.

    A non-finite value, which ``import_trace`` would refuse, is refused here
    too: the error names the first one in row order and nothing is returned.
    """
    order = sorted(range(len(trace.sensor_ids)), key=trace.sensor_ids.__getitem__)
    ids = [trace.sensor_ids[j] for j in order]
    finite = np.isfinite(trace.values[:, order])
    if not finite.all():
        t, k = np.argwhere(~finite)[0].tolist()
        value = trace.values[t, order[k]].item()
        raise ScenarioError(f"trace tick {t}, sensor {ids[k]!r}: non-finite value {value!r}")
    # Row ends of all sensors' labels in one list, sensor j's codes offset by
    # the lengths of the tables before it.
    ends = [label + "\n" for j in order for label in trace.label_tables[j]]
    offsets = np.cumsum([0] + [len(trace.label_tables[j]) for j in order[:-1]], dtype=np.intp)
    ticks = [str(t) for t in range(len(trace)) for _ in ids]
    values = map(repr, trace.values[:, order].ravel().tolist())
    states = map(ends.__getitem__, (trace.codes[:, order] + offsets).ravel().tolist())
    rows = map(",".join, zip(ticks, ids * len(trace), values, states))
    return "tick,sensor_id,value,state_label\n" + "".join(rows)


_TRACE_HEADER = ["tick", "sensor_id", "value", "state_label"]


def _csv_rows(text: str, kind: str) -> Iterator[tuple[int, list[str]]]:
    """The rows of a CSV text, each with its row number from 1.  An error of
    the csv module itself (a field longer than ``csv.field_size_limit()``, a
    bare CR) is raised as a ScenarioError that names the row it stopped in."""
    reader = csv.reader(io.StringIO(text))
    row_number = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ScenarioError(f"{kind} CSV row {row_number}: {exc}") from None
        yield row_number, row
        row_number += 1


def import_trace(text: str, model: SystemModel | None = None) -> Trace:
    """Read a trace CSV back into a Trace (the event log is not serialized).

    Every tick must have exactly one row per sensor.  With ``model``, every
    row's sensor must be one of its sensors and its label one of that
    sensor's states, and each sensor's label table is the model's; without
    it, a sensor's table lists the labels it shows, sorted.  Columns follow
    the order in which sensors first appear in the file.

    The whole text is split once and each column converted in bulk.  If any
    row breaks a rule, ``_raise_trace_error`` walks the rows in file order
    to name the first one.
    """
    rows = _csv_rows(text, "trace")
    _, header = next(rows, (1, None))
    if header != _TRACE_HEADER:
        raise ScenarioError(f"unexpected trace CSV header: {header}")
    columns = _trace_columns(text, rows)
    trace = None if columns is None else _trace_from_columns(*columns, model)
    if trace is None:
        _raise_trace_error(text, model)
    return trace


# Every byte but the field and row separators, for ``bytes.translate`` to delete.
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b",\n")


def _trace_columns(
    text: str, reader: Iterator[tuple[int, list[str]]]
) -> tuple[Sequence[str], Sequence[str], Sequence[str], Sequence[str]] | None:
    """The tick, sensor, value and label columns of the rows after the
    header, blank rows skipped, or None if a row does not have four fields
    or cannot be read.

    Without quotes and with bare-newline row ends, a row is a line and its
    fields are split by commas, as ``csv.reader`` splits them; the text after
    the header is then split once.  Anything else is left to ``reader``."""
    if '"' in text or "\r" in text or "\0" in text:
        try:
            rows = [row for _, row in reader if row]
        except ScenarioError:
            return None
        if any(len(row) != 4 for row in rows):
            return None
        return tuple(zip(*rows)) if rows else ((), (), (), ())
    body = text.partition("\n")[2]
    if body.startswith("\n") or "\n\n" in body:
        body = "\n".join(filter(None, body.split("\n")))
    body = body.removesuffix("\n")
    if not body:
        return (), (), (), ()
    # Four fields in every row iff the separators, in order, are ",,,\n" per
    # row.  Neither byte occurs inside a multi-byte UTF-8 character.
    rows = body.count("\n") + 1
    separators = body.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATOR)
    if separators != b",,,\n" * (rows - 1) + b",,,":
        return None
    fields = body.replace("\n", ",").split(",")
    return fields[0::4], fields[1::4], fields[2::4], fields[3::4]


def _positions(column: Sequence[str], distinct: Sequence[str]) -> np.ndarray:
    """The position in ``distinct`` of every entry of ``column``."""
    position = {item: i for i, item in enumerate(distinct)}
    return np.fromiter(map(position.__getitem__, column), dtype=np.intp, count=len(column))


def _trace_from_columns(
    ticks: Sequence[str],
    sensors: Sequence[str],
    values: Sequence[str],
    labels: Sequence[str],
    model: SystemModel | None,
) -> Trace | None:
    """The trace that the columns of a trace CSV describe, or None if any row
    is bad, missing or repeated."""
    n = len(ticks)
    try:
        tick_col = np.fromiter(map(int, ticks), dtype=np.int64, count=n)
        value_col = np.fromiter(map(float, values), dtype=np.float64, count=n)
    except (ValueError, OverflowError):
        return None
    if not np.isfinite(value_col).all():
        return None
    sensor_ids = tuple(dict.fromkeys(sensors))
    label_ids = tuple(dict.fromkeys(labels))
    sensor_col = _positions(sensors, sensor_ids)

    # Label tables, then the code of every (sensor, label) pair that occurs.
    pair_ids, pair_of_row = np.unique(
        sensor_col * len(label_ids) + _positions(labels, label_ids), return_inverse=True
    )
    pairs = [divmod(pair, len(label_ids)) for pair in pair_ids.tolist()]
    if model is None:
        shown: dict[int, list[str]] = {}
        for j, k in pairs:
            shown.setdefault(j, []).append(label_ids[k])
        tables = tuple(tuple(sorted(shown[j])) for j in range(len(sensor_ids)))
    else:
        known = {sensor.id: sensor.labels() for sensor in model.sensors}
        if any(sensor not in known for sensor in sensor_ids):
            return None
        tables = tuple(known[sensor] for sensor in sensor_ids)
    codes = [{label: code for code, label in enumerate(table)} for table in tables]
    pair_codes = np.array([codes[j].get(label_ids[k], -1) for j, k in pairs], dtype=np.intp)
    if (pair_codes < 0).any():
        return None

    # Every (tick, sensor) cell of ticks 0..T-1 exactly once.
    horizon = int(tick_col.max()) + 1 if n else 0
    if n and (tick_col.min() < 0 or horizon * len(sensor_ids) != n):
        return None
    cells = tick_col * len(sensor_ids) + sensor_col
    filled = np.zeros(n, dtype=bool)
    filled[cells] = True
    if not filled.all():
        return None
    value_matrix = np.empty(n)
    value_matrix[cells] = value_col
    code_matrix = np.empty(n, dtype=np.intp)
    code_matrix[cells] = pair_codes[pair_of_row]
    shape = (horizon, len(sensor_ids))
    return Trace(sensor_ids, value_matrix.reshape(shape), code_matrix.reshape(shape), tables)


def _raise_trace_error(text: str, model: SystemModel | None) -> NoReturn:
    """Raise the ScenarioError for the first problem of a trace CSV that
    ``import_trace`` refused: the first bad row in file order, else
    non-contiguous ticks, else the first tick that misses a sensor."""
    rows = _csv_rows(text, "trace")
    next(rows)
    states = None if model is None else {s.id: s.labels() for s in model.sensors}
    by_tick: dict[int, set[str]] = {}
    sensor_ids: dict[str, None] = {}
    for row_number, row in rows:
        if not row:
            continue
        if len(row) != 4:
            raise ScenarioError(f"trace CSV row {row_number}: expected 4 columns, got {len(row)}")
        try:
            tick = int(row[0])
            value = float(row[2])
        except ValueError:
            raise ScenarioError(f"trace CSV row {row_number}: bad tick or value") from None
        if not math.isfinite(value):
            raise ScenarioError(f"trace CSV row {row_number}: non-finite value {row[2]!r}")
        sensor_id, label = row[1], row[3]
        if states is not None and label not in states.get(sensor_id, ()):
            problem = (
                f"sensor {sensor_id!r} has no state {label!r}"
                if sensor_id in states
                else f"unknown sensor id {sensor_id!r}"
            )
            raise ScenarioError(f"trace CSV row {row_number}: {problem}")
        seen = by_tick.setdefault(tick, set())
        if sensor_id in seen:
            raise ScenarioError(
                f"trace CSV row {row_number}: second row for tick {tick}, sensor {sensor_id!r}"
            )
        seen.add(sensor_id)
        sensor_ids.setdefault(sensor_id)
    if sorted(by_tick) != list(range(len(by_tick))):
        raise ScenarioError("trace CSV ticks are not contiguous from 0")
    for t in range(len(by_tick)):
        if len(by_tick[t]) != len(sensor_ids):
            missing = next(sid for sid in sensor_ids if sid not in by_tick[t])
            raise ScenarioError(f"trace CSV tick {t}: no row for sensor {missing!r}")
    raise AssertionError("trace CSV refused but no problem found")


def export_anomaly_report(report: AnomalyReport) -> str:
    out = io.StringIO()
    out.write("sensor_id,window_start,matched_state,p_best,anomalous\n")
    for v in report.verdicts:
        out.write(f"{v.sensor},{v.start},{v.matched},{v.p_best!r},{int(v.anomalous)}\n")
    return out.getvalue()


def export_deviations(deviations: Sequence[Deviation]) -> str:
    out = io.StringIO()
    out.write("sensor_id,window_start,expected_state,matched_state\n")
    for d in deviations:
        out.write(f"{d.sensor},{d.start},{d.expected},{d.matched}\n")
    return out.getvalue()


def import_deviations(text: str) -> list[Deviation]:
    rows = _csv_rows(text, "deviations")
    _, header = next(rows, (1, None))
    if header != ["sensor_id", "window_start", "expected_state", "matched_state"]:
        raise ScenarioError(f"unexpected deviations CSV header: {header}")
    deviations = []
    for row_number, row in rows:
        if not row:
            continue
        if len(row) != 4:
            raise ScenarioError(
                f"deviations CSV row {row_number}: expected 4 columns, got {len(row)}"
            )
        try:
            start = int(row[1])
        except ValueError:
            raise ScenarioError(f"deviations CSV row {row_number}: bad window start") from None
        deviations.append(
            Deviation(sensor=row[0], start=start, expected=row[2], matched=row[3])
        )
    return deviations


def _format_path(path: CausalPath) -> str:
    if not path.edges:
        return f"{path.sensor}"
    hops = [path.edges[0].cause]
    hops.extend(f"{e.effect}[via {e.via} delay {e.delay}]" for e in path.edges)
    return " -> ".join(hops)


def export_diagnosis(
    hypotheses: Sequence[FaultHypothesis],
    paths: Mapping[frozenset[str], Sequence[CausalPath]] | None = None,
) -> str:
    out = io.StringIO()
    out.write("rank,components,cardinality,explained,paths\n")
    for rank, hypothesis in enumerate(hypotheses, start=1):
        path_text = ""
        if paths and hypothesis.components in paths:
            path_text = "|".join(_format_path(p) for p in paths[hypothesis.components])
        out.write(
            f"{rank},{'+'.join(hypothesis.sorted_components())},{hypothesis.cardinality},"
            f"{'+'.join(sorted(hypothesis.explained))},{path_text}\n"
        )
    return out.getvalue()


def export_plan(plan: Plan, functionalities: Sequence[Functionality]) -> str:
    durations = {(f.module, f.name): f.duration for f in functionalities}
    out = io.StringIO()
    out.write("step,module,functionality,parameter,duration,cumulative_duration\n")
    cumulative = 0
    for index, step in enumerate(plan.steps, start=1):
        duration = durations[(step.module, step.functionality)]
        cumulative += duration
        out.write(
            f"{index},{step.module},{step.functionality},{step.parameter:g},"
            f"{duration},{cumulative}\n"
        )
    return out.getvalue()


# ---------------------------------------------------------------------------
# Bundled fixtures
# ---------------------------------------------------------------------------


def knife_fixture() -> ScenarioDocument:
    """Knife-hardening line: gas oven with a lid, heat transfer to the knife,
    and a quench bath that hardens a hot blade.

    The script runs one production cycle (close the lid and fire the burner,
    let the chamber and knife heat up, open up and shut the burner off, then
    quench).  The scripted fault makes the lid actuator ignore its commands
    from tick 0, so the lid never closes and the knife never hardens.

    The scenario is defined once, in the package's ``scenarios/knife.yaml``.
    """
    path = importlib.resources.files(__package__) / "scenarios" / "knife.yaml"
    return parse_scenario(path.read_text(encoding="utf-8"))


def chain_fixture() -> ScenarioDocument:
    """Three-sensor drive chain used to tell a broken sensor from a broken
    component.

    src drives mid, mid drives dst.  The scripted fault freezes the mid
    reading at an off-schedule state from tick 150 on while dst keeps its last
    commanded state, which is exactly the signature of a failed sensor: the
    reading goes wrong but nothing downstream reacts.
    """
    sensors = (
        Sensor(
            id="src",
            states=(("Lo", Degenerate(0.0)), ("Hi", Degenerate(1.0))),
            initial_state="Lo",
        ),
        Sensor(
            id="mid",
            states=(
                ("Lo", Normal(10.0, 1.0)),
                ("Hi", Normal(30.0, 1.0)),
                ("Stuck", Normal(70.0, 1.0)),
            ),
            initial_state="Lo",
        ),
        Sensor(
            id="dst",
            states=(("Lo", Degenerate(0.0)), ("Hi", Degenerate(1.0))),
            initial_state="Lo",
        ),
    )
    c_drive = Subsystem(
        id="c_drive",
        kind=SubsystemKind.COMPONENT,
        sensors=("src", "mid"),
        rules=(
            Rule(guard={"src": "Hi"}, effects=(Effect(target="mid", state="Hi", delay=1),)),
            Rule(guard={"src": "Lo"}, effects=(Effect(target="mid", state="Lo", delay=1),)),
        ),
    )
    c_relay = Subsystem(
        id="c_relay",
        kind=SubsystemKind.COMPONENT,
        sensors=("mid", "dst"),
        rules=(
            Rule(guard={"mid": "Hi"}, effects=(Effect(target="dst", state="Hi", delay=1),)),
            Rule(guard={"mid": "Lo"}, effects=(Effect(target="dst", state="Lo", delay=1),)),
        ),
    )
    sensor_fault = FaultSpec(
        component="c_drive",
        replacement_rules=(
            Rule(guard={}, effects=(Effect(target="mid", state="Stuck", delay=1),)),
        ),
        activation=150,
    )
    return ScenarioDocument(
        name="sensor-fault-chain",
        seed=11,
        horizon=300,
        window=DEFAULT_WINDOW,
        stride=DEFAULT_STRIDE,
        alpha=DEFAULT_ALPHA,
        sensors=sensors,
        subsystems=(c_drive, c_relay),
        functionalities=(),
        interventions=(ScriptedIntervention(tick=60, sensor="src", state="Hi"),),
        faults=(sensor_fault,),
    )


def thermostat_fixture() -> ScenarioDocument:
    """Closed-loop pair: the controller shuts the valve when it reads hot, the
    plant cools while the valve is shut.  The causal graph is a two-cycle and
    the label trajectory has period four."""
    sensors = (
        Sensor(
            id="temp",
            states=(("Cold", Normal(15.0, 1.0)), ("Hot", Normal(85.0, 1.0))),
            initial_state="Hot",
        ),
        Sensor(
            id="valve",
            states=(("Open", Degenerate(1.0)), ("Closed", Degenerate(0.0))),
            initial_state="Open",
        ),
        Sensor(id="room", states=(("Quiet", Degenerate(0.0)),), initial_state="Quiet"),
    )
    controller = Subsystem(
        id="controller",
        kind=SubsystemKind.COMPONENT,
        sensors=("temp", "valve"),
        rules=(
            Rule(guard={"temp": "Hot"}, effects=(Effect(target="valve", state="Closed", delay=1),)),
            Rule(guard={"temp": "Cold"}, effects=(Effect(target="valve", state="Open", delay=1),)),
        ),
    )
    plant = Subsystem(
        id="plant",
        kind=SubsystemKind.COMPONENT,
        sensors=("valve", "temp"),
        rules=(
            Rule(guard={"valve": "Closed"}, effects=(Effect(target="temp", state="Cold", delay=1),)),
            Rule(guard={"valve": "Open"}, effects=(Effect(target="temp", state="Hot", delay=1),)),
        ),
    )
    return ScenarioDocument(
        name="thermostat",
        seed=5,
        horizon=1000,
        window=DEFAULT_WINDOW,
        stride=DEFAULT_STRIDE,
        alpha=DEFAULT_ALPHA,
        sensors=sensors,
        subsystems=(controller, plant),
        functionalities=(),
        interventions=(),
        faults=(),
    )
