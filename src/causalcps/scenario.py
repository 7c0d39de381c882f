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

The text is composed into a YAML node graph by ``_YAML_LOADER`` (PyYAML's
libyaml-backed ``CSafeLoader``, or its ``SafeLoader`` without libyaml).
``_construct`` builds from it, in one iterative pass, only what a scenario
can hold: ``str``, ``int``, ``float``, ``bool`` and null scalars, lists,
mappings with string keys, aliases and merge keys ``<<``, giving the data
of ``yaml.load``.  Any other node (a timestamp, ``!!set``, ``!!binary``, an
unknown tag, a non-string key) is refused, naming its line and tag.  Each
distinct scalar's tag is resolved once per parse, which is exact because
no path resolvers are registered.  A mapping that repeats a key, ``<<``
included, is refused, naming the line and the key; a key given explicitly
and also through ``<<`` is not a repeat, nor is one merged from two mappings.

The bundled fixtures ship as package data, one file each in
``causalcps/scenarios/`` (``knife.yaml``, ``chain.yaml`` and
``thermostat.yaml``), their only definition; each fixture function parses
its file.

Trace CSVs hold the columns of a ``Trace`` (values and labels, not its event
log), one ``tick,sensor_id,value,state_label`` row per tick and sensor.
``export_trace`` fills four slots per row of a chunk, the tick,
``",<id>,"``, the value's ``repr`` and ``",<label>\\n"``, from the value and
label-code matrices and joins them, chunk by chunk.  ``import_trace`` reads
text in export's own layout by column, one chunk of rows at a time, into
arrays that the last row's tick sizes: it splits each chunk, converts its
value column with ``float`` and codes its label column with one coder
shared by all sensors.  At the end each column is recoded from the shared
codes to its sensor's table, from the (sensor, label) pairs that occur,
with no sensors x labels table.  So either holds little more than the text
and the trace's arrays at a time.  Every other text it
accepts (another row order, blank lines, quoted fields, CRLF line ends) is
read row by row, and so is a text with a bad, repeated or missing row, to
name the first bad row in file order.
"""

from __future__ import annotations

import csv
import importlib.resources
import io
import math
import operator
import re
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, count, cycle, islice, repeat
from typing import Any, Iterable, Iterator, Mapping, Sequence

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
from .planning import Functionality, Plan, PlanningProblem, TransitionEntry, check_distinct_names
from .simulation import FaultSpec, ScriptedIntervention, Trace, run_script


# Its composer builds the node graph: libyaml's C parser when PyYAML was
# built with it, else the pure-Python one; same documents, same nodes.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_STR_TAG = "tag:yaml.org,2002:str"
_SEQ_TAG = "tag:yaml.org,2002:seq"
_MAP_TAG = "tag:yaml.org,2002:map"
_MERGE_TAG = "tag:yaml.org,2002:merge"
# The scalar tags a scenario holds.
_PLAIN_TAGS = frozenset(
    f"tag:yaml.org,2002:{kind}" for kind in ("str", "int", "float", "bool", "null")
)
# The tags of a mapping's keys before its merge keys are flattened, and the
# collections a scenario holds, by tag and node type.
_KEY_TAGS = frozenset((_STR_TAG, _MERGE_TAG))
_CONTAINERS = {(_SEQ_TAG, yaml.SequenceNode): list, (_MAP_TAG, yaml.MappingNode): dict}


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


_CSV_UNSAFE = re.compile('[,"\r\n]')


def _get_name(node: Mapping, key: str, where: str) -> str:
    """A nonempty string that the CSV artifacts write as one unquoted field,
    so it may hold no comma, double quote, CR or LF."""
    value = _get_str(node, key, where)
    if _CSV_UNSAFE.search(value):
        raise ScenarioError(
            f"{where}.{key}: {value!r} holds a comma, double quote, CR or LF, "
            f"which would break the CSV artifacts"
        )
    return value


def _get_id(node: Mapping, key: str, where: str) -> str:
    """A sensor or subsystem id: a name that may also hold no ``+`` or ``|``,
    which the diagnosis CSV puts between ids and between causal paths."""
    value = _get_name(node, key, where)
    if "+" in value or "|" in value:
        raise ScenarioError(
            f"{where}.{key}: {value!r} holds a '+' or '|', "
            f"which join ids and paths in the diagnosis CSV"
        )
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
    sensor_id = _get_id(mapping, "id", where)
    states = []
    for i, state_node in enumerate(_expect_list(mapping.get("states"), f"{where}.states")):
        state_where = f"{where}.states[{i}]"
        state_map = _expect_mapping(state_node, state_where)
        _reject_unknown(state_map, {"label", "dist"}, state_where)
        label = _get_name(state_map, "label", state_where)
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
        id=_get_id(mapping, "id", where), kind=kind, sensors=tuple(sensors), rules=rules
    )


def _finite(number: int | float, where: str) -> float:
    """``number`` as a float, refused unless it is finite."""
    try:
        value = float(number)
    except OverflowError:  # an int past the float range
        value = math.inf if number > 0 else -math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{where}: must be finite, got {value}")
    return value


def _parse_functionality(node: Any, where: str) -> Functionality:
    mapping = _expect_mapping(node, where)
    _reject_unknown(mapping, {"module", "name", "parameters", "duration", "transitions"}, where)
    params = _expect_list(mapping.get("parameters"), f"{where}.parameters")
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in params):
        raise ScenarioError(f"{where}.parameters: expected a list of numbers")
    domain = tuple(_finite(p, f"{where}.parameters[{i}]") for i, p in enumerate(params))
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
                param=_finite(param, f"{entry_where}.param"),
                guard=_parse_label_map(entry_map.get("when", {}), f"{entry_where}.when"),
                effect=_parse_label_map(entry_map.get("then", {}), f"{entry_where}.then"),
            )
        )
    module = _get_name(mapping, "module", where)
    name = _get_name(mapping, "name", where)
    duration = _get_int(mapping, "duration", where)
    try:
        return Functionality(
            module=module,
            name=name,
            parameter_domain=domain,
            transitions=tuple(transitions),
            duration=duration,
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


# Flow collections nested deeper than this are refused before composing:
# libyaml's time grows with the square of the nesting depth, and scenarios
# need a few levels.
_MAX_FLOW_DEPTH = 100

# A quoted scalar, a comment or a flow bracket.  As in YAML, a quote opens a
# scalar only at a line start or after whitespace or a flow indicator, and a
# "#" opens a comment only at a line start or after whitespace; elsewhere
# both are plain text.
_FLOW_TOKEN = re.compile(
    r"""(?:^|(?<=[\s\[{,:]))(?:'(?:[^']|'')*'|"(?:[^"\\]|\\[\s\S])*")"""
    r"""|(?:^|(?<=\s))#.*|(?P<open>[\[{])|(?P<close>[\]}])""",
    re.MULTILINE,
)


def _flow_depth_exceeds(text: str, limit: int) -> bool:
    """Whether the flow collections of the YAML ``text`` nest deeper than
    ``limit``, counting brackets and braces outside quoted scalars and
    comments."""
    depth = 0
    for token in _FLOW_TOKEN.finditer(text):
        if token.lastgroup == "open":
            depth += 1
            if depth > limit:
                return True
        elif token.lastgroup == "close":
            depth = max(depth - 1, 0)
    return False


def _load_yaml(text: str, repeated: list[yaml.Node]) -> Any:
    """The data of the one YAML document in ``text``, None if it has none.

    The loader resolves each distinct (kind, text, implicit) key to its tag
    once, and its path-resolver hooks do nothing: with no path resolvers
    registered (a test pins this), a tag depends on that key alone and the
    hooks keep state that nothing reads.  ``repeated`` is passed on to
    ``_construct``.  The loader, and with it the node graph, is freed on
    return, before the caller validates the data."""
    loader = _YAML_LOADER(text)
    loader.resolve = lru_cache(maxsize=None)(loader.resolve)
    # Callables written in C that take the hooks' arguments and do nothing.
    loader.descend_resolver = operator.is_
    loader.ascend_resolver = tuple
    try:
        return _construct(loader, loader.get_single_node(), repeated)
    finally:
        # The cached resolve holds the loader's bound method: without this
        # the loader would sit in a reference cycle until the collector ran.
        del loader.resolve, loader.descend_resolver, loader.ascend_resolver
        loader.dispose()


def _refused(node: yaml.Node, role: str) -> ScenarioError:
    """The error for a node that a scenario cannot hold as a ``role``."""
    what = f"{node.id} {node.value!r}" if isinstance(node, yaml.ScalarNode) else node.id
    hint = "; quote it to make it a string" if isinstance(node, yaml.ScalarNode) else ""
    return ScenarioError(
        f"line {node.start_mark.line + 1}: a scenario cannot hold the YAML {what} "
        f"tagged {node.tag} as a {role}{hint}"
    )


def _construct(loader: Any, node: yaml.Node | None, repeated: list[yaml.Node]) -> Any:
    """The data of the document ``node``, as ``loader.construct_document``
    would build it, for the nodes a scenario can hold.

    A ``str`` scalar is its text; an int, float, bool or null scalar goes to
    the loader's constructor for its tag.  A sequence becomes a list, and a
    mapping whose keys are ``str`` scalars a dict, filled in node order, so
    a later duplicate key wins; a mapping with merge keys ``<<`` is first
    flattened by ``loader.flatten_mapping``.  Any other node, and a scalar
    that its constructor refuses, raises a ScenarioError naming its line.
    Each key that repeats an earlier one of its mapping as written, ``<<``
    included, is appended to ``repeated``: keys are taken before
    ``flatten_mapping`` rewrites a node in place, so no merged key repeats.
    Each list and dict is made empty when its node is first met and filled
    in turn from a work list, not by recursion, so nesting depth costs no
    stack; memoized by node, an alias gives the same object and a recursive
    alias a recursive structure.
    """
    if node is None:
        return None
    constructors = loader.yaml_constructors
    memo: dict[yaml.Node, Any] = {}
    unfilled: list[yaml.Node] = []
    # Mappings whose keys were taken before a merge.
    merged: set[yaml.Node] = set()

    def build(node: yaml.Node) -> Any:
        tag = node.tag
        if isinstance(node, yaml.ScalarNode):
            if tag == _STR_TAG:
                return node.value
            if tag in _PLAIN_TAGS:
                try:
                    return constructors[tag](loader, node)
                except (ValueError, KeyError):
                    pass
        elif node in memo:
            return memo[node]
        elif (tag, type(node)) in _CONTAINERS:
            data = memo[node] = _CONTAINERS[tag, type(node)]()
            unfilled.append(node)
            return data
        raise _refused(node, "value")

    def find_repeats(pairs: list[tuple[yaml.Node, yaml.Node]]) -> None:
        seen: set[str] = set()
        # set.add returns None, so a key is taken only if it was seen before.
        repeated.extend(key for key, _ in pairs if key.value in seen or seen.add(key.value))

    def merge(root: yaml.MappingNode) -> None:
        """Take the keys of ``root`` and of the mappings merged into it, then flatten it."""
        stack = [root]
        while stack:
            node = stack.pop()
            # flatten_mapping refuses a merge of anything but mappings.
            if isinstance(node, yaml.MappingNode) and node not in merged:
                merged.add(node)
                for key, value in node.value:
                    if key.tag not in _KEY_TAGS or not isinstance(key, yaml.ScalarNode):
                        raise _refused(key, "mapping key")
                    if key.tag == _MERGE_TAG:
                        many = isinstance(value, yaml.SequenceNode)
                        stack.extend(value.value if many else [value])
                find_repeats(node.value)
        loader.flatten_mapping(root)

    root = build(node)
    # The loop also reaches the containers that filling appends.
    for container in unfilled:
        data = memo[container]
        if isinstance(data, list):
            data.extend(map(build, container.value))
            continue
        if any(key.tag == _MERGE_TAG for key, _ in container.value):
            merge(container)
        for key, value in container.value:
            if key.tag != _STR_TAG or not isinstance(key, yaml.ScalarNode):
                raise _refused(key, "mapping key")
            data[key.value] = build(value)
        if len(data) < len(container.value) and container not in merged:
            find_repeats(container.value)
    return root


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
    # No deeper nesting than there are opening brackets: most documents are
    # cleared by counting them.
    if text.count("[") + text.count("{") > _MAX_FLOW_DEPTH and _flow_depth_exceeds(
        text, _MAX_FLOW_DEPTH
    ):
        raise ScenarioError(
            f"document: flow collections nested deeper than {_MAX_FLOW_DEPTH} levels"
        )
    repeated: list[yaml.Node] = []
    try:
        raw = _load_yaml(text, repeated)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is None:
            raise ScenarioError(f"invalid YAML: {exc}") from None
        # libyaml puts the stream end past an implied final newline; clamp to
        # the text's last line so both loaders name the same line.
        line = min(mark.line + 1, text.count("\n") + 1)
        raise ScenarioError(f"line {line}: invalid YAML: {exc}") from None
    if repeated:
        # Mappings are filled breadth first; name the repeat met first in the text.
        key = min(repeated, key=lambda node: node.start_mark.index)
        raise ScenarioError(
            f"line {key.start_mark.line + 1}: key {key.value!r} repeats an earlier key "
            "of its mapping"
        )
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
    if not sensors:
        raise ScenarioError("document.sensors: expected at least one sensor")
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
        seed=_get_int(root, "seed", "document", default=0, minimum=0),
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
    try:
        check_distinct_names(doc.functionalities)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
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
    Each row is four joined strings: the tick, ``",<id>,"``, the value's
    ``repr`` and ``",<label>\\n"``.

    A non-finite value, which ``import_trace`` would refuse, is refused here
    too: the error names the first one in row order and nothing is returned.
    """
    order = sorted(range(len(trace.sensor_ids)), key=trace.sensor_ids.__getitem__)
    ids = [trace.sensor_ids[j] for j in order]
    if not np.isfinite(trace.values).all():
        t, k = np.argwhere(~np.isfinite(trace.values[:, order]))[0].tolist()
        value = trace.values[t, order[k]].item()
        raise ScenarioError(f"trace tick {t}, sensor {ids[k]!r}: non-finite value {value!r}")
    # The row ends ",<label>\n" of all sensors' labels in one list, sensor
    # j's codes offset by the lengths of the tables before it.
    ends = ["," + label + "\n" for j in order for label in trace.label_tables[j]]
    offsets = np.cumsum([0] + [len(trace.label_tables[j]) for j in order[:-1]], dtype=np.intp)
    separated_ids = ["," + sensor_id + "," for sensor_id in ids]
    width = len(ids)
    step = max(1, _CHUNK_ROWS // max(1, width))
    chunks = [_TRACE_HEADER_LINE]
    # Without sensors there are no rows.
    for t in range(0, len(trace) if width else 0, step):
        values = trace.values[t : t + step, order]
        codes = trace.codes[t : t + step, order] + offsets
        # 4 slots per row: tick, "," + id + ",", value, "," + label + "\n".
        parts = [""] * (4 * values.size)
        parts[0::4] = _tick_strings(t * width, t * width + values.size, width)
        parts[1::4] = separated_ids * len(values)
        parts[2::4] = map(repr, values.ravel().tolist())
        parts[3::4] = map(ends.__getitem__, codes.ravel().tolist())
        chunks.append("".join(parts))
    return "".join(chunks)


# Trace CSV text is read in chunks of about _CHUNK_CHARS characters, each
# cut at a row end, and written in chunks of whole ticks of about _CHUNK_ROWS
# rows, so that the memory an import or export holds besides its text and
# arrays is one chunk's, however long the trace.
_CHUNK_CHARS = 1 << 16
_CHUNK_ROWS = 1 << 10


def _tick_strings(start: int, stop: int, width: int) -> list[str]:
    """Rows ``start..stop-1`` of the tick column of a trace CSV in export's
    layout, ``width`` rows per tick: ``str(row // width)`` for each row."""
    first, done = divmod(start, width)
    rows_per_tick = chain([width - done], repeat(width))
    ticks = chain.from_iterable(map(repeat, map(str, count(first)), rows_per_tick))
    return list(islice(ticks, stop - start))


_TRACE_HEADER = ["tick", "sensor_id", "value", "state_label"]
_TRACE_HEADER_LINE = ",".join(_TRACE_HEADER) + "\n"


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
    sensor's states, every one of its sensors must have rows, and each
    sensor's label table is the model's; without it, a sensor's table lists
    the labels it shows, sorted.  Columns follow the order in which sensors
    first appear in the file.

    Text in the layout that ``export_trace`` writes (its header line, then
    ticks ``0..T-1`` in order, each listing the same sensors in the same
    order) is read by column, one chunk of rows at a time, with one label
    coder shared by all sensors; each column is recoded to its sensor's
    table once the last chunk is read.  Every other text that is accepted
    (another row order, blank lines, quoted fields, CRLF line ends) is read
    row by row, and so is every text with a bad, repeated or missing row,
    whose error names the first bad row in file order.
    """
    trace = _trace_by_column(text, model)
    if trace is not None:
        return trace
    rows = _csv_rows(text, "trace")
    _, header = next(rows, (1, None))
    if header != _TRACE_HEADER:
        raise ScenarioError(f"unexpected trace CSV header: {header}")
    return _trace_by_row(rows, model)


# Every byte but the field and row separators, for ``bytes.translate`` to delete.
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b",\n")


def _trace_by_column(text: str, model: SystemModel | None) -> Trace | None:
    """The trace of a trace CSV in export's layout, read by column, or None
    if the text has any other layout or a cell is bad.

    Export's layout starts with its header line and has no quote, CR, NUL or
    blank line, so a row is a line and its fields are split by commas, as
    ``csv.reader`` splits them; its ticks are ``0..T-1``, written as ``str``
    writes them, in order, each listing the same distinct sensors in the
    same order.  The rows are checked and stored about ``_CHUNK_CHARS``
    characters at a time, so no list spans the whole text."""
    if not text.startswith(_TRACE_HEADER_LINE) or '"' in text or "\r" in text or "\0" in text:
        return None
    start = len(_TRACE_HEADER_LINE)
    end = len(text) - text.endswith("\n")
    # Tick 0 is the rows before the first row of tick 1, or all rows, the
    # last of which has no row end if the text does not end with one.
    tick_1 = text.find("\n1,") + 1 or len(text)
    width = text.count("\n", start, tick_1) + (tick_1 == end)
    # The last row's tick gives the horizon, so the text is not scanned for
    # row ends ahead of the chunks; the rows read must fill it exactly.
    try:
        horizon = int(text[text.rfind("\n", 0, end) + 1 : end].partition(",")[0]) + 1
    except ValueError:
        return None
    rows = horizon * width
    if not 0 < rows <= len(text):
        return None
    sensor_ids = tuple(text[start:tick_1].replace("\n", ",").split(",")[1::4])
    if len(sensor_ids) != width or len(set(sensor_ids)) != width:
        return None
    # Every label is coded by one coder shared by all sensors, in order of
    # first sight, and each column is recoded to its sensor's table at the end.
    coder = defaultdict()
    coder.default_factory = coder.__len__
    values = np.empty(rows)
    codes = np.empty(rows, dtype=np.intp)
    row = 0
    while start < len(text):
        stop = text.find("\n", start + _CHUNK_CHARS)
        if stop < 0:
            stop = end
        chunk = text[start:stop]
        start = stop + 1
        # Four fields in every row iff the separators, in order, are ",,,\n"
        # per row: a field count alone would accept a short row followed by a
        # long one.  A blank line breaks the pattern too.  Neither byte occurs
        # inside a multi-byte UTF-8 character, so the separators hold every
        # row end of the chunk.
        separators = chunk.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATOR)
        n = separators.count(b"\n") + 1
        if separators != b",,,\n" * (n - 1) + b",,," or row + n > rows:
            return None
        fields = chunk.replace("\n", ",").split(",")
        first = row % width
        sensors = islice(chain(sensor_ids[first : first + n], cycle(sensor_ids)), n)
        if fields[0::4] != _tick_strings(row, row + n, width) or fields[1::4] != list(sensors):
            return None
        try:
            chunk_values = np.fromiter(map(float, fields[2::4]), dtype=np.float64, count=n)
        except ValueError:
            return None
        if not np.isfinite(chunk_values).all():
            return None
        values[row : row + n] = chunk_values
        codes[row : row + n] = np.fromiter(map(coder.__getitem__, fields[3::4]), np.intp, n)
        row += n
    if row < rows:
        return None
    # Each cell becomes its (sensor, label) key, sensor * len(coder) + label
    # code.  A column shows a key first at tick 0 or where its key changes,
    # so the keys that occur are found without a sensors x labels table.
    codes = codes.reshape(horizon, width)
    codes += np.arange(width) * len(coder)
    changed = codes[1:][codes[1:] != codes[:-1]]
    pairs = sorted({*codes[0].tolist(), *changed.tolist()})
    shown: list[list[str]] = [[] for _ in sensor_ids]
    labels = list(coder)
    for key in pairs:
        j, k = divmod(key, len(coder))
        shown[j].append(labels[k])
    tables = _label_tables(sensor_ids, shown, model)
    if tables is None:
        return None
    recode = []
    for column, table in zip(shown, tables):
        code = {label: k for k, label in enumerate(table)}
        try:
            recode.extend(map(code.__getitem__, column))
        except KeyError:
            return None
    # In blocks of about _CHUNK_ROWS cells, so that no temporary spans the
    # trace.
    keys, recoded = np.array(pairs), np.array(recode, dtype=np.intp)
    step = max(1, _CHUNK_ROWS // width)
    for t in range(0, horizon, step):
        block = codes[t : t + step]
        np.take(recoded, np.searchsorted(keys, block), out=block)
    return Trace(sensor_ids, values.reshape(horizon, width), codes, tables)


def _label_tables(
    sensor_ids: Sequence[str], shown: Iterable[Iterable[str]], model: SystemModel | None
) -> tuple[tuple[str, ...], ...] | None:
    """Each sensor's label table: the model's, or without a model the labels
    ``shown`` for it, sorted.  None unless the model has exactly these
    sensors."""
    if model is None:
        return tuple(tuple(sorted(labels)) for labels in shown)
    known = {sensor.id: sensor.labels() for sensor in model.sensors}
    if len(known) != len(sensor_ids) or any(sensor not in known for sensor in sensor_ids):
        return None
    return tuple(known[sensor] for sensor in sensor_ids)


def _trace_by_row(rows: Iterator[tuple[int, list[str]]], model: SystemModel | None) -> Trace:
    """The trace of the rows after a trace CSV's header, each row checked and
    stored in file order, blank rows skipped.  Raises the ScenarioError for
    the first problem: the first bad row in file order, else non-contiguous
    ticks, else the first tick that misses a sensor, else the first sensor
    of ``model`` that has no rows."""
    states = None if model is None else {s.id: s.labels() for s in model.sensors}
    by_tick: dict[int, dict[str, tuple[float, str]]] = {}
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
        cells = by_tick.setdefault(tick, {})
        if sensor_id in cells:
            raise ScenarioError(
                f"trace CSV row {row_number}: second row for tick {tick}, sensor {sensor_id!r}"
            )
        cells[sensor_id] = value, label
        sensor_ids.setdefault(sensor_id)
    horizon = len(by_tick)
    if sorted(by_tick) != list(range(horizon)):
        raise ScenarioError("trace CSV ticks are not contiguous from 0")
    for t in range(horizon):
        if len(by_tick[t]) != len(sensor_ids):
            missing = next(sid for sid in sensor_ids if sid not in by_tick[t])
            raise ScenarioError(f"trace CSV tick {t}: no row for sensor {missing!r}")
    for sensor_id in states or ():
        if sensor_id not in sensor_ids:
            raise ScenarioError(f"trace CSV: no rows for sensor {sensor_id!r}")
    ids = tuple(sensor_ids)
    columns = [[by_tick[t][sensor] for t in range(horizon)] for sensor in ids]
    tables = _label_tables(ids, ({label for _, label in column} for column in columns), model)
    values = np.empty((horizon, len(ids)))
    codes = np.empty((horizon, len(ids)), dtype=np.intp)
    for j, (column, table) in enumerate(zip(columns, tables)):
        code = {label: k for k, label in enumerate(table)}
        values[:, j] = [value for value, _ in column]
        codes[:, j] = [code[label] for _, label in column]
    return Trace(ids, values, codes, tables)


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


def _format_parameter(value: float) -> str:
    """The ``:g`` text of ``value`` if it reads back as ``value``, else its repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def export_plan(plan: Plan, functionalities: Sequence[Functionality]) -> str:
    durations = {(f.module, f.name): f.duration for f in functionalities}
    out = io.StringIO()
    out.write("step,module,functionality,parameter,duration,cumulative_duration\n")
    cumulative = 0
    for index, step in enumerate(plan.steps, start=1):
        duration = durations[(step.module, step.functionality)]
        cumulative += duration
        out.write(
            f"{index},{step.module},{step.functionality},{_format_parameter(step.parameter)},"
            f"{duration},{cumulative}\n"
        )
    return out.getvalue()


# ---------------------------------------------------------------------------
# Bundled fixtures
# ---------------------------------------------------------------------------


def _bundled_scenario(file_name: str) -> ScenarioDocument:
    path = importlib.resources.files(__package__) / "scenarios" / file_name
    return parse_scenario(path.read_text(encoding="utf-8"))


def knife_fixture() -> ScenarioDocument:
    """Knife-hardening line: gas oven with a lid, heat transfer to the knife,
    and a quench bath that hardens a hot blade.

    The script runs one production cycle (close the lid and fire the burner,
    let the chamber and knife heat up, open up and shut the burner off, then
    quench).  The scripted fault makes the lid actuator ignore its commands
    from tick 0, so the lid never closes and the knife never hardens.

    The scenario is defined once, in the package's ``scenarios/knife.yaml``.
    """
    return _bundled_scenario("knife.yaml")


def chain_fixture() -> ScenarioDocument:
    """Three-sensor drive chain used to tell a broken sensor from a broken
    component, defined in the package's ``scenarios/chain.yaml``.

    src drives mid, mid drives dst.  The scripted fault freezes the mid
    reading at an off-schedule state from tick 150 on while dst keeps its last
    commanded state, which is exactly the signature of a failed sensor: the
    reading goes wrong but nothing downstream reacts.
    """
    return _bundled_scenario("chain.yaml")


def thermostat_fixture() -> ScenarioDocument:
    """Closed-loop pair: the controller shuts the valve when it reads hot, the
    plant cools while the valve is shut.  The causal graph is a two-cycle and
    the label trajectory has period four.  Defined in the package's
    ``scenarios/thermostat.yaml``."""
    return _bundled_scenario("thermostat.yaml")
