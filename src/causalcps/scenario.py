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
of ``yaml.load``.  A plain decimal int (``12``, not ``012``, ``+12`` or
``1_2``) is built by ``int``; every other int spelling, and each float,
bool and null, by the loader's constructor.  Any other node (a timestamp,
``!!set``, ``!!binary``, an unknown tag, a non-string key) is refused,
naming its line and tag.  Each distinct scalar's tag is resolved once per
parse, which is exact because no path resolvers are registered.  A mapping
that repeats a key, ``<<`` included, is refused, naming the line and the
key; a key given explicitly and also through ``<<`` is not a repeat, nor
is one merged from two mappings.  The schema checks each mapping with one
call, its type and then its fields against the allowed set, and reads its
fields with ``dict.get``.  A field path such as ``sensors[3].states[1].dist``
is formatted only for a node that fails, as its error leaves each list.

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
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

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
_INT_TAG = "tag:yaml.org,2002:int"
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


_T = TypeVar("_T")


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
_LAWS = {"normal": Normal, "uniform": Uniform, "degenerate": Degenerate}


def parse_distribution(text: str, where: str = "dist") -> Distribution:
    try:
        return _distribution(text, where)
    except _Misfit as misfit:
        raise ScenarioError(f"{misfit.path}: {misfit.problem}") from None


def _distribution(text: str, field: str) -> Distribution:
    match = _DIST_RE.match(text)
    if not match:
        raise _Misfit(
            field, f"expected normal(m, s), uniform(lo, hi) or degenerate(v), got {text!r}"
        )
    kind, args_text = match.groups()
    try:
        args = list(map(float, args_text.split(",")))
    except ValueError:
        raise _Misfit(field, f"non-numeric parameter in {text!r}") from None
    expected = 1 if kind == "degenerate" else 2
    if len(args) != expected:
        raise _Misfit(field, f"{kind} takes {expected} parameter(s), got {len(args)}")
    try:
        return _LAWS[kind](*args)
    except ValueError as exc:
        raise _Misfit(field, str(exc)) from None


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


class _Misfit(Exception):
    """A schema error, ``problem`` at ``path`` below the node being parsed.
    Each list it leaves puts the item's field and index in front of the path
    (``under``), so a path is formatted only for a node that fails."""

    def __init__(self, path: str, problem: str):
        self.path, self.problem = path, problem

    def under(self, parent: str) -> _Misfit:
        self.path = f"{parent}.{self.path}" if self.path else parent
        return self


def _fields(node: Any, allowed: frozenset[str], field: str = "") -> dict:
    """``node``, a mapping of ``allowed`` fields only (``field`` names it)."""
    if not isinstance(node, dict):
        raise _Misfit(field, f"expected a mapping, got {type(node).__name__}")
    if not allowed.issuperset(node):
        raise _Misfit(field, f"unknown field(s) {sorted(set(node) - allowed)}")
    return node


def _list(node: Mapping, field: str, default: list | None = None) -> list:
    items = node.get(field, default)
    if not isinstance(items, list):
        raise _Misfit(field, f"expected a list, got {type(items).__name__}")
    return items


def _parsed(items: list, field: str, parse: Callable[[Any], _T]) -> tuple[_T, ...]:
    """``parse`` of each item of the list ``field``."""
    out = []
    for i, item in enumerate(items):
        try:
            out.append(parse(item))
        except _Misfit as misfit:
            raise misfit.under(f"{field}[{i}]") from None
    return tuple(out)


def _each(
    node: Mapping, field: str, parse: Callable[[Any], _T], default: list | None = None
) -> tuple[_T, ...]:
    return _parsed(_list(node, field, default), field, parse)


def _str(node: Mapping, key: str) -> str:
    value = node.get(key)
    if not isinstance(value, str) or not value:
        if key not in node:
            raise _Misfit("", f"missing required field {key!r}")
        raise _Misfit(key, "expected a nonempty string")
    return value


_CSV_UNSAFE = re.compile('[,"\r\n]')


def _name(node: Mapping, key: str) -> str:
    """A nonempty string that the CSV artifacts write as one unquoted field,
    so it may hold no comma, double quote, CR or LF."""
    value = _str(node, key)
    if _CSV_UNSAFE.search(value):
        problem = "holds a comma, double quote, CR or LF, which would break the CSV artifacts"
        raise _Misfit(key, f"{value!r} {problem}")
    return value


def _id(node: Mapping, key: str) -> str:
    """A sensor or subsystem id: a name that may also hold no ``+`` or ``|``,
    which the diagnosis CSV puts between ids and between causal paths."""
    value = _name(node, key)
    if "+" in value or "|" in value:
        problem = "holds a '+' or '|', which join ids and paths in the diagnosis CSV"
        raise _Misfit(key, f"{value!r} {problem}")
    return value


def _int(node: Mapping, key: str, default: int | None = None, minimum: int | None = None) -> int:
    value = node.get(key, default)
    # YAML ints are exact ints, and a bool is not an integer here.
    if type(value) is not int:
        if key not in node:
            raise _Misfit("", f"missing required field {key!r}")
        raise _Misfit(key, "expected an integer")
    if minimum is not None and value < minimum:
        raise _Misfit(key, f"must be >= {minimum}, got {value}")
    return value


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(number: int | float, field: str = "") -> float:
    """``number`` as a float, refused unless it is finite."""
    try:
        value = float(number)
    except OverflowError:  # an int past the float range
        value = math.inf if number > 0 else -math.inf
    if not math.isfinite(value):
        raise _Misfit(field, f"must be finite, got {value}")
    return value


def _label_map(node: Mapping, field: str) -> dict[str, str]:
    """The sensor-to-label mapping ``field`` of ``node``, empty if absent;
    its keys are strings, as every key of the document is."""
    labels = node.get(field, {})
    if not isinstance(labels, dict):
        raise _Misfit(field, f"expected a mapping, got {type(labels).__name__}")
    if not all(map(isinstance, labels.values(), repeat(str))):
        raise _Misfit(field, "expected string-to-string entries")
    return dict(labels)


_SENSOR_FIELDS = frozenset({"id", "initial", "states"})
_STATE_FIELDS = frozenset({"label", "dist"})
_RULE_FIELDS = frozenset({"when", "then"})
_EFFECT_FIELDS = frozenset({"sensor", "state", "delay"})
_SUBSYSTEM_FIELDS = frozenset({"id", "kind", "sensors", "rules"})
_FUNCTIONALITY_FIELDS = frozenset({"module", "name", "parameters", "duration", "transitions"})
_TRANSITION_FIELDS = frozenset({"param", "when", "then"})
_SCRIPT_FIELDS = frozenset({"interventions", "faults"})
_INTERVENTION_FIELDS = frozenset({"tick", "sensor", "state"})
_FAULT_FIELDS = frozenset({"component", "activation", "rules"})
_DETECTION_FIELDS = frozenset({"window", "stride", "alpha"})
_TOP_LEVEL_FIELDS = frozenset(
    {"name", "seed", "horizon", "detection", "sensors", "subsystems", "functionalities", "script"}
)


def _parse_sensor(node: Any) -> Sensor:
    sensor = _fields(node, _SENSOR_FIELDS)
    sensor_id = _id(sensor, "id")
    states = _each(sensor, "states", _parse_state)
    return Sensor(id=sensor_id, states=states, initial_state=_str(sensor, "initial"))


def _parse_state(node: Any) -> tuple[str, Distribution]:
    state = _fields(node, _STATE_FIELDS)
    return _name(state, "label"), _distribution(_str(state, "dist"), "dist")


def _parse_rule(node: Any) -> Rule:
    rule = _fields(node, _RULE_FIELDS)
    return Rule(guard=_label_map(rule, "when"), effects=_each(rule, "then", _parse_effect, []))


def _parse_effect(node: Any) -> Effect:
    effect = _fields(node, _EFFECT_FIELDS)
    return Effect(_str(effect, "sensor"), _str(effect, "state"), _int(effect, "delay"))


def _parse_subsystem(node: Any) -> Subsystem:
    subsystem = _fields(node, _SUBSYSTEM_FIELDS)
    kind_text = _str(subsystem, "kind")
    try:
        kind = SubsystemKind(kind_text)
    except ValueError:
        problem = f"expected one of component/module/product, got {kind_text!r}"
        raise _Misfit("kind", problem) from None
    sensors = _list(subsystem, "sensors")
    if not all(map(isinstance, sensors, repeat(str))):
        raise _Misfit("sensors", "expected a list of sensor ids")
    rules = _each(subsystem, "rules", _parse_rule, [])
    return Subsystem(id=_id(subsystem, "id"), kind=kind, sensors=tuple(sensors), rules=rules)


def _parse_functionality(node: Any) -> Functionality:
    functionality = _fields(node, _FUNCTIONALITY_FIELDS)
    params = _list(functionality, "parameters")
    if not all(map(_is_number, params)):
        raise _Misfit("parameters", "expected a list of numbers")
    domain = _parsed(params, "parameters", _finite)
    transitions = _each(functionality, "transitions", _parse_transition, [])
    module, name = _name(functionality, "module"), _name(functionality, "name")
    duration = _int(functionality, "duration")
    try:
        return Functionality(module, name, domain, transitions, duration)
    except ValueError as exc:
        raise _Misfit("", str(exc)) from None


def _parse_transition(node: Any) -> TransitionEntry:
    entry = _fields(node, _TRANSITION_FIELDS)
    param = entry.get("param")
    if not _is_number(param):
        raise _Misfit("param", "expected a number")
    param = _finite(param, "param")
    return TransitionEntry(param, _label_map(entry, "when"), _label_map(entry, "then"))


def _parse_script(
    node: Any, horizon: int
) -> tuple[tuple[ScriptedIntervention, ...], tuple[FaultSpec, ...]]:
    script = _fields(node, _SCRIPT_FIELDS)

    def tick(entry: Mapping, key: str) -> int:
        value = _int(entry, key)
        if not 0 <= value < horizon:
            raise _Misfit(key, f"{value} not in [0, horizon={horizon})")
        return value

    def intervention(node: Any) -> ScriptedIntervention:
        entry = _fields(node, _INTERVENTION_FIELDS)
        at = tick(entry, "tick")
        return ScriptedIntervention(at, _str(entry, "sensor"), _str(entry, "state"))

    def fault(node: Any) -> FaultSpec:
        entry = _fields(node, _FAULT_FIELDS)
        activation = tick(entry, "activation")
        rules = _each(entry, "rules", _parse_rule, [])
        return FaultSpec(_str(entry, "component"), rules, activation)

    return _each(script, "interventions", intervention, []), _each(script, "faults", fault, [])


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

    A ``str`` scalar is its text, and a plain decimal int its ``int``; any
    other int, float, bool or null scalar goes to the loader's constructor
    for its tag.  A sequence becomes a list, and a mapping whose keys are
    ``str`` scalars a dict, filled in node order, so a later duplicate key
    wins.  A merge key ``<<``, met in that fill, has the mapping flattened
    by ``loader.flatten_mapping`` and filled again, as if its values had
    not been built.  Any other node, and a scalar that its constructor
    refuses, raises a ScenarioError naming its line.
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
                value = node.value
                try:
                    if tag == _INT_TAG and value.isdecimal() and (value[0] != "0" or value == "0"):
                        return int(value)
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

    def fill(mapping: yaml.MappingNode, data: dict) -> None:
        while True:  # once more after a merge key, with the mapping flattened
            made = len(unfilled)
            try:
                for key, value in mapping.value:
                    if key.tag != _STR_TAG or not isinstance(key, yaml.ScalarNode):
                        if key.tag != _MERGE_TAG or mapping in merged:
                            raise _refused(key, "mapping key")
                        break
                    data[key.value] = build(value)
                else:
                    if len(data) < len(mapping.value) and mapping not in merged:
                        find_repeats(mapping.value)
                    return
            except ScenarioError:
                if mapping in merged or all(key.tag != _MERGE_TAG for key, _ in mapping.value):
                    raise
            # The loader flattens a mapping, merged pairs first, before it
            # builds any of its values: forget what was built from it.
            for node in unfilled[made:]:
                del memo[node]
            del unfilled[made:]
            data.clear()
            merge(mapping)

    root = build(node)
    # The loop also reaches the containers that filling appends.
    for container in unfilled:
        data = memo[container]
        if isinstance(data, list):
            data.extend(map(build, container.value))
        else:
            fill(container, data)
    return root


# Errors in these are named by their own paths, all others under "document".
_OWN_PATHS = ("sensors[", "subsystems[", "functionalities[", "script")


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
    try:
        doc = _parse_document(raw)
    except _Misfit as misfit:
        if not misfit.path.startswith(_OWN_PATHS):
            misfit.under("document")
        raise ScenarioError(f"{misfit.path}: {misfit.problem}") from None
    _validate_semantics(doc)
    return doc


def _parse_document(raw: Any) -> ScenarioDocument:
    root = _fields(raw, _TOP_LEVEL_FIELDS)
    horizon = _int(root, "horizon", minimum=1)
    detection = _fields(root.get("detection", {}), _DETECTION_FIELDS, "detection")
    alpha = detection.get("alpha", DEFAULT_ALPHA)
    if not isinstance(alpha, (int, float)) or not 0 < alpha < 1:
        raise _Misfit("detection.alpha", f"expected a number in (0, 1), got {alpha!r}")
    sensors = _each(root, "sensors", _parse_sensor)
    if not sensors:
        raise _Misfit("sensors", "expected at least one sensor")
    subsystems = _each(root, "subsystems", _parse_subsystem, [])
    functionalities = _each(root, "functionalities", _parse_functionality, [])
    try:
        interventions, faults = _parse_script(root.get("script", {}), horizon)
    except _Misfit as misfit:
        raise misfit.under("script") from None
    name = root.get("name", "")
    if not isinstance(name, str):
        raise _Misfit("name", f"expected a string, got {type(name).__name__}")
    seed = _int(root, "seed", 0, minimum=0)
    try:
        window = _int(detection, "window", DEFAULT_WINDOW, minimum=1)
        stride = _int(detection, "stride", DEFAULT_STRIDE, minimum=1)
    except _Misfit as misfit:
        raise misfit.under("detection") from None
    return ScenarioDocument(
        name, seed, horizon, window, stride, float(alpha),
        sensors, subsystems, functionalities, interventions, faults,
    )


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
