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

A scenario text is read by one of two readers, chosen by the text alone.
Text in the block layout that ``yaml.safe_dump`` writes, as
``serialize_scenario``, the bundled fixtures and the generated workloads
are, is read by ``_read_block`` in one pass over its lines, with a stack of
open containers and no node graph.  It takes printable ASCII ending in a
newline, indented two spaces a level with sequences not indented under
their key and at most one ``- `` a line; keys are identifiers of at most
122 characters that resolve to ``str``, and a value is a one-line plain
scalar that resolves to ``str``, ``int`` or ``float``, a one-line
single-quoted scalar, ``[]`` or ``{}``.  Every other text (a comment, an
anchor or alias, a tag, ``<<``, a double-quoted, folded or multi-line
scalar, a blank line, a tab, a CR, a repeated or longer key, a bool or
null) is left to the libyaml path below, so every refusal and every error
text comes from that path.

There the text is composed into a YAML node graph by ``_YAML_LOADER``
(PyYAML's libyaml-backed ``CSafeLoader``, or its ``SafeLoader`` without
libyaml), and ``_Constructor``, a ``SafeConstructor`` whose table holds
only the tags a scenario can hold, builds from it the data of
``yaml.load``: ``str``, ``int``, ``float``, ``bool`` and null scalars,
lists, mappings with string keys, aliases and merge keys ``<<``.  Any other
node (a timestamp, ``!!set``, ``!!binary``, an unknown tag, a non-string
key) is refused, naming its line and tag.  A mapping that repeats a key,
``<<`` included, is refused, naming the line and the key; a key given
explicitly and also through ``<<`` is not a repeat, nor is one merged from
two mappings.  A document nested so deeply that composing or merging it
exhausts the stack is refused too.

The block reader takes a plain scalar's tag from ``_YAML_LOADER``'s
implicit-resolver table and a quoted one's as ``str``.  A ``str`` is its
text, a plain decimal int (``12``, not ``012``, ``+12`` or ``1_2``) is
built by ``int``, and every other int spelling and each float by
``SafeConstructor``'s constructor for its tag, as the libyaml path builds
it.  Neither reader keeps anything from one parse to the next.  The schema
checks each mapping with one call, its type and then its fields against
the allowed set, and reads its fields with ``dict.get``.  A field path such
as ``sensors[3].states[1].dist`` is formatted only for a node that fails,
as its error leaves each list.

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
import re
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
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
from .distributions import ANOMALOUS, Degenerate, Distribution, Normal, Uniform
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
_FLOAT_TAG = "tag:yaml.org,2002:float"
_SEQ_TAG = "tag:yaml.org,2002:seq"
_MAP_TAG = "tag:yaml.org,2002:map"
_MERGE_TAG = "tag:yaml.org,2002:merge"
# The scalar tags a scenario holds.
_PLAIN_TAGS = frozenset(
    f"tag:yaml.org,2002:{kind}" for kind in ("str", "int", "float", "bool", "null")
)
# The tags of a mapping's keys before its merge keys are flattened.
_KEY_TAGS = frozenset((_STR_TAG, _MERGE_TAG))
# The node type of each tag that a scenario holds.
_NODE_TYPES = {
    **dict.fromkeys(_PLAIN_TAGS, yaml.ScalarNode),
    _SEQ_TAG: yaml.SequenceNode,
    _MAP_TAG: yaml.MappingNode,
}


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
    """The data of the one YAML document in ``text``, None if it has none,
    built by a ``_Constructor`` that appends to ``repeated``.  The loader is
    disposed of once it has composed the node graph, and the graph is freed
    on return, before the caller validates the data."""
    loader = _YAML_LOADER(text)
    try:
        node = loader.get_single_node()
    finally:
        loader.dispose()
    return None if node is None else _Constructor(repeated).construct_document(node)


def _refused(node: yaml.Node, role: str) -> ScenarioError:
    """The error for a node that a scenario cannot hold as a ``role``."""
    what = f"{node.id} {node.value!r}" if isinstance(node, yaml.ScalarNode) else node.id
    hint = "; quote it to make it a string" if isinstance(node, yaml.ScalarNode) else ""
    return ScenarioError(
        f"line {node.start_mark.line + 1}: a scenario cannot hold the YAML {what} "
        f"tagged {node.tag} as a {role}{hint}"
    )


class _Constructor(yaml.constructor.SafeConstructor):
    """PyYAML's safe constructor, for only what a scenario can hold: ``str``,
    ``int``, ``float``, ``bool`` and null scalars, lists, and mappings whose
    keys are ``str`` scalars, with aliases and merge keys ``<<``, giving the
    data of ``yaml.load``.  Containers are filled breadth first, as
    ``construct_document`` runs their generators.

    Any other node (a timestamp, ``!!set``, ``!!binary``, an unknown tag, a
    node whose type does not match its tag, a non-string key) is refused,
    and so is a scalar that its constructor refuses, naming its line.  Each
    key that repeats an earlier one of its mapping as written, ``<<``
    included, is appended to ``repeated``; a key given explicitly and also
    through ``<<`` is not a repeat, nor is one merged from two mappings."""

    yaml_constructors = {
        tag: yaml.constructor.SafeConstructor.yaml_constructors[tag] for tag in _NODE_TYPES
    }

    def __init__(self, repeated: list[yaml.Node]):
        super().__init__()
        self.repeated = repeated
        # Mappings whose keys were taken before a merge flattened them.
        self.merged: set[yaml.Node] = set()

    def construct_object(self, node: yaml.Node, deep: bool = False) -> Any:
        if type(node) is not _NODE_TYPES.get(node.tag):
            raise _refused(node, "value")
        # Only a scalar's constructor runs here: a container's is a
        # generator, which first yields its empty list or dict.
        try:
            return super().construct_object(node, deep)
        except (ValueError, KeyError, IndexError):
            raise _refused(node, "value") from None

    def construct_mapping(self, node: yaml.MappingNode, deep: bool = False) -> dict:
        """The dict of ``node``, filled in node order, so a later repeated
        key wins.  A mapping with a merge key first has its keys and those
        of the mappings merged into it taken as written, then is flattened
        by ``flatten_mapping``, merged pairs first."""
        if any(key.tag == _MERGE_TAG for key, _ in node.value):
            self._take_merged_keys(node)
            self.flatten_mapping(node)
        data = {}
        for key, value in node.value:
            if key.tag != _STR_TAG or not isinstance(key, yaml.ScalarNode):
                raise _refused(key, "mapping key")
            data[key.value] = self.construct_object(value)
        if len(data) < len(node.value) and node not in self.merged:
            self._find_repeats(node.value)
        return data

    def _take_merged_keys(self, root: yaml.MappingNode) -> None:
        """Check and take the keys of ``root`` and of the mappings merged
        into it, before ``flatten_mapping`` rewrites them in place."""
        stack = [root]
        while stack:
            node = stack.pop()
            # flatten_mapping refuses a merge of anything but mappings.
            if isinstance(node, yaml.MappingNode) and node not in self.merged:
                self.merged.add(node)
                for key, value in node.value:
                    if key.tag not in _KEY_TAGS or not isinstance(key, yaml.ScalarNode):
                        raise _refused(key, "mapping key")
                    if key.tag == _MERGE_TAG:
                        many = isinstance(value, yaml.SequenceNode)
                        stack.extend(value.value if many else [value])
                self._find_repeats(node.value)

    def _find_repeats(self, pairs: list[tuple[yaml.Node, yaml.Node]]) -> None:
        seen: set[str] = set()
        # set.add returns None, so a key is taken only if it was seen before.
        self.repeated.extend(key for key, _ in pairs if key.value in seen or seen.add(key.value))


_SINGLE_QUOTED = re.compile(r"'(?:[^']|'')*'")
# The characters that a plain scalar the block reader takes may not start
# with: YAML's indicators and a space.
_NOT_FIRST = frozenset("-?:,[]{}#&*!|>'\"%@` ")
# The tags of the plain scalars that the block reader takes.
_BLOCK_TAGS = frozenset((_STR_TAG, _INT_TAG, _FLOAT_TAG))


def _implicit_tag(value: str) -> str:
    """The tag that ``_YAML_LOADER`` resolves the nonempty plain scalar
    ``value`` to: that of the first implicit resolver, of those listed for
    its first character and then those for any, whose pattern matches it,
    else ``str``.  With no path resolvers registered, a scalar's place in
    the document plays no part."""
    resolvers = _YAML_LOADER.yaml_implicit_resolvers
    for tag, pattern in chain(resolvers.get(value[0], ()), resolvers.get(None, ())):
        if pattern.match(value):
            return tag
    return _STR_TAG


def _block_scalar(text: str, constructor: Any) -> Any:
    """The data of the scalar written ``text`` in the block layout, or None
    if the block reader does not take it: a single-quoted scalar is a
    ``str``; a plain one must not start with an indicator (save a "-" that
    a space does not follow) or a space, end with a colon or a space, nor
    hold ": " or " #", and must resolve to ``str``, ``int`` or ``float``.
    Either must be printable ASCII.  A plain decimal int (``12``, not
    ``012``, ``+12`` or ``1_2``) is built by ``int``, every other int
    spelling and each float by ``constructor``."""
    if not text.isprintable():
        return None
    if text[0] == "'":
        return text[1:-1].replace("''", "'") if _SINGLE_QUOTED.fullmatch(text) else None
    if (
        (text[0] in _NOT_FIRST and (text[0] != "-" or text[1:2] in ("", " ")))
        or text[-1] in ": "
        or ": " in text
        or " #" in text
    ):
        return None
    tag = _implicit_tag(text)
    if tag == _STR_TAG:
        return text
    if tag == _INT_TAG and text.isdecimal() and (text[0] != "0" or text == "0"):
        return int(text)
    if tag not in _BLOCK_TAGS:
        return None
    try:
        return constructor.yaml_constructors[tag](constructor, yaml.ScalarNode(tag, text))
    except (ValueError, KeyError):
        return None


# safe_dump writes a key as a plain one only if it is under 128 characters
# with its "!!str" tag counted, and libyaml refuses a plain key of more than
# 1,024: the block reader leaves every longer key to the libyaml path.
_LONGEST_KEY = 128 - len("!!str") - 1


def _read_block(text: str) -> dict | None:
    """The data of ``text`` if it is in the block layout that
    ``yaml.safe_dump(sort_keys=False)`` writes, else None (see the module
    docstring for what that takes); what it returns equals, type for type,
    what ``_load_yaml`` returns for the text.

    A line is its indent of spaces, a "- " if it holds a sequence item, and
    then "key:", "key: value" or, after a "- ", a value alone.  One pass
    over the lines keeps a stack of the open containers, each with the
    column of its keys or of its items' "- ".  A line closes those deeper
    than it, and the sequence at its column if it holds a key; a "key:"
    line opens, on the next line, the sequence at its column or the
    mapping two columns in.  Every character is an indent space, part of a
    "- ", ":" or ": ", an identifier key, a checked value or a line end, so
    the text is printable ASCII.  Each distinct scalar text is built once,
    its data kept for this parse only; ``[]`` and ``{}`` give a new
    container each time."""
    if not text.endswith("\n") or not text.isascii():
        return None
    # Both loaders build scalars with SafeConstructor's methods, which read
    # nothing of the loader but the node: this one needs no parser.
    constructor = yaml.constructor.SafeConstructor()
    built: dict[str, Any] = {}

    def scalar(written: str) -> Any:
        """The data of a scalar not built yet, None if refused."""
        if written == "[]":
            return []
        if written == "{}":
            return {}
        data = built[written] = _block_scalar(written, constructor) if written else None
        return data

    root: dict = {}
    stack: list[tuple[int, Any]] = [(0, root)]
    opened: tuple[dict, str, int] | None = None
    for line in text[:-1].split("\n"):
        content = line.lstrip(" ")
        column = len(line) - len(content)
        dash = content[:2] == "- "
        if dash:
            content = content[2:]
        key, colon, value = content.partition(": ")
        if not colon:
            if content[-1:] == ":":
                key = content[:-1]
            elif dash:
                key = ""
            else:
                return None
        if opened is not None:
            mapping, name, at = opened
            opened = None
            if dash and column == at:
                top = mapping[name] = []
            elif key and not dash and column == at + 2:
                top = mapping[name] = {}
            else:
                return None
            stack.append((column, top))
        else:
            at, top = stack[-1]
            while at != column or (type(top) is list) is not dash:
                if at < column or (at == column and dash):
                    return None
                stack.pop()
                at, top = stack[-1]
        if dash:
            if not key:
                data = built.get(content)
                if data is None and (data := scalar(content)) is None:
                    return None
                top.append(data)
                continue
            mapping = {}
            top.append(mapping)
            top = mapping
            column += 2
            stack.append((column, top))
        # An identifier resolves to a str, a bool or a null, and the block
        # reader takes only the first.
        if not key.isidentifier() or len(key) > _LONGEST_KEY:
            return None
        name = built.get(key) or scalar(key)
        if name is None or name in top:
            return None
        if colon:
            data = built.get(value)
            if data is None and (data := scalar(value)) is None:
                return None
            top[name] = data
        else:
            opened = top, name, column
    return None if opened is not None else root


# Errors in these are named by their own paths, all others under "document".
_OWN_PATHS = ("sensors[", "subsystems[", "functionalities[", "script")


def parse_scenario(text: str) -> ScenarioDocument:
    """Parse and fully validate a scenario document.

    The block reader reads the text if it takes it, else the libyaml path
    does (see the module docstring).  Schema violations raise ScenarioError
    with field context; semantic violations (bad references, overlapping
    guards, delays < 1, ...) are raised by model validation.
    """
    raw = _read_block(text)
    if raw is None:
        raw = _read_yaml(text)
    try:
        doc = _parse_document(raw)
    except _Misfit as misfit:
        if not misfit.path.startswith(_OWN_PATHS):
            misfit.under("document")
        raise ScenarioError(f"{misfit.path}: {misfit.problem}") from None
    _validate_semantics(doc)
    return doc


def _read_yaml(text: str) -> Any:
    """The data of ``text`` read by the libyaml path, refusing a text whose
    flow collections nest too deep, bad YAML, repeated keys, and a document
    nested so deeply that composing or merging it exhausts the stack."""
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
    except RecursionError:
        raise ScenarioError("document: nested too deeply to read") from None
    if repeated:
        # Mappings are filled breadth first; name the repeat met first in the text.
        key = min(repeated, key=lambda node: node.start_mark.index)
        raise ScenarioError(
            f"line {key.start_mark.line + 1}: key {key.value!r} repeats an earlier key "
            "of its mapping"
        )
    return raw


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
        parts[0::4] = _tick_text(t * width, t * width + values.size, width).split(",")
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


def _tick_text(start: int, stop: int, width: int) -> str:
    """Rows ``start..stop-1`` (``start < stop``) of the tick column of a trace
    CSV in export's layout, ``width`` rows per tick, joined by commas:
    ``str(row // width)`` for each row, built a tick at a time."""
    first, done = divmod(start, width)
    last, left = divmod(stop, width)
    if first == last:
        return (f"{first}," * (stop - start))[:-1]
    whole = (f"{tick}," * width for tick in range(first + 1, last))
    return "".join((f"{first}," * (width - done), *whole, f"{last}," * left))[:-1]


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
    # A chunk's tick and id fields are checked joined by commas, against
    # the text they make in export's layout: no field holds a comma, so the
    # texts are equal exactly when the fields are.  One tick's ids, each
    # followed by a comma, and where each id starts in that text:
    ids_text = ",".join(sensor_ids) + ","
    id_starts = [0, *accumulate(len(sensor_id) + 1 for sensor_id in sensor_ids)]
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
        ids_end, ids_left = divmod(first + n, width)
        ids = (ids_text * (ids_end + 1))[
            id_starts[first] : ids_end * len(ids_text) + id_starts[ids_left] - 1
        ]
        if ",".join(fields[1::4]) != ids or ",".join(fields[0::4]) != _tick_text(
            row, row + n, width
        ):
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
    for block in report.blocks:
        p_best = block.p_values.max(axis=0).tolist()
        for start, matched, p in zip(block.starts, block.matched, p_best):
            out.write(f"{block.sensor},{start},{matched},{p!r},{int(matched == ANOMALOUS)}\n")
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
