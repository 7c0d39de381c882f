import csv
import functools
import gc
import importlib.resources
import io
import json
import math
import random
import re
import time
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

import causalcps.scenario as scenario_module
from causalcps.detection import scan_anomalies
from causalcps.distributions import Degenerate, Normal, Uniform
from causalcps.model import ModelError, Sensor, SubsystemKind, build_model
from causalcps.planning import Functionality, Plan, PlanStep
from causalcps.scenario import (
    ScenarioError,
    chain_fixture,
    export_anomaly_report,
    export_deviations,
    export_plan,
    export_trace,
    format_distribution,
    import_deviations,
    import_trace,
    knife_fixture,
    parse_distribution,
    parse_scenario,
    serialize_scenario,
    thermostat_fixture,
)
from test_model import one_parameter_table_text

PACKAGED_KNIFE = importlib.resources.files("causalcps") / "scenarios" / "knife.yaml"
REPO_KNIFE = Path(__file__).resolve().parent.parent / "scenarios" / "knife.yaml"

MINIMAL = """
horizon: 10
sensors:
  - id: probe
    initial: Idle
    states:
      - {label: Idle, dist: degenerate(0)}
subsystems: []
"""


class TestDistributionSyntax:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("normal(20, 2)", Normal(20, 2)),
            ("uniform(0,1)", Uniform(0, 1)),
            ("degenerate(7)", Degenerate(7.0)),
            (" normal( -1.5 , 0.25 ) ", Normal(-1.5, 0.25)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_distribution(text) == expected

    @pytest.mark.parametrize(
        "text", ["gauss(0,1)", "normal(0)", "uniform(1,2,3)", "normal(a,b)", "normal", ""]
    )
    def test_bad_spec_rejected(self, text):
        with pytest.raises(ScenarioError):
            parse_distribution(text)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ScenarioError, match="stddev"):
            parse_distribution("normal(0, -1)")

    @pytest.mark.parametrize(
        "dist",
        [
            Normal(20, 2),
            Uniform(-3, 3),
            Degenerate(0.5),
            Normal(1.25, 0.125),
            Normal(20.123456789, 2),
            Uniform(0.1 + 0.2, 1),
            Degenerate(1e-300),
        ],
    )
    def test_format_parse_round_trip(self, dist):
        assert parse_distribution(format_distribution(dist)) == dist


class TestParseScenario:
    def test_minimal_document(self):
        doc = parse_scenario(MINIMAL)
        assert doc.horizon == 10
        assert doc.seed == 0
        assert len(doc.sensors) == 1
        assert doc.build().sensor("probe").initial_state == "Idle"

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown field"):
            parse_scenario(MINIMAL + "\nbogus_field: 1\n")

    def test_unknown_nested_field_rejected(self):
        text = MINIMAL.replace("subsystems: []", "subsystems:\n  - {id: s, kind: component, sensors: [probe], rules: [], color: red}")
        with pytest.raises(ScenarioError, match="unknown field"):
            parse_scenario(text)

    @pytest.mark.parametrize("value", ["[1, 2]", "7", "null"])
    def test_non_string_name_rejected(self, value):
        with pytest.raises(ScenarioError, match=r"document\.name: expected a string"):
            parse_scenario(f"name: {value}\n" + MINIMAL)

    def test_boolean_transition_param_rejected(self):
        text = PACKAGED_KNIFE.read_text(encoding="utf-8")
        quench = "parameters:\n  - 1.0\n  duration: 3\n  transitions:\n  - param: 1.0\n"
        assert quench in text
        text = text.replace(quench, quench.replace("param: 1.0", "param: true"))
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert str(info.value) == "functionalities[1].transitions[0].param: expected a number"

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (
                ("sensors", 1, "states", 2, "label"),
                "S,50",
                "sensors[1].states[2].label: 'S,50' holds a comma, double quote, CR or LF, "
                "which would break the CSV artifacts",
            ),
            (
                ("sensors", 5, "states", 1, "dist"),
                "normal(800, 0)",
                "sensors[5].states[1].dist: normal stddev must be > 0, got 0.0",
            ),
            (
                ("subsystems", 2, "rules", 1, "when"),
                ["burner_set"],
                "subsystems[2].rules[1].when: expected a mapping, got list",
            ),
            (
                ("subsystems", 0, "rules", 3, "then", 0, "delay"),
                "1",
                "subsystems[0].rules[3].then[0].delay: expected an integer",
            ),
            (
                ("functionalities", 1, "transitions", 1, "param"),
                "1.0",
                "functionalities[1].transitions[1].param: expected a number",
            ),
            (
                ("script", "interventions", 3, "tick"),
                300,
                "script.interventions[3].tick: 300 not in [0, horizon=300)",
            ),
            (
                ("script", "faults", 0, "rules"),
                [
                    {"when": {"lid_cmd": "DoClose"}, "then": []},
                    {"when": {"lid_cmd": "DoOpen"}, "then": [{"sensor": "", "state": "Open"}]},
                ],
                "script.faults[0].rules[1].then[0].sensor: expected a nonempty string",
            ),
            (
                ("sensors", 7, "states"),
                {"label": "Soft"},
                "sensors[7].states: expected a list, got dict",
            ),
            (("detection", "window"), 0, "document.detection.window: must be >= 1, got 0"),
            (("detection", "beta"), 1, "document.detection: unknown field(s) ['beta']"),
            (("subsystems", 3), [], "subsystems[3]: expected a mapping, got list"),
            (("script",), [], "script: expected a mapping, got list"),
        ],
    )
    def test_error_text_names_the_field_path(self, path, value, message):
        data = yaml.safe_load(PACKAGED_KNIFE.read_text(encoding="utf-8"))
        *parents, last = path
        node = data
        for key in parents:
            node = node[key]
        node[last] = value
        with pytest.raises(ScenarioError) as info:
            parse_scenario(yaml.safe_dump(data, sort_keys=False))
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf", "1" + "0" * 400])
    @pytest.mark.parametrize(
        "edit, field",
        [
            (("  - 100.0\n", "  - {}\n"), r"functionalities\[0\]\.parameters\[4\]"),
            (
                ("  - param: 100.0\n", "  - param: {}\n"),
                r"functionalities\[0\]\.transitions\[0\]\.param",
            ),
        ],
        ids=["parameters", "param"],
    )
    def test_non_finite_functionality_parameter_rejected(self, edit, field, value):
        text = PACKAGED_KNIFE.read_text(encoding="utf-8")
        assert text.count(edit[0]) == 1
        with pytest.raises(ScenarioError, match=rf"^{field}: must be finite, got -?(nan|inf)$"):
            parse_scenario(text.replace(edit[0], edit[1].format(value)))

    @pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
    @pytest.mark.parametrize(
        "line, field",
        [
            ("- id: burner_cmd\n", r"sensors\[0\]\.id"),
            ("  - label: C0\n", r"sensors\[0\]\.states\[0\]\.label"),
            ("- id: burner\n", r"subsystems\[0\]\.id"),
            ("- module: oven\n", r"functionalities\[0\]\.module"),
            ("  name: heat\n", r"functionalities\[0\]\.name"),
        ],
    )
    def test_name_that_would_break_a_csv_field_rejected(self, line, field, char):
        # Ids and labels are written to the CSV artifacts as unquoted fields.
        text = PACKAGED_KNIFE.read_text(encoding="utf-8")
        assert text.count(line) == 1
        key, value = line.rstrip("\n").split(": ")
        # A JSON string is a YAML double-quoted scalar, escapes included.
        text = text.replace(line, f"{key}: {json.dumps(value + char + 'x')}\n")
        with pytest.raises(ScenarioError, match=field + ": .* would break the CSV artifacts"):
            parse_scenario(text)

    @pytest.mark.parametrize("line", ["  name: heat\n", "  duration: 8\n"])
    def test_missing_functionality_field_is_named_once(self, line):
        text = PACKAGED_KNIFE.read_text(encoding="utf-8")
        assert text.count(line) == 1
        key = line.split(":")[0].strip()
        text = text.replace(line, "")
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert str(info.value) == f"functionalities[0]: missing required field {key!r}"

    @pytest.mark.parametrize("char", ["+", "|"])
    @pytest.mark.parametrize(
        "line, field",
        [("- id: burner_cmd\n", r"sensors\[0\]\.id"), ("- id: burner\n", r"subsystems\[0\]\.id")],
    )
    def test_id_that_would_join_in_the_diagnosis_csv_rejected(self, line, field, char):
        # The diagnosis CSV joins components and sensors with "+", paths with "|".
        text = PACKAGED_KNIFE.read_text(encoding="utf-8")
        assert text.count(line) == 1
        text = text.replace(line, line[:-1] + char + "x\n")
        with pytest.raises(ScenarioError, match=field + r": .* holds a '\+' or '\|'"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "line",
        ["name: '" + "[" * 150 + "'", 'name: "' + "{" * 150 + '"', "# " + "[" * 150],
    )
    def test_brackets_in_quoted_scalars_and_comments_do_not_nest(self, line):
        assert parse_scenario(MINIMAL + line + "\n").horizon == 10

    def test_many_shallow_flow_collections_parse(self):
        sensors = "".join(
            f"  - {{id: p{i}, initial: Idle, states: [{{label: Idle, dist: degenerate(0)}}]}}\n"
            for i in range(60)
        )
        doc = parse_scenario(f"horizon: 10\nsensors:\n{sensors}subsystems: []\n")
        assert len(doc.sensors) == 60

    def test_yaml_syntax_error_carries_line(self):
        with pytest.raises(ScenarioError, match="invalid YAML"):
            parse_scenario("horizon: [unclosed")

    @pytest.mark.parametrize(
        "text, line, key",
        [
            (MINIMAL + "horizon: 250\n", 9, "horizon"),
            (MINIMAL.replace("{label: Idle,", "{label: Idle, label: Busy,"), 7, "label"),
        ],
        ids=["top level", "nested"],
    )
    def test_repeated_key_rejected_naming_line_and_key(self, text, line, key):
        message = rf"^line {line}: key '{key}' repeats an earlier key of its mapping$"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(text)

    def test_merge_key_keeps_its_override_rule(self):
        text = MINIMAL.replace(
            "  - id: probe\n", "  - <<: {id: probe, initial: Busy}\n    initial: Idle\n"
        ).replace("    initial: Idle\n    states", "    states")
        assert text.count("initial:") == 2
        assert parse_scenario(text).sensors[0].initial_state == "Idle"

    @pytest.mark.parametrize(
        "text, line, key",
        [
            (
                MINIMAL.replace("    initial: Idle\n", "    <<: {initial: Idle}\n").replace(
                    "{label: Idle,", "{label: Idle, label: Idle,"
                ),
                7,
                "label",
            ),
            (
                MINIMAL.replace(
                    "    initial: Idle\n",
                    "    <<: {id: probe}\n    initial: Idle\n    initial: Idle\n",
                ),
                7,
                "initial",
            ),
            (
                MINIMAL.replace("    initial: Idle\n", "    <<: {initial: Idle, initial: Idle}\n"),
                5,
                "initial",
            ),
            (
                MINIMAL.replace(
                    "    initial: Idle\n", "    <<: {initial: Idle}\n    <<: {initial: Idle}\n"
                ),
                6,
                "<<",
            ),
        ],
        ids=["below a merge", "beside a merge", "inside a merged mapping", "second merge key"],
    )
    def test_repeated_key_under_a_merge_key_rejected(self, text, line, key):
        # A mapping's keys are checked as written, before a merge rewrites them.
        message = rf"^line {line}: key '{key}' repeats an earlier key of its mapping$"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(text)

    def test_merged_mapping_reused_by_alias_is_not_a_repeat(self):
        # Merging rewrites &probe's node to hold both of its initial keys.
        text = """
horizon: 10
sensors:
  - <<: &probe {<<: {id: probe, initial: Busy}, initial: Idle, states: [{label: Idle, dist: degenerate(0)}]}
    id: first
  - *probe
subsystems: []
"""
        sensors = parse_scenario(text).sensors
        assert [(s.id, s.initial_state) for s in sensors] == [("first", "Idle"), ("probe", "Idle")]

    def test_delay_zero_fails_model_validation(self):
        text = """
horizon: 10
sensors:
  - id: a
    initial: X
    states: [{label: X, dist: degenerate(0)}, {label: Y, dist: degenerate(1)}]
  - id: b
    initial: X
    states: [{label: X, dist: degenerate(0)}, {label: Y, dist: degenerate(1)}]
subsystems:
  - id: sub
    kind: component
    sensors: [a]
    rules:
      - when: {a: X}
        then: [{sensor: b, state: Y, delay: 0}]
"""
        with pytest.raises(ModelError, match="effect must follow cause"):
            parse_scenario(text)

    def test_script_tick_beyond_horizon_rejected(self):
        text = MINIMAL + """
script:
  interventions:
    - {tick: 10, sensor: probe, state: Idle}
"""
        with pytest.raises(ScenarioError, match="horizon"):
            parse_scenario(text)

    def test_functionality_must_reference_module_subsystem(self):
        text = """
horizon: 10
sensors:
  - id: a
    initial: X
    states: [{label: X, dist: degenerate(0)}]
  - id: b
    initial: X
    states: [{label: X, dist: degenerate(0)}]
subsystems:
  - id: part
    kind: product
    sensors: [a]
functionalities:
  - module: part
    name: go
    parameters: [1]
    duration: 1
    transitions: []
"""
        with pytest.raises(ScenarioError, match="module-kind"):
            parse_scenario(text)


def read_by_libyaml(text):
    """``text`` behind a comment line, which the block reader refuses, so
    that ``parse_scenario`` reads it by the libyaml path."""
    refused = "# read by the libyaml path\n" + text
    assert scenario_module._read_block(refused) is None
    return refused


class TestYamlLoader:
    """The libyaml loader is used when PyYAML has it; the pure-Python fallback
    must parse the same documents and report errors the same way."""

    @pytest.fixture
    def fallback(self, monkeypatch):
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", yaml.SafeLoader)

    def test_libyaml_loader_used_when_available(self):
        expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert scenario_module._YAML_LOADER is expected

    def test_fallback_yaml_syntax_error_carries_line(self, fallback):
        with pytest.raises(ScenarioError, match=r"^line 1: invalid YAML"):
            parse_scenario("horizon: [unclosed")

    @pytest.mark.parametrize(
        "loader",
        [
            yaml.SafeLoader,
            pytest.param(
                getattr(yaml, "CSafeLoader", None),
                marks=pytest.mark.skipif(not yaml.__with_libyaml__, reason="no libyaml"),
            ),
        ],
        ids=["SafeLoader", "CSafeLoader"],
    )
    @pytest.mark.parametrize(
        "text, line",
        [
            ("horizon: [unclosed", 1),
            ("horizon: [unclosed\n", 2),
            ("a: 1\nhorizon: [unclosed", 2),
            ("a: 1\nb: [x\n  c: 2", 3),
        ],
    )
    def test_syntax_error_line_is_the_same_under_both_loaders(
        self, monkeypatch, loader, text, line
    ):
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", loader)
        with pytest.raises(ScenarioError, match=rf"^line {line}: invalid YAML"):
            parse_scenario(text)

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="no libyaml")
    def test_fallback_parses_bundled_scenario_like_fixture(self, monkeypatch):
        # knife_fixture() parses with whichever loader is patched in, so each
        # parse names its loader explicitly.
        text = read_by_libyaml(PACKAGED_KNIFE.read_text(encoding="utf-8"))
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", yaml.CSafeLoader)
        with_libyaml = parse_scenario(text)
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", yaml.SafeLoader)
        assert parse_scenario(text) == with_libyaml


LOADERS = [
    yaml.SafeLoader,
    pytest.param(
        getattr(yaml, "CSafeLoader", None),
        marks=pytest.mark.skipif(not yaml.__with_libyaml__, reason="no libyaml"),
    ),
]
LOADER_IDS = ["SafeLoader", "CSafeLoader"]


def construct(text, loader):
    """What ``scenario._Constructor`` builds from the node graph that
    ``loader`` composes, None for a text with no document."""
    instance = loader(text)
    try:
        node = instance.get_single_node()
    finally:
        instance.dispose()
    return None if node is None else scenario_module._Constructor([]).construct_document(node)


def built_or_raised(build):
    """The data ``build()`` returns, or the type and text of what it raises."""
    try:
        return "data", build()
    except Exception as exc:
        return "error", type(exc), str(exc)


def assert_same_graph(ours, theirs):
    """Equal data with the same sharing: the containers of the two sides
    pair off one to one, aliases and cycles included."""
    paired: dict[int, int] = {}
    stack = [(ours, theirs)]
    while stack:
        a, b = stack.pop()
        assert type(a) is type(b)
        if isinstance(a, (list, dict, set)):
            if id(a) in paired or id(b) in paired.values():
                assert paired.get(id(a)) == id(b)
                continue
            paired[id(a)] = id(b)
        if isinstance(a, (list, tuple)):
            assert len(a) == len(b)
            stack.extend(zip(a, b))
        elif isinstance(a, dict):
            assert list(a) == list(b)
            stack.extend(zip(a.values(), b.values()))
        else:
            assert a == b


def generated_scenario_texts():
    from test_simulation import load_perfbench_generators

    generators = load_perfbench_generators()
    return {
        "relay-diagnose": generators.relay_diagnose(1).yaml_text(),
        "plant-monitor": generators.plant_monitor(1).yaml_text(),
    }


EDGE_DOCUMENTS = {
    "scalars": (
        "s: [text, 'quoted', '12', !!str 12, '']\n"
        "i: [12, -0x1F, 0o17, 017, 1_000, 190:20:30, !!int '7']\n"
        "f: [1.5, -.inf, .INF, 6.8523015e+5, 190:20:30.15, !!float 3]\n"
        "b: [true, False, yes, off]\n"
        "n: [~, null, '', !!null '']\n"
    ),
    # Only "0" and a plain decimal not led by "0" are built by int() directly.
    "int spellings": "i: [0, 00, 007, 010, +12, -0, 1_2, 0b1, 08, 1:30]\n",
    # Plain, they resolve to str; tagged, int() takes any decimal digits.
    "unicode decimal digits": "u: [\u0663, \u0661\u0662, !!int \u0663, !!int \u0661\u0662]\n",
    "superscript int": "a: !!int \u00b2\n",
    "keys of every plain kind": "{a: 1, 2: b, 3.5: c, true: d, ~: e, 1.0: f}\n",
    # One text written plain, quoted and tagged: a tag memo keyed on the
    # text alone would give all of a row one type.
    "one text in every style": (
        "i: [12, '12', !!str 12, !!float 12, 12]\n"
        "b: [true, 'true', true]\n"
        "n: [~, '~', ~]\n"
        "s: [1:30, '1:30', 1:30]\n"
    ),
    "duplicate keys": "{a: 1, b: 2, a: 3}\n",
    "merge keys": (
        "base: &base {x: 1, y: 2}\n"
        "more: &more {z: 3}\n"
        "one: {<<: *base, y: 5}\n"
        "many: {<<: [*base, *more], w: 0}\n"
        "chain: &chain {<<: *base, c: 1}\n"
        "over: {<<: *chain, d: 2}\n"
    ),
    "value key": "v: {=: 7, unit: s}\n",
    "value key in a merged mapping": "{<<: {=: 7}, unit: s}\n",
    "set": "s: !!set {a, b, 3}\n",
    "omap": "o: !!omap [{b: 1}, {a: [2]}]\n",
    "pairs": "p: !!pairs [{a: 1}, {a: 2}]\n",
    "timestamps": "t: [2001-12-14t21:59:43.10-05:00, 2002-12-14, 2001-12-15 2:59:43.1Z]\n",
    "timestamp key": "{2002-12-14: day, x: 1}\n",
    "binary": "b: !!binary aGVsbG8gd29ybGQ=\n",
    "explicit seq and map tags": "!!map {a: !!seq [1, 2], b: !!map {c: d}}\n",
    "aliases": "a: &l [1, {k: v}]\nb: *l\nc: &m {x: *l}\nd: [*m, *m]\n",
    "aliases across a delegated node": "l: &l [1]\no: !!omap [{k: *l}, {j: &n [2]}]\nn: *n\n",
    "recursive seq alias": "&a [1, *a, [*a]]\n",
    "recursive map alias": "&m {self: *m, x: [*m]}\n",
    "recursion through a merge": "&m {<<: {a: 1}, self: *m}\n",
    "unhashable key": "a: 1\n? [1, 2]\n: x\n",
    "unknown tag": "a: [1, !custom 2]\n",
    "str tag on a sequence": "a: !!str [1]\n",
    "bad merge": "a: {<<: [1], b: 2}\n",
    "bad int": "a: !!int abc\n",
    "empty document": "",
    "only a comment": "# nothing\n",
    "two documents": "a: 1\n---\nb: 2\n",
    "plain scalar root": "just text\n",
}


def refusal(line, kind, tag, role, text=None):
    """The error for a node that a scenario cannot hold; ``tag`` is short
    for ``tag:yaml.org,2002:<tag>`` unless it starts with ``!``."""
    tag = tag if tag.startswith("!") else f"tag:yaml.org,2002:{tag}"
    if text is None:
        return f"line {line}: a scenario cannot hold the YAML {kind} tagged {tag} as a {role}"
    return (
        f"line {line}: a scenario cannot hold the YAML {kind} {text!r} tagged {tag} "
        f"as a {role}; quote it to make it a string"
    )


# The edge documents that a scenario cannot hold, each with its refusal.
REFUSED_DOCUMENTS = {
    "keys of every plain kind": refusal(1, "scalar", "int", "mapping key", "2"),
    "value key": refusal(1, "scalar", "value", "mapping key", "="),
    "value key in a merged mapping": refusal(1, "scalar", "value", "mapping key", "="),
    "set": refusal(1, "mapping", "set", "value"),
    "omap": refusal(1, "sequence", "omap", "value"),
    "pairs": refusal(1, "sequence", "pairs", "value"),
    "timestamps": refusal(1, "scalar", "timestamp", "value", "2001-12-14t21:59:43.10-05:00"),
    "timestamp key": refusal(1, "scalar", "timestamp", "mapping key", "2002-12-14"),
    "binary": refusal(1, "scalar", "binary", "value", "aGVsbG8gd29ybGQ="),
    "aliases across a delegated node": refusal(2, "sequence", "omap", "value"),
    "unhashable key": refusal(2, "sequence", "seq", "mapping key"),
    "unknown tag": refusal(1, "scalar", "!custom", "value", "2"),
    "str tag on a sequence": refusal(1, "sequence", "str", "value"),
    "bad int": refusal(1, "scalar", "int", "value", "abc"),
    "superscript int": refusal(1, "scalar", "int", "value", "\u00b2"),
}


def assert_like_yaml_load(name, text, ours, loader):
    """``ours``, a ``built_or_raised`` outcome for ``text``, is the refusal
    of a refused edge document, else what ``yaml.load`` gives with
    ``loader``: the same data, or the same error."""
    if name in REFUSED_DOCUMENTS:
        assert ours == ("error", ScenarioError, REFUSED_DOCUMENTS[name])
        return
    theirs = built_or_raised(lambda: yaml.load(text, Loader=loader))
    if ours[0] == "data" == theirs[0]:
        assert_same_graph(ours[1], theirs[1])
    else:
        assert ours == theirs


class TestConstruct:
    """``_Constructor`` returns what ``yaml.load`` returns with the same
    loader, and raises what it raises, except for the nodes that a scenario
    cannot hold, which it refuses at their line."""

    @pytest.mark.parametrize("loader", LOADERS, ids=LOADER_IDS)
    def test_bundled_and_generated_scenarios(self, loader):
        fixtures = importlib.resources.files("causalcps") / "scenarios"
        texts = [
            (fixtures / name).read_text(encoding="utf-8")
            for name in ("knife.yaml", "chain.yaml", "thermostat.yaml")
        ]
        texts += generated_scenario_texts().values()
        for text in texts:
            assert_same_graph(construct(text, loader), yaml.load(text, Loader=loader))

    @pytest.mark.parametrize("loader", LOADERS, ids=LOADER_IDS)
    @pytest.mark.parametrize("name", sorted(EDGE_DOCUMENTS))
    def test_edge_document(self, loader, name):
        text = EDGE_DOCUMENTS[name]
        assert_like_yaml_load(name, text, built_or_raised(lambda: construct(text, loader)), loader)

    @pytest.mark.parametrize("loader", LOADERS, ids=LOADER_IDS)
    @pytest.mark.parametrize("name", ["bad merge", "unhashable key", "unknown tag"])
    def test_constructor_error_text_is_unchanged(self, monkeypatch, loader, name):
        text = EDGE_DOCUMENTS[name]
        with pytest.raises(yaml.YAMLError) as loaded:
            yaml.load(text, Loader=loader)
        mark = loaded.value.problem_mark
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", loader)
        with pytest.raises(ScenarioError) as parsed:
            parse_scenario(text)
        expected = f"line {mark.line + 1}: invalid YAML: {loaded.value}"
        assert str(parsed.value) == REFUSED_DOCUMENTS.get(name, expected)

    @pytest.mark.parametrize("loader", LOADERS, ids=LOADER_IDS)
    def test_alias_gives_the_same_object(self, loader):
        data = construct("a: &l [1, 2]\nb: *l\nc: {d: *l}\n", loader)
        assert data["a"] is data["b"] is data["c"]["d"]
        looped = construct("&a [1, *a]\n", loader)
        assert looped[1] is looped

    @pytest.mark.parametrize("loader", LOADERS, ids=LOADER_IDS)
    def test_node_graph_is_freed_before_validation(self, monkeypatch, loader):
        # Kept alive through build_model, the graph's thousands of nodes
        # would be promoted to the collector's oldest generation.
        loaders = []

        class Recording(loader):
            def __init__(self, stream):
                super().__init__(stream)
                loaders.append(weakref.ref(self))

        alive = []
        real_build_model = scenario_module.build_model

        def build_model(*args):
            alive.extend(ref() is not None for ref in loaders)
            return real_build_model(*args)

        monkeypatch.setattr(scenario_module, "_YAML_LOADER", Recording)
        monkeypatch.setattr(scenario_module, "build_model", build_model)
        parse_scenario(read_by_libyaml(PACKAGED_KNIFE.read_text(encoding="utf-8")))
        assert alive == [False]

    @pytest.mark.parametrize("loader", LOADERS, ids=LOADER_IDS)
    def test_alias_doubling_stays_linear(self, monkeypatch, loader):
        # Level k holds 2**k leaves; built once per node, 40 levels are 41 lists.
        lines = ["horizon: 5", "sensors:", "- &l0 [x, x]"]
        lines += [f"- &l{k} [*l{k - 1}, *l{k - 1}]" for k in range(1, 41)]
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", loader)
        start = time.perf_counter()
        with pytest.raises(ScenarioError, match=r"^sensors\[0\]: expected a mapping"):
            parse_scenario("\n".join(lines) + "\n")
        assert time.perf_counter() - start < 1.0


# Plain scalars of every kind, and quoted ones, that a scenario can hold.
YAML_SCALARS = [
    "text", "two words", "a-b", "x.y", "1.2.3", "'quoted'", '"double"', "'12'", "''", '"~"',
    "0", "12", "-7", "+12", "0x1F", "-0x1F", "0o17", "017", "0b101", "1_000", "190:20:30",
    "1.5", "-2.25", "6.8523015e+5", ".inf", "-.Inf", "1_0.5", "190:20:30.15", ".5",
    "true", "False", "yes", "NO", "on", "Off",
    "~", "null", "Null",
]


def random_yaml_document(rng):
    """A YAML document drawn from ``rng`` that a scenario can hold and that
    repeats no key in any mapping: block and flow mappings and sequences
    nested up to four deep, scalars of ``YAML_SCALARS``, anchors on
    scalars and collections, aliases to nodes already complete, and ``<<``
    merges of an alias, a list of aliases or a mapping written in place,
    whose merged mappings may merge in turn."""
    names = iter(range(10**6))
    # The anchors of complete nodes, and of complete mappings.
    done, mappings = [], []

    def anchored():
        """An anchor to put on a new node, "" for none, and its name."""
        if rng.random() < 0.25:
            name = f"a{next(names)}"
            return f"&{name} ", name
        return "", None

    def finish(name, is_mapping):
        if name is not None:
            done.append(name)
            if is_mapping:
                mappings.append(name)

    def keys():
        """Distinct keys, each written plain or quoted."""
        drawn = rng.sample(range(10), rng.randint(0, 4))
        return [rng.choice([f"k{k}", f"'k{k}'", f'"k{k}"']) for k in drawn]

    def merge(depth):
        """The value of a merge key, or None for a mapping with none."""
        choice = rng.random()
        if mappings and choice < 0.3:
            return f"*{rng.choice(mappings)}"
        if mappings and choice < 0.5:
            merged = rng.sample(mappings, min(3, len(mappings)))
            return "[" + ", ".join(f"*{m}" for m in merged) + "]"
        if choice < 0.65 and depth < 4:
            return flow_mapping(depth + 1)
        return None

    def entries(depth, write):
        """The written entries of a mapping, in text order, each key's by
        ``write(key)`` and a merge key's by ``write("<<", value)``."""
        drawn = keys()
        at = rng.randint(0, len(drawn))
        written = []
        for i, key in enumerate([*drawn, None]):
            if i == at and (value := merge(depth)) is not None:
                written.append(write("<<", value))
            if key is not None:
                written.append(write(key))
        return written

    def flow_mapping(depth):
        anchor, name = anchored()
        pairs = entries(depth, lambda key, value=None: f"{key}: {value or flow(depth + 1)}")
        finish(name, True)
        return anchor + "{" + ", ".join(pairs) + "}"

    def flow(depth):
        choice = rng.random()
        if done and choice < 0.15:
            return f"*{rng.choice(done)}"
        if depth < 4 and choice < 0.35:
            anchor, name = anchored()
            items = ", ".join(flow(depth + 1) for _ in range(rng.randint(0, 3)))
            finish(name, False)
            return f"{anchor}[{items}]"
        if depth < 4 and choice < 0.5:
            return flow_mapping(depth)
        anchor, name = anchored()
        text = anchor + rng.choice(YAML_SCALARS)
        finish(name, False)
        return text

    def block(head, indent, depth):
        """The lines of a node that follows ``head`` ("key:" or "-", with
        its indent), its children indented ``indent``."""
        choice = rng.random()
        pad = " " * indent
        if depth < 4 and choice < 0.3:
            anchor, name = anchored()
            lines = [f"{head} {anchor}".rstrip()]

            def write(key, value=None):
                if value is None:
                    return block(f"{pad}{key}:", indent + 2, depth + 1)
                return [f"{pad}{key}: {value}"]

            pairs = entries(depth, write)
            finish(name, True)
            if not pairs:
                return [f"{head} {anchor}{{}}"]
            return lines + [line for pair in pairs for line in pair]
        if depth < 4 and choice < 0.5:
            anchor, name = anchored()
            items = [block(f"{pad}-", indent + 2, depth + 1) for _ in range(rng.randint(0, 3))]
            if not items:
                return [f"{head} {anchor}[]"]
            finish(name, False)
            return [f"{head} {anchor}".rstrip()] + [line for item in items for line in item]
        comment = " # note" if rng.random() < 0.1 else ""
        return [f"{head} {flow(depth)}{comment}"]

    if rng.random() < 0.2:
        return flow_mapping(0) + "\n"
    lines = []
    for key in keys() or ["k0"]:
        lines += block(f"{key}:", 2, 1)
    return "\n".join(lines) + "\n"


def workload_scenario_texts():
    """The knife text and the generated relay and plant texts."""
    return [PACKAGED_KNIFE.read_text(encoding="utf-8"), *generated_scenario_texts().values()]


class TestLoadYaml:
    """``_load_yaml`` returns what ``yaml.load`` returns with the same
    loader, or raises what it raises, except for the refused edge documents,
    and frees what it built the data from."""

    @pytest.mark.parametrize("loader", LOADERS, ids=LOADER_IDS)
    def test_agrees_with_yaml_load(self, monkeypatch, loader):
        fixtures = importlib.resources.files("causalcps") / "scenarios"
        texts = [*EDGE_DOCUMENTS.items(), *enumerate(workload_scenario_texts())]
        texts += [
            (name, (fixtures / name).read_text(encoding="utf-8"))
            for name in ("chain.yaml", "thermostat.yaml")
        ]
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", loader)
        for name, text in texts:
            ours = built_or_raised(lambda: scenario_module._load_yaml(text, []))
            assert_like_yaml_load(name, text, ours, loader)

    @pytest.mark.parametrize("loader", LOADERS, ids=LOADER_IDS)
    def test_agrees_with_yaml_load_on_random_documents(self, monkeypatch, loader):
        rng = random.Random(2030)
        texts = [random_yaml_document(rng) for _ in range(400)]
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", loader)
        for text in texts:
            repeated = []
            ours = scenario_module._load_yaml(text, repeated)
            assert repeated == [], text
            assert_same_graph(ours, yaml.load(text, Loader=loader))
        # Each feature is drawn often.
        features = Counter()
        for text in texts:
            features.update(
                alias="*" in text,
                merge="<<: " in text,
                list_merge="<<: [*" in text,
                block_collection=bool(re.search(r":\n +(- )?[\w'\"]", text)),
                flow_collection="[" in text or "{" in text,
            )
        assert min(features.values()) >= 60, features

    @pytest.mark.parametrize("loader", LOADERS, ids=LOADER_IDS)
    @pytest.mark.parametrize(
        "text, refused",
        [
            # Containers are filled breadth first: b's value before a's item.
            (
                "a: [!!binary aGk=]\nb: !!binary aGk=\n",
                refusal(2, "scalar", "binary", "value", "aGk="),
            ),
            # A mapping's keys and values are checked pair by pair.
            ("{a: !!binary aGk=, 3: x}\n", refusal(1, "scalar", "binary", "value", "aGk=")),
            # The keys of merged mappings are checked before any value.
            ("{a: !!binary aGk=, <<: {2: y}}\n", refusal(1, "scalar", "int", "mapping key", "2")),
            # Repeated keys are reported once the data is built.
            ("a: 1\na: 2\nb: !!binary aGk=\n", refusal(3, "scalar", "binary", "value", "aGk=")),
            # A tagged number with no digits is refused, not a crash.
            ("a: !!int ''\n", refusal(1, "scalar", "int", "value", "")),
            ("a: [!!float '']\n", refusal(1, "scalar", "float", "value", "")),
        ],
        ids=["breadth first", "pair by pair", "merge walk first", "repeats last", "int", "float"],
    )
    def test_which_refusal_is_named(self, monkeypatch, loader, text, refused):
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", loader)
        with pytest.raises(ScenarioError) as error:
            parse_scenario(text)
        assert str(error.value) == refused

    @pytest.mark.parametrize("loader", LOADERS, ids=LOADER_IDS)
    def test_a_parse_leaves_no_cyclic_garbage(self, monkeypatch, loader):
        # Garbage in a cycle waits for the collector, which then also walks
        # every object the caller holds.
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", loader)
        texts = list(map(read_by_libyaml, workload_scenario_texts()))
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for text in texts:
                parse_scenario(text)
                assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_no_path_resolvers_are_registered(self):
        # With one, a tag would depend on the node's place in the document,
        # and the block reader's _implicit_tag, which reads the implicit
        # resolvers alone, would not be exact.
        assert not scenario_module._YAML_LOADER.yaml_path_resolvers
        assert not yaml.SafeLoader.yaml_path_resolvers


class TestRoundTrip:
    @pytest.mark.parametrize(
        "fixture",
        [
            knife_fixture,
            chain_fixture,
            thermostat_fixture,
            *(
                pytest.param(
                    lambda name=name: parse_scenario(generated_scenario_texts()[name]), id=name
                )
                for name in ("relay-diagnose", "plant-monitor")
            ),
            pytest.param(
                lambda: parse_scenario(one_parameter_table_text(2000)), id="transition-table"
            ),
        ],
    )
    def test_serialize_parse_identity(self, fixture):
        doc = fixture()
        assert parse_scenario(serialize_scenario(doc)) == doc

    def test_parameters_keep_every_digit(self):
        text = REPO_KNIFE.read_text().replace("normal(800, 10)", "normal(20.123456789, 2)")
        doc = parse_scenario(text)
        assert doc.build().sensor("oven_temp").distribution("Hot") == Normal(20.123456789, 2)
        assert parse_scenario(serialize_scenario(doc)) == doc

    def test_double_round_trip_is_stable(self):
        doc = knife_fixture()
        once = serialize_scenario(doc)
        twice = serialize_scenario(parse_scenario(once))
        assert once == twice

    def test_bundled_scenario_file_matches_fixture(self):
        assert parse_scenario(REPO_KNIFE.read_text()) == knife_fixture()

    def test_knife_fixture_loads_the_packaged_file(self, monkeypatch):
        parsed = []

        def spy(text):
            parsed.append(text)
            return "parsed"

        monkeypatch.setattr(scenario_module, "parse_scenario", spy)
        assert knife_fixture() == "parsed"
        assert parsed == [PACKAGED_KNIFE.read_text(encoding="utf-8")]

    @pytest.mark.parametrize(
        "fixture, file_name",
        [(chain_fixture, "chain.yaml"), (thermostat_fixture, "thermostat.yaml")],
    )
    def test_fixture_loads_its_packaged_file(self, monkeypatch, fixture, file_name):
        parsed = []

        def spy(text):
            parsed.append(text)
            return "parsed"

        monkeypatch.setattr(scenario_module, "parse_scenario", spy)
        assert fixture() == "parsed"
        packaged = importlib.resources.files("causalcps") / "scenarios" / file_name
        assert parsed == [packaged.read_text(encoding="utf-8")]

    def test_repo_scenario_path_links_to_the_packaged_file(self):
        assert REPO_KNIFE.is_symlink()
        assert REPO_KNIFE.read_bytes() == PACKAGED_KNIFE.read_bytes()


# Names that YAML would read as something other than a plain string, or
# that hold characters a CSV field or YAML scalar must carry through.
TRICKY_NAMES = [
    "yes", "No", "null", "~", "12", "0x1F", "1.5", ".inf", "1:30", "2002-12-14", "- a", "#x",
    "a: b", "'q'", "[l]", "{m}", " lead", "trail ", "\u00e9t\u00e9", "\u0663", "tab\there",
    "&a", "*a", "!t", "%p", "@at", "`b", "a+b", "x|y",
]


def random_scenario_text(rng):
    """A valid scenario drawn from ``rng``, as YAML text: one to six
    sensors of normal, uniform and point-mass states, subsystems of every
    kind over random proper subsets with disjoint guards, functionalities
    when a module and product sensors exist, and a script of interventions
    and faults."""

    def fresh(taken, ids=False):
        while True:
            text = rng.choice([*TRICKY_NAMES, f"n{rng.randrange(100)}"])
            if ids:
                text = text.replace("+", "_").replace("|", "_")
            if text not in taken and text != "ANOMALOUS":
                taken.add(text)
                return text

    def dist():
        kind = rng.randrange(3)
        if kind == 0:
            return f"normal({rng.uniform(-1e3, 1e3)!r}, {rng.choice([rng.uniform(0.01, 50), 2])!r})"
        if kind == 1:
            lo = rng.choice([rng.uniform(-100, 100), rng.randint(-5, 5)])
            return f"uniform({lo!r}, {lo + rng.uniform(0.001, 50)!r})"
        return f"degenerate({rng.choice([rng.uniform(-1e6, 1e6), rng.randint(-9, 9)])!r})"

    ids = set()
    sensors = []
    for _ in range(rng.randint(1, 6)):
        sensor_id = fresh(ids, ids=True)
        taken = set()
        texts = list(dict.fromkeys(dist() for _ in range(rng.randint(1, 4))))
        states = [{"label": fresh(taken), "dist": text} for text in texts]
        initial = rng.choice([state["label"] for state in states])
        sensors.append({"id": sensor_id, "initial": initial, "states": states})
    labels = {sensor["id"]: [s["label"] for s in sensor["states"]] for sensor in sensors}
    sensor_ids = list(labels)

    def table(owned):
        """Rules whose guards differ on one pivot sensor, so none overlap."""
        pivot = rng.choice(owned)
        rules = []
        for label in rng.sample(labels[pivot], rng.randint(0, len(labels[pivot]))):
            guard = {pivot: label}
            other = rng.choice(owned)
            if other != pivot and rng.random() < 0.3:
                guard[other] = rng.choice(labels[other])
            effects = []
            for _ in range(rng.randint(0, 2)):
                target = rng.choice(sensor_ids)
                state = rng.choice(labels[target])
                effects.append({"sensor": target, "state": state, "delay": rng.randint(1, 4)})
            rules.append({"when": guard, "then": effects})
        if len(rules) == 1 and rng.random() < 0.3:
            rules[0]["when"] = {}
        return rules

    subsystems = []
    if len(sensor_ids) > 1:
        taken = set(ids)
        for _ in range(rng.randint(1, 4)):
            owned = rng.sample(sensor_ids, rng.randint(1, len(sensor_ids) - 1))
            kind = rng.choice(["component", "module", "product"])
            subsystem = {"id": fresh(taken, ids=True), "kind": kind, "sensors": owned}
            subsystem["rules"] = table(owned)
            subsystems.append(subsystem)
    modules = [s["id"] for s in subsystems if s["kind"] == "module"]
    products = sorted({sid for s in subsystems if s["kind"] == "product" for sid in s["sensors"]})
    functionalities = []
    names = set()
    for _ in range(rng.randint(0, 2) if modules and products else 0):
        domain = rng.sample([0, 1, 2.5, 25, 100, -3, 0.125], rng.randint(1, 3))
        transitions = []
        for param in domain:
            pivot = rng.choice(products)
            for label in rng.sample(labels[pivot], rng.randint(0, len(labels[pivot]))):
                written = rng.choice(products)
                effect = {written: rng.choice(labels[written])}
                transitions.append({"param": param, "when": {pivot: label}, "then": effect})
        functionalities.append(
            {
                "module": rng.choice(modules),
                "name": fresh(names),
                "parameters": domain,
                "duration": rng.randint(1, 9),
                "transitions": transitions,
            }
        )
    horizon = rng.randint(1, 40)
    interventions = []
    for _ in range(rng.randint(0, 4)):
        sensor_id = rng.choice(sensor_ids)
        state = rng.choice(labels[sensor_id])
        interventions.append({"tick": rng.randrange(horizon), "sensor": sensor_id, "state": state})
    faults = []
    for subsystem in rng.sample(subsystems, rng.randint(0, min(2, len(subsystems)))):
        rules = table(subsystem["sensors"])
        faults.append(
            {"component": subsystem["id"], "activation": rng.randrange(horizon), "rules": rules}
        )
    document = {
        "name": fresh(set()),
        "seed": rng.randrange(10**6),
        "horizon": horizon,
        "detection": {
            "window": rng.randint(1, 10),
            "stride": rng.randint(1, 5),
            "alpha": rng.uniform(0.001, 0.2),
        },
        "sensors": sensors,
        "subsystems": subsystems,
        "functionalities": functionalities,
        "script": {"interventions": interventions, "faults": faults},
    }
    return yaml.safe_dump(document, sort_keys=False, default_flow_style=rng.choice([False, None]))


@functools.lru_cache(maxsize=None)
def random_scenario_texts():
    """300 texts drawn by ``random_scenario_text`` from a fixed seed."""
    rng = random.Random(2028)
    return tuple(random_scenario_text(rng) for _ in range(300))


class TestRandomScenarios:
    """Documents drawn from a seeded generator keep their content through
    serialize and parse, and their simulated traces their bytes through
    export and import."""

    def test_serialize_parse_and_trace_csv_round_trips(self):
        drawn = Counter()
        for text in random_scenario_texts():
            doc = parse_scenario(text)
            assert parse_scenario(serialize_scenario(doc)) == doc
            trace = doc.run()
            text = export_trace(trace)
            assert export_trace(import_trace(text)) == text
            assert export_trace(import_trace(text, doc.build())) == text
            drawn.update(
                subsystems=bool(doc.subsystems),
                functionalities=bool(doc.functionalities),
                interventions=bool(doc.interventions),
                faults=bool(doc.faults),
            )
        assert min(drawn.values()) >= 30, drawn


# Plain scalars that YAML reads as something other than their text, or that
# a block layout cannot hold as they are; each is also tried single-quoted.
# The long identifiers straddle the lengths past which safe_dump writes a key
# as an explicit "? " key (122) and libyaml refuses a plain key (1,024).
BLOCK_TRAPS = [
    *TRICKY_NAMES,
    "-", "- x", "?", ":", "a:b", "1e3", "1.0e+3", "017", "0b1", "Off",
    "'it''s'", "''", "[ ]", "{a: 1}",
    "-1", "-25.0", "-x", "--", "---", "- -1", "-.inf", "-0x1F", "-#",
    *("k" * length for length in (122, 123, 128, 1024, 1100)),
]


def quoted(text):
    return "'" + text.replace("'", "''") + "'"


def block_mutations(text, rng, lines_per_edit, every_trap):
    """Edits of the block-layout ``text``, each with a name: line edits on
    ``lines_per_edit`` lines drawn by ``rng``, edits of the whole text, and
    each of ``BLOCK_TRAPS`` in place of a value and of a key on lines drawn
    by ``rng``: plain and quoted, as a sequence item, as the value of a key
    and as two keys if ``every_trap``, else in one style, on one line, as a value or as a key."""
    lines = text[:-1].split("\n")

    def joined(edited):
        return "\n".join(edited) + "\n"

    def keyed(line):
        """(indent and "- ", key, ": " or ":", value) of a key line, else None."""
        body = line.lstrip(" ")
        lead = line[: len(line) - len(body)]
        if body.startswith("- "):
            lead, body = lead + "- ", body[2:]
        key, colon, value = body.partition(": ")
        if colon:
            return lead, key, colon, value
        if body.endswith(":"):
            return lead, body[:-1], ":", ""
        return None

    for i in rng.sample(range(len(lines)), min(lines_per_edit, len(lines))):
        line = lines[i]
        depth = len(line) - len(line.lstrip(" "))
        yield f"delete {i}", joined(lines[:i] + lines[i + 1 :])
        yield f"duplicate {i}", joined(lines[: i + 1] + lines[i:])
        if i + 1 < len(lines):
            yield f"join {i}", joined(lines[:i] + [line + lines[i + 1]] + lines[i + 2 :])
        for shift in (-2, -1, 1, 2):
            if depth + shift >= 0:
                moved = " " * (depth + shift) + line.lstrip(" ")
                yield f"indent {i} by {shift}", joined(lines[:i] + [moved] + lines[i + 1 :])
        for tail in (" #c", " "):
            yield f"append {tail!r} to {i}", joined(lines[:i] + [line + tail] + lines[i + 1 :])
        parts = keyed(line)
        if parts and parts[3]:
            lead, key, _, value = parts
            head, space, rest = value.partition(" ")
            first = f"{lead}{key}: {head}" if space else f"{lead}{key}:"
            continued = " " * (len(lead) + 2) + (rest if space else value)
            split = lines[:i] + [first, continued] + lines[i + 1 :]
            yield f"split {i}", joined(split)
    yield "no final newline", text[:-1]
    at = rng.randrange(1, len(lines))
    yield "blank line", joined(lines[:at] + [""] + lines[at:])
    yield "document start", "---\n" + text
    yield "document end", text + "...\n"
    yield "CRLF", text.replace("\n", "\r\n")
    yield "tab after a colon", text.replace(": ", ":\t", 1)
    yield "tab indent", text.replace("\n  ", "\n\t", 1)

    def has_value(line):
        parts = keyed(line)
        return bool(parts[3]) if parts else line.lstrip(" ").startswith("- ")

    values = [i for i, line in enumerate(lines) if has_value(line)]
    items = [i for i in values if not keyed(lines[i])]
    keys = [i for i, line in enumerate(lines) if keyed(line)]

    def with_value(i, written):
        lead, key, colon, _ = keyed(lines[i]) or (lines[i].partition("- ")[0] + "- ", "", "", "")
        return joined(lines[:i] + [f"{lead}{key}{colon}{written}"] + lines[i + 1 :])

    def with_key(i, written):
        lead, _, colon, value = keyed(lines[i])
        return joined(lines[:i] + [f"{lead}{written}{colon}{value}"] + lines[i + 1 :])

    for trap in BLOCK_TRAPS:
        if every_trap:
            for written in (trap, quoted(trap)):
                # One item of a sequence and one value of a key.
                for i in (rng.choice(items), rng.choice(sorted(set(values) - set(items)))):
                    yield f"value {i} as {written!r}", with_value(i, written)
                for i in rng.sample(keys, 2):
                    yield f"key {i} as {written!r}", with_key(i, written)
        else:
            written = rng.choice([trap, quoted(trap)])
            if rng.random() < 0.5:
                i = rng.choice(values)
                yield f"value {i} as {written!r}", with_value(i, written)
            else:
                i = rng.choice(keys)
                yield f"key {i} as {written!r}", with_key(i, written)


def block_reader_corpus():
    """The fixtures, the generated workload scenarios, the texts of
    ``TestRandomScenarios`` and their serializations, the edge documents
    and edits of the knife, relay and plant texts, each with a name."""
    fixtures = importlib.resources.files("causalcps") / "scenarios"
    texts = {
        name: (fixtures / name).read_text(encoding="utf-8")
        for name in ("knife.yaml", "chain.yaml", "thermostat.yaml")
    }
    texts.update(generated_scenario_texts())
    for i, text in enumerate(random_scenario_texts()):
        texts[f"random {i}"] = text
        texts[f"random {i} serialized"] = serialize_scenario(parse_scenario(text))
    texts.update(EDGE_DOCUMENTS)
    rng = random.Random(2029)
    edits = [("knife.yaml", 12, True), ("relay-diagnose", 6, False), ("plant-monitor", 4, False)]
    for source, lines_per_edit, every_trap in edits:
        for name, text in block_mutations(texts[source], rng, lines_per_edit, every_trap):
            texts[f"{source}: {name}"] = text
    return texts


def parse_outcome(text):
    """``parse_scenario``'s document for ``text``, or the type and text of
    what it raises."""
    try:
        return "document", parse_scenario(text)
    except Exception as exc:
        return "error", type(exc), str(exc)


class TestBlockReader:
    """The block reader takes the layout that ``yaml.safe_dump`` writes and
    gives what the libyaml path gives; it leaves every other text, and so
    every error, to that path."""

    def test_agrees_with_the_libyaml_path_on_corpus(self, monkeypatch):
        corpus = block_reader_corpus()
        # Each parse records whether the libyaml path ran: a text the reader
        # refuses has its outcome from that path alone already.
        by_libyaml = []
        read_yaml = scenario_module._read_yaml

        def recording(text):
            by_libyaml.append(text)
            return read_yaml(text)

        monkeypatch.setattr(scenario_module, "_read_yaml", recording)
        outcomes = {}
        read = {}
        for name, text in corpus.items():
            by_libyaml.clear()
            outcomes[name] = parse_outcome(text)
            data = scenario_module._read_block(text)
            assert by_libyaml == ([] if data is not None else [text]), name
            if data is not None:
                repeated = []
                assert_same_graph(data, scenario_module._load_yaml(text, repeated))
                assert repeated == []
                read[name] = data
        monkeypatch.setattr(scenario_module, "_read_block", lambda text: None)
        for name in read:
            assert outcomes[name] == parse_outcome(corpus[name]), name
        # Both paths are exercised, and the reader takes edited texts that
        # hold traps, refused ones among them.
        taken = [name for name in read if ": " in name]
        assert len(read) >= 200 and len(corpus) - len(read) >= 1000, (len(read), len(corpus))
        assert sum(" as " in name for name in taken) >= 100
        assert any(outcomes[name][0] == "error" for name in taken)

    def test_reads_the_scenarios_without_a_loader(self, monkeypatch):
        fixtures = importlib.resources.files("causalcps") / "scenarios"
        texts = [
            (fixtures / name).read_text(encoding="utf-8")
            for name in ("knife.yaml", "chain.yaml", "thermostat.yaml")
        ]
        texts += generated_scenario_texts().values()
        # A negative number is a plain scalar too.
        negative = texts[0].replace("  parameters:\n  - 0.0\n", "  parameters:\n  - -25.0\n")
        assert negative.count("- -25.0\n") == 1
        texts.append(negative)
        texts += [serialize_scenario(parse_scenario(text)) for text in texts]
        docs = [parse_scenario(read_by_libyaml(text)) for text in texts]
        assert docs[-1].functionalities[0].parameter_domain[0] == -25.0

        class Unused(scenario_module._YAML_LOADER):
            def __init__(self, stream):
                raise AssertionError("the block reader instantiated the loader")

        monkeypatch.setattr(scenario_module, "_YAML_LOADER", Unused)
        for text, doc in zip(texts, docs):
            assert scenario_module._read_block(text) is not None
            assert parse_scenario(text) == doc

    @pytest.mark.parametrize("loader", LOADERS, ids=LOADER_IDS)
    def test_implicit_tag_is_the_loaders_resolution(self, loader):
        instance = loader("")
        try:
            for value in [*BLOCK_TRAPS, "0", "-1", "+.5", "1_0", "0x_1", "190:20:30.15", "NULL"]:
                if value:
                    expected = instance.resolve(yaml.ScalarNode, value, (True, False))
                    assert scenario_module._implicit_tag(value) == expected, value
        finally:
            instance.dispose()

    def test_both_loaders_build_scalars_with_the_safe_constructor(self):
        # The block reader builds scalars with a SafeConstructor of its own.
        safe = yaml.constructor.SafeConstructor
        loader = scenario_module._YAML_LOADER
        assert loader.construct_scalar is safe.construct_scalar
        for tag in scenario_module._PLAIN_TAGS:
            assert loader.yaml_constructors[tag] is safe.yaml_constructors[tag]

    def test_each_distinct_scalar_is_built_once_per_parse(self, monkeypatch):
        calls = []
        real = scenario_module._block_scalar

        def recording(text, constructor):
            calls.append(text)
            return real(text, constructor)

        monkeypatch.setattr(scenario_module, "_block_scalar", recording)
        for text in workload_scenario_texts():
            calls.clear()
            parse_scenario(text)
            first = list(calls)
            assert len(first) == len(set(first)) > 20
            # Nothing built is kept for the next parse.
            calls.clear()
            parse_scenario(text)
            assert calls == first

    def test_a_parse_leaves_no_cyclic_garbage(self):
        texts = workload_scenario_texts()
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for text in texts:
                assert scenario_module._read_block(text) is not None
                parse_scenario(text)
                assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestKnifeFixtureContent:
    def test_expected_sensors_present(self, knife_model):
        expected = {
            "burner_cmd",
            "burner_set",
            "lid_cmd",
            "lid_state",
            "quench_cmd",
            "oven_temp",
            "knife_temp",
            "knife_hardness",
        }
        assert set(knife_model.sensor_ids()) == expected

    def test_kind_tags(self, knife_model):
        kinds = {s.id: s.kind for s in knife_model.subsystems}
        assert kinds["knife"] is SubsystemKind.PRODUCT
        assert kinds["oven"] is SubsystemKind.MODULE
        assert kinds["lid_actuator"] is SubsystemKind.COMPONENT

    def test_lid_fault_is_bundled(self, knife_doc):
        assert any(f.component == "lid_actuator" for f in knife_doc.faults)

    def test_plan_order_matches_script_order(self, knife_doc):
        # The scripted run heats first (burner/lid commands) and quenches
        # later; the planner reproduces that module order.
        from causalcps.planning import plan

        result = plan(knife_doc.planning_problem({"knife_hardness": "Hard"}))
        heat_tick = min(i.tick for i in knife_doc.interventions if i.sensor == "burner_cmd")
        quench_tick = min(
            i.tick for i in knife_doc.interventions if i.sensor == "quench_cmd" and i.state == "On"
        )
        assert [s.module for s in result.steps] == ["oven", "cooler"]
        assert heat_tick < quench_tick


class TestTraceCsv:
    def test_empty_trace_is_header_only(self):
        from causalcps.simulation import Trace

        assert export_trace(Trace.from_columns({}, {})) == "tick,sensor_id,value,state_label\n"

    def test_line_count(self, oven_model):
        from causalcps.simulation import run_script

        trace = run_script(oven_model, 0, 2)
        text = export_trace(trace)
        assert len(text.splitlines()) == 1 + 2 * 3  # header + ticks * sensors

    def test_round_trip_is_bit_exact(self, knife_reference):
        text = export_trace(knife_reference)
        back = import_trace(text)
        assert back.sensor_ids == tuple(sorted(knife_reference.sensor_ids))
        for sensor in knife_reference.sensor_ids:
            assert list(back.values_for(sensor)) == list(knife_reference.values_for(sensor))
            assert back.labels_for(sensor) == knife_reference.labels_for(sensor)

    def test_export_names_the_first_non_finite_value_in_row_order(self):
        from causalcps.simulation import Trace

        inf = float("inf")
        # Columns c, b, a; rows go by tick, then by sensor id: a, b, c.
        for a, message in (
            ([-inf, 0.0, 0.0], "trace tick 0, sensor 'a': non-finite value -inf"),
            ([0.0, 0.0, -inf], "trace tick 1, sensor 'b': non-finite value inf"),
        ):
            trace = Trace.from_columns(
                {"c": [0.0, math.nan, 0.0], "b": [0.0, inf, 0.0], "a": a},
                {sensor: ["X"] * 3 for sensor in "cba"},
            )
            with pytest.raises(ScenarioError) as error:
                export_trace(trace)
            assert str(error.value) == message

    def test_export_is_byte_deterministic(self, knife_reference):
        assert export_trace(knife_reference) == export_trace(knife_reference)

    def test_rows_sorted_by_tick_then_sensor(self, knife_reference):
        lines = export_trace(knife_reference).splitlines()[1:]
        keys = [(int(line.split(",")[0]), line.split(",")[1]) for line in lines]
        assert keys == sorted(keys)

    def test_import_rejects_bad_header(self):
        with pytest.raises(ScenarioError, match="header"):
            import_trace("nope,nope\n")

    def test_import_rejects_non_contiguous_ticks(self):
        text = (
            "tick,sensor_id,value,state_label\n"
            "0,a,1.0,X\n"
            "2,a,1.0,X\n"
        )
        with pytest.raises(ScenarioError, match="contiguous"):
            import_trace(text)

    def test_import_rejects_missing_row_naming_tick_and_sensor(self):
        text = (
            "tick,sensor_id,value,state_label\n"
            "0,a,1.0,X\n"
            "0,b,1.0,X\n"
            "1,b,1.0,X\n"
        )
        with pytest.raises(ScenarioError, match="tick 1: no row for sensor 'a'"):
            import_trace(text)

    def test_import_rejects_duplicate_row_naming_its_row(self):
        text = (
            "tick,sensor_id,value,state_label\n"
            "0,a,1.0,X\n"
            "0,a,2.0,X\n"
        )
        with pytest.raises(ScenarioError, match="row 3: second row for tick 0, sensor 'a'"):
            import_trace(text)

    @pytest.mark.parametrize(
        "row,message",
        [
            ("0,oven_temp,1.0,Bogus", "row 2: sensor 'oven_temp' has no state 'Bogus'"),
            ("0,nowhere,1.0,Hot", "row 2: unknown sensor id 'nowhere'"),
        ],
    )
    def test_import_with_model_rejects_what_the_model_lacks(self, knife_model, row, message):
        text = f"tick,sensor_id,value,state_label\n{row}\n"
        with pytest.raises(ScenarioError, match=message):
            import_trace(text, knife_model)

    def test_import_with_model_rejects_a_sensor_without_rows(self, knife_model, knife_reference):
        # Read as nominal, an unmeasured sensor would turn the diagnosis.
        text = export_trace(knife_reference)
        kept = "".join(line for line in text.splitlines(True) if ",lid_state," not in line)
        assert "lid_state" not in import_trace(kept).sensor_ids
        for without, sensor in (
            (kept, "lid_state"),
            (kept.replace("\n", "\r\n"), "lid_state"),
            (TRACE_HEADER, knife_model.sensors[0].id),
        ):
            with pytest.raises(ScenarioError) as error:
                import_trace(without, knife_model)
            assert str(error.value) == f"trace CSV: no rows for sensor {sensor!r}"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_import_rejects_non_finite_value_naming_its_row(self, value):
        text = (
            "tick,sensor_id,value,state_label\n"
            "0,a,1.0,X\n"
            f"1,a,{value},X\n"
        )
        with pytest.raises(ScenarioError, match="row 3: non-finite value"):
            import_trace(text)


def numbered_rows(text):
    """``csv.reader``'s rows with their numbers from 1; a ``csv.Error`` is
    raised as a ScenarioError that names the row it stopped in."""
    reader = csv.reader(io.StringIO(text))
    row_number = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ScenarioError(f"trace CSV row {row_number}: {exc}") from None
        yield row_number, row
        row_number += 1


def row_loop_import_trace(text, model=None):
    """The row-at-a-time trace CSV reader that the columnar ``import_trace``
    replaced, kept as its oracle.  Returns the sensor ids and, per tick, a
    dict of values and a dict of labels by sensor id."""
    rows = numbered_rows(text)
    _, header = next(rows, (1, None))
    if header != ["tick", "sensor_id", "value", "state_label"]:
        raise ScenarioError(f"unexpected trace CSV header: {header}")
    states = None if model is None else {s.id: s.labels() for s in model.sensors}
    by_tick = {}
    sensor_ids = {}
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
        values, labels = by_tick.setdefault(tick, ({}, {}))
        if sensor_id in values:
            raise ScenarioError(
                f"trace CSV row {row_number}: second row for tick {tick}, sensor {sensor_id!r}"
            )
        values[sensor_id] = value
        labels[sensor_id] = label
        sensor_ids.setdefault(sensor_id)
    ticks = range(len(by_tick))
    if sorted(by_tick) != list(ticks):
        raise ScenarioError("trace CSV ticks are not contiguous from 0")
    for t in ticks:
        values = by_tick[t][0]
        if len(values) != len(sensor_ids):
            missing = next(sid for sid in sensor_ids if sid not in values)
            raise ScenarioError(f"trace CSV tick {t}: no row for sensor {missing!r}")
    for sensor_id in states or ():
        if sensor_id not in sensor_ids:
            raise ScenarioError(f"trace CSV: no rows for sensor {sensor_id!r}")
    return tuple(sensor_ids), [by_tick[t] for t in ticks]


def row_join_export_trace(trace):
    """The trace CSV writer that joined each row on its own, which the
    slot-filling ``export_trace`` replaced, kept as its oracle."""
    order = sorted(range(len(trace.sensor_ids)), key=trace.sensor_ids.__getitem__)
    ids = [trace.sensor_ids[j] for j in order]
    finite = np.isfinite(trace.values[:, order])
    if not finite.all():
        t, k = np.argwhere(~finite)[0].tolist()
        value = trace.values[t, order[k]].item()
        raise ScenarioError(f"trace tick {t}, sensor {ids[k]!r}: non-finite value {value!r}")
    ends = [label + "\n" for j in order for label in trace.label_tables[j]]
    offsets = np.cumsum([0] + [len(trace.label_tables[j]) for j in order[:-1]], dtype=np.intp)
    ticks = [str(t) for t in range(len(trace)) for _ in ids]
    values = map(repr, trace.values[:, order].ravel().tolist())
    states = map(ends.__getitem__, (trace.codes[:, order] + offsets).ravel().tolist())
    rows = map(",".join, zip(ticks, ids * len(trace), values, states))
    return "tick,sensor_id,value,state_label\n" + "".join(rows)


class TestExportAgreesWithRowJoin:
    def test_same_bytes(self, knife_reference, knife_lid_fault_trace, chain_doc, thermostat_doc):
        from causalcps.simulation import Trace

        edge_values = [-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2]
        traces = {
            "knife reference": knife_reference,
            "knife faulty": knife_lid_fault_trace,
            "chain": chain_doc.run(),
            "thermostat": thermostat_doc.run(),
            "empty": Trace.from_columns({}, {}),
            "no ticks": Trace.from_columns({"a": []}, {"a": []}),
            "one sensor": Trace.from_columns({"only": [1.5, -2.0, 3.25]}, {"only": ["B", "A", "B"]}),
            "unicode ids": Trace.from_columns(
                {"t\u00e9mp": [1.0, 2.0], "\u6e29\u5ea6": [3.0, 4.0]},
                {"t\u00e9mp": ["\u00c9t\u00e9", "Hiver"], "\u6e29\u5ea6": ["\u9ad8", "\u9ad8"]},
            ),
            "edge values": Trace.from_columns(
                {"z": edge_values, "a": edge_values[::-1]},
                {"z": ["X"] * 5, "a": ["Y", "X", "Y", "X", "Y"]},
            ),
        }
        for name, trace in traces.items():
            assert export_trace(trace) == row_join_export_trace(trace), name
        assert export_trace(traces["edge values"]).splitlines()[1:6] == [
            "0,a,0.30000000000000004,Y",
            "0,z,-0.0,X",
            "1,a,1e-05,X",
            "1,z,5e-324,X",
            "2,a,1e+16,Y",
        ]


TRACE_HEADER = "tick,sensor_id,value,state_label\n"


def trace_csv_corpus(valid_texts):
    """(name, text) pairs: each valid text and variants of it that keep or
    break it, plus hand-written texts for every rejection ``import_trace``
    names."""
    rng = random.Random(20261018)
    for name, text in valid_texts:
        header, *rows = text.splitlines(keepends=True)
        yield name, text
        shuffled = rows[:]
        rng.shuffle(shuffled)
        yield f"{name} shuffled", header + "".join(shuffled)
        spaced = rows[:]
        for _ in range(5):
            spaced.insert(rng.randrange(len(spaced) + 1), "\n")
        yield f"{name} blank lines", header + "\n" + "".join(spaced) + "\n\n"
        yield f"{name} CRLF", text.replace("\n", "\r\n")
        yield f"{name} no final newline", text.rstrip("\n")
        quoted = [
            ",".join(f'"{field}"' for field in row.rstrip("\n").split(",")) + "\n"
            if i % 7 == 0
            else row
            for i, row in enumerate(rows)
        ]
        yield f"{name} quoted fields", header + "".join(quoted)
        # One edit at a row in the middle of the file, and the same edit at
        # the last row, so that the first bad row in file order must be found.
        for at in (len(rows) // 2, len(rows) - 1):
            tick, sensor, value, label = rows[at].rstrip("\n").split(",")
            edits = {
                "three columns": f"{tick},{sensor},{value}\n",
                "five columns": f"{tick},{sensor},{value},{label},x\n",
                "bad tick": f"x{tick},{sensor},{value},{label}\n",
                "fractional tick": f"{tick}.0,{sensor},{value},{label}\n",
                "bad value": f"{tick},{sensor},{value}x,{label}\n",
                "empty value": f"{tick},{sensor},,{label}\n",
                "nan": f"{tick},{sensor},nan,{label}\n",
                "-inf": f"{tick},{sensor},-inf,{label}\n",
                "unknown sensor": f"{tick},{sensor}_x,{value},{label}\n",
                "unknown label": f"{tick},{sensor},{value},{label}_x\n",
                "negative zero": f"{tick},{sensor},-0.0,{label}\n",
                "spaced tick, underscored value": f" {tick} ,{sensor},1_0.5,{label}\n",
                "missing row": "",
                "duplicate row": rows[at] * 2,
                "duplicate of the first row": rows[0],
                "gap in ticks": f"{int(tick) + 10**6},{sensor},{value},{label}\n",
                "huge tick": f"{10**30},{sensor},{value},{label}\n",
                "negative tick": f"-1,{sensor},{value},{label}\n",
            }
            for edit, row in edits.items():
                edited = rows[:at] + [row] + rows[at + 1 :]
                yield f"{name} {edit} at row {at + 2}", header + "".join(edited)
        # Rows that keep or break export's layout (ticks 0..T-1 in order, each
        # listing the same distinct sensors in the same order).
        width = sum(row.startswith("0,") for row in rows)
        ticks = [rows[i : i + width] for i in range(0, len(rows), width)]
        middle = len(ticks) // 2
        reordered = [tick[k] for tick in ticks for k in reversed(range(width))]
        yield f"{name} same unsorted sensor order on every tick", header + "".join(reordered)
        swapped = [row for tick in ticks for row in tick]
        at = middle * width
        swapped[at : at + 2] = swapped[at + 1], swapped[at]
        yield f"{name} two rows of one tick swapped", header + "".join(swapped)
        padded = [f"0{row}" if t == middle else row for t, tick in enumerate(ticks) for row in tick]
        yield f"{name} zero-padded tick", header + "".join(padded)
        repeated = [row for tick in ticks for row in (tick[0], *tick[1:width - 1], tick[0])]
        yield f"{name} sensor repeated within every tick", header + "".join(repeated)
        # A short row and a long row whose fields would line up again.
        misaligned = rows[:]
        misaligned[1] = misaligned[1].rstrip("\n").rsplit(",", 1)[0] + "\n"
        misaligned[2] = "X," + misaligned[2]
        yield f"{name} compensating column counts", header + "".join(misaligned)
        # A bad value late and a duplicate early: the duplicate's row is named.
        late = rows[: len(rows) - 1] + ["0,x,nan,y\n"]
        yield f"{name} duplicate before bad value", header + rows[0] + "".join(late)
    yield "empty text", ""
    yield "blank header line", "\n" + TRACE_HEADER
    yield "header only", TRACE_HEADER
    yield "header without newline", TRACE_HEADER.rstrip("\n")
    yield "not from zero", TRACE_HEADER + "1,a,1.0,X\n2,a,1.0,X\n"
    unicode_rows = "0,t\u00e9mp\u00e9rature,1.5,\u6e29\n1,t\u00e9mp\u00e9rature,2.5,\u6e29\n"
    yield "unicode ids", TRACE_HEADER + unicode_rows
    yield "quoted comma", TRACE_HEADER + '0,a,1.0,"X,Y"\n1,a,2.0,"X,Y"\n'
    yield "lone carriage return", TRACE_HEADER + "0,a,1.0,X\r1,a,2.0,X\n"
    huge = '0,a,1.0,"' + "X" * (csv.field_size_limit() + 1) + '"\n'
    yield "quoted field over the csv size limit", TRACE_HEADER + huge
    yield "bad tick before a field over the limit", TRACE_HEADER + "x,a,1.0,X\n" + huge
    yield "field over the limit in the header", huge + "0,a,1.0,X\n"


def outcome(read, text, model):
    try:
        return read(text, model)
    except ScenarioError as exc:
        return f"{type(exc).__name__}: {exc}"


def agrees_with_row_loop(name, text, model):
    """Assert that ``import_trace`` gives ``text`` the trace or the error
    message of the row loop; return whether the text is accepted."""
    expected = outcome(row_loop_import_trace, text, model)
    got = outcome(import_trace, text, model)
    if isinstance(expected, str):
        assert got == expected, (name, model is not None)
        return False
    assert not isinstance(got, str), (name, model is not None, got)
    sensor_ids, ticks = expected
    assert got.sensor_ids == sensor_ids, name
    if model is None:
        tables = [tuple(sorted({labels[s] for _, labels in ticks})) for s in sensor_ids]
    else:
        known = {sensor.id: sensor.labels() for sensor in model.sensors}
        tables = [known[s] for s in sensor_ids]
    assert got.label_tables == tuple(tables), name
    assert len(got) == len(ticks), name
    assert got.log == (), name
    for sensor in sensor_ids:
        assert got.labels_for(sensor) == [labels[sensor] for _, labels in ticks], name
        mine = got.values_for(sensor).tolist()
        theirs = [values[sensor] for values, _ in ticks]
        assert mine == theirs, name
        assert [v.hex() for v in mine] == [v.hex() for v in theirs], name
    return True


class TestImportAgreesWithRowLoop:
    def test_same_traces_and_messages_on_corpus(
        self, knife_model, knife_reference, knife_lid_fault_trace, oven_model
    ):
        from causalcps.simulation import run_script

        oven = run_script(oven_model, 3, 6, interventions=())
        valid = [
            ("oven", export_trace(oven)),
            ("knife reference", export_trace(knife_reference)),
            ("knife faulty", export_trace(knife_lid_fault_trace)),
        ]
        models = {"oven": oven_model, "knife reference": knife_model, "knife faulty": knife_model}
        checked = accepted = 0
        for name, text in trace_csv_corpus(valid):
            model_of_text = next((m for key, m in models.items() if name.startswith(key)), None)
            for model in (None, model_of_text) if model_of_text else (None,):
                checked += 1
                accepted += agrees_with_row_loop(name, text, model)
        assert accepted >= 20 and checked - accepted >= 100

    @pytest.mark.parametrize(
        "variant,by_column",
        [
            ("", True),
            (" same unsorted sensor order on every tick", True),
            (" shuffled", False),
            (" two rows of one tick swapped", False),
            (" zero-padded tick", False),
            (" sensor repeated within every tick", False),
            (" blank lines", False),
            (" CRLF", False),
            (" quoted fields", False),
            (" no final newline", True),
        ],
    )
    def test_layout_check_takes_export_order_only(self, knife_reference, variant, by_column):
        """Export's own rows, with or without a final newline, and the same
        unsorted sensor order on every tick, are read by column; every other
        text is read row by row."""
        texts = dict(trace_csv_corpus([("knife", export_trace(knife_reference))]))
        trace = scenario_module._trace_by_column(texts["knife" + variant], None)
        assert (trace is not None) == by_column

    @pytest.mark.parametrize("which", ["knife_reference", "knife_lid_fault_trace"])
    def test_export_of_import_keeps_the_bytes(self, request, knife_model, which):
        text = export_trace(request.getfixturevalue(which))
        for model in (None, knife_model):
            assert export_trace(import_trace(text, model)) == text
            assert export_trace(import_trace(text.replace("\n", "\r\n"), model)) == text


@pytest.fixture(scope="module")
def plant_doc():
    from test_simulation import load_perfbench_generators

    return parse_scenario(load_perfbench_generators().plant_monitor(1).yaml_text())


def chunk_first_rows(text):
    """The index of the first row of each chunk (rows counted from 0 after
    the header) in which ``_trace_by_column`` reads a text, each chunk cut
    at the first row end ``_CHUNK_CHARS`` characters after its start."""
    start, firsts = len(TRACE_HEADER), []
    while start < len(text):
        firsts.append(text.count("\n", len(TRACE_HEADER), start))
        stop = text.find("\n", start + scenario_module._CHUNK_CHARS)
        start = len(text) if stop < 0 else stop + 1
    return firsts


class TestChunkedImport:
    @pytest.fixture(scope="class")
    def plant(self, plant_doc):
        """A plant-monitor trace of some 10,000 rows, and the model."""
        return export_trace(plant_doc.run(horizon=300)), plant_doc.build()

    def test_edits_at_chunk_edges_agree_with_row_loop(self, plant):
        """Edits at the first and the last row of chunks, compared with the
        row loop, with and without the model.  Each variant maps to its text
        and whether it is read by column without and with the model."""
        text, model = plant
        header, *rows = text.splitlines(keepends=True)
        firsts = chunk_first_rows(text)
        assert len(firsts) >= 4
        variants = {"export": (text, True, True), "no final newline": (text[:-1], True, True)}
        # The first and the last row of the second and the third chunk.
        for at in (firsts[1], firsts[2] - 1, firsts[2], firsts[3] - 1):
            tick, sensor, value, label = rows[at].rstrip("\n").split(",")
            edits = {
                "nan": ([f"{tick},{sensor},nan,{label}\n"], False, False),
                "unknown label": ([f"{tick},{sensor},{value},{label}_x\n"], True, False),
                "duplicate row": ([rows[at]] * 2, False, False),
                "missing row": ([], False, False),
            }
            for edit, (edited, by_column, by_column_with_model) in edits.items():
                edited_text = header + "".join(rows[:at] + edited + rows[at + 1 :])
                variants[f"{edit} at row {at}"] = edited_text, by_column, by_column_with_model
            # Swapped across the chunk edge.
            i = at - 1 if at in firsts else at
            swapped = rows[:i] + [rows[i + 1], rows[i]] + rows[i + 2 :]
            variants[f"rows {i} and {i + 1} swapped"] = header + "".join(swapped), False, False
        for name, (variant, by_column, by_column_with_model) in variants.items():
            for with_model, expected in ((None, by_column), (model, by_column_with_model)):
                agrees_with_row_loop(name, variant, with_model)
                taken = scenario_module._trace_by_column(variant, with_model) is not None
                assert taken == expected, (name, with_model is not None)

    @pytest.fixture(scope="class")
    def shared_labels(self):
        """A trace of 4,000 ticks whose sensors share label strings but not
        tables, and its model: ``a`` shows Lo and Hi, ``b`` shows Hi and Mid,
        and ``c`` shows only Lo, the second label of its table."""
        from causalcps.simulation import Trace

        tables = {"a": ("Lo", "Hi"), "b": ("Mid", "Hi"), "c": ("Mid", "Lo")}
        model = build_model(
            tuple(
                Sensor(sensor, tuple((label, Degenerate(k)) for k, label in enumerate(table)), table[0])
                for sensor, table in tables.items()
            ),
            (),
        )
        rng = random.Random(20261020)
        n = 4000
        values = {sensor: [rng.random() for _ in range(n)] for sensor in tables}
        labels = {
            "a": [("Lo", "Hi")[t // 500 % 2] for t in range(n)],
            "b": [("Hi", "Mid")[t // 700 % 2] for t in range(n)],
            "c": ["Lo"] * n,
        }
        return export_trace(Trace.from_columns(values, labels)), model

    def test_label_of_another_sensor_at_chunk_starts(self, shared_labels):
        """A label that only another sensor has, at the first row of the
        second and the third chunk: the model refuses the first of them, and
        without it each sensor's table lists only the labels it shows."""
        text, model = shared_labels
        header, *rows = text.splitlines(keepends=True)
        firsts = chunk_first_rows(text)
        assert len(firsts) >= 3
        not_its_own = {"a": "Mid", "b": "Lo", "c": "Hi"}
        for at in firsts[1:3]:
            tick, sensor, value, _ = rows[at].rstrip("\n").split(",")
            rows[at] = f"{tick},{sensor},{value},{not_its_own[sensor]}\n"
        variant = header + "".join(rows)
        assert chunk_first_rows(variant)[1:3] == firsts[1:3]
        assert not agrees_with_row_loop("label of another sensor", variant, model)
        with pytest.raises(ScenarioError, match=f"^trace CSV row {firsts[1] + 2}: sensor "):
            import_trace(variant, model)
        assert scenario_module._trace_by_column(variant, model) is None
        assert agrees_with_row_loop("label of another sensor", variant, None)
        trace = scenario_module._trace_by_column(variant, None)
        assert trace is not None
        shown = {sensor: set() for sensor in trace.sensor_ids}
        for row in rows:
            _, sensor, _, label = row.rstrip("\n").split(",")
            shown[sensor].add(label)
        assert trace.label_tables == tuple(tuple(sorted(shown[s])) for s in trace.sensor_ids)

    def test_sensor_showing_one_of_its_labels(self, shared_labels):
        text, model = shared_labels
        for with_model, table, code in ((model, ("Mid", "Lo"), 1), (None, ("Lo",), 0)):
            assert agrees_with_row_loop("one label", text, with_model)
            trace = scenario_module._trace_by_column(text, with_model)
            assert trace is not None
            assert trace.label_table("c") == table
            assert set(trace.codes_for("c").tolist()) == {code}

    def test_import_and_export_hold_less_than_three_times_the_text(self, plant_doc):
        trace = plant_doc.run()
        model = plant_doc.build()
        text = export_trace(trace)
        assert len(trace) * len(trace.sensor_ids) == 39_600
        for name, work in (
            ("import", lambda: import_trace(text, model)),
            ("export", lambda: export_trace(trace)),
        ):
            work()  # modules that the first call imports lazily are not counted
            tracemalloc.start()
            try:
                work()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * len(text), (name, peak / len(text))


def test_tick_text_gives_each_rows_tick():
    for width in (1, 2, 3, 33):
        for start in range(0, 4 * width + 2):
            for stop in range(start + 1, start + 5 * width + 3):
                expected = ",".join(str(row // width) for row in range(start, stop))
                assert scenario_module._tick_text(start, stop, width) == expected


class TestReportCsv:
    def test_anomaly_report_schema(self, knife_model, knife_reference):
        report = scan_anomalies(knife_reference, knife_model)
        text = export_anomaly_report(report)
        header, first = text.splitlines()[0], text.splitlines()[1]
        assert header == "sensor_id,window_start,matched_state,p_best,anomalous"
        assert first.endswith(",0") or first.endswith(",1")

    def test_deviations_round_trip(self):
        from causalcps.detection import Deviation

        deviations = [
            Deviation("oven_temp", 8, "Hot", "Ambient"),
            Deviation("knife_temp", 35, "Hot", "ANOMALOUS"),
        ]
        assert import_deviations(export_deviations(deviations)) == deviations

    @pytest.mark.parametrize(
        "parameter, text",
        [(100.0, "100"), (0.5, "0.5"), (1234567.5, "1234567.5"), (100.0000001, "100.0000001")],
    )
    def test_plan_parameter_is_written_exactly(self, parameter, text):
        # ":g" keeps 6 significant digits: 1.23457e+06 and 100 for the last two.
        heat = Functionality("oven", "heat", (parameter,), (), duration=8)
        plan = Plan((PlanStep("oven", "heat", parameter),), total_duration=8)
        row = export_plan(plan, [heat]).splitlines()[1]
        assert row == f"1,oven,heat,{text},8,8"
        assert float(row.split(",")[3]) == parameter


class TestScenarioRuns:
    def test_fault_free_run_hardens(self, knife_doc):
        trace = knife_doc.run(include_faults=False)
        assert trace.final_labels()["knife_hardness"] == "Hard"

    def test_fault_run_stays_soft(self, knife_doc):
        trace = knife_doc.run(include_faults=True)
        assert trace.final_labels()["knife_hardness"] == "Soft"

    def test_seed_and_horizon_overrides(self, knife_doc):
        trace = knife_doc.run(seed=1, horizon=50, include_faults=False)
        assert len(trace) == 50
