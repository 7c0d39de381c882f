import csv
import importlib.resources
import io
import math
import random
from pathlib import Path

import pytest
import yaml

import causalcps.scenario as scenario_module
from causalcps.detection import scan_anomalies
from causalcps.distributions import Degenerate, Normal, Uniform
from causalcps.model import ModelError, SubsystemKind
from causalcps.scenario import (
    ScenarioError,
    chain_fixture,
    export_anomaly_report,
    export_deviations,
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
        with pytest.raises(ScenarioError, match=r"transitions\[0\]\.param: expected a number"):
            parse_scenario(text)

    def test_yaml_syntax_error_carries_line(self):
        with pytest.raises(ScenarioError, match="invalid YAML"):
            parse_scenario("horizon: [unclosed")

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
        text = PACKAGED_KNIFE.read_text(encoding="utf-8")
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", yaml.CSafeLoader)
        with_libyaml = parse_scenario(text)
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", yaml.SafeLoader)
        assert parse_scenario(text) == with_libyaml


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", [knife_fixture, chain_fixture, thermostat_fixture])
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

    def test_repo_scenario_path_links_to_the_packaged_file(self):
        assert REPO_KNIFE.is_symlink()
        assert REPO_KNIFE.read_bytes() == PACKAGED_KNIFE.read_bytes()


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
    return tuple(sensor_ids), [by_tick[t] for t in ticks]


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
                expected = outcome(row_loop_import_trace, text, model)
                got = outcome(import_trace, text, model)
                checked += 1
                if isinstance(expected, str):
                    assert got == expected, (name, model is not None)
                    continue
                accepted += 1
                assert not isinstance(got, str), (name, model is not None, got)
                sensor_ids, ticks = expected
                assert got.sensor_ids == sensor_ids, name
                assert len(got) == len(ticks), name
                assert got.log == (), name
                for sensor in sensor_ids:
                    assert got.labels_for(sensor) == [labels[sensor] for _, labels in ticks], name
                    mine = got.values_for(sensor).tolist()
                    theirs = [values[sensor] for values, _ in ticks]
                    assert mine == theirs, name
                    assert [v.hex() for v in mine] == [v.hex() for v in theirs], name
        assert accepted >= 20 and checked - accepted >= 100

    @pytest.mark.parametrize("which", ["knife_reference", "knife_lid_fault_trace"])
    def test_export_of_import_keeps_the_bytes(self, request, knife_model, which):
        text = export_trace(request.getfixturevalue(which))
        for model in (None, knife_model):
            assert export_trace(import_trace(text, model)) == text
            assert export_trace(import_trace(text.replace("\n", "\r\n"), model)) == text


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
