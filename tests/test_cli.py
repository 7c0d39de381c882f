import csv
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

import causalcps
import causalcps.scenario
from causalcps import detection
from causalcps.cli import build_parser, main
from causalcps.scenario import import_trace, knife_fixture, parse_scenario, serialize_scenario


needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="no libyaml")


@pytest.fixture
def knife_yaml(tmp_path):
    path = tmp_path / "knife.yaml"
    path.write_text(serialize_scenario(knife_fixture()), encoding="utf-8")
    return path


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_pipeline(tmp_path, knife_yaml):
    faulty = tmp_path / "faulty.csv"
    reference = tmp_path / "reference.csv"
    report = tmp_path / "report.csv"
    deviations = tmp_path / "deviations.csv"
    diagnosis = tmp_path / "diagnosis.csv"
    assert main(["simulate", str(knife_yaml), "--out", str(faulty)]) == 0
    assert main(["simulate", str(knife_yaml), "--out", str(reference), "--no-faults"]) == 0
    assert (
        main(
            [
                "detect",
                str(knife_yaml),
                "--trace",
                str(faulty),
                "--reference",
                str(reference),
                "--out",
                str(report),
                "--deviations-out",
                str(deviations),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "diagnose",
                str(knife_yaml),
                "--deviations",
                str(deviations),
                "--out",
                str(diagnosis),
            ]
        )
        == 0
    )
    return faulty, reference, report, deviations, diagnosis


BUNDLED_KNIFE = Path(__file__).resolve().parent.parent / "scenarios" / "knife.yaml"
KNIFE_PLAN_GOALS = (
    ("knife_hardness=Hard",),
    ("knife_temp=Hot",),
    ("knife_temp=Hot", "knife_hardness=Hard"),
)
KNIFE_SEED_1_DIGESTS = {
    "deviations.csv": "d3ead40d7fcab1fb091a6152e387ad67bdaf043a30fce9d0217babec8554a32e",
    "diagnosis.csv": "e2f9a6090d27af4dc371f27daee9ec3a73ee631576ab1f41f570acb815f59d6f",
    "faulty.csv": "ba5442cdab080a82b3c81e167d2519130776790747f83384f9b446a75577c44d",
    "plan0.csv": "2487d22a3697fd8dc366010c922e91896433b02e155945f39fabfc3d1829b70b",
    "plan1.csv": "6ab5fc2a256318366dae3308e58ea1bbd86a3f804804f044cffb181e5e68a91c",
    "plan2.csv": "525be5755de2bb95585b413c2b0602345f5070ee243b192d23a5387675d73f16",
    "reference.csv": "691297e05d75af21a89569ee499874d455556ddcefa095d9e9b360a6621c21c0",
    "report.csv": "4f7826266cc9b841a034613e9a8bbfb8860505b97b52724b956a57fd2e9685a2",
}


# detect --window 20 --stride 7 --alpha 0.05 on the knife traces of seed 42.
KNIFE_SEED_42_W20_S7_A05_DIGESTS = {
    "deviations.csv": "382ac6d4109ce995713b09be5bc132b04a8d86b3b2042dd203e7d658baad92f0",
    "report.csv": "56c9c868bffd641823c077c4d901087ef1a432b5bd78a683c97f064391afb659",
}


# simulate and simulate --no-faults, both at the same seed, on the bundled knife scenario.
KNIFE_TRACE_DIGESTS = {
    42: {
        "faulty.csv": "7b6509c779e91c6171d51e2fb05eb3a4097c44b3fca5c7de0a6dd072edc5c682",
        "reference.csv": "84de1472e5e59defce0bbe59dabdad4b6789a04c8844f4a0fb7d001a898a0743",
    },
    777: {
        "faulty.csv": "1d5c13bf057b82a785d33953a97593b23634c14e27d93072d0a8f8cfe3881c00",
        "reference.csv": "3eda5c4049dd514d8e8233e42248896cc2ea585580c5c755cceb2be8fa291252",
    },
}


# Six sensors whose rows alternate uniform, normal and point-mass laws and
# whose states change mid-run by rules, interventions and a fault.  Among the
# laws: a point mass at -0.0, a uniform law 1e-10 wide and one 2e300 wide, and
# a normal law with stddev 1e-3 around -1e6.
MIXED_FAMILIES_YAML = """\
name: mixed-families
seed: 7
horizon: 60
sensors:
- id: a_flow
  initial: Low
  states:
  - label: Low
    dist: uniform(-5, 5)
  - label: High
    dist: uniform(100, 250.5)
- id: b_temp
  initial: Cold
  states:
  - label: Cold
    dist: normal(-3.5, 0.25)
  - label: Hot
    dist: normal(1000, 40)
- id: c_valve
  initial: Shut
  states:
  - label: Shut
    dist: degenerate(-0)
  - label: Open
    dist: degenerate(2.5)
- id: d_level
  initial: Idle
  states:
  - label: Idle
    dist: degenerate(7)
  - label: Fine
    dist: uniform(0.001, 0.0010000001)
  - label: Wide
    dist: uniform(-1e300, 1e300)
- id: e_press
  initial: Low
  states:
  - label: Low
    dist: normal(-1e6, 1e-3)
  - label: Flat
    dist: degenerate(-1.5)
- id: f_mode
  initial: Auto
  states:
  - label: Auto
    dist: degenerate(1)
  - label: Manual
    dist: degenerate(0)
subsystems:
- id: pump
  kind: component
  sensors: [c_valve, a_flow]
  rules:
  - when: {c_valve: Open}
    then:
    - {sensor: a_flow, state: High, delay: 2}
  - when: {c_valve: Shut}
    then:
    - {sensor: a_flow, state: Low, delay: 1}
- id: heater
  kind: component
  sensors: [a_flow, b_temp]
  rules:
  - when: {a_flow: High}
    then:
    - {sensor: b_temp, state: Hot, delay: 3}
  - when: {a_flow: Low}
    then:
    - {sensor: b_temp, state: Cold, delay: 3}
- id: tank
  kind: component
  sensors: [b_temp, d_level, e_press]
  rules:
  - when: {b_temp: Hot}
    then:
    - {sensor: d_level, state: Fine, delay: 1}
    - {sensor: e_press, state: Flat, delay: 2}
  - when: {b_temp: Cold}
    then:
    - {sensor: d_level, state: Wide, delay: 4}
- id: plant
  kind: module
  sensors: [f_mode]
  rules: []
script:
  interventions:
  - {tick: 10, sensor: c_valve, state: Open}
  - {tick: 30, sensor: f_mode, state: Manual}
  - {tick: 40, sensor: c_valve, state: Shut}
  faults:
  - {component: heater, activation: 38, rules: []}
"""


# simulate and simulate --no-faults on MIXED_FAMILIES_YAML, by --seed (None:
# the document's seed 7).  Recorded before the simulator drew standard
# variates and applied each law's affine map itself, i.e. with numpy's
# scalar ``normal(m, s)`` and ``uniform(lo, hi)`` calls.
MIXED_TRACE_DIGESTS = {
    None: {
        "faulty.csv": "ad7496112087e4d2aaf20e8f3a7d6bad62526d6af37cfd4c4a60a22cf26334df",
        "reference.csv": "a46cd491ac944934ca270f2e42b9a745edad21061ead99c03323fd10cb1cb52c",
    },
    3: {
        "faulty.csv": "fe5e3f95f790c004eb469f975b2f9088d0693ad247e65acfd6bc557ed3f1ba05",
        "reference.csv": "0d4ff7935f9862e5a826e170ad3c7ef673cf55ceffcb9f9d7c72e2113da8a343",
    },
}


def knife_detect_digests(out_dir, seed, *detect_options):
    """Simulate the bundled knife scenario's faulty and fault-free runs at
    ``seed``, run detect on them with ``detect_options`` and return the sha256
    digest of the report and the deviations, by file name."""
    s = str(BUNDLED_KNIFE)
    faulty, reference = out_dir / "faulty.csv", out_dir / "reference.csv"
    outputs = {name: out_dir / name for name in ("report.csv", "deviations.csv")}
    commands = [
        ["simulate", s, "--out", str(faulty), "--seed", str(seed)],
        ["simulate", s, "--out", str(reference), "--seed", str(seed), "--no-faults"],
        [
            "detect", s, "--trace", str(faulty), "--reference", str(reference),
            "--out", str(outputs["report.csv"]),
            "--deviations-out", str(outputs["deviations.csv"]), *detect_options,
        ],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    return {name: digest(path) for name, path in outputs.items()}


def knife_artifact_digests(out_dir, run=main):
    """Run the whole CLI pipeline on the bundled knife scenario at seed 1,
    passing each command's argument list to ``run`` (which returns the exit
    status), and return the sha256 digest of every artifact, by file name."""
    s = str(BUNDLED_KNIFE)
    faulty, reference = out_dir / "faulty.csv", out_dir / "reference.csv"
    deviations = out_dir / "deviations.csv"
    commands = [
        ["simulate", s, "--out", str(faulty), "--seed", "1"],
        ["simulate", s, "--out", str(reference), "--seed", "1", "--no-faults"],
        [
            "detect", s, "--trace", str(faulty), "--reference", str(reference),
            "--out", str(out_dir / "report.csv"), "--deviations-out", str(deviations),
        ],
        [
            "diagnose", s, "--deviations", str(deviations),
            "--out", str(out_dir / "diagnosis.csv"), "--max-card", "3",
        ],
    ]
    for i, goal in enumerate(KNIFE_PLAN_GOALS):
        argv = ["plan", s, "--out", str(out_dir / f"plan{i}.csv")]
        for entry in goal:
            argv += ["--goal", entry]
        commands.append(argv)
    for argv in commands:
        assert run(argv) == 0, argv
    return {path.name: digest(path) for path in sorted(out_dir.glob("*.csv"))}


class TestSimulate:
    def test_writes_full_trace(self, tmp_path, knife_yaml, capsys):
        out = tmp_path / "trace.csv"
        assert main(["simulate", str(knife_yaml), "--out", str(out), "--horizon", "200"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tick,sensor_id,value,state_label"
        assert len(lines) == 1 + 200 * 8
        assert "200 ticks x 8 sensors" in capsys.readouterr().out

    def test_inputs_never_modified(self, tmp_path, knife_yaml):
        before = digest(knife_yaml)
        main(["simulate", str(knife_yaml), "--out", str(tmp_path / "t.csv")])
        assert digest(knife_yaml) == before

    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        code = main(["simulate", str(tmp_path / "absent.yaml"), "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["reason"] == "INVALID_INPUT"

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("horizon: 10\nsensors: []\nsubsystems: []\nmystery: 1\n")
        assert main(["simulate", str(bad), "--out", str(tmp_path / "t.csv")]) == 2
        assert json.loads(capsys.readouterr().err)["reason"] == "INVALID_INPUT"

    def test_repeated_key_exits_2(self, tmp_path, knife_yaml, capsys):
        # Read last-wins, this guard would silently become {burner_cmd: C25}.
        text = knife_yaml.read_text(encoding="utf-8")
        guard = "      burner_cmd: C0\n"
        assert text.count(guard) == 1
        line = text[: text.index(guard)].count("\n") + 2
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace(guard, guard + "      burner_cmd: C25\n"), encoding="utf-8")
        out = tmp_path / "t.csv"
        assert main(["simulate", str(bad), "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert error["detail"] == (
            f"line {line}: key 'burner_cmd' repeats an earlier key of its mapping"
        )
        assert not out.exists()

    def test_repeated_key_under_a_merge_key_exits_2(self, tmp_path, capsys):
        # The sensor's keys are flattened with its merge key; its states are not.
        text = BUNDLED_KNIFE.read_text(encoding="utf-8")
        sensor = "- id: burner_cmd\n  initial: C0\n  states:\n  - label: C0\n"
        assert text.count(sensor) == 1
        line = text[: text.index(sensor)].count("\n") + 5
        merged = sensor.replace("  initial: C0\n", "  <<: {initial: C0}\n")
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace(sensor, merged + "    label: C0\n"), encoding="utf-8")
        out = tmp_path / "t.csv"
        assert main(["simulate", str(bad), "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert error["detail"] == f"line {line}: key 'label' repeats an earlier key of its mapping"
        assert not out.exists()

    @pytest.mark.parametrize(
        "initial, line, detail",
        [
            (
                "  initial: !!set {C0}\n",
                10,
                "mapping tagged tag:yaml.org,2002:set as a value",
            ),
            (
                "  initial: !!omap [{a: C0}]\n",
                10,
                "sequence tagged tag:yaml.org,2002:omap as a value",
            ),
            (
                "  initial: 2002-12-14\n",
                10,
                "scalar '2002-12-14' tagged tag:yaml.org,2002:timestamp as a value; "
                "quote it to make it a string",
            ),
            (
                "  initial: C0\n  7: x\n",
                11,
                "scalar '7' tagged tag:yaml.org,2002:int as a mapping key; "
                "quote it to make it a string",
            ),
            (
                "  initial: !custom C0\n",
                10,
                "scalar 'C0' tagged !custom as a value; quote it to make it a string",
            ),
            (
                "  initial: !!bool maybe\n",
                10,
                "scalar 'maybe' tagged tag:yaml.org,2002:bool as a value; "
                "quote it to make it a string",
            ),
        ],
        ids=["set", "omap", "timestamp", "non-string key", "unknown tag", "bad bool"],
    )
    def test_yaml_a_scenario_cannot_hold_exits_2(self, tmp_path, capsys, initial, line, detail):
        text = BUNDLED_KNIFE.read_text(encoding="utf-8")
        assert text.splitlines()[9] == "  initial: C0"
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace("  initial: C0\n", initial, 1), encoding="utf-8")
        out = tmp_path / "t.csv"
        assert main(["simulate", str(bad), "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert error["detail"] == f"line {line}: a scenario cannot hold the YAML {detail}"
        assert not out.exists()

    def test_repeated_merge_key_exits_2(self, tmp_path, capsys):
        # yaml.load lets the later merge win: burner_cmd would start at C25.
        text = BUNDLED_KNIFE.read_text(encoding="utf-8")
        merges = "  <<: {initial: C0}\n  <<: {initial: C25}\n"
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace("  initial: C0\n", merges, 1), encoding="utf-8")
        out = tmp_path / "t.csv"
        assert main(["simulate", str(bad), "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert error["detail"] == "line 11: key '<<' repeats an earlier key of its mapping"
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, line",
        [
            (
                (
                    "\nsensors:\n",
                    "\nsensors:\n- {id: a, initial: X, states: [{label: X, dist: degenerate(0)}],\n"
                    "   1: x, foo: y}\n",
                ),
                10,
            ),
            (("horizon: 300\n", "horizon: 300\n7: x\nfoo: y\n"), 4),
        ],
        ids=["sensor", "top level"],
    )
    def test_unknown_keys_of_mixed_types_exit_2(self, tmp_path, capsys, edit, line):
        # An int key cannot be sorted with string ones for the unknown-field
        # message; it is refused first, at its line.
        text = BUNDLED_KNIFE.read_text(encoding="utf-8")
        assert text.count(edit[0]) == 1
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace(*edit), encoding="utf-8")
        assert main(["simulate", str(bad), "--out", str(tmp_path / "t.csv")]) == 2
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert detail.startswith(f"line {line}: a scenario cannot hold the YAML scalar ")
        assert "as a mapping key" in detail

    @pytest.mark.parametrize(
        "edit, field",
        [
            (("  window: 50\n", "  window: 0\n"), "window"),
            (("  stride: 25\n", "  stride: 0\n"), "stride"),
            (("  stride: 25\n", "  stride: -3\n"), "stride"),
        ],
    )
    def test_detection_window_or_stride_below_one_exits_2(self, tmp_path, capsys, edit, field):
        text = BUNDLED_KNIFE.read_text(encoding="utf-8")
        assert text.count(edit[0]) == 1
        bad = tmp_path / "knife.yaml"
        bad.write_text(text.replace(*edit), encoding="utf-8")
        out = tmp_path / "t.csv"
        assert main(["simulate", str(bad), "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert f"document.detection.{field}: must be >= 1" in error["detail"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "seed_line, flags, detail",
        [
            ("seed: -1\n", [], "document.seed: must be >= 0, got -1"),
            ("seed: 42\n", ["--seed", "-3"], "--seed must be >= 0, got -3"),
        ],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, seed_line, flags, detail):
        text = BUNDLED_KNIFE.read_text(encoding="utf-8")
        assert text.count("seed: 42\n") == 1
        bad = tmp_path / "knife.yaml"
        bad.write_text(text.replace("seed: 42\n", seed_line), encoding="utf-8")
        out = tmp_path / "t.csv"
        assert main(["simulate", str(bad), "--out", str(out), *flags]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert error["detail"] == detail
        assert not out.exists()

    def test_empty_sensor_list_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "empty.yaml"
        bad.write_text("horizon: 10\nsensors: []\n", encoding="utf-8")
        out = tmp_path / "t.csv"
        assert main(["simulate", str(bad), "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert error["detail"] == "document.sensors: expected at least one sensor"
        assert not out.exists()

    def test_sensor_id_with_a_comma_exits_2(self, tmp_path, capsys):
        # Written unquoted, the id "a,b" would give its trace rows five
        # columns, which detect would then refuse.
        bad = tmp_path / "comma.yaml"
        bad.write_text(
            "horizon: 5\n"
            "sensors:\n"
            "- id: 'a,b'\n"
            "  initial: Lo\n"
            "  states:\n"
            "  - {label: Lo, dist: 'uniform(0, 1)'}\n"
            "- id: c\n"
            "  initial: Lo\n"
            "  states:\n"
            "  - {label: Lo, dist: 'uniform(0, 1)'}\n",
            encoding="utf-8",
        )
        out = tmp_path / "t.csv"
        assert main(["simulate", str(bad), "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert error["detail"].startswith("sensors[0].id: 'a,b' holds a comma")
        assert not out.exists()

    def test_component_id_with_a_plus_exits_2(self, tmp_path, capsys):
        # The diagnosis CSV would write the component "lid+actuator" as the
        # pair {lid, actuator}.
        text = BUNDLED_KNIFE.read_text(encoding="utf-8")
        assert "lid_actuator" in text
        bad = tmp_path / "plus.yaml"
        bad.write_text(text.replace("lid_actuator", "lid+actuator"), encoding="utf-8")
        out = tmp_path / "t.csv"
        assert main(["simulate", str(bad), "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert error["detail"].startswith("subsystems[1].id: 'lid+actuator' holds a '+'")
        assert not out.exists()

    @pytest.mark.parametrize(
        "depth,detail",
        [
            # The data is built breadth first, so nesting depth costs no stack.
            (100, "sensors[0]: expected a mapping, got list"),
            (101, "document: flow collections nested deeper than 100 levels"),
            # Refused before composing, whose time grows with the square of the depth.
            (20_000, "document: flow collections nested deeper than 100 levels"),
        ],
    )
    def test_deeply_nested_scenario_exits_2(self, tmp_path, capsys, depth, detail):
        bad = tmp_path / "deep.yaml"
        bad.write_text("horizon: 5\nsensors: " + "[" * depth + "]" * depth + "\n", encoding="utf-8")
        start = time.perf_counter()
        assert main(["simulate", str(bad), "--out", str(tmp_path / "t.csv")]) == 2
        assert time.perf_counter() - start < 0.5
        error = json.loads(capsys.readouterr().err)
        assert error["detail"] == detail

    @pytest.mark.parametrize(
        "loader", ["SafeLoader", pytest.param("CSafeLoader", marks=needs_libyaml)]
    )
    @pytest.mark.parametrize(
        "nesting, levels",
        [
            # A 2.3 MB file; flattening its merges recurses once per level.
            ("<<:", 1_500),
            ("-", 500),
        ],
        ids=["merge keys", "sequences"],
    )
    def test_document_nested_past_the_stack_exits_2(
        self, tmp_path, capsys, monkeypatch, loader, nesting, levels
    ):
        bad = tmp_path / "deep.yaml"
        nested = "".join(f"{'  ' * (level + 1)}{nesting}\n" for level in range(levels))
        bad.write_text(f"horizon: 5\nsensors:\n{nested}{'  ' * (levels + 1)}x: 1\n")
        monkeypatch.setattr(causalcps.scenario, "_YAML_LOADER", getattr(yaml, loader))
        assert main(["simulate", str(bad), "--out", str(tmp_path / "t.csv")]) == 2
        error = json.loads(capsys.readouterr().err)
        # libyaml composes without Python recursion, and the data is built
        # breadth first: only the schema refuses the nested sequences.
        expected = {
            ("-", "CSafeLoader"): "sensors[0]: expected a mapping, got list",
        }.get((nesting, loader), "document: nested too deeply to read")
        assert error["detail"] == expected

    @pytest.mark.parametrize("seed", sorted(KNIFE_TRACE_DIGESTS))
    def test_knife_traces_keep_their_bytes(self, tmp_path, seed):
        """Both trace CSVs of the bundled knife scenario at ``seed`` have the
        bytes recorded here (same assumptions as the seed-1 digests below)."""
        s = str(BUNDLED_KNIFE)
        faulty, reference = tmp_path / "faulty.csv", tmp_path / "reference.csv"
        assert main(["simulate", s, "--out", str(faulty), "--seed", str(seed)]) == 0
        argv = ["simulate", s, "--out", str(reference), "--seed", str(seed), "--no-faults"]
        assert main(argv) == 0
        digests = {path.name: digest(path) for path in (faulty, reference)}
        assert digests == KNIFE_TRACE_DIGESTS[seed]

    @pytest.mark.parametrize(
        "edit, field",
        [
            (("uniform(20, 30)", "uniform(-1e308, 1e308)"), "width"),
            (("uniform(20, 30)", "uniform(-inf, 30)"), "lo"),
            (("normal(800, 10)", "normal(nan, 2)"), "mean"),
            (("normal(800, 10)", "normal(20, inf)"), "stddev"),
            (("degenerate(2)", "degenerate(inf)"), "value"),
        ],
    )
    def test_non_finite_law_parameter_exits_2(self, tmp_path, capsys, edit, field):
        text = BUNDLED_KNIFE.read_text(encoding="utf-8")
        assert text.count(edit[0]) == 1
        bad = tmp_path / "knife.yaml"
        bad.write_text(text.replace(*edit), encoding="utf-8")
        out = tmp_path / "t.csv"
        assert main(["simulate", str(bad), "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert f"{field} must be finite" in error["detail"]
        assert not out.exists()

    def test_non_finite_value_is_not_written(self, tmp_path, capsys):
        # A finite law whose draws can pass the float range: some Hot values
        # of oven_temp overflow to inf, which import_trace would refuse.
        text = BUNDLED_KNIFE.read_text(encoding="utf-8")
        assert text.count("normal(800, 10)") == 1
        bad = tmp_path / "knife.yaml"
        bad.write_text(text.replace("normal(800, 10)", "normal(1.7e308, 1e307)"), encoding="utf-8")
        out = tmp_path / "t.csv"
        assert main(["simulate", str(bad), "--out", str(out), "--no-faults"]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert error["detail"] == "trace tick 10, sensor 'oven_temp': non-finite value inf"
        assert not out.exists()

    @pytest.mark.parametrize("seed", [None, 3])
    def test_mixed_family_traces_keep_their_bytes(self, tmp_path, seed):
        """Both trace CSVs of MIXED_FAMILIES_YAML have the bytes recorded
        here (same assumptions as the seed-1 knife digests below)."""
        scenario = tmp_path / "mixed.yaml"
        scenario.write_text(MIXED_FAMILIES_YAML, encoding="utf-8")
        options = [] if seed is None else ["--seed", str(seed)]
        faulty, reference = tmp_path / "faulty.csv", tmp_path / "reference.csv"
        assert main(["simulate", str(scenario), "--out", str(faulty), *options]) == 0
        argv = ["simulate", str(scenario), "--out", str(reference), *options, "--no-faults"]
        assert main(argv) == 0
        assert ",c_valve,-0.0,Shut\n" in faulty.read_text(encoding="utf-8")
        digests = {path.name: digest(path) for path in (faulty, reference)}
        assert digests == MIXED_TRACE_DIGESTS[seed]


class TestPipeline:
    def test_full_pipeline_blames_lid_actuator(self, tmp_path, knife_yaml):
        *_, diagnosis = run_pipeline(tmp_path, knife_yaml)
        lines = diagnosis.read_text().splitlines()
        assert lines[0] == "rank,components,cardinality,explained,paths"
        assert lines[1].startswith("1,lid_actuator,1,")

    def test_observe_flag_filters_sensors(self, tmp_path, knife_yaml):
        faulty, reference, report, deviations, _ = run_pipeline(tmp_path, knife_yaml)
        out = tmp_path / "diag2.csv"
        args = ["diagnose", str(knife_yaml), "--deviations", str(deviations), "--out", str(out)]
        for sensor in (
            "burner_cmd",
            "burner_set",
            "lid_cmd",
            "lid_state",
            "quench_cmd",
            "knife_temp",
            "knife_hardness",
        ):
            args += ["--observe", sensor]
        assert main(args) == 0
        assert out.read_text().splitlines()[1].startswith("1,lid_actuator,")

    def test_observing_one_sensor_explains_only_its_deviations(self, tmp_path):
        """Deviations on unobserved sensors (here lid_state, which no
        oven_temp hypothesis reaches) are left out of the paths column."""
        s = str(BUNDLED_KNIFE)
        faulty, reference = tmp_path / "faulty.csv", tmp_path / "reference.csv"
        deviations, out = tmp_path / "deviations.csv", tmp_path / "diagnosis.csv"
        for argv in (
            ["simulate", s, "--out", str(faulty), "--seed", "1"],
            ["simulate", s, "--out", str(reference), "--seed", "1", "--no-faults"],
            [
                "detect", s, "--trace", str(faulty), "--reference", str(reference),
                "--out", str(tmp_path / "report.csv"), "--deviations-out", str(deviations),
            ],
        ):
            assert main(argv) == 0, argv
        rows = csv.DictReader(deviations.read_text().splitlines())
        assert {"oven_temp", "lid_state"} <= {row["sensor_id"] for row in rows}
        argv = ["diagnose", s, "--deviations", str(deviations), "--out", str(out)]
        assert main(argv + ["--observe", "oven_temp"]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows
        for row in rows:
            assert row["explained"] == "oven_temp"
            ends = [path.split(" -> ")[-1].split("[")[0] for path in row["paths"].split("|")]
            assert ends == ["oven_temp"], row

    def test_detect_builds_no_window_verdict(self, tmp_path, capsys, monkeypatch):
        """detect reads the report's columns: it writes the pinned bytes and
        its counts without building one WindowVerdict."""
        built = []
        original = detection.WindowVerdict

        def counting(*fields):
            built.append(fields)
            return original(*fields)

        monkeypatch.setattr(detection, "WindowVerdict", counting)
        digests = knife_detect_digests(tmp_path, 1)
        assert built == []
        assert digests == {name: KNIFE_SEED_1_DIGESTS[name] for name in digests}
        rows = list(csv.DictReader((tmp_path / "report.csv").read_text().splitlines()))
        flagged = sum(row["anomalous"] == "1" for row in rows)
        assert f": {len(rows)} windows, {flagged} anomalous, " in capsys.readouterr().out
        # The counter sees the verdicts a library caller reads.
        model = parse_scenario(BUNDLED_KNIFE.read_text(encoding="utf-8")).build()
        trace = import_trace((tmp_path / "faulty.csv").read_text(encoding="utf-8"), model)
        assert len(detection.scan_anomalies(trace, model).verdicts) == len(built) == len(rows)

    def test_detect_on_shuffled_rows_writes_the_same_bytes(self, tmp_path):
        """A trace whose rows are not in export order is read the same.  The
        first tick's rows stay first, so the columns keep export order."""
        s = str(BUNDLED_KNIFE)
        in_order = knife_detect_digests(tmp_path, 1)
        faulty = tmp_path / "faulty.csv"
        header, *rows = faulty.read_text().splitlines(keepends=True)
        first_tick = sum(row.startswith("0,") for row in rows)
        later = rows[first_tick:]
        random.Random(7).shuffle(later)
        faulty.write_text(header + "".join(rows[:first_tick] + later))
        argv = [
            "detect", s, "--trace", str(faulty), "--reference", str(tmp_path / "reference.csv"),
            "--out", str(tmp_path / "report.csv"),
            "--deviations-out", str(tmp_path / "deviations.csv"),
        ]
        assert main(argv) == 0
        assert {name: digest(tmp_path / name) for name in in_order} == in_order

    def test_detect_on_fully_shuffled_traces_writes_the_same_bytes(self, tmp_path):
        """Both traces with every row shuffled, the first tick's too, so the
        columns follow no order: detect still reports sensors in id order."""
        s = str(BUNDLED_KNIFE)
        in_order = knife_detect_digests(tmp_path, 1)
        rng = random.Random(11)
        for name in ("faulty.csv", "reference.csv"):
            path = tmp_path / name
            header, *rows = path.read_text().splitlines(keepends=True)
            first = rows[: sum(row.startswith("0,") for row in rows)]
            while rows[: len(first)] == first:
                rng.shuffle(rows)
            path.write_text(header + "".join(rows))
        argv = [
            "detect", s, "--trace", str(tmp_path / "faulty.csv"),
            "--reference", str(tmp_path / "reference.csv"),
            "--out", str(tmp_path / "report.csv"),
            "--deviations-out", str(tmp_path / "deviations.csv"),
        ]
        assert main(argv) == 0
        assert {name: digest(tmp_path / name) for name in in_order} == in_order

    def test_nothing_to_diagnose_exits_1(self, tmp_path, knife_yaml, capsys):
        empty = tmp_path / "none.csv"
        empty.write_text("sensor_id,window_start,expected_state,matched_state\n")
        code = main(
            [
                "diagnose",
                str(knife_yaml),
                "--deviations",
                str(empty),
                "--out",
                str(tmp_path / "d.csv"),
            ]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().err)["reason"] == "NOTHING_TO_DIAGNOSE"


class TestDetectInvalidInput:
    def simulate_pair(self, tmp_path, knife_yaml):
        faulty, reference = tmp_path / "faulty.csv", tmp_path / "reference.csv"
        assert main(["simulate", str(knife_yaml), "--out", str(faulty)]) == 0
        assert main(["simulate", str(knife_yaml), "--out", str(reference), "--no-faults"]) == 0
        return faulty, reference

    def detect(self, knife_yaml, faulty, reference, out, *extra):
        args = ["detect", str(knife_yaml), "--trace", str(faulty), "--reference", str(reference)]
        return main(args + ["--out", str(out), *extra])

    def test_nan_reading_exits_2(self, tmp_path, knife_yaml, capsys):
        faulty, reference = self.simulate_pair(tmp_path, knife_yaml)
        lines = faulty.read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("100,oven_temp,"))
        tick, sensor, _, label = lines[row].split(",")
        lines[row] = f"{tick},{sensor},nan,{label}"
        faulty.write_text("".join(lines))
        capsys.readouterr()
        out = tmp_path / "report.csv"
        assert self.detect(knife_yaml, faulty, reference, out) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert f"row {row + 1}: non-finite value" in error["detail"]
        assert not out.exists()

    def edit_oven_temp_row(self, path, edit):
        """Replace the tick-100 ``oven_temp`` line by ``edit(line)`` (a list of
        lines); returns its 1-based CSV row number."""
        lines = path.read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("100,oven_temp,"))
        lines[row : row + 1] = edit(lines[row])
        path.write_text("".join(lines))
        return row + 1

    def assert_invalid(self, capsys, code, out, detail):
        assert code == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert detail in error["detail"]
        assert not out.exists()

    def test_missing_row_exits_2(self, tmp_path, knife_yaml, capsys):
        faulty, reference = self.simulate_pair(tmp_path, knife_yaml)
        self.edit_oven_temp_row(faulty, lambda line: [])
        capsys.readouterr()
        out = tmp_path / "report.csv"
        code = self.detect(knife_yaml, faulty, reference, out)
        self.assert_invalid(capsys, code, out, "tick 100: no row for sensor 'oven_temp'")

    def test_trace_pair_without_a_model_sensor_exits_2(self, tmp_path, knife_yaml, capsys):
        # Read as nominal, the unmeasured lid_state would turn the diagnosis.
        faulty, reference = self.simulate_pair(tmp_path, knife_yaml)
        for path in (faulty, reference):
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(line for line in lines if ",lid_state," not in line))
        capsys.readouterr()
        out = tmp_path / "report.csv"
        code = self.detect(knife_yaml, faulty, reference, out)
        self.assert_invalid(capsys, code, out, "trace CSV: no rows for sensor 'lid_state'")

    def test_duplicate_row_exits_2(self, tmp_path, knife_yaml, capsys):
        faulty, reference = self.simulate_pair(tmp_path, knife_yaml)
        row = self.edit_oven_temp_row(faulty, lambda line: [line, line])
        capsys.readouterr()
        out = tmp_path / "report.csv"
        code = self.detect(knife_yaml, faulty, reference, out)
        detail = f"row {row + 1}: second row for tick 100, sensor 'oven_temp'"
        self.assert_invalid(capsys, code, out, detail)

    @pytest.mark.parametrize("which", ["trace", "reference"])
    def test_unknown_state_label_exits_2(self, tmp_path, knife_yaml, capsys, which):
        faulty, reference = self.simulate_pair(tmp_path, knife_yaml)
        edited = faulty if which == "trace" else reference
        row = self.edit_oven_temp_row(edited, lambda line: ["100,oven_temp,5.0,Bogus\n"])
        capsys.readouterr()
        out = tmp_path / "report.csv"
        code = self.detect(knife_yaml, faulty, reference, out)
        detail = f"row {row}: sensor 'oven_temp' has no state 'Bogus'"
        self.assert_invalid(capsys, code, out, detail)

    def test_field_over_the_csv_size_limit_exits_2(self, tmp_path, knife_yaml, capsys):
        faulty, reference = self.simulate_pair(tmp_path, knife_yaml)
        huge = '"' + "X" * (csv.field_size_limit() + 1) + '"'
        row = self.edit_oven_temp_row(faulty, lambda line: [f"100,oven_temp,5.0,{huge}\n"])
        capsys.readouterr()
        out = tmp_path / "report.csv"
        code = self.detect(knife_yaml, faulty, reference, out)
        detail = f"trace CSV row {row}: field larger than field limit"
        self.assert_invalid(capsys, code, out, detail)

    def test_window_covering_no_segment_exits_2(self, tmp_path, knife_yaml, capsys):
        faulty, reference = self.simulate_pair(tmp_path, knife_yaml)
        capsys.readouterr()
        out = tmp_path / "report.csv"
        assert self.detect(knife_yaml, faulty, reference, out, "--window", "400") == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert "covers no constant-label segment" in error["detail"]
        assert not out.exists()

    def test_bad_alpha_is_blamed_even_when_no_window_fits(self, tmp_path, knife_yaml, capsys):
        faulty, reference = self.simulate_pair(tmp_path, knife_yaml)
        capsys.readouterr()
        out = tmp_path / "report.csv"
        code = self.detect(knife_yaml, faulty, reference, out, "--alpha", "1.5", "--window", "400")
        self.assert_invalid(capsys, code, out, "alpha must be in (0, 1), got 1.5")


DEVIATIONS_HEADER = "sensor_id,window_start,expected_state,matched_state\n"


class TestDiagnoseInvalidInput:
    @pytest.fixture(scope="class")
    def knife_deviations(self, tmp_path_factory):
        """The knife scenario file and the deviation rows of its lid fault."""
        tmp_path = tmp_path_factory.mktemp("pipeline")
        (tmp_path / "a").mkdir()
        path = tmp_path / "knife.yaml"
        path.write_text(serialize_scenario(knife_fixture()), encoding="utf-8")
        deviations = run_pipeline(tmp_path, path)[3]
        return path, deviations.read_text(encoding="utf-8").splitlines(keepends=True)[1:]

    def diagnose_argv(self, tmp_path, knife_yaml, rows):
        deviations = tmp_path / "deviations.csv"
        deviations.write_text(DEVIATIONS_HEADER + "".join(rows), encoding="utf-8")
        out = tmp_path / "diagnosis.csv"
        return ["diagnose", str(knife_yaml), "--deviations", str(deviations), "--out", str(out)]

    def diagnose(self, tmp_path, knife_yaml, rows, *extra):
        argv = self.diagnose_argv(tmp_path, knife_yaml, rows)
        code = main(argv + list(extra))
        return code, tmp_path / "diagnosis.csv"

    def test_field_over_the_csv_size_limit_exits_2(self, tmp_path, knife_deviations, capsys):
        knife_yaml, rows = knife_deviations
        huge = '"' + "X" * (csv.field_size_limit() + 1) + '"'
        code, out = self.diagnose(tmp_path, knife_yaml, [rows[0], f"{huge},8,Hot,Ambient\n"])
        assert code == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert "deviations CSV row 3: field larger than field limit" in error["detail"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, detail",
        [
            ("no_such_sensor,8,Hot,Ambient", "unknown sensor id 'no_such_sensor'"),
            ("oven_temp,8,Warm,Ambient", "the sensor has no state 'Warm'"),
            ("oven_temp,8,Hot,Warm", "the sensor has no state 'Warm'"),
            ("oven_temp,-1,Hot,Ambient", "outside the horizon [0, 300)"),
            ("oven_temp,300,Hot,Ambient", "outside the horizon [0, 300)"),
            ("lid_state,0,Open,Open", "the matched state is the expected state 'Open'"),
        ],
        ids=[
            "unknown sensor", "expected state", "matched state", "negative start",
            "start at horizon", "no deviation",
        ],
    )
    @pytest.mark.parametrize("alone", [True, False], ids=["alone", "among valid rows"])
    def test_deviation_that_does_not_fit_the_scenario_exits_2(
        self, tmp_path, knife_deviations, capsys, row, detail, alone
    ):
        knife_yaml, rows = knife_deviations
        code, out = self.diagnose(tmp_path, knife_yaml, [row + "\n"] + ([] if alone else rows))
        assert code == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert detail in error["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("sensor", ["ghost", "nothing to diagnose"])
    def test_unknown_observed_sensor_exits_2(self, tmp_path, knife_deviations, capsys, sensor):
        """An unknown ``--observe`` sensor is a usage error, whatever its
        name says; it is never taken for the NOTHING_TO_DIAGNOSE verdict."""
        knife_yaml, rows = knife_deviations
        code, out = self.diagnose(tmp_path, knife_yaml, rows, "--observe", sensor)
        assert code == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert f"unknown sensor id {sensor!r}" in error["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("hash_seed", ["0", "5"])
    def test_first_unknown_observed_sensor_is_named(self, tmp_path, knife_deviations, hash_seed):
        """The error names the first unknown ``--observe`` argument, in
        argument order, under every hash seed."""
        knife_yaml, rows = knife_deviations
        argv = self.diagnose_argv(tmp_path, knife_yaml, rows)
        for sensor in ("ghost_a", "ghost_b", "ghost_c"):
            argv += ["--observe", sensor]
        src = str(Path(causalcps.__file__).parents[1])
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        command = [sys.executable, "-m", "causalcps.cli", *argv]
        result = subprocess.run(
            command, env=env, capture_output=True, text=True, check=False, timeout=120
        )
        assert result.returncode == 2
        assert "unknown sensor id 'ghost_a'" in json.loads(result.stderr)["detail"]

    def test_anomalous_match_is_accepted(self, tmp_path, knife_deviations):
        knife_yaml, rows = knife_deviations
        extra = "oven_temp,8,Hot,ANOMALOUS\n"
        code, out = self.diagnose(tmp_path, knife_yaml, [extra] + rows)
        assert code == 0
        assert out.read_text().splitlines()[1].startswith("1,lid_actuator,")


class TestPlanCommand:
    def test_plan_writes_steps(self, tmp_path, knife_yaml):
        out = tmp_path / "plan.csv"
        code = main(["plan", str(knife_yaml), "--goal", "knife_hardness=Hard", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,module,functionality,parameter,duration,cumulative_duration"
        assert lines[1] == "1,oven,heat,100,8,8"
        assert lines[2] == "2,cooler,quench,1,3,11"

    def test_no_plan_exits_1(self, tmp_path, capsys):
        doc = knife_fixture()
        # Remove the oven functionality: hardening becomes unreachable.
        import dataclasses

        crippled = dataclasses.replace(doc, functionalities=doc.functionalities[1:])
        path = tmp_path / "crippled.yaml"
        path.write_text(serialize_scenario(crippled), encoding="utf-8")
        code = main(
            ["plan", str(path), "--goal", "knife_hardness=Hard", "--out", str(tmp_path / "p.csv")]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().err)["reason"] == "NO_PLAN"

    def test_repeated_functionality_exits_2(self, tmp_path, capsys):
        # A second oven.heat, its param-100 transition re-keyed to 99, would
        # tie with the first in the planner's heap.
        text = BUNDLED_KNIFE.read_text(encoding="utf-8")
        heat = text[text.index("- module: oven\n") : text.index("- module: cooler\n")]
        again = heat.replace("100.0", "99.0")
        assert again.count("99.0") == 2
        bad = tmp_path / "knife.yaml"
        bad.write_text(text.replace(heat, heat + again), encoding="utf-8")
        out = tmp_path / "p.csv"
        assert main(["plan", str(bad), "--goal", "knife_temp=Hot", "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert error["detail"] == "functionality oven.heat: declared more than once"
        assert not out.exists()

    @pytest.mark.parametrize("value", [".nan", ".inf"])
    def test_non_finite_functionality_parameter_exits_2(self, tmp_path, capsys, value):
        # Before, nan gave NO_PLAN (exit 1) and inf a plan heating at inf.
        text = BUNDLED_KNIFE.read_text(encoding="utf-8")
        assert text.count("100.0") == 2
        bad = tmp_path / "knife.yaml"
        bad.write_text(text.replace("100.0", value), encoding="utf-8")
        out = tmp_path / "p.csv"
        assert main(["plan", str(bad), "--goal", "knife_temp=Hot", "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["reason"] == "INVALID_INPUT"
        assert error["detail"].startswith("functionalities[0].parameters[4]: must be finite")
        assert not out.exists()

    def test_malformed_goal_exits_2(self, tmp_path, knife_yaml, capsys):
        code = main(["plan", str(knife_yaml), "--goal", "no-equals", "--out", str(tmp_path / "p.csv")])
        assert code == 2

    def test_conflicting_goal_states_exit_2(self, tmp_path, knife_yaml, capsys):
        out = tmp_path / "p.csv"
        goals = ["--goal", "knife_temp=Hot", "--goal", "knife_temp=Cold"]
        code = main(["plan", str(knife_yaml), *goals, "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["reason"] == "INVALID_INPUT"
        assert not out.exists()

    def test_repeated_goal_plans_as_one(self, tmp_path, knife_yaml):
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        goal = ["--goal", "knife_hardness=Hard"]
        assert main(["plan", str(knife_yaml), *goal, "--out", str(once)]) == 0
        assert main(["plan", str(knife_yaml), *goal, *goal, "--out", str(twice)]) == 0
        assert twice.read_bytes() == once.read_bytes()

    def test_unknown_goal_sensor_exits_2(self, tmp_path, knife_yaml):
        code = main(
            ["plan", str(knife_yaml), "--goal", "oven_temp=Hot", "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2  # oven_temp is not a product sensor


class TestDeterminism:
    def test_byte_identical_artifacts_on_repeat(self, tmp_path, knife_yaml):
        first = run_pipeline(tmp_path / "a", knife_yaml)
        second = run_pipeline(tmp_path / "b", knife_yaml)
        (tmp_path / "a").mkdir(exist_ok=True)
        for one, two in zip(first, second):
            assert Path(one).read_bytes() == Path(two).read_bytes()

    def test_knife_artifacts_keep_their_bytes(self, tmp_path):
        """simulate x2, detect, diagnose --max-card 3 and three plans on the
        bundled knife scenario at seed 1 write exactly the bytes recorded here.

        The digests assume numpy's PCG64 bit generator with its ziggurat normal
        sampler, and the platform libm's ``erf`` behind ``math.erf``; another
        numpy stream or libm can legitimately change the sampled values and
        the p-values that follow from them.
        """
        assert knife_artifact_digests(tmp_path) == KNIFE_SEED_1_DIGESTS

    def test_knife_detect_at_non_default_settings_keeps_its_bytes(self, tmp_path):
        """detect with a short window, a stride that does not divide it and a
        looser alpha writes the bytes recorded here (same assumptions as the
        seed-1 digests above)."""
        options = ("--window", "20", "--stride", "7", "--alpha", "0.05")
        digests = knife_detect_digests(tmp_path, 42, *options)
        assert digests == KNIFE_SEED_42_W20_S7_A05_DIGESTS

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])  # missing required --out and scenario
        assert exc.value.code == 2


class TestParserReuse:
    """main() parses every call with one parser, built on first use."""

    @pytest.fixture
    def knife_deviations(self, tmp_path, knife_yaml):
        return run_pipeline(tmp_path, knife_yaml)[3]

    @pytest.mark.parametrize("command", ["diagnose", "plan"])
    def test_calls_write_the_same_bytes_in_either_order(
        self, tmp_path, knife_yaml, knife_deviations, command
    ):
        # An option list carried over from one call to the next would change
        # the second call's artifact.
        if command == "diagnose":
            base = ["diagnose", str(knife_yaml), "--deviations", str(knife_deviations)]
            first, second = ["--observe", "oven_temp"], []
        else:
            base = ["plan", str(knife_yaml)]
            first, second = ["--goal", "knife_temp=Hot"], ["--goal", "knife_hardness=Hard"]
        written = {}
        for i, options in enumerate([first, second, second, first]):
            out = tmp_path / f"{i}.csv"
            assert main([*base, *options, "--out", str(out)]) == 0
            written.setdefault(tuple(options), []).append(out.read_bytes())
        (first_bytes, first_again), (second_bytes, second_again) = written.values()
        assert first_bytes == first_again
        assert second_bytes == second_again
        assert first_bytes != second_bytes

    def test_help_reads_the_terminal_width_at_each_call(self, monkeypatch, capsys):
        widths = {}
        for columns in (40, 140):
            monkeypatch.setenv("COLUMNS", str(columns))
            with pytest.raises(SystemExit) as exc:
                main(["detect", "--help"])
            assert exc.value.code == 0
            widths[columns] = max(map(len, capsys.readouterr().out.splitlines()))
        assert widths[40] < widths[140]

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


@pytest.fixture(autouse=True)
def make_subdirs(tmp_path):
    (tmp_path / "a").mkdir(exist_ok=True)
    (tmp_path / "b").mkdir(exist_ok=True)
