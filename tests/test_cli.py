import csv
import hashlib
import json
from pathlib import Path

import pytest

from causalcps.cli import main
from causalcps.scenario import knife_fixture, serialize_scenario


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


def knife_artifact_digests(out_dir):
    """Run the whole CLI pipeline on the bundled knife scenario at seed 1 and
    return the sha256 digest of every artifact, by file name."""
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
        assert main(argv) == 0, argv
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

    def diagnose(self, tmp_path, knife_yaml, rows):
        deviations = tmp_path / "deviations.csv"
        deviations.write_text(DEVIATIONS_HEADER + "".join(rows), encoding="utf-8")
        out = tmp_path / "diagnosis.csv"
        argv = ["diagnose", str(knife_yaml), "--deviations", str(deviations), "--out", str(out)]
        code = main(argv)
        return code, out

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
        ],
        ids=[
            "unknown sensor", "expected state", "matched state", "negative start", "start at horizon"
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

    def test_malformed_goal_exits_2(self, tmp_path, knife_yaml, capsys):
        code = main(["plan", str(knife_yaml), "--goal", "no-equals", "--out", str(tmp_path / "p.csv")])
        assert code == 2

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


@pytest.fixture(autouse=True)
def make_subdirs(tmp_path):
    (tmp_path / "a").mkdir(exist_ok=True)
    (tmp_path / "b").mkdir(exist_ok=True)
