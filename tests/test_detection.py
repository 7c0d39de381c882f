import dataclasses
import itertools
import random
from collections import Counter

import numpy as np
import pytest

from causalcps import detection
from causalcps.detection import (
    AnomalyReport,
    Deviation,
    WindowVerdict,
    constant_label_windows,
    detect_effect,
    expected_state_check,
    scan_anomalies,
)
from causalcps.distributions import (
    ANOMALOUS,
    Degenerate,
    Normal,
    Uniform,
    _ks_p_value,
    match_state,
    sample,
    select_state,
    state_p_values,
)
from causalcps.model import (
    Sensor,
    Subsystem,
    SubsystemKind,
    build_model,
    causal_descendants,
    derive_causal_graph,
)
from causalcps.scenario import parse_scenario
from causalcps.simulation import FaultSpec, ScriptedIntervention, Trace, run_script
from test_diagnosis import random_cone_model


def synthetic_trace(values_by_sensor, labels_by_sensor):
    return Trace.from_columns(values_by_sensor, labels_by_sensor)


class TestConstantLabelWindows:
    def test_single_segment(self):
        starts = list(constant_label_windows(["X"] * 100, 50, 25))
        assert starts == [(0, "X"), (25, "X"), (50, "X")]

    def test_windows_never_straddle_a_change(self):
        labels = ["A"] * 60 + ["B"] * 80
        windows = list(constant_label_windows(labels, 50, 25))
        assert windows == [(0, "A"), (60, "B"), (85, "B")]

    def test_short_segments_yield_nothing(self):
        assert list(constant_label_windows(["A", "B"] * 30, 50, 25)) == []

    def test_codes_and_labels_give_the_windows_of_a_label_walk(self):
        def label_walk(labels, window, stride):
            found, seg_start = [], 0
            for i in range(1, len(labels) + 1):
                if i == len(labels) or labels[i] != labels[seg_start]:
                    starts = range(seg_start, i - window + 1, stride)
                    found += [(s, labels[seg_start]) for s in starts]
                    seg_start = i
            return found

        rng = random.Random(5)
        for _ in range(200):
            table = ("Lo", "Mid", "Hi")
            codes = [rng.choice((0, 0, 0, 1, 2)) for _ in range(rng.randint(0, 80))]
            labels = [table[c] for c in codes]
            window, stride = rng.randint(1, 12), rng.randint(1, 6)
            expected = label_walk(labels, window, stride)
            assert list(constant_label_windows(labels, window, stride)) == expected
            by_code = list(constant_label_windows(np.array(codes), window, stride))
            assert [(start, table[code]) for start, code in by_code] == expected
            assert all(type(label) is str for _, label in constant_label_windows(labels, 1, 1))

    def test_bad_window_rejected_on_first_step(self):
        windows = constant_label_windows([], 0, 1)
        with pytest.raises(ValueError, match="window and stride"):
            next(windows)


class TestDetectEffect:
    def probe_model(self):
        sensors = (
            Sensor("probe", (("Lo", Normal(20, 2)), ("Hi", Normal(800, 10))), "Lo"),
            Sensor("other", (("Idle", Degenerate(0)),), "Idle"),
        )
        return build_model(
            sensors, (Subsystem("mount", SubsystemKind.COMPONENT, ("probe",), ()),)
        )

    def test_transition_is_detected(self):
        model = self.probe_model()
        trace = run_script(
            model, 0, 300, interventions=[ScriptedIntervention(150, "probe", "Hi")]
        )
        effect, result = detect_effect(trace, "probe", 150, window=50, alpha=0.01)
        assert effect
        assert result.p_value < 1e-6

    def test_no_change_not_flagged(self):
        model = self.probe_model()
        flagged = 0
        for seed in range(20):
            trace = run_script(model, seed, 200)
            effect, _ = detect_effect(trace, "probe", 100, window=50, alpha=0.01)
            flagged += effect
        assert flagged <= 1

    def test_symmetric_in_windows(self):
        model = self.probe_model()
        trace = run_script(
            model, 3, 200, interventions=[ScriptedIntervention(100, "probe", "Hi")]
        )
        values = trace.values_for("probe")
        from causalcps.distributions import two_sample_test

        assert two_sample_test(values[50:100], values[100:150]) == two_sample_test(
            values[100:150], values[50:100]
        )

    def test_window_out_of_range_rejected(self):
        model = self.probe_model()
        trace = run_script(model, 0, 80)
        with pytest.raises(ValueError, match="out of range"):
            detect_effect(trace, "probe", 20, window=50, alpha=0.01)
        with pytest.raises(ValueError, match="out of range"):
            detect_effect(trace, "probe", 60, window=50, alpha=0.01)

    @pytest.mark.parametrize("alpha", [1.5, float("nan"), 0.0, 1.0, -0.01])
    def test_bad_alpha_rejected(self, knife_reference, alpha):
        with pytest.raises(ValueError, match=rf"alpha must be in \(0, 1\), got {alpha}"):
            detect_effect(knife_reference, "oven_temp", 100, window=50, alpha=alpha)

    @pytest.mark.parametrize("window", [0, -5])
    def test_window_below_one_rejected(self, knife_reference, window):
        with pytest.raises(ValueError, match=rf"window must be >= 1, got {window}"):
            detect_effect(knife_reference, "oven_temp", 100, window=window, alpha=0.01)


def count_block_rows(monkeypatch):
    """Count every (window, state) pair detection tests: one entry per row of
    each block passed to the goodness-of-fit kernel."""
    tested = []
    original = detection.gof_windows

    def counting(values, positions, dist):
        tested.extend([dist] * positions.shape[0])
        return original(values, positions, dist)

    monkeypatch.setattr(detection, "gof_windows", counting)
    return tested


class TestScanAnomalies:
    def test_fault_free_knife_trace_is_clean(self, knife_doc, knife_model, knife_reference):
        report = scan_anomalies(knife_reference, knife_model)
        assert report.verdicts
        assert report.anomalous_verdicts() == []

    def test_pinned_between_states_is_anomalous(self, knife_model):
        # oven_temp stuck at ~400: between Ambient (20) and Hot (800).
        n = 120
        values = {"oven_temp": sample(Normal(400, 10), 5, n)}
        labels = {"oven_temp": ["Ambient"] * n}
        trace = synthetic_trace(values, labels)
        report = scan_anomalies(trace, knife_model)
        assert report.verdicts
        assert all(v.matched == ANOMALOUS for v in report.verdicts)

    def test_report_covers_all_windows_and_sensors(self, knife_model, knife_reference):
        report = scan_anomalies(knife_reference, knife_model)
        covered = {v.sensor for v in report.verdicts}
        assert covered == set(knife_reference.sensor_ids)
        for verdict in report.verdicts:
            assert set(verdict.p_values) == set(
                knife_model.sensor(verdict.sensor).labels()
            )
            assert verdict.length == 50 and verdict.alpha == 0.01

    def test_one_gof_test_per_state_per_window(self, knife_model, knife_reference, monkeypatch):
        tested = count_block_rows(monkeypatch)
        report = scan_anomalies(knife_reference, knife_model)
        assert len(tested) == sum(len(v.p_values) for v in report.verdicts)

    def test_rejects_bad_alpha(self, knife_model, knife_reference):
        with pytest.raises(ValueError, match="alpha"):
            scan_anomalies(knife_reference, knife_model, alpha=1.5)

    def test_rejects_bad_parameters_with_no_window_to_test(self, knife_model, knife_reference):
        with pytest.raises(ValueError, match="alpha"):
            scan_anomalies(knife_reference, knife_model, window=400, alpha=1.5)
        for window, stride in ((0, 25), (400, 0)):
            with pytest.raises(ValueError, match="window and stride"):
                scan_anomalies(knife_reference, knife_model, window=window, stride=stride)

    def test_matched_label_survives_bonferroni_level(self, knife_model, knife_reference):
        report = scan_anomalies(knife_reference, knife_model)
        for verdict in report.verdicts:
            if not verdict.anomalous:
                level = verdict.alpha / len(verdict.p_values)
                assert verdict.p_values[verdict.matched] >= level

    def test_verdicts_are_frozen_and_slotted(self, knife_model):
        # oven_temp at Ambient, then stuck at ~400 under the same label.
        values = {"oven_temp": [*sample(Normal(20, 2), 5, 60), *sample(Normal(400, 10), 6, 60)]}
        trace = synthetic_trace(values, {"oven_temp": ["Ambient"] * 120})
        report = scan_anomalies(trace, knife_model)
        verdict = report.verdicts[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            verdict.matched = ANOMALOUS
        assert not hasattr(verdict, "__dict__")
        flagged = report.anomalous_verdicts()
        assert [v.start for v in flagged] == [25, 50]
        assert flagged == [v for v in report.verdicts if v.matched == ANOMALOUS]
        assert all(type(p) is float for v in report.verdicts for p in v.p_values.values())


class TestExpectedStateCheck:
    def test_reference_against_itself_is_empty(self, knife_model, knife_reference):
        assert expected_state_check(knife_reference, knife_reference, knife_model) == []

    def test_one_gof_test_per_state_per_window(
        self, knife_model, knife_reference, knife_lid_fault_trace, monkeypatch
    ):
        tested = count_block_rows(monkeypatch)
        expected_state_check(knife_lid_fault_trace, knife_reference, knife_model)
        windows = {
            s: len(list(constant_label_windows(knife_reference.labels_for(s), 50, 25)))
            for s in knife_reference.sensor_ids
        }
        assert len(tested) == sum(
            n * len(knife_model.sensor(s).states) for s, n in windows.items()
        )

    def test_windows_the_scan_judged_are_not_tested_again(
        self, knife_model, knife_reference, knife_lid_fault_trace, monkeypatch
    ):
        trace, ref = knife_lid_fault_trace, knife_reference
        scan = scan_anomalies(trace, knife_model)
        scanned = {(v.sensor, v.start) for v in scan.verdicts}
        untested = {
            (s, start)
            for s in ref.sensor_ids
            for start, _ in constant_label_windows(ref.labels_for(s), 50, 25)
        } - scanned
        assert scanned and untested
        tested = count_block_rows(monkeypatch)
        expected_state_check(trace, ref, knife_model, scan=scan)
        assert len(tested) == sum(len(knife_model.sensor(s).states) for s, _ in untested)

    @pytest.mark.parametrize("setting,value", [("window", 40), ("stride", 20), ("alpha", 0.05)])
    def test_scan_with_other_settings_rejected(
        self, knife_model, knife_reference, knife_lid_fault_trace, setting, value
    ):
        settings = {"window": 50, "stride": 25, "alpha": 0.01}
        scan = scan_anomalies(knife_lid_fault_trace, knife_model, **{**settings, setting: value})
        with pytest.raises(ValueError, match="scan has"):
            expected_state_check(
                knife_lid_fault_trace, knife_reference, knife_model, **settings, scan=scan
            )

    def test_rejects_bad_parameters_with_no_window_to_test(self, knife_model, knife_reference):
        ref = knife_reference
        with pytest.raises(ValueError, match="alpha"):
            expected_state_check(ref, ref, knife_model, window=400, alpha=1.5)
        for window, stride in ((0, 25), (400, 0)):
            with pytest.raises(ValueError, match="window and stride"):
                expected_state_check(ref, ref, knife_model, window=window, stride=stride)

    def test_lid_fault_deviations_cover_downstream(
        self, knife_model, knife_reference, knife_lid_fault_trace
    ):
        deviations = expected_state_check(
            knife_lid_fault_trace, knife_reference, knife_model
        )
        deviating = {d.sensor for d in deviations}
        assert deviating == {"lid_state", "oven_temp", "knife_temp", "knife_hardness"}
        oven_starts = sorted(d.start for d in deviations if d.sensor == "oven_temp")
        # Reference oven_temp is Hot on [8, 133); every window inside deviates.
        assert oven_starts == [8, 33, 58, 83]
        for d in deviations:
            if d.sensor == "oven_temp":
                assert d.expected == "Hot" and d.matched == "Ambient"

    def test_deviations_only_downstream_of_fault(
        self, knife_model, knife_reference, knife_lid_fault_trace
    ):
        graph = derive_causal_graph(knife_model)
        fault_sensors = set(knife_model.subsystem("lid_actuator").sensors)
        downstream = set(fault_sensors)
        for sensor in fault_sensors:
            downstream |= causal_descendants(graph, sensor)
        deviations = expected_state_check(
            knife_lid_fault_trace, knife_reference, knife_model
        )
        assert {d.sensor for d in deviations} <= downstream

    def test_length_mismatch_rejected(self, knife_doc, knife_model, knife_reference):
        short = knife_doc.run(horizon=100, include_faults=True)
        with pytest.raises(ValueError, match="length mismatch"):
            expected_state_check(short, knife_reference, knife_model)

    def test_sensor_set_mismatch_rejected(self, knife_model, knife_reference):
        n = len(knife_reference)
        other = synthetic_trace(
            {"oven_temp": [20.0] * n}, {"oven_temp": ["Ambient"] * n}
        )
        with pytest.raises(ValueError, match="different sensor sets"):
            expected_state_check(other, knife_reference, knife_model)

    def test_shift_flagged_within_two_windows_of_onset(self):
        sensors = (
            Sensor("probe", (("A", Normal(0, 1)), ("B", Normal(5, 1))), "A"),
            Sensor("other", (("Idle", Degenerate(0)),), "Idle"),
        )
        model = build_model(
            sensors, (Subsystem("mount", SubsystemKind.COMPONENT, ("probe",), ()),)
        )
        onset = 100
        hits = 0
        for seed in range(30):
            reference = run_script(model, seed, 300)
            shifted = run_script(
                model,
                seed + 1000,
                300,
                interventions=[ScriptedIntervention(onset, "probe", "B")],
            )
            deviations = [
                d
                for d in expected_state_check(shifted, reference, model)
                if d.sensor == "probe" and d.start + 50 > onset
            ]
            if deviations and min(d.start for d in deviations) <= onset + 2 * 25:
                hits += 1
        assert hits >= 29


def reference_scan(trace, model, window, stride, alpha):
    """scan_anomalies, one window and one state_p_values call at a time,
    sensors in id order."""
    verdicts = []
    for sensor_id in sorted(trace.sensor_ids):
        states = model.sensor(sensor_id).states
        values = trace.values_for(sensor_id)
        for start, _ in constant_label_windows(trace.labels_for(sensor_id), window, stride):
            results = state_p_values(values[start : start + window], states)
            p_values = {label: r.p_value for label, r in results.items()}
            verdicts.append(
                WindowVerdict(sensor_id, start, window, select_state(p_values, alpha), p_values, alpha)
            )
    return AnomalyReport(window=window, stride=stride, alpha=alpha, verdicts=tuple(verdicts))


def reference_check(trace, reference, model, window, stride, alpha):
    """expected_state_check, one window and one match_state call at a time,
    sensors in id order."""
    deviations = []
    for sensor_id in sorted(trace.sensor_ids):
        states = model.sensor(sensor_id).states
        values = trace.values_for(sensor_id)
        expected_labels = reference.labels_for(sensor_id)
        for start, expected in constant_label_windows(expected_labels, window, stride):
            matched = match_state(values[start : start + window], states, alpha)
            if matched != expected:
                deviations.append(Deviation(sensor_id, start, expected, matched))
    return deviations


def longest_segment(*traces):
    return max(
        len(list(run))
        for trace in traces
        for sensor_id in trace.sensor_ids
        for _, run in itertools.groupby(trace.labels_for(sensor_id))
    )


class TestBlockOracle:
    """The block pass gives the per-window loop's reports and deviations."""

    SETTINGS = [(50, 25, 0.01), (1, 1, 0.01), (7, 13, 0.05)]

    def settings(self, *traces):
        too_long = longest_segment(*traces) + 1
        return self.SETTINGS + [(too_long, 25, 0.01), (len(traces[0]) + 1, 25, 0.01)]

    def test_scan_equals_per_window_loop(self, knife_model, knife_reference, knife_lid_fault_trace):
        for trace in (knife_reference, knife_lid_fault_trace):
            for window, stride, alpha in self.settings(trace):
                report = scan_anomalies(trace, knife_model, window, stride, alpha)
                expected = reference_scan(trace, knife_model, window, stride, alpha)
                assert report == expected
                # report.csv writes repr(p_best): the p-values' types must match too.
                assert [repr(v.p_best) for v in report.verdicts] == [
                    repr(v.p_best) for v in expected.verdicts
                ]

    def test_check_equals_per_window_loop(
        self, knife_model, knife_reference, knife_lid_fault_trace
    ):
        ref = knife_reference
        for trace in (knife_reference, knife_lid_fault_trace):
            for window, stride, alpha in self.settings(trace, ref):
                deviations = expected_state_check(trace, ref, knife_model, window, stride, alpha)
                expected = reference_check(trace, ref, knife_model, window, stride, alpha)
                assert deviations == expected

    def test_check_with_the_scan_equals_the_plain_check(
        self, knife_model, knife_reference, knife_lid_fault_trace
    ):
        ref = knife_reference
        for trace in (knife_reference, knife_lid_fault_trace):
            for window, stride, alpha in self.settings(trace, ref):
                scan = scan_anomalies(trace, knife_model, window, stride, alpha)
                plain = expected_state_check(trace, ref, knife_model, window, stride, alpha)
                shared = expected_state_check(
                    trace, ref, knife_model, window, stride, alpha, scan=scan
                )
                assert shared == plain

    def test_settings_cover_non_empty_and_empty_cases(
        self, knife_model, knife_reference, knife_lid_fault_trace
    ):
        trace, ref = knife_lid_fault_trace, knife_reference
        counts = [
            (
                len(scan_anomalies(trace, knife_model, window, stride, alpha).verdicts),
                len(expected_state_check(trace, ref, knife_model, window, stride, alpha)),
            )
            for window, stride, alpha in self.settings(trace, ref)
        ]
        assert all(scanned and deviating for scanned, deviating in counts[:3])
        assert counts[3:] == [(0, 0), (0, 0)]

    @pytest.mark.parametrize("order", [("A", "B"), ("B", "A")])
    def test_tied_best_p_values_take_the_first_state(self, order):
        # Every sample lies within DEGENERATE_TOLERANCE of both point masses,
        # so both p-values are 1.0; the verdict is the first in state order.
        laws = {"A": Degenerate(0.0), "B": Degenerate(5e-10)}
        probe = Sensor("probe", tuple((label, laws[label]) for label in order), order[0])
        model = build_model((probe, Sensor("other", (("Idle", Degenerate(1.0)),), "Idle")), ())
        n = 120
        trace = synthetic_trace(
            {"probe": [2.5e-10] * n, "other": [1.0] * n},
            {"probe": [order[1]] * n, "other": ["Idle"] * n},
        )
        report = scan_anomalies(trace, model)
        probed = [v for v in report.verdicts if v.sensor == "probe"]
        assert probed and all(v.p_values == {"A": 1.0, "B": 1.0} for v in probed)
        assert {v.matched for v in probed} == {order[0]}
        assert report == reference_scan(trace, model, 50, 25, 0.01)
        deviations = expected_state_check(trace, trace, model, scan=report)
        assert deviations == reference_check(trace, trace, model, 50, 25, 0.01)
        assert {(d.expected, d.matched) for d in deviations} == {(order[1], order[0])}

    PLANT_SETTINGS = [(50, 25, 0.01), (60, 10, 0.01), (7, 13, 0.05), (1, 1, 0.01)]

    @pytest.fixture(scope="class")
    def plant(self):
        """The benchmark's plant: a 300-tick run of plant_monitor(1), its
        model, and as reference the fault-free run of plant_monitor(2), whose
        other set-point levels make many windows deviate."""
        from test_simulation import load_perfbench_generators

        generators = load_perfbench_generators()
        doc = parse_scenario(generators.plant_monitor(1).yaml_text())
        other = parse_scenario(generators.plant_monitor(2).yaml_text())
        reference = other.run(seed=2, horizon=300, include_faults=False)
        return doc.build(), doc.run(seed=1, horizon=300), reference

    def test_plant_monitor_equals_per_window_loop(self, plant):
        model, trace, reference = plant
        laws = {type(dist) for sensor in model.sensors for _, dist in sensor.states}
        assert laws == {Normal, Uniform, Degenerate}
        for window, stride, alpha in self.PLANT_SETTINGS:
            report = scan_anomalies(trace, model, window, stride, alpha)
            expected = reference_scan(trace, model, window, stride, alpha)
            assert report == expected
            assert [repr(v.p_best) for v in report.verdicts] == [
                repr(v.p_best) for v in expected.verdicts
            ]
            # Many windows lie far outside some state's law: d == 1.0.
            worst = _ks_p_value(1.0, window)
            assert sum(
                p == worst for v in report.verdicts for p in v.p_values.values()
            ) > len(report.verdicts)
            deviations = expected_state_check(trace, reference, model, window, stride, alpha)
            assert deviations == reference_check(trace, reference, model, window, stride, alpha)
            assert deviations
            shared = expected_state_check(
                trace, reference, model, window, stride, alpha, scan=report
            )
            assert shared == deviations


def label_deviations(faulty, reference, window, stride):
    """The deviations that exact detection reports, read straight from the
    two runs' label columns: each stride-aligned window inside a run of one
    reference label deviates when the faulty labels over it are not all that
    label, and matches the faulty run's one label, or ANOMALOUS when they
    mix."""
    deviations = []
    for sensor in sorted(reference.sensor_ids):
        shown = faulty.labels_for(sensor)
        segment_start = 0
        for expected, segment in itertools.groupby(reference.labels_for(sensor)):
            segment_end = segment_start + len(list(segment))
            for start in range(segment_start, segment_end - window + 1, stride):
                labels = set(shown[start : start + window])
                if labels != {expected}:
                    matched = labels.pop() if len(labels) == 1 else ANOMALOUS
                    deviations.append(Deviation(sensor, start, expected, matched))
            segment_start = segment_end
    return deviations


def test_point_mass_deviations_equal_label_differences_on_random_models():
    """Every state of a ``random_cone_model`` sensor is a point mass, so
    detection is exact: with each component's table emptied from tick 0 in
    turn, ``expected_state_check`` reports exactly ``label_deviations`` of
    the faulty and the fault-free run, at a window and stride drawn per
    model."""
    rng = random.Random(5)
    horizon = 120
    seen = Counter()
    for case in range(150):
        model, interventions = random_cone_model(rng, horizon)
        window, stride = rng.randint(1, 12), rng.randint(1, 8)
        reference = run_script(model, 2, horizon, interventions)
        for component in sorted(model.component_ids()):
            faults = [FaultSpec(component, (), 0)]
            faulty = run_script(model, 1, horizon, interventions, faults)
            deviations = expected_state_check(faulty, reference, model, window, stride)
            assert deviations == label_deviations(faulty, reference, window, stride), (
                case, component
            )
            seen["cases"] += 1
            seen["no deviation" if not deviations else "deviations"] += 1
            for deviation in deviations:
                seen["anomalous" if deviation.matched == ANOMALOUS else "one label"] += 1
    assert min(seen.values()) >= 100 and len(seen) == 5, seen
