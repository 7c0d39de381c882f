"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import hashlib
import itertools
from contextlib import contextmanager
import numpy as np

from causalcps.cli import main
from causalcps.detection import expected_state_check, scan_anomalies
from causalcps.diagnosis import diagnose
from causalcps.distributions import Degenerate, Normal, gof_test
from causalcps.model import (
    Effect,
    Rule,
    Sensor,
    Subsystem,
    SubsystemKind,
    build_model,
    compose,
    derive_causal_graph,
)
from causalcps.planning import Plan, PlanStep, PlanningProblem, plan, validate_plan
from causalcps.scenario import (
    chain_fixture,
    knife_fixture,
    parse_scenario,
    serialize_scenario,
    thermostat_fixture,
)
from causalcps.simulation import EFFECT_APPLIED, ScriptedIntervention, run_script

from test_diagnosis import oracle_consistent_sets
from test_model import label_columns
from test_planning import brute_force_minimum


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({title}): PASS")


def knife_deviations(doc, model):
    reference = doc.run(include_faults=False)
    faulty = doc.run(include_faults=True)
    return expected_state_check(faulty, reference, model)


def test_criterion_1_requirements_checklist():
    with criterion(1, "requirements checklist R1-R8"):
        doc = knife_fixture()
        model = doc.build()

        # R1/R2: the causal construction builds and its graph derives.
        graph = derive_causal_graph(model)
        assert model.subsystems and graph.edges

        # R3: cause strictly precedes effect on every suite trace.
        traces = [
            doc.run(include_faults=False),
            doc.run(include_faults=True),
            thermostat_fixture().run(),
            chain_fixture().run(include_faults=False),
            chain_fixture().run(include_faults=True),
        ]
        for trace in traces:
            applied = list(trace.events(EFFECT_APPLIED))
            assert applied
            assert all(e.tick > e.fire_tick for e in applied)

        # R4: the cyclic pair builds, runs 1000 ticks, and has period 4.
        thermo = thermostat_fixture().run(horizon=1000)
        labels = list(zip(thermo.labels_for("temp"), thermo.labels_for("valve")))
        assert len(labels) == 1000
        assert all(labels[t] == labels[t + 4] for t in range(996))
        assert labels[0] != labels[1] or labels[1] != labels[2]

        # R5/R6: product and parametrized functionality survive the format.
        reparsed = parse_scenario(serialize_scenario(doc))
        assert reparsed == doc
        knife = reparsed.build().subsystem("knife")
        assert knife.kind is SubsystemKind.PRODUCT
        heat = next(f for f in reparsed.functionalities if f.name == "heat")
        assert heat.parameter_domain == (0.0, 25.0, 50.0, 75.0, 100.0)

        # R7: functionality declaration order changes nothing.
        problem = doc.planning_problem({"knife_hardness": "Hard"})
        baseline = plan(problem)
        for order in itertools.permutations(problem.functionalities):
            permuted = PlanningProblem(tuple(order), problem.initial, problem.goal)
            assert plan(permuted) == baseline

        # R8: a broken sensor and a broken component are told apart.
        chain = chain_fixture()
        chain_model = chain.build()
        chain_devs = knife_deviations(chain, chain_model)
        sensor_verdict = diagnose(
            chain_model, chain.interventions, chain.horizon, chain_devs, chain_model.sensor_ids()
        )
        assert sensor_verdict[0].components == frozenset({"sensor-fault:mid"})
        lid_verdict = diagnose(
            model, doc.interventions, doc.horizon, knife_deviations(doc, model), model.sensor_ids()
        )
        assert lid_verdict[0].components == frozenset({"lid_actuator"})
        assert not lid_verdict[0].is_sensor_fault()


def test_criterion_2_statistical_calibration():
    with criterion(2, "statistical calibration"):
        # Goodness-of-fit rejection rate at alpha=0.05: 0.05 +/- 0.02,
        # 1000 trials of n=200 under the null.
        rng = np.random.default_rng(0)
        rejected = sum(
            gof_test(rng.normal(0.0, 1.0, 200), Normal(0, 1)).p_value < 0.05
            for _ in range(1000)
        )
        rate = rejected / 1000
        assert 0.03 <= rate <= 0.07, f"gof rejection rate {rate}"

        # Window scan on fault-free knife traces: ANOMALOUS rate <= alpha+0.02
        # over at least 1000 windows.
        doc = knife_fixture()
        model = doc.build()
        total = anomalous = 0
        seed = 0
        while total < 1000:
            trace = doc.run(seed=seed, include_faults=False)
            report = scan_anomalies(trace, model, alpha=0.01)
            total += len(report.verdicts)
            anomalous += len(report.anomalous_verdicts())
            seed += 1
        assert anomalous / total <= 0.01 + 0.02, f"scan rate {anomalous / total} over {total}"


def test_criterion_3_detection_power():
    with criterion(3, "detection power"):
        sensors = (
            Sensor("probe", (("A", Normal(0, 1)), ("B", Normal(5, 1))), "A"),
            Sensor("aux", (("Idle", Degenerate(0.0)),), "Idle"),
        )
        model = build_model(
            sensors, (Subsystem("mount", SubsystemKind.COMPONENT, ("probe",), ()),)
        )
        onset, window, stride = 100, 50, 25
        hits = 0
        for seed in range(100):
            reference = run_script(model, seed, 300)
            shifted = run_script(
                model,
                seed + 10_000,
                300,
                interventions=[ScriptedIntervention(onset, "probe", "B")],
            )
            deviations = [
                d
                for d in expected_state_check(shifted, reference, model, window, stride, 0.01)
                if d.sensor == "probe" and d.start + window > onset
            ]
            if deviations and min(d.start for d in deviations) <= onset + 2 * stride:
                hits += 1
        assert hits >= 99, f"power {hits}/100"


def test_criterion_4_diagnosis_soundness():
    with criterion(4, "diagnosis soundness on the lid fault"):
        doc = knife_fixture()
        model = doc.build()
        deviations = knife_deviations(doc, model)

        observed_all = model.sensor_ids()
        ranked = diagnose(model, doc.interventions, doc.horizon, deviations, observed_all)
        assert ranked[0].components == frozenset({"lid_actuator"})
        assert ranked[0].cardinality == 1

        observed_partial = tuple(s for s in observed_all if s != "oven_temp")
        ranked_partial = diagnose(
            model, doc.interventions, doc.horizon, deviations, observed_partial
        )
        rank1 = [h.components for h in ranked_partial if h.cardinality == 1]
        assert frozenset({"lid_actuator"}) in rank1


def test_criterion_5_diagnosis_oracle_equivalence():
    with criterion(5, "diagnosis oracle equivalence"):
        cases = []

        knife = knife_fixture()
        knife_model = knife.build()
        cases.append(
            (knife_model, knife.interventions, knife.horizon, knife_deviations(knife, knife_model))
        )

        chain = chain_fixture()
        chain_model = chain.build()
        cases.append(
            (chain_model, chain.interventions, chain.horizon, knife_deviations(chain, chain_model))
        )

        from causalcps.detection import Deviation

        thermo_model = thermostat_fixture().build()
        cases.append(
            (
                thermo_model,
                (),
                300,
                [
                    Deviation("valve", 100, "Open", "Closed"),
                    Deviation("temp", 100, "Cold", "Hot"),
                ],
            )
        )

        for model, interventions, horizon, deviations in cases:
            assert len(model.component_ids()) <= 5
            expected = oracle_consistent_sets(
                model, interventions, horizon, deviations, model.sensor_ids()
            )
            got = diagnose(
                model,
                interventions,
                horizon,
                deviations,
                model.sensor_ids(),
                max_cardinality=len(model.component_ids()),
            )
            assert {h.components for h in got} == expected


def test_criterion_6_planner_soundness_and_optimality():
    with criterion(6, "planner soundness and optimality"):
        doc = knife_fixture()
        problems = [
            doc.planning_problem({"knife_hardness": "Hard"}),
            doc.planning_problem({"knife_temp": "Hot"}),
            doc.planning_problem({"knife_temp": "Hot", "knife_hardness": "Hard"}),
        ]
        for problem in problems:
            result = plan(problem)
            assert result is not None and validate_plan(result, problem)
            assert result.total_duration == brute_force_minimum(problem)

        knife_plan = plan(problems[0])
        assert knife_plan == Plan(
            steps=(PlanStep("oven", "heat", 100.0), PlanStep("cooler", "quench", 1.0)),
            total_duration=11,
        )

        unreachable = PlanningProblem(
            tuple(f for f in problems[0].functionalities if f.module != "oven"),
            problems[0].initial,
            problems[0].goal,
        )
        assert plan(unreachable) is None
        assert brute_force_minimum(unreachable) is None


def test_criterion_7_composition_semantics():
    with criterion(7, "composition trace equivalence"):
        def two_state(sid, base):
            return Sensor(sid, (("A", Degenerate(base)), ("B", Degenerate(base + 1.0))), "A")

        pairs = [
            # chained influence
            (
                Subsystem(
                    "alpha",
                    SubsystemKind.COMPONENT,
                    ("x", "y"),
                    (Rule({"x": "A"}, (Effect("y", "B", 1),)),),
                ),
                Subsystem(
                    "beta",
                    SubsystemKind.COMPONENT,
                    ("y", "z"),
                    (Rule({"y": "B"}, (Effect("z", "B", 2),)),),
                ),
            ),
            # same-tick same-target conflict
            (
                Subsystem(
                    "alpha",
                    SubsystemKind.COMPONENT,
                    ("x", "y"),
                    (Rule({"x": "A"}, (Effect("y", "B", 1),)),),
                ),
                Subsystem(
                    "beta",
                    SubsystemKind.COMPONENT,
                    ("z", "y"),
                    (Rule({"z": "A"}, (Effect("y", "A", 1),)),),
                ),
            ),
        ]
        for first, second in pairs:
            for ordering in ((first, second), (second, first)):
                base = (two_state("x", 0), two_state("y", 10), two_state("z", 20), two_state("w", 30))
                for combo in itertools.product("AB", repeat=4):
                    sensors = tuple(
                        Sensor(s.id, s.states, label) for s, label in zip(base, combo)
                    )
                    model = build_model(sensors, ordering)
                    composed = compose(model, ordering[0].id, ordering[1].id, "joint")
                    before = run_script(model, 0, 20)
                    after = run_script(composed, 0, 20)
                    assert label_columns(before) == label_columns(after)


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "CLI artifact determinism"):
        scenario = tmp_path / "knife.yaml"
        scenario.write_text(serialize_scenario(knife_fixture()), encoding="utf-8")

        def pipeline(workdir):
            workdir.mkdir(exist_ok=True)
            faulty = workdir / "faulty.csv"
            reference = workdir / "reference.csv"
            report = workdir / "report.csv"
            deviations = workdir / "deviations.csv"
            diagnosis = workdir / "diagnosis.csv"
            plan_out = workdir / "plan.csv"
            assert main(["simulate", str(scenario), "--out", str(faulty)]) == 0
            assert main(["simulate", str(scenario), "--out", str(reference), "--no-faults"]) == 0
            assert (
                main(
                    [
                        "detect",
                        str(scenario),
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
                        str(scenario),
                        "--deviations",
                        str(deviations),
                        "--out",
                        str(diagnosis),
                    ]
                )
                == 0
            )
            assert (
                main(
                    [
                        "plan",
                        str(scenario),
                        "--goal",
                        "knife_hardness=Hard",
                        "--out",
                        str(plan_out),
                    ]
                )
                == 0
            )
            return [faulty, reference, report, deviations, diagnosis, plan_out]

        first = pipeline(tmp_path / "run1")
        second = pipeline(tmp_path / "run2")
        for a, b in zip(first, second):
            assert hashlib.sha256(a.read_bytes()).digest() == hashlib.sha256(
                b.read_bytes()
            ).digest()
