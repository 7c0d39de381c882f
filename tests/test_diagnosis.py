from itertools import chain, combinations

import pytest

from causalcps.detection import Deviation, expected_state_check
from causalcps.diagnosis import SENSOR_FAULT_PREFIX, diagnose, explain
from causalcps.model import Effect, Rule
from causalcps.simulation import FaultSpec, run_script


def lid_fault_deviations(knife_doc, knife_model, knife_reference, knife_lid_fault_trace):
    return expected_state_check(knife_lid_fault_trace, knife_reference, knife_model)


@pytest.fixture(scope="module")
def knife_deviations(knife_doc, knife_model, knife_reference, knife_lid_fault_trace):
    return lid_fault_deviations(knife_doc, knife_model, knife_reference, knife_lid_fault_trace)


class TestKnifeLidFault:
    def test_top_hypothesis_is_lid_actuator(self, knife_doc, knife_model, knife_deviations):
        hypotheses = diagnose(
            knife_model,
            knife_doc.interventions,
            knife_doc.horizon,
            knife_deviations,
            knife_model.sensor_ids(),
        )
        assert hypotheses
        assert hypotheses[0].components == frozenset({"lid_actuator"})
        assert hypotheses[0].cardinality == 1
        assert hypotheses[0].explained == {
            "lid_state",
            "oven_temp",
            "knife_temp",
            "knife_hardness",
        }

    def test_unobserved_oven_temp_still_blames_lid(
        self, knife_doc, knife_model, knife_deviations
    ):
        observed = tuple(s for s in knife_model.sensor_ids() if s != "oven_temp")
        hypotheses = diagnose(
            knife_doc.build(),
            knife_doc.interventions,
            knife_doc.horizon,
            knife_deviations,
            observed,
        )
        rank1 = [h.components for h in hypotheses if h.cardinality == 1]
        assert frozenset({"lid_actuator"}) in rank1
        assert hypotheses[0].components == frozenset({"lid_actuator"})

    def test_backtracking_through_unobserved_nodes(self, knife_doc, knife_model, knife_deviations):
        # Only the product outcome is observed to deviate; every intermediate
        # sensor (lid_state, oven_temp, knife_temp) is unobserved.  The lid
        # actuator must stay in the consistent set, reached by walking the
        # causal chain through the unobserved nodes.  With this little
        # visibility the set is wide open, which is the point: parsimony
        # alone cannot narrow it further.
        observed = ("burner_cmd", "burner_set", "lid_cmd", "quench_cmd", "knife_hardness")
        hypotheses = diagnose(
            knife_model, knife_doc.interventions, knife_doc.horizon, knife_deviations, observed
        )
        consistent = {h.components for h in hypotheses}
        assert frozenset({"lid_actuator"}) in consistent
        assert frozenset({"burner"}) not in consistent  # contradicted by burner_set

    def test_monotone_under_more_observations(self, knife_doc, knife_model, knife_deviations):
        observed_sets = [
            ("lid_state", "knife_hardness"),
            ("lid_state", "knife_temp", "knife_hardness"),
            tuple(s for s in knife_model.sensor_ids() if s != "oven_temp"),
            knife_model.sensor_ids(),
        ]
        for observed in observed_sets:
            hypotheses = diagnose(
                knife_model,
                knife_doc.interventions,
                knife_doc.horizon,
                knife_deviations,
                observed,
            )
            assert frozenset({"lid_actuator"}) in [h.components for h in hypotheses]

    def test_minimality_no_strict_supersets(self, knife_doc, knife_model, knife_deviations):
        hypotheses = diagnose(
            knife_model,
            knife_doc.interventions,
            knife_doc.horizon,
            knife_deviations,
            knife_model.sensor_ids(),
            max_cardinality=3,
        )
        sets = [h.components for h in hypotheses]
        for a in sets:
            for b in sets:
                assert not (a < b)

    def test_ranking_is_cardinality_then_lexicographic(
        self, knife_doc, knife_model, knife_deviations
    ):
        hypotheses = diagnose(
            knife_model,
            knife_doc.interventions,
            knife_doc.horizon,
            knife_deviations,
            knife_model.sensor_ids(),
        )
        keys = [(h.cardinality, h.sorted_components()) for h in hypotheses]
        assert keys == sorted(keys)


class TestSensorFaultChain:
    def test_sensor_fault_is_the_only_consistent_hypothesis(self, chain_doc):
        model = chain_doc.build()
        reference = chain_doc.run(include_faults=False)
        faulty = chain_doc.run()
        deviations = expected_state_check(faulty, reference, model)
        assert {d.sensor for d in deviations} == {"mid"}
        hypotheses = diagnose(
            model, chain_doc.interventions, chain_doc.horizon, deviations, model.sensor_ids()
        )
        assert [h.components for h in hypotheses] == [frozenset({"sensor-fault:mid"})]
        assert hypotheses[0].is_sensor_fault()

    def test_component_fault_blames_the_component(self, chain_doc):
        model = chain_doc.build()
        reference = chain_doc.run(include_faults=False)
        drive_fault = FaultSpec(
            "c_drive", (Rule(guard={}, effects=(Effect("mid", "Lo", 1),)),), 150
        )
        faulty = run_script(
            model, chain_doc.seed, chain_doc.horizon, chain_doc.interventions, [drive_fault]
        )
        deviations = expected_state_check(faulty, reference, model)
        assert {d.sensor for d in deviations} == {"mid", "dst"}
        hypotheses = diagnose(
            model, chain_doc.interventions, chain_doc.horizon, deviations, model.sensor_ids()
        )
        assert hypotheses[0].components == frozenset({"c_drive"})
        # No sensor-fault hypothesis: mid's downstream sensor deviates too.
        assert not any(h.is_sensor_fault() for h in hypotheses)


class TestDiagnoseErrors:
    def test_empty_deviations_rejected(self, knife_doc, knife_model):
        with pytest.raises(ValueError, match="nothing to diagnose"):
            diagnose(
                knife_model,
                knife_doc.interventions,
                knife_doc.horizon,
                [],
                knife_model.sensor_ids(),
            )

    def test_deviations_outside_observed_rejected(self, knife_doc, knife_model, knife_deviations):
        with pytest.raises(ValueError, match="nothing to diagnose"):
            diagnose(
                knife_model,
                knife_doc.interventions,
                knife_doc.horizon,
                knife_deviations,
                ("burner_cmd",),
            )

    def test_bad_max_cardinality_rejected(self, knife_doc, knife_model, knife_deviations):
        with pytest.raises(ValueError, match="max_cardinality"):
            diagnose(
                knife_model,
                knife_doc.interventions,
                knife_doc.horizon,
                knife_deviations,
                knife_model.sensor_ids(),
                max_cardinality=0,
            )

    def test_horizon_below_one_rejected(self, knife_doc, knife_model, knife_deviations):
        with pytest.raises(ValueError, match="horizon"):
            diagnose(
                knife_model,
                knife_doc.interventions,
                0,
                knife_deviations,
                knife_model.sensor_ids(),
            )


def test_every_observed_sensor_deviating_leaves_nothing_nominal(chain_doc):
    model = chain_doc.build()
    reference = chain_doc.run(include_faults=False)
    drive_fault = FaultSpec("c_drive", (Rule(guard={}, effects=(Effect("mid", "Lo", 1),)),), 150)
    faulty = run_script(
        model, chain_doc.seed, chain_doc.horizon, chain_doc.interventions, [drive_fault]
    )
    deviations = expected_state_check(faulty, reference, model)
    observed = ("mid", "dst")
    assert {d.sensor for d in deviations} == set(observed)
    got = diagnose(model, chain_doc.interventions, chain_doc.horizon, deviations, observed)
    expected = oracle_consistent_sets(
        model, chain_doc.interventions, chain_doc.horizon, deviations, observed
    )
    assert {h.components for h in got} == expected == {
        frozenset({"c_drive"}),
        frozenset({"c_relay"}),
    }


class TestExplain:
    def test_paths_from_lid_to_every_deviation(self, knife_doc, knife_model, knife_deviations):
        hypotheses = diagnose(
            knife_model,
            knife_doc.interventions,
            knife_doc.horizon,
            knife_deviations,
            knife_model.sensor_ids(),
        )
        paths = {p.sensor: p for p in explain(knife_model, hypotheses[0], knife_deviations)}
        assert paths["lid_state"].edges == ()  # own sensor: zero-length path
        chain_path = paths["knife_hardness"]
        hops = [chain_path.edges[0].cause] + [e.effect for e in chain_path.edges]
        assert hops == ["lid_state", "oven_temp", "knife_temp", "knife_hardness"]
        assert [e.delay for e in chain_path.edges] == [2, 2, 1]
        assert [e.via for e in chain_path.edges] == [
            "oven_chamber",
            "heat_exchange",
            "quencher",
        ]

    def test_cyclic_graph_yields_simple_path(self, thermostat_doc):
        model = thermostat_doc.build()
        deviations = [
            Deviation(sensor="valve", start=100, expected="Open", matched="Closed"),
            Deviation(sensor="temp", start=100, expected="Cold", matched="Hot"),
        ]
        hypotheses = diagnose(
            model, thermostat_doc.interventions, 200, deviations, model.sensor_ids()
        )
        assert hypotheses
        for hypothesis in hypotheses:
            for path in explain(model, hypothesis, deviations):
                visited = [path.edges[0].cause] if path.edges else [path.sensor]
                visited += [e.effect for e in path.edges]
                assert len(visited) == len(set(visited))  # simple, no repeats

    def test_inconsistent_hypothesis_rejected(self, knife_model, knife_deviations):
        from causalcps.diagnosis import FaultHypothesis

        bogus = FaultHypothesis(
            components=frozenset({"burner"}),
            cardinality=1,
            consistent=False,
            explained=frozenset(),
        )
        with pytest.raises(ValueError, match="inconsistent"):
            explain(knife_model, bogus, knife_deviations)


# ---------------------------------------------------------------------------
# Independent exhaustive oracle: all component subsets checked directly
# against the two consistency conditions, then pruned to minimal sets.
# ---------------------------------------------------------------------------


def oracle_consistent_sets(model, interventions, horizon, deviations, observed):
    observed = set(observed)
    deviating = {d.sensor for d in deviations if d.sensor in observed}
    nominal = observed - deviating

    # Reachability by plain edge walking, written independently of the
    # library's descendant helper.
    graph = {sid: set() for sid in model.sensor_ids()}
    for sub in model.subsystems:
        for rule in sub.rules:
            for cause in rule.guard:
                for effect in rule.effects:
                    graph[cause].add(effect.target)

    def downstream(sensor):
        out, todo = set(), [sensor]
        while todo:
            for nxt in graph[todo.pop()]:
                if nxt not in out:
                    out.add(nxt)
                    todo.append(nxt)
        return out

    reference = run_script(model, 0, horizon, interventions)
    reference_labels = {s: reference.labels_for(s) for s in model.sensor_ids()}

    def consistent(component_set):
        covered = set()
        for component in component_set:
            if component.startswith(SENSOR_FAULT_PREFIX):
                own = [component[len(SENSOR_FAULT_PREFIX) :]]
            else:
                own = list(model.subsystem(component).sensors)
            for sensor in own:
                covered.add(sensor)
                covered |= downstream(sensor)
        if not deviating <= covered:
            return False
        real = [c for c in component_set if not c.startswith(SENSOR_FAULT_PREFIX)]
        if real:
            prediction = run_script(
                model,
                0,
                horizon,
                interventions,
                [FaultSpec(c, (), 0) for c in real],
            )
            for sensor in nominal:
                if prediction.labels_for(sensor) != reference_labels[sensor]:
                    return False
        return True

    components = sorted(model.component_ids())
    sensor_faults = [
        SENSOR_FAULT_PREFIX + s
        for s in sorted(deviating)
        if not (downstream(s) & observed & deviating)
    ]
    candidates = [
        frozenset(c)
        for c in chain.from_iterable(
            combinations(components, k) for k in range(1, len(components) + 1)
        )
    ]
    candidates += [frozenset({sf}) for sf in sensor_faults]
    consistent_sets = {c for c in candidates if consistent(c)}
    return {
        c for c in consistent_sets if not any(other < c for other in consistent_sets)
    }


class TestOracleEquivalence:
    def test_knife_model(self, knife_doc, knife_model, knife_deviations):
        observed = knife_model.sensor_ids()
        expected = oracle_consistent_sets(
            knife_model, knife_doc.interventions, knife_doc.horizon, knife_deviations, observed
        )
        got = diagnose(
            knife_model,
            knife_doc.interventions,
            knife_doc.horizon,
            knife_deviations,
            observed,
            max_cardinality=len(knife_model.component_ids()),
        )
        assert {h.components for h in got} == expected

    def test_chain_model_both_fault_variants(self, chain_doc):
        model = chain_doc.build()
        reference = chain_doc.run(include_faults=False)
        variants = [
            chain_doc.faults[0],
            FaultSpec("c_drive", (Rule(guard={}, effects=(Effect("mid", "Lo", 1),)),), 150),
        ]
        for fault in variants:
            faulty = run_script(
                model, chain_doc.seed, chain_doc.horizon, chain_doc.interventions, [fault]
            )
            deviations = expected_state_check(faulty, reference, model)
            expected = oracle_consistent_sets(
                model, chain_doc.interventions, chain_doc.horizon, deviations, model.sensor_ids()
            )
            got = diagnose(
                model,
                chain_doc.interventions,
                chain_doc.horizon,
                deviations,
                model.sensor_ids(),
                max_cardinality=len(model.component_ids()),
            )
            assert {h.components for h in got} == expected

    def test_thermostat_with_synthetic_deviations(self, thermostat_doc):
        model = thermostat_doc.build()
        deviations = [
            Deviation(sensor="valve", start=100, expected="Open", matched="Closed"),
            Deviation(sensor="temp", start=100, expected="Cold", matched="Hot"),
        ]
        expected = oracle_consistent_sets(model, (), 300, deviations, model.sensor_ids())
        got = diagnose(
            model,
            (),
            300,
            deviations,
            model.sensor_ids(),
            max_cardinality=len(model.component_ids()),
        )
        assert {h.components for h in got} == expected
        assert expected  # non-vacuous: the cycle produces real hypotheses
