import random
from collections import Counter
from itertools import chain, combinations

import pytest

from causalcps import diagnosis
from causalcps.cli import main
from causalcps.detection import Deviation, expected_state_check
from causalcps.diagnosis import (
    SENSOR_FAULT_PREFIX,
    NothingToDiagnose,
    _ConsistencyChecker,
    diagnose,
    explain,
)
from causalcps.distributions import Degenerate
from causalcps.model import (
    Effect,
    ModelError,
    Rule,
    Sensor,
    Subsystem,
    SubsystemKind,
    build_model,
    guards_overlap,
)
from causalcps.scenario import ScenarioDocument, import_deviations, serialize_scenario
from causalcps.simulation import FaultSpec, ScriptedIntervention, run_script


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
        with pytest.raises(NothingToDiagnose, match="nothing to diagnose"):
            diagnose(
                knife_model,
                knife_doc.interventions,
                knife_doc.horizon,
                [],
                knife_model.sensor_ids(),
            )

    def test_deviations_outside_observed_rejected(self, knife_doc, knife_model, knife_deviations):
        with pytest.raises(NothingToDiagnose, match="nothing to diagnose"):
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

    def test_deviation_that_matches_its_expected_state_rejected(self, knife_doc, knife_model):
        # detect never writes such a row; taken as one, it made lid_state a
        # deviating sensor and answered sensor-fault:lid_state.
        with pytest.raises(
            ModelError,
            match="^deviation on 'lid_state' at window start 0: "
            "the matched state is the expected state 'Open'$",
        ):
            diagnose(
                knife_model,
                knife_doc.interventions,
                knife_doc.horizon,
                [Deviation("lid_state", 0, "Open", "Open")],
                knife_model.sensor_ids(),
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


# ---------------------------------------------------------------------------
# Cone re-simulation and composition against full runs on random models.
# ---------------------------------------------------------------------------


def random_effects(rng, sensors, hubs):
    """One or two effects; half of them land on one of two hub sensors, so
    that several subsystems often write one target on the same tick."""
    effects = []
    for _ in range(rng.randint(1, 2)):
        target = rng.choice(hubs) if rng.random() < 0.5 else rng.choice(sensors)
        effects.append(Effect(target.id, rng.choice(target.labels()), rng.randint(1, 3)))
    return tuple(effects)


def random_cone_model(rng, horizon):
    """A validated model with 4-7 sensors and 3-5 components, and a script of
    eight interventions.  About one table in five is a single rule with an
    empty guard, which reads nothing and so adds no causal-graph edge."""
    sensors = []
    for i in range(rng.randint(4, 7)):
        states = tuple((f"S{k}", Degenerate(float(k))) for k in range(rng.randint(1, 3)))
        sensors.append(Sensor(f"s{i}", states, "S0"))
    hubs = rng.sample(sensors, 2)
    subsystems = []
    for j in range(rng.randint(3, 5)):
        owned = rng.sample(sensors, rng.randint(1, 3))
        if rng.random() < 0.2:
            rules = [Rule({}, random_effects(rng, sensors, hubs))]
        else:
            rules = []
            for _ in range(rng.randint(1, 4)):
                guard = {s.id: rng.choice(s.labels()) for s in owned if rng.random() < 0.7}
                if guard and not any(guards_overlap(guard, rule.guard) for rule in rules):
                    rules.append(Rule(guard, random_effects(rng, sensors, hubs)))
        ids = tuple(s.id for s in owned)
        subsystems.append(Subsystem(f"c{j}", SubsystemKind.COMPONENT, ids, tuple(rules)))
    model = build_model(sensors, subsystems)
    interventions = []
    for tick in sorted(rng.sample(range(horizon), 8)):
        sensor = rng.choice(sensors)
        interventions.append(ScriptedIntervention(tick, sensor.id, rng.choice(sensor.labels())))
    return model, interventions


def reads_of(sub):
    return {sensor for rule in sub.rules for sensor in rule.guard}


def writes_of(sub):
    return {effect.target for rule in sub.rules for effect in rule.effects}


def fixpoint_cone(model, removed):
    """The removed tables' effect targets, grown by every subsystem outside
    ``removed`` that reads a grown sensor, until nothing more is added."""
    cone = set().union(*(writes_of(s) for s in model.subsystems if s.id in removed))
    grown = True
    while grown:
        grown = False
        for sub in model.subsystems:
            if sub.id not in removed and reads_of(sub) & cone and not writes_of(sub) <= cone:
                cone |= writes_of(sub)
                grown = True
    return cone


def has_cycle(model):
    edges = {sid: set() for sid in model.sensor_ids()}
    for sub in model.subsystems:
        for rule in sub.rules:
            for cause in rule.guard:
                edges[cause].update(effect.target for effect in rule.effects)

    def reaches(start, goal):
        seen, todo = set(), [start]
        while todo:
            for nxt in edges[todo.pop()] - seen:
                if nxt == goal:
                    return True
                seen.add(nxt)
                todo.append(nxt)
        return False

    return any(reaches(sid, sid) for sid in edges)


def test_cone_verdicts_equal_full_runs_on_random_models():
    """``predicts_nominal`` of every candidate up to cardinality 3 equals a
    comparison of full ``run_script`` labels, on 100 random models with one
    checker per model, so that later candidates reuse the member cones and
    reference changes cached by earlier ones.  Every second model checks its
    candidates in a shuffled order, so that pairs and triples are also met
    before their parts."""
    rng = random.Random(20261018)
    horizon = 30
    seen = Counter()
    for case in range(100):
        model, interventions = random_cone_model(rng, horizon)
        ids = model.sensor_ids()
        observed = set(rng.sample(ids, rng.randint(2, len(ids))))
        deviating = set(rng.sample(sorted(observed), rng.randint(0, 2)))
        nominal = sorted(observed - deviating)
        checker = _ConsistencyChecker(model, interventions, horizon, deviating, observed)
        reference = run_script(model, 0, horizon, interventions)
        components = sorted(model.component_ids())
        candidates = [c for k in (1, 2, 3) for c in combinations(components, k)]
        if case % 2:
            rng.shuffle(candidates)
        seen["empty guard"] += any(not r.guard for s in model.subsystems for r in s.rules)
        seen["cycle"] += has_cycle(model)
        seen["shared target"] += any(
            writes_of(a) & writes_of(b) for a, b in combinations(model.subsystems, 2)
        )
        for candidate in candidates:
            faults = [FaultSpec(c, (), 0) for c in candidate]
            full = run_script(model, 0, horizon, interventions, faults)
            expected = all(full.labels_for(s) == reference.labels_for(s) for s in nominal)
            assert checker.predicts_nominal(candidate) == expected, (case, candidate)

            cone = fixpoint_cone(model, set(candidate))
            # A candidate's cone is the union of its members' cones.
            assert set().union(*map(checker.cone, candidate)) == cone, (case, candidate)
            for sensor in set(ids) - cone:
                assert full.labels_for(sensor) == reference.labels_for(sensor), (case, sensor)
            writers = [
                s for s in model.subsystems if s.id not in candidate and writes_of(s) & cone
            ]
            boundary = set().union(*map(reads_of, writers)) - cone
            for item in interventions:
                if item.sensor in cone:
                    seen["intervention inside"] += 1
                elif item.sensor in boundary:
                    seen["intervention boundary"] += 1
                else:
                    seen["intervention outside"] += 1
            if len(candidate) > 1:
                apart = all(
                    not fixpoint_cone(model, {a}) & fixpoint_cone(model, {b})
                    for a, b in combinations(candidate, 2)
                )
                seen[f"{'apart' if apart else 'meeting'} {expected}"] += 1
            seen[f"verdict {expected}"] += 1
    for feature in (
        "empty guard",
        "cycle",
        "shared target",
        "intervention inside",
        "intervention boundary",
        "intervention outside",
        "apart True",
        "apart False",
        "meeting True",
        "meeting False",
    ):
        assert seen[feature] >= 10, (feature, seen)
    assert seen["verdict True"] >= 200 and seen["verdict False"] >= 200, seen


def cone_corpus(horizon):
    """The random-model corpus of the test above, drawn from the same seed in
    the same order: per model, (model, interventions, observed, deviating,
    candidates in checking order)."""
    rng = random.Random(20261018)
    for case in range(100):
        model, interventions = random_cone_model(rng, horizon)
        ids = model.sensor_ids()
        observed = set(rng.sample(ids, rng.randint(2, len(ids))))
        deviating = set(rng.sample(sorted(observed), rng.randint(0, 2)))
        components = sorted(model.component_ids())
        candidates = [c for k in (1, 2, 3) for c in combinations(components, k)]
        if case % 2:
            rng.shuffle(candidates)
        yield model, interventions, observed, deviating, candidates


def due_effects(model, trace):
    """(tick, target) -> the effects due then in the run of ``trace``, as
    (subsystem index, delay, state), highest rank (the phase-1 winner)
    first, rebuilt from its RULE_FIRED events."""
    index = {sub.id: i for i, sub in enumerate(model.subsystems)}
    due = {}
    for event in trace.events("RULE_FIRED"):
        i = index[event.subsystem]
        rule = model.subsystems[i].rules[event.rule_index]
        for k, effect in enumerate(rule.effects):
            rank = (-i, event.rule_index, k)
            entry = (rank, (i, effect.delay, effect.state))
            due.setdefault((event.tick + effect.delay, effect.target), []).append(entry)
    return {key: [e for _, e in sorted(entries, reverse=True)] for key, entries in due.items()}


def label_rows(trace, ids):
    """The joint labels of each tick of ``trace``, sensors in ``ids`` order."""
    return list(zip(*(trace.labels_for(sensor) for sensor in ids)))


def test_first_divergence_equals_full_runs_on_random_models():
    """For every candidate of the random-model corpus, ``first_divergence``
    gives the first tick at which a full ``run_script`` without the
    candidate's tables differs from the reference, and the sensors that
    differ then (None when no tick differs)."""
    horizon = 30
    seen = Counter()
    for model, interventions, observed, deviating, candidates in cone_corpus(horizon):
        ids = model.sensor_ids()
        checker = _ConsistencyChecker(model, interventions, horizon, deviating, observed)
        reference = run_script(model, 0, horizon, interventions)
        rows = label_rows(reference, ids)
        due = due_effects(model, reference)
        intervened = {(item.tick, item.sensor) for item in interventions}
        for candidate in candidates:
            faults = [FaultSpec(c, (), 0) for c in candidate]
            full = label_rows(run_script(model, 0, horizon, interventions, faults), ids)
            first = next((t for t in range(horizon) if full[t] != rows[t]), None)
            expected = None
            if first is not None:
                moved = {s for s, a, b in zip(ids, full[first], rows[first]) if a != b}
                expected = (first, frozenset(moved))
            assert checker.first_divergence(frozenset(candidate)) == expected, (candidate,)

            if first is None:
                seen["never diverges"] += 1
                continue
            members = {i for i, sub in enumerate(model.subsystems) if sub.id in candidate}
            for (tick, target), effects in due.items():
                if tick != first:
                    continue
                if (tick, target) in intervened and any(i in members for i, _, _ in effects):
                    seen["intervention on a target of the candidate"] += 1
                elif len(effects) > 1 and {effects[0][0], effects[1][0]} <= members:
                    seen["candidate holds winner and runner-up"] += 1
                if target in expected[1] and effects[0][1] > 1:
                    seen["winner delayed more than one tick"] += 1
    for feature in (
        "never diverges",
        "intervention on a target of the candidate",
        "candidate holds winner and runner-up",
        "winner delayed more than one tick",
    ):
        assert seen[feature] >= 10, (feature, seen)


def relay_chain(stages, faulted):
    """Relay s00 -> ... with point-mass Lo/Hi stages: component cNN copies
    s[NN-1] into sNN one tick later, s00 turns Hi at tick 20, and ``faulted``
    has its table emptied from tick 0.  Horizon 300."""
    ids = [f"s{i:02d}" for i in range(stages)]
    sensors = [
        Sensor(sid, (("Lo", Degenerate(10.0 * i)), ("Hi", Degenerate(10.0 * i + 5))), "Lo")
        for i, sid in enumerate(ids)
    ]
    subsystems = [
        Subsystem(
            f"c{i:02d}",
            SubsystemKind.COMPONENT,
            (ids[i - 1], ids[i]),
            tuple(Rule({ids[i - 1]: x}, (Effect(ids[i], x, 1),)) for x in ("Lo", "Hi")),
        )
        for i in range(1, stages)
    ]
    return ScenarioDocument(
        name="relay-chain",
        seed=1,
        horizon=300,
        window=50,
        stride=25,
        alpha=0.01,
        sensors=tuple(sensors),
        subsystems=tuple(subsystems),
        functionalities=(),
        interventions=(ScriptedIntervention(20, ids[0], "Hi"),),
        faults=(FaultSpec(faulted, (), 0),),
    )


def test_relay_chain_diagnosis_runs_only_the_reference(monkeypatch):
    """On the 20-stage relay chain with c10 emptied, every candidate up to
    cardinality 3 is settled by its first divergence: ``diagnose`` makes one
    label run, the reference."""
    doc = relay_chain(20, "c10")
    model = doc.build()
    deviations = expected_state_check(
        doc.run(seed=1), doc.run(seed=2, include_faults=False), model
    )
    calls = []
    steps = diagnosis.label_steps

    def counting(*args, **kwargs):
        calls.append(args)
        return steps(*args, **kwargs)

    monkeypatch.setattr(diagnosis, "label_steps", counting)
    found = diagnose(
        model, doc.interventions, doc.horizon, deviations, model.sensor_ids(), max_cardinality=3
    )
    assert len(calls) == 1
    assert {h.components for h in found} == {frozenset({"c10"}), frozenset({"c11"})}


# ---------------------------------------------------------------------------
# A 12-stage relay beside two control loops: the CLI against brute force.
# ---------------------------------------------------------------------------

RELAY_STAGES = 12
LOOP_DELAY = 30


def relay_with_loops(faulted):
    """Relay s00 -> ... -> s11 (component cNN copies s[NN-1] into sNN one
    tick later; s00 turns Hi at tick 20) beside two slow thermostat loops
    (controller and plant each react after LOOP_DELAY ticks).  Every reading
    is a point mass.  The components in ``faulted`` have their tables emptied
    from tick 0."""
    stages = [f"s{i:02d}" for i in range(RELAY_STAGES)]
    sensors = [
        Sensor(sid, (("Lo", Degenerate(100.0 * i)), ("Hi", Degenerate(100.0 * i + 20))), "Lo")
        for i, sid in enumerate(stages)
    ]

    def copy_rules(up, down, mapping, delay):
        return tuple(
            Rule({up: a}, (Effect(down, b, delay),)) for a, b in mapping.items()
        )

    subsystems = [
        Subsystem(
            f"c{i:02d}",
            SubsystemKind.COMPONENT,
            (stages[i - 1], stages[i]),
            copy_rules(stages[i - 1], stages[i], {"Lo": "Lo", "Hi": "Hi"}, 1),
        )
        for i in range(1, RELAY_STAGES)
    ]
    for j in range(2):
        temp, valve = f"loop{j}_temp", f"loop{j}_valve"
        sensors.append(
            Sensor(temp, (("Cold", Degenerate(10.0 + j)), ("Hot", Degenerate(80.0 + j))), "Cold")
        )
        sensors.append(
            Sensor(valve, (("Open", Degenerate(1.0)), ("Closed", Degenerate(0.0))), "Open")
        )
        subsystems.append(
            Subsystem(
                f"loop{j}_ctrl",
                SubsystemKind.COMPONENT,
                (temp, valve),
                copy_rules(temp, valve, {"Hot": "Closed", "Cold": "Open"}, LOOP_DELAY),
            )
        )
        subsystems.append(
            Subsystem(
                f"loop{j}_plant",
                SubsystemKind.COMPONENT,
                (valve, temp),
                copy_rules(valve, temp, {"Closed": "Cold", "Open": "Hot"}, LOOP_DELAY),
            )
        )
    return ScenarioDocument(
        name="relay-with-loops",
        seed=1,
        horizon=200,
        window=20,
        stride=10,
        alpha=0.01,
        sensors=tuple(sensors),
        subsystems=tuple(subsystems),
        functionalities=(),
        interventions=(ScriptedIntervention(20, stages[0], "Hi"),),
        faults=tuple(FaultSpec(c, (), 0) for c in faulted),
    )


def brute_force_minimal_sets(model, interventions, horizon, deviations, max_card, observed=None):
    """Every candidate up to ``max_card`` components, and every sensor-fault
    candidate, checked by a full run; the minimal consistent ones.  Only the
    ``observed`` sensors (default: all) deviate or must stay nominal."""
    observed = set(model.sensor_ids() if observed is None else observed)
    deviating = {d.sensor for d in deviations if d.sensor in observed}
    nominal = observed - deviating
    edges = {sid: set() for sid in model.sensor_ids()}
    for sub in model.subsystems:
        for rule in sub.rules:
            for cause in rule.guard:
                edges[cause].update(effect.target for effect in rule.effects)

    def downstream(sensor):
        out, todo = set(), [sensor]
        while todo:
            for nxt in edges[todo.pop()] - out:
                out.add(nxt)
                todo.append(nxt)
        return out

    def covers(sensors):
        return deviating <= set(sensors).union(*map(downstream, sensors))

    reference = run_script(model, 0, horizon, interventions)
    components = sorted(model.component_ids())
    consistent = []
    for k in range(1, max_card + 1):
        for candidate in combinations(components, k):
            if not covers([s for c in candidate for s in model.subsystem(c).sensors]):
                continue
            faults = [FaultSpec(c, (), 0) for c in candidate]
            run = run_script(model, 0, horizon, interventions, faults)
            if all(run.labels_for(s) == reference.labels_for(s) for s in nominal):
                consistent.append(frozenset(candidate))
    for sensor in sorted(deviating):
        # Nothing is removed, so the prediction is the reference itself.
        if not downstream(sensor) & deviating and covers([sensor]):
            consistent.append(frozenset({SENSOR_FAULT_PREFIX + sensor}))
    return {c for c in consistent if not any(other < c for other in consistent)}


EVEN_STAGES_AND_TEMPS = tuple(f"s{i:02d}" for i in range(0, RELAY_STAGES, 2)) + (
    "loop0_temp",
    "loop1_temp",
)


@pytest.mark.parametrize(
    "faulted, observe",
    [(("c06",), None), (("c04", "loop1_plant"), None), (("c06",), EVEN_STAGES_AND_TEMPS)],
    ids=["one relay stage", "stage and loop", "one relay stage, even stages observed"],
)
def test_relay_with_loops_cli_diagnosis_equals_brute_force(tmp_path, monkeypatch, faulted, observe):
    doc = relay_with_loops(faulted)
    model = doc.build()
    scenario = tmp_path / "relay.yaml"
    scenario.write_text(serialize_scenario(doc), encoding="utf-8")
    s = str(scenario)
    faulty, reference = tmp_path / "faulty.csv", tmp_path / "reference.csv"
    deviations, report, out = (tmp_path / n for n in ("dev.csv", "report.csv", "diag.csv"))
    assert main(["simulate", s, "--out", str(faulty), "--seed", "1"]) == 0
    assert main(["simulate", s, "--out", str(reference), "--seed", "2", "--no-faults"]) == 0
    argv = ["detect", s, "--trace", str(faulty), "--reference", str(reference), "--out"]
    assert main(argv + [str(report), "--deviations-out", str(deviations)]) == 0
    replays = []
    replay_cone = diagnosis._ConsistencyChecker._replay_cone

    def counting(self, *args):
        replays.append(args)
        return replay_cone(self, *args)

    monkeypatch.setattr(diagnosis._ConsistencyChecker, "_replay_cone", counting)
    argv = ["diagnose", s, "--deviations", str(deviations), "--out", str(out)]
    for sensor in observe or ():
        argv += ["--observe", sensor]
    assert main(argv + ["--max-card", "2"]) == 0

    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    got = {frozenset(row.split(",")[1].split("+")) for row in rows}
    found = import_deviations(deviations.read_text(encoding="utf-8"))
    expected = brute_force_minimal_sets(model, doc.interventions, doc.horizon, found, 2, observe)
    assert got == expected
    assert frozenset(faulted) in got
    if observe:
        # Partial observation leaves candidates that only a cone replay settles.
        assert replays
