import ast
import itertools
import random
import re

import pytest

from causalcps.distributions import Degenerate, Normal
from causalcps.model import (
    CausalEdge,
    CausalGraph,
    Effect,
    ModelError,
    Rule,
    Sensor,
    Subsystem,
    SubsystemKind,
    build_model,
    causal_ancestors,
    causal_descendants,
    compose,
    derive_causal_graph,
    validate_rules,
)
from causalcps.simulation import run_script


def two_state(sid, base=0.0):
    return Sensor(sid, (("A", Degenerate(base)), ("B", Degenerate(base + 1))), "A")


def simple_model(*subsystems, n_sensors=3):
    sensors = tuple(two_state(f"s{i}", 10.0 * i) for i in range(n_sensors))
    return build_model(sensors, subsystems)


def label_columns(trace):
    """Each sensor's label trajectory, by sensor id."""
    return {sensor: trace.labels_for(sensor) for sensor in trace.sensor_ids}


def test_rule_matches_iff_guard_is_a_sub_assignment():
    rule = Rule(guard={"s0": "A", "s1": "B"}, effects=())
    assert rule.matches({"s0": "A", "s1": "B", "s2": "A"})
    assert not rule.matches({"s0": "A", "s1": "A"})
    assert not rule.matches({"s0": "A"})
    assert Rule(guard={}, effects=()).matches({})


class TestBuildModel:
    def test_minimal_model_with_empty_rule_table(self):
        # The subsystem must own a proper subset, so two sensors is the floor.
        model = simple_model(
            Subsystem("sub", SubsystemKind.COMPONENT, ("s0",), ()), n_sensors=2
        )
        assert model.sensor_ids() == ("s0", "s1")
        assert model.subsystem("sub").rules == ()

    def test_overlapping_guards_rejected(self):
        # {lid: Open} and {lid: Open, burner: On} are both satisfiable at once.
        lid = Sensor("lid", (("Open", Degenerate(0)), ("Closed", Degenerate(1))), "Open")
        burner = Sensor("burner", (("Off", Degenerate(0)), ("On", Degenerate(1))), "Off")
        spare = two_state("spare", 5.0)
        sub = Subsystem(
            "oven",
            SubsystemKind.COMPONENT,
            ("lid", "burner"),
            (
                Rule({"lid": "Open"}, (Effect("spare", "B", 1),)),
                Rule({"lid": "Open", "burner": "On"}, (Effect("spare", "A", 1),)),
            ),
        )
        with pytest.raises(ModelError, match="overlapping guards"):
            build_model((lid, burner, spare), (sub,))

    def test_delay_zero_rejected(self):
        sub = Subsystem(
            "sub",
            SubsystemKind.COMPONENT,
            ("s0",),
            (Rule({"s0": "A"}, (Effect("s1", "B", 0),)),),
        )
        with pytest.raises(ModelError, match="effect must follow cause"):
            simple_model(sub)

    def test_duplicate_sensor_ids_rejected(self):
        with pytest.raises(ModelError, match="duplicate sensor ids"):
            build_model((two_state("x"), two_state("x")), ())

    def test_duplicate_subsystem_ids_rejected(self):
        subs = (
            Subsystem("dup", SubsystemKind.COMPONENT, ("s0",), ()),
            Subsystem("dup", SubsystemKind.COMPONENT, ("s1",), ()),
        )
        with pytest.raises(ModelError, match="duplicate subsystem ids"):
            simple_model(*subs)

    def test_unknown_sensor_reference_rejected(self):
        sub = Subsystem("sub", SubsystemKind.COMPONENT, ("nope",), ())
        with pytest.raises(ModelError, match="unknown sensors"):
            simple_model(sub)

    def test_unknown_guard_state_rejected(self):
        sub = Subsystem(
            "sub", SubsystemKind.COMPONENT, ("s0",), (Rule({"s0": "Z"}, ()),)
        )
        with pytest.raises(ModelError, match="no state 'Z'"):
            simple_model(sub)

    def test_guard_outside_own_sensors_rejected(self):
        sub = Subsystem(
            "sub", SubsystemKind.COMPONENT, ("s0",), (Rule({"s1": "A"}, ()),)
        )
        with pytest.raises(ModelError, match="not one of its sensors"):
            simple_model(sub)

    def test_effect_target_may_lie_outside_subsystem(self):
        sub = Subsystem(
            "sub",
            SubsystemKind.COMPONENT,
            ("s0",),
            (Rule({"s0": "A"}, (Effect("s2", "B", 1),)),),
        )
        assert simple_model(sub).subsystem("sub").rules[0].effects[0].target == "s2"

    def test_subsystem_owning_every_sensor_rejected(self):
        sub = Subsystem("sub", SubsystemKind.COMPONENT, ("s0", "s1", "s2"), ())
        with pytest.raises(ModelError, match="proper subset"):
            simple_model(sub)

    def test_initial_state_must_exist(self):
        bad = Sensor("x", (("A", Degenerate(0)),), "B")
        with pytest.raises(ModelError, match="initial state"):
            build_model((bad, two_state("y")), ())

    def test_identical_distributions_within_sensor_rejected(self):
        bad = Sensor("x", (("A", Normal(0, 1)), ("B", Normal(0, 1))), "A")
        with pytest.raises(ModelError, match="identical distributions"):
            build_model((bad, two_state("y")), ())

    def test_priority_order_must_be_permutation(self):
        sub = Subsystem("sub", SubsystemKind.COMPONENT, ("s0",), ())
        sensors = (two_state("s0"), two_state("s1"))
        with pytest.raises(ModelError, match="permutation"):
            build_model(sensors, (sub,), priority_order=["sub", "ghost"])

    def test_priority_order_reorders_subsystems(self):
        a = Subsystem("a", SubsystemKind.COMPONENT, ("s0",), ())
        b = Subsystem("b", SubsystemKind.COMPONENT, ("s1",), ())
        model = simple_model(a, b)
        reordered = build_model(model.sensors, (a, b), priority_order=["b", "a"])
        assert [s.id for s in reordered.subsystems] == ["b", "a"]


def n_state(sid, n):
    return Sensor(sid, tuple((f"S{k}", Degenerate(float(k))) for k in range(n)), "S0")


def overlaps_exhaustively(model, sub, rules):
    """Reference oracle: some joint state of ``sub`` matches two rules."""
    domains = [model.sensor(sid).labels() for sid in sub.sensors]
    for combo in itertools.product(*domains):
        assignment = dict(zip(sub.sensors, combo))
        if sum(rule.matches(assignment) for rule in rules) > 1:
            return True
    return False


def random_tables(seed, count):
    """Small subsystems with random partial guards over 1-3 states per sensor;
    yields (model, subsystem, rules) with the table not yet validated."""
    rng = random.Random(seed)
    for _ in range(count):
        owned = [n_state(f"x{i}", rng.randint(1, 3)) for i in range(rng.randint(1, 4))]
        sensors = (*owned, n_state("out", 2))
        sub = Subsystem("sub", SubsystemKind.COMPONENT, tuple(s.id for s in owned), ())
        model = build_model(sensors, (sub,))
        rules = tuple(
            Rule(
                {s.id: rng.choice(s.labels()) for s in owned if rng.random() < 0.6},
                (Effect("out", "S1", 1),),
            )
            for _ in range(rng.randint(0, 4))
        )
        yield model, sub, rules


class TestDeterminismCheck:
    def test_pairwise_check_agrees_with_exhaustive_oracle(self):
        verdicts = []
        for model, sub, rules in random_tables(seed=20221018, count=400):
            try:
                validate_rules(model, sub.id, rules)
                rejected = False
            except ModelError as exc:
                assert "overlapping guards" in str(exc)
                rejected = True
            assert rejected == overlaps_exhaustively(model, sub, rules), rules
            verdicts.append(rejected)
        assert any(verdicts) and not all(verdicts)

    def test_reported_assignment_is_matched_by_both_named_rules(self):
        checked = 0
        for model, sub, rules in random_tables(seed=7, count=200):
            if not overlaps_exhaustively(model, sub, rules):
                continue
            with pytest.raises(ModelError, match="overlapping guards") as info:
                validate_rules(model, sub.id, rules)
            found = re.search(r"rules (\d+) and (\d+) both match (\{.*?\}) ", str(info.value))
            first, second, witness = int(found[1]), int(found[2]), ast.literal_eval(found[3])
            assert first < second
            assert list(witness) == list(sub.sensors)
            model.check_assignment(witness, total=False)
            assert rules[first].matches(witness) and rules[second].matches(witness)
            checked += 1
        assert checked > 10

    def test_wide_subsystem_with_disjoint_partial_guards_builds(self):
        # 4^20 joint states: only a check that never enumerates them finishes.
        owned = tuple(n_state(f"w{i:02d}", 4) for i in range(20))
        sub = Subsystem(
            "wide",
            SubsystemKind.COMPONENT,
            tuple(s.id for s in owned),
            (
                Rule({"w00": "S0", "w07": "S1"}, (Effect("out", "S1", 1),)),
                Rule({"w07": "S2", "w19": "S3"}, (Effect("out", "S0", 1),)),
            ),
        )
        model = build_model((*owned, n_state("out", 2)), (sub,))
        assert len(model.subsystem("wide").rules) == 2


class TestCompose:
    def disjoint_pair(self):
        alpha = Subsystem(
            "alpha",
            SubsystemKind.COMPONENT,
            ("s0", "s1"),
            (Rule({"s0": "A"}, (Effect("s1", "B", 1),)),),
        )
        beta = Subsystem(
            "beta",
            SubsystemKind.COMPONENT,
            ("s1", "s2"),
            (Rule({"s1": "B"}, (Effect("s2", "B", 2),)),),
        )
        return simple_model(alpha, beta, n_sensors=4)

    def test_disjoint_targets_keep_plain_union(self):
        # Mutually exclusive guards and disjoint targets: the union table is
        # already deterministic and is kept verbatim.
        alpha = Subsystem(
            "alpha",
            SubsystemKind.COMPONENT,
            ("s0", "s1"),
            (Rule({"s0": "A"}, (Effect("s1", "B", 1),)),),
        )
        beta = Subsystem(
            "beta",
            SubsystemKind.COMPONENT,
            ("s0", "s2"),
            (Rule({"s0": "B"}, (Effect("s2", "B", 2),)),),
        )
        model = simple_model(alpha, beta, n_sensors=4)
        composed = compose(model, "alpha", "beta", "joint")
        joint = composed.subsystem("joint")
        assert joint.rules == alpha.rules + beta.rules
        assert joint.sensors == ("s0", "s1", "s2")
        for combo in itertools.product("AB", repeat=4):
            sensors = tuple(
                Sensor(s.id, s.states, label) for s, label in zip(model.sensors, combo)
            )
            before = run_script(build_model(sensors, (alpha, beta)), 0, 15)
            after = run_script(
                build_model(sensors, composed.subsystems), 0, 15
            )
            assert label_columns(before) == label_columns(after)

    def test_zero_rule_partner_is_identity_on_behavior(self):
        alpha = Subsystem(
            "alpha",
            SubsystemKind.COMPONENT,
            ("s0", "s1"),
            (Rule({"s0": "A"}, (Effect("s1", "B", 1),)),),
        )
        beta = Subsystem("beta", SubsystemKind.COMPONENT, ("s2",), ())
        model = simple_model(alpha, beta, n_sensors=4)
        composed = compose(model, "alpha", "beta", "joint")
        before = run_script(model, 0, 15)
        after = run_script(composed, 0, 15)
        assert label_columns(before) == label_columns(after)

    def test_trace_equality_over_all_initial_states(self):
        base = self.disjoint_pair()
        for combo in itertools.product("AB", repeat=4):
            sensors = tuple(
                Sensor(s.id, s.states, label) for s, label in zip(base.sensors, combo)
            )
            model = build_model(sensors, base.subsystems)
            composed = compose(model, "alpha", "beta", "joint")
            before = run_script(model, 0, 20)
            after = run_script(composed, 0, 20)
            assert label_columns(before) == label_columns(after)

    def test_same_tick_conflict_priority(self):
        # alpha and beta write s1 in the same tick; the first argument wins.
        alpha = Subsystem(
            "alpha",
            SubsystemKind.COMPONENT,
            ("s0", "s1"),
            (Rule({"s0": "A"}, (Effect("s1", "B", 1),)),),
        )
        beta = Subsystem(
            "beta",
            SubsystemKind.COMPONENT,
            ("s2", "s1"),
            (Rule({"s2": "A"}, (Effect("s1", "A", 1),)),),
        )
        model_ab = simple_model(alpha, beta, n_sensors=4)
        model_ba = build_model(model_ab.sensors, (beta, alpha))
        composed_ab = compose(model_ab, "alpha", "beta", "joint")
        composed_ba = compose(model_ba, "beta", "alpha", "joint")
        assert run_script(composed_ab, 0, 3).labels_for("s1")[1] == "B"
        assert run_script(composed_ba, 0, 3).labels_for("s1")[1] == "A"
        # and each matches its uncomposed model
        assert run_script(model_ab, 0, 3).labels_for("s1")[1] == "B"
        assert run_script(model_ba, 0, 3).labels_for("s1")[1] == "A"

    def test_expansion_ranges_over_guard_sensors_only(self):
        # Two 4-sensor subsystems of 3-state sensors, one single-sensor guard
        # each: the guards overlap, so the table is expanded, over the 3 x 3
        # states of w0 and w4 rather than the 3^8 states of the union.
        alpha = Subsystem(
            "alpha",
            SubsystemKind.COMPONENT,
            ("w0", "w1", "w2", "w3"),
            (Rule({"w0": "S1"}, (Effect("w1", "S2", 1), Effect("out", "S1", 2))),),
        )
        beta = Subsystem(
            "beta",
            SubsystemKind.COMPONENT,
            ("w4", "w5", "w6", "w7"),
            (Rule({"w4": "S2"}, (Effect("w5", "S1", 1), Effect("out", "S2", 2))),),
        )
        sensors = [n_state(f"w{i}", 3) for i in range(8)] + [n_state("out", 3)]
        model = build_model(sensors, (alpha, beta))
        composed = compose(model, "alpha", "beta", "joint")
        joint = composed.subsystem("joint")
        assert joint.sensors == tuple(f"w{i}" for i in range(8))
        assert len(joint.rules) == 5
        assert all(set(rule.guard) == {"w0", "w4"} for rule in joint.rules)
        both = next(r for r in joint.rules if r.guard == {"w0": "S1", "w4": "S2"})
        assert both.effects == (
            Effect("w1", "S2", 1),
            Effect("out", "S1", 2),
            Effect("w5", "S1", 1),
        )
        for w0, w4 in itertools.product(("S0", "S1", "S2"), repeat=2):
            starts = [Sensor(s.id, s.states, {"w0": w0, "w4": w4}.get(s.id, "S0")) for s in sensors]
            before = run_script(build_model(starts, (alpha, beta)), 0, 6)
            after = run_script(build_model(starts, composed.subsystems), 0, 6)
            assert label_columns(before) == label_columns(after)

    def test_union_covering_all_sensors_rejected(self):
        alpha = Subsystem("alpha", SubsystemKind.COMPONENT, ("s0", "s1"), ())
        beta = Subsystem("beta", SubsystemKind.COMPONENT, ("s1", "s2"), ())
        model = simple_model(alpha, beta, n_sensors=3)
        with pytest.raises(ModelError, match="proper subset"):
            compose(model, "alpha", "beta", "joint")

    def test_sensor_set_associativity(self):
        a = Subsystem("a", SubsystemKind.COMPONENT, ("s0",), ())
        b = Subsystem("b", SubsystemKind.COMPONENT, ("s1",), ())
        c = Subsystem("c", SubsystemKind.COMPONENT, ("s2",), ())
        model = simple_model(a, b, c, n_sensors=5)
        left = compose(compose(model, "a", "b", "ab"), "ab", "c", "abc")
        right = compose(compose(model, "b", "c", "bc"), "a", "bc", "abc")
        assert set(left.subsystem("abc").sensors) == set(right.subsystem("abc").sensors)

    def test_original_model_unchanged(self):
        model = self.disjoint_pair()
        subsystem_ids = [s.id for s in model.subsystems]
        compose(model, "alpha", "beta", "joint")
        assert [s.id for s in model.subsystems] == subsystem_ids

    def test_unknown_subsystem_rejected(self):
        with pytest.raises(ModelError, match="unknown subsystem"):
            compose(self.disjoint_pair(), "alpha", "ghost", "joint")

    def test_compose_with_itself_rejected(self):
        with pytest.raises(ModelError, match="itself"):
            compose(self.disjoint_pair(), "alpha", "alpha", "joint")

    def test_new_id_collision_rejected(self):
        alpha = Subsystem("alpha", SubsystemKind.COMPONENT, ("s0",), ())
        beta = Subsystem("beta", SubsystemKind.COMPONENT, ("s1",), ())
        gamma = Subsystem("gamma", SubsystemKind.COMPONENT, ("s2",), ())
        model = simple_model(alpha, beta, gamma, n_sensors=4)
        with pytest.raises(ModelError, match="already in use"):
            compose(model, "alpha", "beta", "gamma")


class TestCausalGraph:
    def test_no_rules_gives_empty_edge_set(self):
        model = simple_model(Subsystem("sub", SubsystemKind.COMPONENT, ("s0",), ()))
        assert derive_causal_graph(model).edges == frozenset()

    def test_direct_read_off(self, oven_model):
        graph = derive_causal_graph(oven_model)
        assert graph.edges == frozenset(
            {CausalEdge(cause="burner", effect="oven_temp", via="oven", delay=2)}
        )

    def test_cycle_is_permitted(self, thermostat_doc):
        graph = derive_causal_graph(thermostat_doc.build())
        pairs = {(e.cause, e.effect) for e in graph.edges}
        assert ("temp", "valve") in pairs and ("valve", "temp") in pairs

    def test_dedup_keeps_minimal_delay(self):
        sub = Subsystem(
            "sub",
            SubsystemKind.COMPONENT,
            ("s0",),
            (
                Rule({"s0": "A"}, (Effect("s1", "B", 5),)),
                Rule({"s0": "B"}, (Effect("s1", "A", 2),)),
            ),
        )
        graph = derive_causal_graph(simple_model(sub))
        edge = next(iter(graph.edges))
        assert edge.delay == 2

    def test_deterministic_for_identical_inputs(self, knife_model):
        assert derive_causal_graph(knife_model) == derive_causal_graph(knife_model)

    def test_adjacency_lists_equal_scan_and_sort_on_random_graphs(self):
        rng = random.Random(1019)
        for _ in range(60):
            sensors = [f"s{i}" for i in range(rng.randint(1, 6))]
            edges = frozenset(
                CausalEdge(*rng.choices(sensors, k=2), rng.choice("uvw"), rng.randint(1, 3))
                for _ in range(rng.randint(0, 30))
            )
            graph = CausalGraph(frozenset(sensors), edges)
            for sensor in [*sensors, "ghost"]:
                outgoing = sorted(
                    (e for e in edges if e.cause == sensor),
                    key=lambda e: (e.effect, e.via, e.delay),
                )
                incoming = sorted(
                    (e for e in edges if e.effect == sensor),
                    key=lambda e: (e.cause, e.via, e.delay),
                )
                assert graph.out_edges(sensor) == outgoing
                assert graph.in_edges(sensor) == incoming
                graph.out_edges(sensor).clear()  # callers get a copy of the index
                assert graph.out_edges(sensor) == outgoing
            # The index is not part of equality or hashing.
            fresh = CausalGraph(frozenset(sensors), edges)
            assert graph == fresh and hash(graph) == hash(fresh)

    def test_every_edge_delay_at_least_one(self, knife_model, thermostat_doc, chain_doc):
        for model in (knife_model, thermostat_doc.build(), chain_doc.build()):
            assert all(e.delay >= 1 for e in derive_causal_graph(model).edges)


class TestAncestors:
    def chain_graph(self):
        sub_ab = Subsystem(
            "f1", SubsystemKind.COMPONENT, ("s0",), (Rule({"s0": "A"}, (Effect("s1", "B", 1),)),)
        )
        sub_bc = Subsystem(
            "f2", SubsystemKind.COMPONENT, ("s1",), (Rule({"s1": "B"}, (Effect("s2", "B", 1),)),)
        )
        return derive_causal_graph(simple_model(sub_ab, sub_bc, n_sensors=4))

    def test_no_in_edges_gives_empty_set(self):
        assert causal_ancestors(self.chain_graph(), "s0") == set()

    def test_chain(self):
        assert causal_ancestors(self.chain_graph(), "s2") == {("s0", "f1"), ("s1", "f2")}

    def test_two_cycle_contains_itself(self, thermostat_doc):
        graph = derive_causal_graph(thermostat_doc.build())
        ancestors = causal_ancestors(graph, "temp")
        sensors = {s for s, _ in ancestors}
        assert sensors == {"temp", "valve"}

    def test_unknown_sensor_rejected(self):
        with pytest.raises(ModelError, match="unknown sensor"):
            causal_ancestors(self.chain_graph(), "ghost")

    def test_descendants_follow_chain(self):
        assert causal_descendants(self.chain_graph(), "s0") == {"s1", "s2"}
        assert causal_descendants(self.chain_graph(), "s2") == set()


def test_reserved_anomalous_label_rejected():
    bad = Sensor("x", (("ANOMALOUS", Degenerate(0)),), "ANOMALOUS")
    with pytest.raises(ModelError, match="reserved"):
        build_model((bad, two_state("y")), ())


def test_model_equality_is_structural(knife_doc):
    from causalcps.scenario import knife_fixture

    assert knife_doc.build() == knife_fixture().build()
