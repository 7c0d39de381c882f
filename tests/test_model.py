import ast
import itertools
import random
import re
import time

import pytest

from causalcps import model as model_module
from causalcps import planning as planning_module
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
    _merge_effects,
    build_model,
    causal_ancestors,
    causal_descendants,
    compose,
    derive_causal_graph,
    guards_overlap,
    validate_rules,
)
from causalcps.planning import Functionality, TransitionEntry
from causalcps.scenario import parse_scenario
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

    @pytest.mark.parametrize(
        "rules,message",
        [
            (
                [Rule({"s0": "A"}, (Effect("s1", "Z", 1),)), Rule({"s0": "Z"}, ())],
                "rule 0: sensor 's1' has no state 'Z'",
            ),
            (
                [Rule({"s0": "A"}, ()), Rule({"s0": "Z"}, (Effect("s1", "Z", 1),))],
                "rule 1: sensor 's0' has no state 'Z'",
            ),
            ([Rule({"s0": "B"}, (Effect("nope", "A", 1),))], "unknown sensor id 'nope'"),
            (
                [Rule({"s0": "B"}, (Effect("s2", "B", 0), Effect("s2", "Z", 1)))],
                "rule 0: delay 0 invalid",
            ),
            (
                [Rule({"s0": "B"}, (Effect("s2", "Z", 0),)), Rule({"s1": "A"}, ())],
                "rule 0: sensor 's2' has no state 'Z'",
            ),
        ],
    )
    def test_first_bad_rule_is_named_guards_before_effects(self, rules, message):
        model = simple_model(Subsystem("sub", SubsystemKind.COMPONENT, ("s0",), ()))
        with pytest.raises(ModelError) as raised:
            validate_rules(model, "sub", rules)
        assert message in str(raised.value)

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

    @pytest.mark.parametrize(
        "a, b",
        [(Normal(1, 2), Normal(1.0, 2.0)), (Degenerate(0.0), Degenerate(-0.0))],
        ids=["int and float", "signed zeros"],
    )
    def test_equal_laws_written_differently_rejected(self, a, b):
        bad = Sensor("x", (("A", a), ("B", b)), "A")
        with pytest.raises(ModelError, match="identical distributions"):
            build_model((bad, two_state("y")), ())

    def test_many_state_sensor_is_checked_quickly(self):
        # A pairwise check of 4,000 laws takes over a second.
        laws = [Normal(float(k), 1.0) for k in range(4000)]
        wide = Sensor("x", tuple((f"S{k}", law) for k, law in enumerate(laws)), "S0")
        start = time.perf_counter()
        build_model((wide, two_state("y")), ())
        assert time.perf_counter() - start < 0.5
        twin = Sensor("x", wide.states + (("Twin", Normal(3999, 1)),), "S0")
        with pytest.raises(ModelError, match="identical distributions"):
            build_model((twin, two_state("y")), ())


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


def pairwise_overlap_error(model, sub, rules):
    """The determinism error of the pairwise loop ``validate_rules`` once
    ran, comparing every pair of guards in index order, or None."""
    guards = [rule.guard for rule in rules]
    for i, a in enumerate(guards):
        for j, b in enumerate(guards[i + 1 :], start=i + 1):
            if guards_overlap(a, b):
                witness = {sid: model.sensor(sid).labels()[0] for sid in sub.sensors} | a | b
                return (
                    f"subsystem {sub.id!r}: overlapping guards, rules {i} and "
                    f"{j} both match {witness!r} "
                    f"(nondeterministic functional representation)"
                )
    return None


def grouped_tables(seed, count):
    """Subsystems of 1-4 sensors with 2-5 states whose guards are distinct
    joint states, each sensor dropped from a guard now and then, so that
    most guards are grouped by their label on the sensor they all read and
    overlaps are rare and late; yields (model, subsystem, rules)."""
    rng = random.Random(seed)
    for _ in range(count):
        owned = [n_state(f"x{i}", rng.randint(2, 5)) for i in range(rng.randint(1, 4))]
        ids = tuple(s.id for s in owned)
        sub = Subsystem("sub", SubsystemKind.COMPONENT, ids, ())
        model = build_model((*owned, n_state("out", 2)), (sub,))
        combos = list(itertools.product(*(s.labels() for s in owned)))
        rng.shuffle(combos)
        guards = []
        for combo in combos[: rng.randint(0, 40)]:
            guard = dict(zip(ids, combo))
            for sid in ids:
                if rng.random() < 0.04:
                    del guard[sid]
            guards.append(guard)
        rules = tuple(Rule(guard, (Effect("out", "S1", 1),)) for guard in guards)
        yield model, sub, rules


def transition_overlaps_exhaustively(model, sub, entries):
    """Reference oracle: some joint state of ``sub`` is matched by two
    transition entries of one parameter value."""
    domains = [model.sensor(sid).labels() for sid in sub.sensors]
    for combo in itertools.product(*domains):
        state = dict(zip(sub.sensors, combo))
        params = [
            entry.param
            for entry in entries
            if all(state[sid] == label for sid, label in entry.guard.items())
        ]
        if len(params) != len(set(params)):
            return True
    return False


def one_parameter_table_text(n):
    """A scenario whose one functionality holds ``n`` one-sensor transitions
    for one parameter value, each on its own label of product sensor p."""
    states = "\n".join(f"  - {{label: S{k}, dist: degenerate({k})}}" for k in range(n))
    transitions = "\n".join(
        f"  - {{param: 1, when: {{p: S{k}}}, then: {{p: S{(k + 1) % n}}}}}" for k in range(n)
    )
    return (
        f"horizon: 5\nsensors:\n- id: p\n  initial: S0\n  states:\n{states}\n"
        f"- id: station\n  initial: S0\n  states:\n  - {{label: S0, dist: degenerate(0)}}\n"
        f"subsystems:\n- {{id: line, kind: module, sensors: [station]}}\n"
        f"- {{id: part, kind: product, sensors: [p]}}\n"
        f"functionalities:\n- module: line\n  name: advance\n  parameters: [1]\n"
        f"  duration: 1\n  transitions:\n{transitions}\n"
    )


class TestDeterminismCheck:
    def test_grouped_check_equals_pairwise_loop(self):
        outcomes = []
        for model, sub, rules in [*grouped_tables(seed=24, count=600), *random_tables(3, 300)]:
            expected = pairwise_overlap_error(model, sub, rules)
            try:
                validate_rules(model, sub.id, rules)
                got = None
            except ModelError as exc:
                got = str(exc)
            assert got == expected, rules
            outcomes.append(expected is None)
        assert 0.2 < sum(outcomes) / len(outcomes) < 0.8

    def test_one_sensor_table_of_2000_rules_is_checked_in_one_pass(self, monkeypatch):
        n = 2000
        states = "\n".join(f"  - {{label: S{k}, dist: degenerate({k})}}" for k in range(n))
        rules = "\n".join(
            f"  - when: {{s: S{k}}}\n    then: [{{sensor: out, state: S{(k + 1) % n}, delay: 1}}]"
            for k in range(n)
        )
        text = (
            f"horizon: 5\nsensors:\n- id: s\n  initial: S0\n  states:\n{states}\n"
            f"- id: out\n  initial: S0\n  states:\n{states}\n"
            f"- id: spare\n  initial: S0\n  states:\n  - {{label: S0, dist: degenerate(0)}}\n"
            f"subsystems:\n- id: table\n  kind: component\n  sensors: [spare, s]\n"
            f"  rules:\n{rules}\n"
        )
        compared = []
        overlap = model_module.guards_overlap

        def counting(a, b):
            compared.append(1)
            return overlap(a, b)

        monkeypatch.setattr(model_module, "guards_overlap", counting)
        doc = parse_scenario(text)
        assert len(doc.build().subsystem("table").rules) == n
        # The guards read s, not spare, and each is its label's only one:
        # no pair is compared.
        assert len(compared) == 0

    def test_one_parameter_transition_table_of_2000_entries_is_checked_in_one_pass(
        self, monkeypatch
    ):
        compared = []
        overlap = model_module.guards_overlap

        def counting(a, b):
            compared.append(1)
            return overlap(a, b)

        monkeypatch.setattr(model_module, "guards_overlap", counting)
        # A module that imports guards_overlap by name holds its own binding;
        # count the calls through planning's too, should it have one.
        monkeypatch.setattr(planning_module, "guards_overlap", counting, raising=False)
        doc = parse_scenario(one_parameter_table_text(2000))
        assert len(doc.functionalities[0].transitions) == 2000
        assert len(compared) == 0

    def test_transition_check_agrees_with_exhaustive_oracle(self):
        rng = random.Random(27)
        verdicts = []
        for model, sub, rules in [*random_tables(seed=5, count=300), *grouped_tables(27, 150)]:
            entries = tuple(
                TransitionEntry(float(rng.randint(0, 2)), rule.guard, {}) for rule in rules
            )
            try:
                Functionality("m", "f", (0.0, 1.0, 2.0), entries, duration=1)
                rejected = False
            except ValueError as exc:
                param = float(re.fullmatch(r".*for parameter (\S+)", str(exc))[1])
                same = [entry for entry in entries if entry.param == param]
                assert transition_overlaps_exhaustively(model, sub, same), entries
                rejected = True
            assert rejected == transition_overlaps_exhaustively(model, sub, entries), entries
            verdicts.append(rejected)
        assert any(verdicts) and not all(verdicts)

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

    def test_random_tables_agree_with_applying_both(self):
        # At every joint state, at most one composed rule matches, and its
        # effects are each table's own match merged with the first's
        # priority; no rule matches where neither table has one.
        rng = random.Random(20221019)
        merged = 0
        for _ in range(150):
            owned = [n_state(f"x{i}", rng.randint(1, 3)) for i in range(rng.randint(2, 5))]
            sensors = (*owned, n_state("out", 3))
            ids = [s.id for s in owned]
            tables = []
            for sub_id in ("alpha", "beta"):
                own = rng.sample(owned, rng.randint(1, len(owned)))
                rules = []
                for _ in range(rng.randint(0, 4)):
                    guard = {s.id: rng.choice(s.labels()) for s in own if rng.random() < 0.6}
                    if any(guards_overlap(guard, rule.guard) for rule in rules):
                        continue
                    effects = tuple(
                        Effect(target.id, rng.choice(target.labels()), delay)
                        for target, delay in zip(rng.sample(sensors, 2), (1, rng.randint(1, 2)))
                        if rng.random() < 0.7
                    )
                    rules.append(Rule(guard, effects))
                tables.append(
                    Subsystem(sub_id, SubsystemKind.COMPONENT, tuple(s.id for s in own), tuple(rules))
                )
            alpha, beta = tables
            model = build_model(sensors, tables)
            joint = compose(model, "alpha", "beta", "joint").subsystem("joint")
            matched = set()
            read = [sid for sid in ids if any(sid in r.guard for r in alpha.rules + beta.rules)]
            for combo in itertools.product(*(model.sensor(sid).labels() for sid in ids)):
                assignment = dict(zip(ids, combo))
                own_a = next((r.effects for r in alpha.rules if r.matches(assignment)), None)
                own_b = next((r.effects for r in beta.rules if r.matches(assignment)), None)
                found = [r.effects for r in joint.rules if r.matches(assignment)]
                if own_a is None and own_b is None:
                    assert found == []
                else:
                    assert found == [_merge_effects(own_a or (), own_b or ())]
                    matched.add(tuple(assignment[sid] for sid in read))
            # Each rule holds a joint state of the guard sensors, and no two
            # hold the same one: never more rules than matched joint states.
            assert len(joint.rules) <= len(matched)
            merged += any(
                guards_overlap(a.guard, b.guard) for a in alpha.rules for b in beta.rules
            )
        assert merged > 50

    def test_wide_guards_compose_to_pairwise_merges(self):
        # Two single-rule tables over 6 three-state guard sensors each: their
        # guard sensors have 3^12 joint states, 1,457 of them matched.  The
        # merged table holds the pair's rule plus each guard with one partner
        # sensor fixed to another label: 1 + 2 * 6 * 2 rules.
        left = tuple(f"x{i:02d}" for i in range(6))
        right = tuple(f"x{i:02d}" for i in range(6, 12))
        alpha = Subsystem(
            "alpha",
            SubsystemKind.COMPONENT,
            left,
            (Rule(dict.fromkeys(left, "S1"), (Effect("out", "S1", 1),)),),
        )
        beta = Subsystem(
            "beta",
            SubsystemKind.COMPONENT,
            right,
            (Rule(dict.fromkeys(right, "S2"), (Effect("out", "S2", 1),)),),
        )
        sensors = [n_state(sid, 3) for sid in left + right] + [n_state("out", 3)]
        joint = compose(build_model(sensors, (alpha, beta)), "alpha", "beta", "joint")
        rules = joint.subsystem("joint").rules
        assert len(rules) <= 25
        both = dict.fromkeys(left, "S1") | dict.fromkeys(right, "S2")
        assert Rule(both, (Effect("out", "S1", 1),)) in rules

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
