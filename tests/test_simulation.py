import random
from itertools import islice

import numpy as np
import pytest

from causalcps.distributions import Degenerate, Normal, Uniform, draw, match_state
from causalcps.model import (
    Effect,
    ModelError,
    Rule,
    Sensor,
    Subsystem,
    SubsystemKind,
    build_model,
    validate_rules,
)
from causalcps.scenario import export_trace, import_trace
from causalcps.simulation import (
    EFFECT_APPLIED,
    FAULT_ACTIVATED,
    INTERVENTION,
    RULE_FIRED,
    FaultSpec,
    ScriptedIntervention,
    Simulator,
    Trace,
    label_steps,
    run_script,
)


def labels_series(trace, sensor):
    return trace.labels_for(sensor)


def label_rows(trace):
    """The joint labels of each tick, as ``label_steps`` yields them."""
    ids = trace.sensor_ids
    return [dict(zip(ids, row)) for row in zip(*map(trace.labels_for, ids))]


class TestBasicStepping:
    def test_initial_states_at_tick_zero(self, oven_model):
        sim = Simulator(oven_model, seed=0)
        sim.step()
        assert sim.tick == 1
        assert sim.current_labels() == {"burner": "Off", "oven_temp": "Ambient", "spare": "Idle"}
        trace = sim.trace()
        assert [entry[0] for entry in trace.log] == [0]
        assert label_rows(trace) == [sim.current_labels()]

    def test_no_rules_means_constant_labels(self):
        sensors = (
            Sensor("a", (("X", Degenerate(0)), ("Y", Degenerate(1))), "X"),
            Sensor("b", (("P", Degenerate(2)),), "P"),
        )
        model = build_model(sensors, (Subsystem("sub", SubsystemKind.COMPONENT, ("a",), ()),))
        trace = run_script(model, 3, 50)
        assert set(labels_series(trace, "a")) == {"X"}
        assert set(labels_series(trace, "b")) == {"P"}

    def test_same_model_and_seed_reproduce_trace(self, oven_model):
        t1 = run_script(oven_model, 9, 40)
        t2 = run_script(oven_model, 9, 40)
        assert t1 == t2

    def test_different_seed_same_labels_different_values(self, knife_doc):
        t1 = knife_doc.run(seed=1, include_faults=False)
        t2 = knife_doc.run(seed=2, include_faults=False)
        assert label_rows(t1) == label_rows(t2)
        assert not np.array_equal(t1.values, t2.values)

    def test_run_horizon_counts_ticks(self, oven_model):
        sim = Simulator(oven_model, seed=0)
        trace = sim.run(25)
        assert len(trace) == 25
        assert sim.tick == 25
        assert trace.log[-1][0] == 24

    def test_run_rejects_bad_horizon(self, oven_model):
        with pytest.raises(ValueError, match="horizon"):
            Simulator(oven_model, seed=0).run(0)


class TestRuleApplication:
    def test_delayed_effect_lands_exactly_on_schedule(self, oven_model):
        # Burner forced On at tick 5, rule delay 2: Hot exactly at tick 7.
        trace = run_script(
            oven_model, 0, 12, interventions=[ScriptedIntervention(5, "burner", "On")]
        )
        temps = labels_series(trace, "oven_temp")
        assert temps[6] == "Ambient"
        assert temps[7] == "Hot"
        assert all(label == "Ambient" for label in temps[:7])

    def test_rule_fired_and_effect_events_logged(self, oven_model):
        trace = run_script(
            oven_model, 0, 10, interventions=[ScriptedIntervention(5, "burner", "On")]
        )
        fires = [e for e in trace.events(RULE_FIRED) if e.subsystem == "oven"]
        assert fires and fires[0].tick == 5
        applied = [e for e in trace.events(EFFECT_APPLIED) if e.sensor == "oven_temp"]
        assert applied[0].tick == 7 and applied[0].fire_tick == 5

    def test_thermostat_cycle_has_period_four(self, thermostat_doc):
        trace = thermostat_doc.run(horizon=40)
        pairs = list(zip(trace.labels_for("temp"), trace.labels_for("valve")))
        expected = [("Hot", "Open"), ("Hot", "Closed"), ("Cold", "Closed"), ("Cold", "Open")]
        assert pairs == expected * 10

    def test_cause_strictly_precedes_effect(self, knife_doc):
        for include_faults in (False, True):
            trace = knife_doc.run(include_faults=include_faults)
            for event in trace.events(EFFECT_APPLIED):
                assert event.tick > event.fire_tick

    def test_at_most_one_rule_fires_per_subsystem_per_tick(self, thermostat_doc, knife_doc):
        # Determinism bounds per-tick work even on cyclic rule structures.
        for trace in (thermostat_doc.run(horizon=200), knife_doc.run()):
            fired = [(e.tick, e.subsystem) for e in trace.events(RULE_FIRED)]
            assert fired
            assert len(fired) == len(set(fired))


class TestInterventions:
    def test_intervention_to_current_state_changes_nothing_but_is_logged(self, oven_model):
        sim = Simulator(oven_model, seed=0)
        sim.step()
        sim.intervene("burner", "Off")
        sim.step()
        assert sim.current_labels()["burner"] == "Off"
        kinds = [e.kind for e in sim.trace().events() if e.tick == 1]
        assert INTERVENTION in kinds

    def test_downstream_effects_strictly_after_intervention(self, oven_model):
        t0 = 5
        trace = run_script(
            oven_model, 0, 15, interventions=[ScriptedIntervention(t0, "burner", "On")]
        )
        assert all(e.tick > t0 for e in trace.events(EFFECT_APPLIED))

    def test_repeated_intervention_reproduces_downstream_trajectory(self, oven_model):
        script = [ScriptedIntervention(4, "burner", "On")]
        t1 = run_script(oven_model, 0, 30, interventions=script)
        t2 = run_script(oven_model, 0, 30, interventions=script)
        assert label_rows(t1) == label_rows(t2)

    def test_intervention_overrides_rule_effect_same_tick(self):
        # Rule pins s1=B every tick; intervention at tick 3 wins that tick.
        sensors = (
            Sensor("s0", (("A", Degenerate(0)), ("B", Degenerate(1))), "A"),
            Sensor("s1", (("A", Degenerate(2)), ("B", Degenerate(3))), "A"),
            Sensor("s2", (("A", Degenerate(4)),), "A"),
        )
        pinner = Subsystem(
            "pinner", SubsystemKind.COMPONENT, ("s0",), (Rule({}, (Effect("s1", "B", 1),)),)
        )
        model = build_model(sensors, (pinner,))
        trace = run_script(model, 0, 6, interventions=[ScriptedIntervention(3, "s1", "A")])
        series = labels_series(trace, "s1")
        assert series[2] == "B"
        assert series[3] == "A"  # intervention wins over the queued effect
        assert series[4] == "B"  # rule re-pins afterwards

    def test_unknown_intervention_rejected(self, oven_model):
        sim = Simulator(oven_model, seed=0)
        with pytest.raises(ModelError):
            sim.intervene("burner", "Nope")
        with pytest.raises(ModelError):
            sim.intervene("ghost", "On")


class TestFaults:
    def test_identity_replacement_leaves_trace_unchanged(self, oven_model):
        script = [ScriptedIntervention(4, "burner", "On")]
        plain = run_script(oven_model, 7, 30, interventions=script)
        same_rules = FaultSpec(
            component="oven",
            replacement_rules=oven_model.subsystem("oven").rules,
            activation=10,
        )
        faulted = run_script(oven_model, 7, 30, interventions=script, faults=[same_rules])
        # Identical behavior; the log additionally records the activation.
        assert label_rows(plain) == label_rows(faulted)
        assert np.array_equal(plain.values, faulted.values)

    def test_fault_activation_is_logged(self, oven_model):
        fault = FaultSpec(component="oven", replacement_rules=(), activation=3)
        trace = run_script(oven_model, 0, 8, faults=[fault])
        events = list(trace.events(FAULT_ACTIVATED))
        assert len(events) == 1 and events[0].tick == 3 and events[0].subsystem == "oven"

    def test_lid_fault_keeps_oven_cold_and_knife_soft(self, knife_doc, knife_lid_fault_trace):
        assert all(l == "Ambient" for l in knife_lid_fault_trace.labels_for("oven_temp"))
        assert all(l == "Open" for l in knife_lid_fault_trace.labels_for("lid_state"))
        assert knife_lid_fault_trace.final_labels()["knife_hardness"] == "Soft"

    def test_fault_free_knife_run_hardens(self, knife_reference):
        assert knife_reference.final_labels()["knife_hardness"] == "Hard"
        assert "Hot" in knife_reference.labels_for("oven_temp")

    def test_fault_after_horizon_changes_nothing(self, oven_model):
        script = [ScriptedIntervention(4, "burner", "On")]
        plain = run_script(oven_model, 0, 20, interventions=script)
        late = FaultSpec(component="oven", replacement_rules=(), activation=500)
        faulted = run_script(oven_model, 0, 20, interventions=script, faults=[late])
        assert plain == faulted

    def test_replacement_rules_are_validated(self, oven_model):
        bad = FaultSpec(
            component="oven",
            replacement_rules=(Rule({"burner": "On"}, (Effect("oven_temp", "Hot", 0),)),),
            activation=0,
        )
        with pytest.raises(ModelError, match="effect must follow cause"):
            Simulator(oven_model, seed=0).inject_fault(bad)

    def test_fault_in_the_past_rejected(self, oven_model):
        sim = Simulator(oven_model, seed=0)
        sim.step()
        sim.step()
        with pytest.raises(ModelError, match="before the current tick"):
            sim.inject_fault(FaultSpec(component="oven", replacement_rules=(), activation=1))

    def test_unknown_component_rejected(self, oven_model):
        with pytest.raises(ModelError, match="unknown subsystem"):
            Simulator(oven_model, seed=0).inject_fault(
                FaultSpec(component="ghost", replacement_rules=(), activation=0)
            )


class TestConflictResolution:
    def three_sensors(self):
        return (
            Sensor("x", (("A", Degenerate(0)), ("B", Degenerate(1))), "A"),
            Sensor("y", (("A", Degenerate(2)), ("B", Degenerate(3)), ("C", Degenerate(4))), "A"),
            Sensor("z", (("A", Degenerate(5)),), "A"),
        )

    def test_higher_priority_subsystem_wins_same_tick_target(self):
        first = Subsystem(
            "first", SubsystemKind.COMPONENT, ("x",), (Rule({"x": "A"}, (Effect("y", "B", 1),)),)
        )
        second = Subsystem(
            "second", SubsystemKind.COMPONENT, ("z",), (Rule({"z": "A"}, (Effect("y", "C", 1),)),)
        )
        model = build_model(self.three_sensors(), (first, second))
        assert run_script(model, 0, 3).labels_for("y")[1] == "B"
        swapped = build_model(self.three_sensors(), (second, first))
        assert run_script(swapped, 0, 3).labels_for("y")[1] == "C"

    def test_later_rule_in_table_wins_cross_tick_landing(self):
        # Rule 0 fires at t=0 with delay 2, rule 1 fires at t=1 with delay 1;
        # both land on y at t=2 and the later rule in the table wins.
        sub = Subsystem(
            "sub",
            SubsystemKind.COMPONENT,
            ("x",),
            (
                Rule({"x": "A"}, (Effect("y", "B", 2), Effect("x", "B", 1))),
                Rule({"x": "B"}, (Effect("y", "C", 1),)),
            ),
        )
        model = build_model(self.three_sensors(), (sub,))
        trace = run_script(model, 0, 4)
        assert trace.labels_for("y")[2] == "C"

    def test_later_effect_within_rule_wins(self):
        sub = Subsystem(
            "sub",
            SubsystemKind.COMPONENT,
            ("x",),
            (Rule({"x": "A"}, (Effect("y", "B", 1), Effect("y", "C", 1))),),
        )
        model = build_model(self.three_sensors(), (sub,))
        assert run_script(model, 0, 3).labels_for("y")[1] == "C"


class TestSampledValues:
    def test_values_follow_ground_truth_state(self):
        sensors = (
            Sensor("probe", (("Lo", Normal(0, 1)), ("Hi", Normal(50, 1))), "Lo"),
            Sensor("other", (("Idle", Degenerate(0)),), "Idle"),
        )
        model = build_model(
            sensors, (Subsystem("mount", SubsystemKind.COMPONENT, ("probe",), ()),)
        )
        trace = run_script(
            model, 2, 400, interventions=[ScriptedIntervention(200, "probe", "Hi")]
        )
        states = model.sensor("probe").states
        lo_window = trace.values_for("probe")[100:180]
        hi_window = trace.values_for("probe")[250:330]
        assert match_state(lo_window, states, 0.01) == "Lo"
        assert match_state(hi_window, states, 0.01) == "Hi"

    def test_one_value_per_sensor_per_tick(self, knife_model, knife_reference):
        sensor_ids = knife_model.sensor_ids()
        assert knife_reference.sensor_ids == sensor_ids
        assert knife_reference.values.shape == (len(knife_reference), len(sensor_ids))


class TestColumnarTrace:
    def test_columns_follow_the_model(self, knife_doc, knife_lid_fault_trace):
        trace = knife_lid_fault_trace
        model = knife_doc.build()
        assert trace.sensor_ids == model.sensor_ids()
        assert trace.values.shape == trace.codes.shape == (knife_doc.horizon, len(model.sensors))
        assert trace.values.dtype == np.float64
        assert np.issubdtype(trace.codes.dtype, np.integer)
        assert trace.label_tables == tuple(sensor.labels() for sensor in model.sensors)
        assert [entry[0] for entry in trace.log] == list(range(knife_doc.horizon))
        for j, sensor in enumerate(trace.sensor_ids):
            table = trace.label_tables[j]
            assert trace.label_table(sensor) == table
            assert trace.values_for(sensor).tolist() == trace.values[:, j].tolist()
            assert trace.codes_for(sensor).tolist() == trace.codes[:, j].tolist()
            assert trace.labels_for(sensor) == [table[code] for code in trace.codes[:, j]]
        assert label_rows(trace)[-1] == trace.final_labels()

    def test_columns_are_read_only(self, knife_reference):
        with pytest.raises(ValueError):
            knife_reference.values_for("oven_temp")[0] = 0.0
        with pytest.raises(ValueError):
            knife_reference.codes[0, 0] = 1

    def test_run_builds_no_event(self, oven_model, monkeypatch):
        import causalcps.simulation as simulation

        def refuse(*args, **kwargs):
            raise AssertionError("built during the run")

        script = [ScriptedIntervention(4, "burner", "On")]
        monkeypatch.setattr(simulation, "Event", refuse)
        trace = run_script(oven_model, 0, 12, interventions=script)
        with pytest.raises(AssertionError, match="built during the run"):
            list(trace.events())
        monkeypatch.undo()
        assert [e.kind for e in trace.events() if e.tick == 4] == [INTERVENTION, RULE_FIRED]
        assert trace == run_script(oven_model, 0, 12, interventions=script)

    def test_each_step_extends_the_trace(self, thermostat_doc):
        model = thermostat_doc.build()
        script = [ScriptedIntervention(0, "temp", "Cold")]
        sim = Simulator(model, seed=5)
        sim.intervene("temp", "Cold")
        for tick in range(12):
            assert sim.step() is None
            assert sim.tick == tick + 1
            trace = sim.trace()
            assert trace == run_script(model, 5, tick + 1, script)
            assert trace.final_labels() == sim.current_labels()

    def test_equality_reads_values_labels_and_events(self, oven_model):
        script = [ScriptedIntervention(4, "burner", "On")]
        trace = run_script(oven_model, 1, 10, interventions=script)
        assert trace == run_script(oven_model, 1, 10, interventions=script)
        assert trace != run_script(oven_model, 2, 10, interventions=script)
        assert trace != run_script(oven_model, 1, 10)
        late = FaultSpec("oven", oven_model.subsystem("oven").rules, 8)
        assert trace != run_script(oven_model, 1, 10, interventions=script, faults=[late])

    def test_import_with_and_without_model_compare_equal(self, knife_model, knife_reference):
        text = export_trace(knife_reference)
        with_model = import_trace(text, knife_model)
        without = import_trace(text)
        assert with_model.label_tables != without.label_tables
        assert with_model == without
        assert without == with_model

    def test_different_lengths_compare_unequal(self, oven_model):
        long = run_script(oven_model, 1, 10)
        short = run_script(oven_model, 1, 9)
        assert long != short
        assert short != long

    def test_csv_round_trip_drops_the_events(self, oven_model):
        trace = run_script(oven_model, 1, 10, [ScriptedIntervention(4, "burner", "On")])
        copy = import_trace(export_trace(trace), oven_model)
        assert np.array_equal(copy.values, trace.values)
        assert label_rows(copy) == label_rows(trace)
        assert copy != trace
        assert copy == import_trace(export_trace(trace))

    def test_equality_agrees_with_per_tick_records(self, oven_model):
        def record_view(trace):
            """(sensor ids, one (tick, values, labels, events) tuple per tick)."""
            events = {}
            for event in trace.events():
                events.setdefault(event.tick, []).append(event)
            rows = zip(trace.values.tolist(), label_rows(trace))
            return trace.sensor_ids, [
                (t, dict(zip(trace.sensor_ids, values)), labels, tuple(events.get(t, ())))
                for t, (values, labels) in enumerate(rows)
            ]

        script = [ScriptedIntervention(4, "burner", "On")]
        late = FaultSpec("oven", oven_model.subsystem("oven").rules, 8)
        simulated = [
            run_script(oven_model, 1, 10, script),
            run_script(oven_model, 1, 10, script),
            run_script(oven_model, 2, 10, script),
            run_script(oven_model, 1, 10),
            run_script(oven_model, 1, 9, script),
            run_script(oven_model, 1, 10, script, [late]),
        ]
        text = export_trace(simulated[0])
        traces = [
            *simulated,
            import_trace(text, oven_model),
            import_trace(text),
            Trace.from_columns(
                {s: simulated[0].values_for(s) for s in reversed(simulated[0].sensor_ids)},
                {s: simulated[0].labels_for(s) for s in reversed(simulated[0].sensor_ids)},
            ),
        ]
        verdicts = set()
        for a in traces:
            for b in traces:
                verdicts.add(a == b)
                assert (a == b) == (record_view(a) == record_view(b))
        assert verdicts == {True, False}

    def test_from_columns_sorts_each_label_table(self):
        trace = Trace.from_columns(
            {"b": [1.0, 2.0, 3.0], "a": [0.5, 0.5, 0.5]},
            {"b": ["Z", "A", "Z"], "a": ["M", "M", "M"]},
        )
        assert trace.sensor_ids == ("b", "a")
        assert trace.label_tables == (("A", "Z"), ("M",))
        assert trace.codes.tolist() == [[1, 0], [0, 0], [1, 0]]
        assert trace.labels_for("b") == ["Z", "A", "Z"]
        assert trace.final_labels() == {"b": "Z", "a": "M"}
        assert list(trace.events()) == []
        assert trace.log == ()

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Trace(("a",), np.zeros((3, 1)), np.zeros((2, 1), dtype=np.intp), (("X",),))


class TestLabelSteps:
    @pytest.mark.parametrize("fixture", ["knife_doc", "chain_doc", "thermostat_doc"])
    def test_yields_the_labels_of_run_script(self, fixture, request):
        doc = request.getfixturevalue(fixture)
        model = doc.build()
        for faults in (doc.faults, ()):
            trace = run_script(model, doc.seed, doc.horizon, doc.interventions, faults)
            steps = list(label_steps(model, doc.horizon, doc.interventions, faults))
            assert steps == label_rows(trace)

    def test_cycle_with_scripted_intervention_and_fault(self, thermostat_doc):
        model = thermostat_doc.build()
        script = [ScriptedIntervention(10, "temp", "Cold"), ScriptedIntervention(30, "valve", "Open")]
        faults = [FaultSpec("plant", (), 50), FaultSpec("controller", (), 70)]
        trace = run_script(model, 3, 120, script, faults)
        steps = list(label_steps(model, 120, script, faults))
        assert steps == label_rows(trace)
        assert len({tuple(labels.values()) for labels in steps}) > 1

    def test_is_lazy_and_yields_independent_dicts(self, oven_model):
        first, second = islice(label_steps(oven_model, 10**9), 2)
        first["burner"] = "On"
        assert second["burner"] == "Off"

    def test_rejects_bad_horizon(self, oven_model):
        with pytest.raises(ValueError, match="horizon"):
            next(label_steps(oven_model, 0))

    def test_makes_no_random_generator(self, knife_doc, monkeypatch):
        """Neither a label run nor a simulator that has not sampled yet makes
        a generator; the draws of a sampled run are pinned elsewhere."""
        model = knife_doc.build()
        expected = list(label_steps(model, knife_doc.horizon, knife_doc.interventions))

        def refuse(seed=None):
            raise AssertionError("a random generator was made")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert list(label_steps(model, knife_doc.horizon, knife_doc.interventions)) == expected
        Simulator(model, seed=5)

    def test_rejects_invalid_script(self, oven_model):
        with pytest.raises(ModelError):
            list(label_steps(oven_model, 5, [ScriptedIntervention(1, "burner", "Lit")]))


def reference_run(model, seed, horizon, interventions, faults):
    """Oracle stepper: the tick semantics of the module docstring, matching
    rules with ``Rule.matches`` in table order and sampling with one-element
    ``draw`` calls in sensor order.  Yields (labels, values, events) per tick,
    events as plain tuples in the field order of ``Event``."""
    rng = np.random.default_rng(seed)
    labels = model.initial_labels()
    tables = {sub.id: sub.rules for sub in model.subsystems}
    queue = {}  # landing tick -> [(sub index, rule index, effect index, fire tick, target, state)]
    for t in range(horizon):
        events = []
        # Higher-priority subsystem, then later rule, then later effect wins;
        # on a full tie the effect enqueued last wins.
        winners = {}
        for item in queue.pop(t, []):
            sub_index, rule_index, effect_index, _, target, _ = item
            rank = (sub_index, -rule_index, -effect_index)
            if target not in winners or rank <= winners[target][0]:
                winners[target] = (rank, item)
        forced = [(i.sensor, i.state) for i in interventions if i.tick == t]
        for target in sorted(winners):
            if target in {sensor for sensor, _ in forced}:
                continue
            sub_index, rule_index, _, fire_tick, _, state = winners[target][1]
            labels[target] = state
            sub_id = model.subsystems[sub_index].id
            events.append((EFFECT_APPLIED, t, target, state, sub_id, rule_index, fire_tick))
        for sensor, state in forced:
            labels[sensor] = state
            events.append((INTERVENTION, t, sensor, state, None, None, None))
        for fault in faults:
            if fault.activation == t:
                tables[fault.component] = fault.replacement_rules
                events.append((FAULT_ACTIVATED, t, None, None, fault.component, None, None))
        for sub_index, sub in enumerate(model.subsystems):
            for rule_index, rule in enumerate(tables[sub.id]):
                if rule.matches(labels):
                    events.append((RULE_FIRED, t, None, None, sub.id, rule_index, None))
                    for effect_index, effect in enumerate(rule.effects):
                        queue.setdefault(t + effect.delay, []).append(
                            (sub_index, rule_index, effect_index, t, effect.target, effect.state)
                        )
        values = {
            sensor.id: float(draw(sensor.distribution(labels[sensor.id]), rng, 1)[0])
            for sensor in model.sensors
        }
        yield dict(labels), values, events


def random_state(rng, k):
    """State k of a sensor: a normal, uniform or point-mass law, distinct per k."""
    kind = rng.choice(["normal", "uniform", "degenerate"])
    if kind == "normal":
        return Normal(10.0 * k + rng.uniform(-1, 1), rng.uniform(0.1, 3))
    if kind == "uniform":
        lo = 10.0 * k + rng.uniform(-2, 2)
        return Uniform(lo, lo + rng.uniform(0.5, 4))
    return Degenerate(10.0 * k + rng.choice([0, 0.5, 3]))


def random_table(rng, model, sub):
    """Random rules over ``sub``'s sensors, each kept only if the table still validates."""
    rules = []
    for _ in range(rng.randint(0, 5)):
        guard = {
            sid: rng.choice(model.sensor(sid).labels()) for sid in sub.sensors if rng.random() < 0.7
        }
        targets = [rng.choice(model.sensors) for _ in range(rng.randint(1, 3))]
        effects = tuple(
            Effect(target.id, rng.choice(target.labels()), rng.randint(1, 3)) for target in targets
        )
        try:
            validate_rules(model, sub.id, [*rules, Rule(guard, effects)])
        except ModelError:
            continue
        rules.append(Rule(guard, effects))
    return tuple(rules)


def random_scenario(rng, horizon):
    """A validated model with 3-5 sensors and 2-3 subsystems, a script of
    interventions and a fault that swaps one table mid-run."""
    sensors = []
    for i in range(rng.randint(3, 5)):
        states = tuple((f"S{k}", random_state(rng, k)) for k in range(rng.randint(1, 3)))
        sensors.append(Sensor(f"s{i}", states, "S0"))
    ids = [s.id for s in sensors]
    bare = [
        Subsystem(f"c{j}", SubsystemKind.COMPONENT, tuple(rng.sample(ids, rng.randint(1, 2))), ())
        for j in range(rng.randint(2, 3))
    ]
    probe = build_model(sensors, bare)
    model = build_model(
        sensors, [Subsystem(s.id, s.kind, s.sensors, random_table(rng, probe, s)) for s in bare]
    )
    interventions = []
    for tick in sorted(rng.sample(range(horizon), 6)):
        sensor = rng.choice(sensors)
        interventions.append(ScriptedIntervention(tick, sensor.id, rng.choice(sensor.labels())))
    target = rng.choice(model.subsystems)
    fault = FaultSpec(target.id, random_table(rng, model, target), rng.randint(1, horizon - 1))
    return model, interventions, [fault]


class TestOracleStepper:
    def test_run_script_matches_reference_stepper_on_random_models(self):
        rng = random.Random(20221019)
        horizon = 40
        kinds, laws = set(), set()
        for case in range(60):
            model, interventions, faults = random_scenario(rng, horizon)
            trace = run_script(model, case, horizon, interventions, faults)
            expected = list(reference_run(model, case, horizon, interventions, faults))
            assert len(trace) == len(expected) == horizon
            assert label_rows(trace) == [labels for labels, _, _ in expected]
            for row, (labels, values, _) in zip(trace.values.tolist(), expected):
                assert dict(zip(trace.sensor_ids, row)) == values
                assert [a.hex() for a in row] == [b.hex() for b in values.values()]
                laws.update(
                    type(model.sensor(sid).distribution(label)) for sid, label in labels.items()
                )
            # Every event names its tick, so one flat list holds the per-tick split.
            events = list(trace.events())
            assert events == [event for _, _, tick_events in expected for event in tick_events]
            kinds.update(event.kind for event in events)
        assert kinds == {EFFECT_APPLIED, INTERVENTION, FAULT_ACTIVATED, RULE_FIRED}
        assert laws == {Normal, Uniform, Degenerate}


# Laws with negative, huge, tiny and subnormal means, widths and points.  The
# last but one normal law overflows to inf now and then, silently, in numpy too.
EXTREME_NORMALS = (
    Normal(-3.5, 0.25),
    Normal(-1e6, 1e-3),
    Normal(1e300, 1e299),
    Normal(1.7e308, 1e307),
    Normal(-1e-300, 5e-324),
    Normal(0.0, 1e-300),
)
EXTREME_UNIFORMS = (
    Uniform(-5.0, 5.0),
    Uniform(-1e300, 1e300),
    Uniform(1e-3, 1e-3 + 1e-10),
    Uniform(-2.5e-310, -1e-310),
    Uniform(1e307, 1.7e308),
)
EXTREME_POINTS = (Degenerate(-0.0), Degenerate(7.0), Degenerate(-1e308), Degenerate(5e-324))


def scalar_numpy_values(model, seed, trace):
    """The values of ``trace``'s label rows drawn with numpy's own scalar
    calls, ``rng.normal(m, s)`` and ``rng.uniform(lo, hi)``, in tick then
    sensor order; a point mass is its value and makes no call."""
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(len(trace)):
        row = []
        for j, sensor in enumerate(model.sensors):
            dist = sensor.distribution(trace.label_tables[j][trace.codes[t, j]])
            if isinstance(dist, Normal):
                row.append(rng.normal(dist.mean, dist.stddev))
            elif isinstance(dist, Uniform):
                row.append(rng.uniform(dist.lo, dist.hi))
            else:
                row.append(float(dist.value))
        rows.append(row)
    return rows


class TestStandardDraws:
    """The simulator draws standard variates and applies each law's affine
    map itself; its values must equal numpy's scalar samplers bit for bit."""

    def test_values_equal_numpy_scalar_samplers(self):
        horizon = 30
        families, overflows = set(), 0
        for seed in range(60):
            rng = random.Random(seed)
            sensors = []
            for i in range(5):
                laws = [
                    rng.choice(EXTREME_NORMALS),
                    rng.choice(EXTREME_UNIFORMS),
                    rng.choice(EXTREME_POINTS),
                ]
                rng.shuffle(laws)
                states = tuple((f"S{k}", law) for k, law in enumerate(laws))
                sensors.append(Sensor(f"s{i}", states, "S0"))
            model = build_model(sensors, ())
            script = [
                ScriptedIntervention(tick, f"s{rng.randrange(5)}", f"S{rng.randrange(3)}")
                for tick in sorted(rng.sample(range(1, horizon), 12))
            ]
            sim = Simulator(model, seed=seed)
            for tick in range(horizon):
                for item in script:
                    if item.tick == tick:
                        sim.intervene(item.sensor, item.state)
                sim.step()
            trace = sim.trace()
            assert trace == run_script(model, seed, horizon, script)

            got = [[value.hex() for value in row] for row in trace.values.tolist()]
            expected = scalar_numpy_values(model, seed, trace)
            assert got == [[value.hex() for value in row] for row in expected]
            overflows += np.isinf(trace.values).sum()
            families.update(
                type(model.sensors[j].distribution(trace.label_tables[j][code]))
                for row in trace.codes.tolist()
                for j, code in enumerate(row)
            )
        assert families == {Normal, Uniform, Degenerate}
        assert overflows > 0
