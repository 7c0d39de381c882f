import itertools
import math
import random
from collections import Counter
from operator import itemgetter

import pytest
from test_model import one_parameter_table_text

import causalcps.planning as planning
from causalcps.model import guards_overlap
from causalcps.planning import (
    Functionality,
    Plan,
    PlanningProblem,
    PlanStep,
    TransitionEntry,
    apply_functionality,
    plan,
    validate_plan,
)
from causalcps.scenario import parse_scenario


def knife_problem(knife_doc, goal=None):
    return knife_doc.planning_problem(goal or {"knife_hardness": "Hard"})


def brute_force_minimum(problem, max_length=6):
    """Enumerate every action sequence up to max_length and fold it through
    apply_functionality; returns the minimum duration reaching the goal."""
    actions = [
        (f, param) for f in problem.functionalities for param in f.parameter_domain
    ]

    def satisfied(state):
        return all(state.get(k) == v for k, v in problem.goal.items())

    best = None
    if satisfied(problem.initial):
        return 0
    for length in range(1, max_length + 1):
        for sequence in itertools.product(actions, repeat=length):
            state = dict(problem.initial)
            duration = 0
            for functionality, param in sequence:
                state = apply_functionality(functionality, param, state)
                duration += functionality.duration
            if satisfied(state) and (best is None or duration < best):
                best = duration
    return best


class TestApplyFunctionality:
    def test_empty_transition_table_is_identity(self):
        f = Functionality("m", "noop", (0.0,), (), duration=1)
        state = {"a": "X", "b": "Y"}
        assert apply_functionality(f, 0.0, state) == state

    def test_heat_at_full_power_heats(self, knife_doc):
        heat = knife_doc.functionalities[0]
        state = {"knife_temp": "Cold", "knife_hardness": "Soft"}
        assert apply_functionality(heat, 100.0, state) == {
            "knife_temp": "Hot",
            "knife_hardness": "Soft",
        }

    def test_heat_at_zero_is_noop(self, knife_doc):
        heat = knife_doc.functionalities[0]
        state = {"knife_temp": "Cold", "knife_hardness": "Soft"}
        assert apply_functionality(heat, 0.0, state) == state

    def test_out_of_domain_parameter_rejected(self, knife_doc):
        heat = knife_doc.functionalities[0]
        with pytest.raises(ValueError, match="outside domain"):
            apply_functionality(heat, 33.0, {"knife_temp": "Cold", "knife_hardness": "Soft"})

    def test_untouched_sensors_unchanged(self, knife_doc):
        quench = knife_doc.functionalities[1]
        state = {"knife_temp": "Hot", "knife_hardness": "Hard"}
        result = apply_functionality(quench, 1.0, state)
        assert result == {"knife_temp": "Cold", "knife_hardness": "Hard"}

    def test_overlapping_transition_guards_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            Functionality(
                "m",
                "bad",
                (1.0,),
                (
                    TransitionEntry(1.0, {"a": "X"}, {"b": "Y"}),
                    TransitionEntry(1.0, {"a": "X", "b": "Y"}, {"b": "Z"}),
                ),
                duration=1,
            )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("where", ["domain", "transition"])
    def test_non_finite_parameter_rejected(self, value, where):
        domain = (1.0, value) if where == "domain" else (1.0,)
        entry = TransitionEntry(value if where == "transition" else 1.0, {"a": "X"}, {"a": "Y"})
        message = rf"^functionality m\.f: parameter {value} is not finite$"
        with pytest.raises(ValueError, match=message):
            Functionality("m", "f", domain, (entry,), duration=1)


class TestPlan:
    def test_goal_already_satisfied_gives_empty_plan(self, knife_doc):
        problem = knife_problem(knife_doc, {"knife_hardness": "Soft"})
        result = plan(problem)
        assert result == Plan(steps=(), total_duration=0)

    def test_knife_plan_is_heat_then_quench(self, knife_doc):
        result = plan(knife_problem(knife_doc))
        assert result.steps == (
            PlanStep("oven", "heat", 100.0),
            PlanStep("cooler", "quench", 1.0),
        )
        assert result.total_duration == 11

    def test_unreachable_without_the_oven(self, knife_doc):
        problem = knife_problem(knife_doc)
        without_oven = PlanningProblem(
            functionalities=tuple(f for f in problem.functionalities if f.module != "oven"),
            initial=problem.initial,
            goal=problem.goal,
        )
        assert plan(without_oven) is None

    def test_declaration_order_does_not_matter(self, knife_doc):
        problem = knife_problem(knife_doc)
        for order in itertools.permutations(problem.functionalities):
            permuted = PlanningProblem(
                functionalities=tuple(order), initial=problem.initial, goal=problem.goal
            )
            result = plan(permuted)
            assert result == plan(problem)

    def test_cost_beats_step_count(self):
        # One slow direct action vs a cheap two-step route.
        slow = Functionality(
            "press", "force", (1.0,), (TransitionEntry(1.0, {"p": "Raw"}, {"p": "Done"}),), 9
        )
        prep = Functionality(
            "prep", "stage", (1.0,), (TransitionEntry(1.0, {"p": "Raw"}, {"p": "Staged"}),), 1
        )
        fast = Functionality(
            "mill", "cut", (1.0,), (TransitionEntry(1.0, {"p": "Staged"}, {"p": "Done"}),), 2
        )
        problem = PlanningProblem((slow, prep, fast), {"p": "Raw"}, {"p": "Done"})
        result = plan(problem)
        assert result.total_duration == 3
        assert [s.module for s in result.steps] == ["prep", "mill"]

    def test_tie_break_prefers_shorter_then_lexicographic(self):
        a = Functionality(
            "alpha", "go", (1.0,), (TransitionEntry(1.0, {"p": "Raw"}, {"p": "Done"}),), 4
        )
        b = Functionality(
            "beta", "go", (1.0,), (TransitionEntry(1.0, {"p": "Raw"}, {"p": "Done"}),), 4
        )
        problem = PlanningProblem((b, a), {"p": "Raw"}, {"p": "Done"})
        result = plan(problem)
        assert [s.module for s in result.steps] == ["alpha"]


class TestValidatePlan:
    def test_planner_output_always_validates(self, knife_doc):
        for goal in (
            {"knife_hardness": "Hard"},
            {"knife_temp": "Hot"},
            {"knife_temp": "Hot", "knife_hardness": "Hard"},
            {"knife_hardness": "Soft"},
        ):
            problem = knife_problem(knife_doc, goal)
            result = plan(problem)
            assert result is not None
            assert validate_plan(result, problem)

    def test_out_of_domain_parameter_fails_validation(self, knife_doc):
        problem = knife_problem(knife_doc)
        bogus = Plan(steps=(PlanStep("oven", "heat", 33.0),), total_duration=8)
        assert not validate_plan(bogus, problem)

    def test_reversed_knife_plan_fails(self, knife_doc):
        problem = knife_problem(knife_doc)
        reversed_plan = Plan(
            steps=(PlanStep("cooler", "quench", 1.0), PlanStep("oven", "heat", 100.0)),
            total_duration=11,
        )
        assert not validate_plan(reversed_plan, problem)

    def test_wrong_total_duration_fails(self, knife_doc):
        problem = knife_problem(knife_doc)
        wrong = Plan(
            steps=(PlanStep("oven", "heat", 100.0), PlanStep("cooler", "quench", 1.0)),
            total_duration=10,
        )
        assert not validate_plan(wrong, problem)

    def test_none_is_not_a_valid_plan(self, knife_doc):
        assert not validate_plan(None, knife_problem(knife_doc))


class TestOptimalityOracle:
    def test_knife_matches_brute_force(self, knife_doc):
        for goal in ({"knife_hardness": "Hard"}, {"knife_temp": "Hot"}):
            problem = knife_problem(knife_doc, goal)
            result = plan(problem)
            assert result.total_duration == brute_force_minimum(problem)

    def test_synthetic_problems_match_brute_force(self):
        toggle = Functionality(
            "flip",
            "switch",
            (0.0, 1.0),
            (
                TransitionEntry(1.0, {"a": "Lo"}, {"a": "Hi"}),
                TransitionEntry(0.0, {"a": "Hi"}, {"a": "Lo"}),
            ),
            duration=2,
        )
        pump = Functionality(
            "pump",
            "fill",
            (1.0,),
            (TransitionEntry(1.0, {"a": "Hi", "b": "Empty"}, {"b": "Full"}),),
            duration=3,
        )
        drain = Functionality(
            "pump",
            "drain",
            (1.0,),
            (TransitionEntry(1.0, {"b": "Full"}, {"b": "Empty", "a": "Lo"}),),
            duration=1,
        )
        problems = [
            PlanningProblem((toggle, pump, drain), {"a": "Lo", "b": "Empty"}, {"b": "Full"}),
            PlanningProblem(
                (toggle, pump, drain), {"a": "Lo", "b": "Empty"}, {"a": "Lo", "b": "Full"}
            ),
            PlanningProblem((toggle, pump), {"a": "Hi", "b": "Full"}, {"a": "Lo"}),
            PlanningProblem((pump, drain), {"a": "Lo", "b": "Empty"}, {"b": "Full"}),
        ]
        for problem in problems:
            result = plan(problem)
            oracle = brute_force_minimum(problem)
            if oracle is None:
                assert result is None
            else:
                assert result is not None and result.total_duration == oracle
                assert validate_plan(result, problem)


def random_planning_problem(rng):
    """A product of one to four properties of two or three labels, and two
    to six functionalities.  Half read and write one property (independent
    ones); the rest couple two or three.  Each has one to three parameters
    in random order, up to four transitions per parameter with guards that
    do not overlap, and a duration of 1-4, so equal durations are common.
    A goal asks each of its properties for a label other than the initial
    one, except that about one goal in eight already holds.  Returns the
    problem and each property's labels."""
    labels = {
        f"p{i}": [f"L{k}" for k in range(rng.randint(2, 3))] for i in range(rng.randint(1, 4))
    }
    properties = sorted(labels)
    names = [(module, name) for module in ("mill", "oven", "press") for name in ("run", "set")]
    functionalities = []
    for module, name in rng.sample(names, rng.randint(2, 6)):
        touched = rng.sample(properties, min(len(properties), rng.choice((1, 1, 2, 3))))
        domain = tuple(float(value) for value in rng.sample(range(10), rng.randint(1, 3)))
        entries = []
        for param in domain:
            for _ in range(rng.randint(1, 4)):
                guard = {p: rng.choice(labels[p]) for p in touched if rng.random() < 0.7}
                written = rng.sample(touched, rng.randint(1, len(touched)))
                effect = {p: rng.choice(labels[p]) for p in written}
                if not any(e.param == param and guards_overlap(guard, e.guard) for e in entries):
                    entries.append(TransitionEntry(param, guard, effect))
        duration = rng.randint(1, 4)
        functionalities.append(Functionality(module, name, domain, tuple(entries), duration))
    initial = {p: rng.choice(labels[p]) for p in properties}
    goal = {
        p: rng.choice([label for label in labels[p] if label != initial[p]])
        for p in rng.sample(properties, rng.randint(1, len(properties)))
    }
    if rng.random() < 0.125:
        goal = {p: initial[p] for p in goal}
    return PlanningProblem(tuple(functionalities), initial, goal), labels


def exhaustive_minimum(problem, labels):
    """The plan that is least under (duration, length, step keys), found
    without ``plan``, and whether a step had to be chosen by its key.

    Every product state gets its least (duration, length) to a goal state by
    relaxing all moves until nothing changes.  From the initial state, the
    plan then takes, at each state, the step of smallest key (module,
    functionality, parameter position) among those that stay on a least
    path.  Plans of least (duration, length) all have the same length, so
    this greedy choice gives the least key sequence."""
    properties = sorted(labels)
    states = list(itertools.product(*(labels[p] for p in properties)))
    actions = sorted(
        (
            ((f.module, f.name, position), f, param)
            for f in problem.functionalities
            for position, param in enumerate(f.parameter_domain)
        ),
        key=itemgetter(0),
    )
    moves = {}
    for state in states:
        moves[state] = []
        for _, f, param in actions:
            after = apply_functionality(f, param, dict(zip(properties, state)))
            step = PlanStep(f.module, f.name, param)
            moves[state].append((f.duration, tuple(after[p] for p in properties), step))
    unreachable = (math.inf, math.inf)
    distance = {
        state: (0, 0)
        if all(dict(zip(properties, state))[p] == label for p, label in problem.goal.items())
        else unreachable
        for state in states
    }
    changed = True
    while changed:
        changed = False
        for state, options in moves.items():
            for duration, after, _ in options:
                through = (distance[after][0] + duration, distance[after][1] + 1)
                if through < distance[state]:
                    distance[state], changed = through, True
    state = tuple(problem.initial[p] for p in properties)
    if distance[state] == unreachable:
        return None, False
    total, steps, by_key = distance[state][0], [], False
    while distance[state] != (0, 0):
        least = [
            (after, step)
            for duration, after, step in moves[state]
            if (distance[after][0] + duration, distance[after][1] + 1) == distance[state]
        ]
        by_key |= len(least) > 1
        state, step = least[0]
        steps.append(step)
    return Plan(tuple(steps), total), by_key


def test_plan_equals_exhaustive_minimum_on_random_problems():
    """``plan`` returns the whole least plan, steps and duration, or None
    when no plan exists, on 300 random problems; each kind of problem below
    is met at least 10 times."""
    rng = random.Random(20261020)
    seen = Counter()
    for case in range(300):
        problem, labels = random_planning_problem(rng)
        expected, by_key = exhaustive_minimum(problem, labels)
        assert plan(problem) == expected, case
        widths = {
            len({*entry.guard, *entry.effect})
            for f in problem.functionalities
            for entry in f.transitions
        }
        seen["coupled"] += max(widths, default=0) > 1
        seen["independent"] += 1 in widths
        if expected is None:
            seen["unreachable"] += 1
        else:
            seen["already holds" if not expected.steps else "reachable"] += 1
            seen["three or more steps"] += len(expected.steps) >= 3
            seen["chosen by key"] += by_key
    assert min(seen.values()) >= 10 and len(seen) == 7, seen


def test_goal_over_unknown_sensor_rejected(knife_doc):
    with pytest.raises(ValueError, match="missing from the initial state"):
        PlanningProblem(knife_doc.functionalities, {"knife_temp": "Cold"}, {"ghost": "X"})


def test_repeated_module_and_name_rejected():
    # Two oven.heat entries would tie in the search heap on every key.
    heat = Functionality(
        "oven", "heat", (1.0,), (TransitionEntry(1.0, {"p": "Raw"}, {"p": "Done"}),), 4
    )
    again = Functionality(
        "oven", "heat", (2.0,), (TransitionEntry(2.0, {"p": "Raw"}, {"p": "Done"}),), 4
    )
    with pytest.raises(ValueError, match="functionality oven.heat: declared more than once"):
        PlanningProblem((heat, again), {"p": "Raw"}, {"p": "Done"})


class TestTransitionIndex:
    """``Functionality.transition`` finds, through its index, the entry a
    scan of the whole table finds, and tries a bounded number of guards."""

    def test_transition_is_the_match_of_a_table_scan(self):
        rng = random.Random(31)
        for _ in range(150):
            problem, labels = random_planning_problem(rng)
            properties = sorted(labels)
            states = [
                dict(zip(properties, combo))
                for combo in itertools.product(*(labels[p] for p in properties))
            ]
            for functionality in problem.functionalities:
                for param in functionality.parameter_domain:
                    for state in states:
                        scanned = next(
                            (
                                entry
                                for entry in functionality.transitions
                                if entry.param == param and entry.applies(state)
                            ),
                            None,
                        )
                        assert functionality.transition(param, state) is scanned

    def test_guards_that_skip_the_pivot_are_tried_for_every_state(self):
        # Each sensor is read twice, so the pivot is a, the first met.
        f = Functionality(
            "m",
            "f",
            (1.0,),
            (
                TransitionEntry(1.0, {"a": "X", "b": "Y"}, {"b": "X"}),
                TransitionEntry(1.0, {"a": "Z", "c": "Y"}, {"c": "X"}),
                TransitionEntry(1.0, {"b": "X", "c": "X"}, {"a": "X"}),
            ),
            duration=1,
        )
        assert f.transition(1.0, {"a": "Q", "b": "X", "c": "X"}) is f.transitions[2]
        assert f.transition(1.0, {"b": "X", "c": "X"}) is f.transitions[2]
        assert f.transition(1.0, {"a": "Z", "b": "Y", "c": "Y"}) is f.transitions[1]
        assert f.transition(1, {"a": "X", "b": "Y"}) is f.transitions[0]
        assert f.transition(1.0, {"b": "Y", "c": "Y"}) is None

    @pytest.mark.parametrize("n", [500, 2000])
    def test_one_parameter_table_plans_with_one_guard_test_per_call(self, monkeypatch, n):
        doc = parse_scenario(one_parameter_table_text(n))
        problem = doc.planning_problem({"p": f"S{n - 1}"})
        calls = Counter()

        def counted(name, func):
            def wrapper(*args):
                calls[name] += 1
                return func(*args)

            return wrapper

        monkeypatch.setattr(planning, "holds", counted("holds", planning.holds))
        monkeypatch.setattr(
            planning, "apply_functionality", counted("apply", planning.apply_functionality)
        )
        steps = (PlanStep("line", "advance", 1.0),) * (n - 1)
        assert plan(problem) == Plan(steps=steps, total_duration=n - 1)
        # One call per action of each settled state but the goal, each with
        # one guard test; the other holds calls are the n goal tests.
        assert calls["apply"] == n - 1
        assert calls["holds"] == calls["apply"] + n
