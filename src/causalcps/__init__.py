"""Causal modeling, simulation, shift detection, diagnosis and production
planning for sensor-instrumented cyber-physical systems."""

from .distributions import (
    ANOMALOUS,
    Degenerate,
    Distribution,
    Normal,
    TestResult,
    Uniform,
    cdf,
    gof_test,
    match_state,
    sample,
    two_sample_test,
)
from .model import (
    CausalEdge,
    CausalGraph,
    Effect,
    ModelError,
    Rule,
    Sensor,
    Subsystem,
    SubsystemKind,
    SystemModel,
    build_model,
    causal_ancestors,
    causal_descendants,
    compose,
    derive_causal_graph,
)
from .simulation import (
    FaultSpec,
    ScriptedIntervention,
    Simulator,
    Trace,
    run_script,
)
from .detection import (
    AnomalyReport,
    Deviation,
    WindowVerdict,
    detect_effect,
    expected_state_check,
    scan_anomalies,
)
from .diagnosis import FaultHypothesis, CausalPath, NothingToDiagnose, diagnose, explain
from .planning import (
    Functionality,
    Plan,
    PlanningProblem,
    PlanStep,
    TransitionEntry,
    apply_functionality,
    plan,
    validate_plan,
)
from .scenario import (
    ScenarioDocument,
    ScenarioError,
    chain_fixture,
    export_trace,
    import_trace,
    knife_fixture,
    parse_scenario,
    serialize_scenario,
    thermostat_fixture,
)

__version__ = "0.1.0"
