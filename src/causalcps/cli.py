"""Command-line pipeline: simulate, detect, diagnose, plan.

Exit status 0 on success, 1 on a domain failure (no plan, no consistent
hypothesis, nothing to diagnose) with a JSON reason on stderr, 2 on usage,
file or validation errors.  With a fixed seed every invocation writes
byte-identical artifacts and never modifies its inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .detection import constant_label_windows, expected_state_check, scan_anomalies
from .diagnosis import diagnose, explain
from .model import ModelError
from .planning import plan as find_plan
from .scenario import (
    ScenarioDocument,
    ScenarioError,
    export_anomaly_report,
    export_deviations,
    export_diagnosis,
    export_plan,
    export_trace,
    import_deviations,
    import_trace,
    parse_scenario,
)


def _fail(reason: str, detail: str = "") -> None:
    payload = {"reason": reason}
    if detail:
        payload["detail"] = detail
    print(json.dumps(payload), file=sys.stderr)


def _load_scenario(path: str) -> ScenarioDocument:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def _cmd_simulate(args: argparse.Namespace) -> int:
    doc = _load_scenario(args.scenario)
    trace = doc.run(
        seed=args.seed,
        horizon=args.horizon,
        include_faults=not args.no_faults,
    )
    Path(args.out).write_text(export_trace(trace), encoding="utf-8")
    print(f"wrote {args.out}: {len(trace)} ticks x {len(trace.sensor_ids)} sensors")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    doc = _load_scenario(args.scenario)
    model = doc.build()
    trace = import_trace(Path(args.trace).read_text(encoding="utf-8"), model)
    reference = import_trace(Path(args.reference).read_text(encoding="utf-8"), model)
    window = args.window if args.window is not None else doc.window
    stride = args.stride if args.stride is not None else doc.stride
    alpha = args.alpha if args.alpha is not None else doc.alpha
    report = scan_anomalies(trace, model, window=window, stride=stride, alpha=alpha)
    # Neither the scan (trace segments) nor the check (reference segments) has a window.
    if not report.verdicts and not any(
        next(constant_label_windows(reference.codes_for(s), window, stride), None)
        for s in reference.sensor_ids
    ):
        raise ScenarioError(
            f"window {window} covers no constant-label segment of the trace or the "
            f"reference: there is no window to test"
        )
    deviations = expected_state_check(
        trace, reference, model, window=window, stride=stride, alpha=alpha
    )
    Path(args.out).write_text(export_anomaly_report(report), encoding="utf-8")
    if args.deviations_out:
        Path(args.deviations_out).write_text(export_deviations(deviations), encoding="utf-8")
    print(
        f"wrote {args.out}: {len(report.verdicts)} windows, "
        f"{len(report.anomalous_verdicts())} anomalous, {len(deviations)} deviations"
    )
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    doc = _load_scenario(args.scenario)
    model = doc.build()
    deviations = import_deviations(Path(args.deviations).read_text(encoding="utf-8"))
    observed = tuple(args.observe) if args.observe else model.sensor_ids()
    try:
        hypotheses = diagnose(
            model,
            doc.interventions,
            doc.horizon,
            deviations,
            observed,
            max_cardinality=args.max_card,
        )
    except ValueError as exc:
        if "nothing to diagnose" in str(exc):
            _fail("NOTHING_TO_DIAGNOSE", str(exc))
            return 1
        raise
    if not hypotheses:
        _fail("NO_CONSISTENT_HYPOTHESIS")
        return 1
    paths = {h.components: explain(model, h, deviations) for h in hypotheses}
    Path(args.out).write_text(export_diagnosis(hypotheses, paths), encoding="utf-8")
    top = "+".join(hypotheses[0].sorted_components())
    print(f"wrote {args.out}: {len(hypotheses)} consistent hypotheses, top {top}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    doc = _load_scenario(args.scenario)
    goal = {}
    for item in args.goal:
        if "=" not in item:
            raise ScenarioError(f"--goal expects sensor=State, got {item!r}")
        sensor, _, state = item.partition("=")
        goal[sensor] = state
    problem = doc.planning_problem(goal)
    result = find_plan(problem)
    if result is None:
        _fail("NO_PLAN")
        return 1
    Path(args.out).write_text(export_plan(result, doc.functionalities), encoding="utf-8")
    print(f"wrote {args.out}: {len(result.steps)} steps, duration {result.total_duration}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalcps",
        description="Simulate, monitor, diagnose and plan a modeled cyber-physical system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario and write the trace CSV")
    p_sim.add_argument("scenario")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--horizon", type=int, default=None)
    p_sim.add_argument(
        "--no-faults",
        action="store_true",
        help="skip the script's fault injections (fault-free reference run)",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_det = sub.add_parser("detect", help="scan a trace for anomalies and deviations")
    p_det.add_argument("scenario")
    p_det.add_argument("--trace", required=True)
    p_det.add_argument("--reference", required=True, help="fault-free trace of the same scenario")
    p_det.add_argument("--out", required=True, help="anomaly report CSV")
    p_det.add_argument("--deviations-out", default=None, help="deviation list CSV")
    p_det.add_argument("--alpha", type=float, default=None)
    p_det.add_argument("--window", type=int, default=None)
    p_det.add_argument("--stride", type=int, default=None)
    p_det.set_defaults(func=_cmd_detect)

    p_diag = sub.add_parser("diagnose", help="rank fault hypotheses for a deviation list")
    p_diag.add_argument("scenario")
    p_diag.add_argument("--deviations", required=True)
    p_diag.add_argument("--out", required=True)
    p_diag.add_argument(
        "--observe",
        action="append",
        default=None,
        metavar="SENSOR",
        help="observed sensor (repeatable; default: all)",
    )
    p_diag.add_argument("--max-card", type=int, default=2)
    p_diag.set_defaults(func=_cmd_diagnose)

    p_plan = sub.add_parser("plan", help="find a production plan for a goal state")
    p_plan.add_argument("scenario")
    p_plan.add_argument(
        "--goal",
        action="append",
        required=True,
        metavar="SENSOR=STATE",
        help="goal entry (repeatable)",
    )
    p_plan.add_argument("--out", required=True)
    p_plan.set_defaults(func=_cmd_plan)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ModelError, ValueError, OSError) as exc:
        _fail("INVALID_INPUT", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
