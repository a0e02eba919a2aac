"""Per-layer metrics from a traced run's per-operation records.

Counts are means over the first `count_ops` operations, one full cycle of
the workload's operation mix, so they repeat exactly for a given seed
whatever the run length. Times are means over every traced operation;
they are self times (span time minus child spans) except those named
`total_s`, which are whole spans. The traced set-up (operation id
SETUP_OP) enters only `conditions.samples_used_ratio`, the share of drawn
constants samples the operator guard did not reject, and the set-up's
constants-estimate time.
"""

from __future__ import annotations

from spans import EXIT_CODES, LAYERS, SETUP_OP, STOP_REASONS

CALLS = "count/op"
SECONDS = "s/op"
BYTES = "B/op"

# (metric name, record key, unit): counts, then self times.
COUNTS = [
    ("scale.GridFunction.count", "scale.GridFunction.calls", CALLS),
    ("scale.derivative.calls", None, CALLS),
    ("scale.derivative.bytes_computed", None, BYTES),
    ("scale.integrate_from_zero.calls", None, CALLS),
    ("scale.integrate_from_zero.bytes_computed", None, BYTES),
    ("scale.sobolev_norm.calls", None, CALLS),
    ("sampling.trig_polynomial.calls", None, CALLS),
    ("sampling.trig_polynomial.bytes_computed", None, BYTES),
    ("sampling.sample_in_ball.calls", None, CALLS),
    ("operators.dsm_vector_field.calls", None, CALLS),
    ("operators.eval.calls", None, CALLS),
    ("operators.apply_derivative.calls", None, CALLS),
    ("operators.solve_derivative.calls", None, CALLS),
    ("operators.guard_trips", None, CALLS),
    ("flow.steps", None, CALLS),
    ("flow.residual.calls", None, CALLS),
    ("flow.recorded_bytes", None, BYTES),
    *[(f"flow.stop.{reason}", None, CALLS) for reason in STOP_REASONS],
    ("conditions.estimate_constants.calls", None, CALLS),
    ("newton_lab.newton_solve.calls", None, CALLS),
    ("newton_lab.iterations", None, CALLS),
    ("cli.write.bytes", None, BYTES),
    *[(f"cli.exit.{code}", None, CALLS) for code in EXIT_CODES],
]
TIMES = [
    *[f"{layer}.self_s" for layer in LAYERS],
    "scale.GridFunction.self_s",
    "scale.derivative.self_s",
    "scale.integrate_from_zero.self_s",
    "scale.sobolev_norm.self_s",
    "sampling.trig_polynomial.self_s",
    "operators.dsm_vector_field.self_s",
    "operators.eval.self_s",
    "operators.apply_derivative.self_s",
    "operators.solve_derivative.self_s",
    "flow.step.self_s",
    "flow.residual.self_s",
    "flow.integrate_flow.self_s",
    "conditions.estimate_constants.self_s",
    "conditions.admissibility_check.self_s",
    "newton_lab.newton_solve.self_s",
    "cli.main.self_s",
    "cli.write.self_s",
    # Inclusive times of the calls that block an operation's result.
    "conditions.estimate_constants.total_s",
    "flow.integrate_flow.total_s",
    "newton_lab.newton_solve.total_s",
    "sampling.trig_polynomial.total_s",
    "cli.main.total_s",
]

# Call counts that must not be zero on a workload that exercises the layer.
_EVERY = ("scale.GridFunction.calls", "scale.derivative.calls",
          "scale.integrate_from_zero.calls", "scale.sobolev_norm.calls",
          "sampling.trig_polynomial.calls", "sampling.sample_in_ball.calls",
          "operators.eval.calls", "operators.solve_derivative.calls",
          "flow.residual.calls", "conditions.admissibility_check.calls")
_FLOW = ("operators.dsm_vector_field.calls", "flow.steps", "flow.integrate_flow.calls")
_CLI = ("operators.apply_derivative.calls", "conditions.estimate_constants.calls",
        "cli.main.calls", "cli.write.calls")
EXERCISED = {
    "cli-small": _EVERY + _FLOW + _CLI + ("newton_lab.newton_solve.calls",),
    "sweep-large": _EVERY + _FLOW,
    "verify-large": _EVERY + _CLI,
}


def compute(per_op: dict[int, dict[str, float]], workload: str, traced_ops: int,
            count_ops: int) -> tuple[dict, list[str]]:
    """Metrics as {name: (value, unit, basis)}, and exercised call counts
    that came out zero."""
    def mean(key: str, ops: range) -> float:
        return sum(per_op.get(op, {}).get(key, 0.0) for op in ops) / len(ops)

    counted, timed = range(count_ops), range(traced_ops)
    count_basis = f"mean of ops 0-{count_ops - 1}"
    time_basis = f"mean of {traced_ops} traced ops"
    metrics = {}
    for name, key, unit in COUNTS:
        metrics[name] = (mean(key or name, counted), unit, count_basis)
    for name in TIMES:
        metrics[name] = (mean(name, timed), SECONDS, time_basis)
    steps = mean("flow.steps", counted)
    metrics["flow.vf_per_step"] = (
        mean("flow.step.vf_calls", counted) / steps if steps else 0.0, "ratio",
        f"vector-field calls per flow step, {count_basis}")
    drawn = sum(rec.get("conditions.samples_drawn", 0.0) for rec in per_op.values())
    used = sum(rec.get("conditions.samples_used", 0.0) for rec in per_op.values())
    metrics["conditions.samples_used_ratio"] = (
        used / drawn if drawn else 0.0, "ratio",
        f"of {drawn:.0f} samples drawn, set-up included")
    zero = [key for key in EXERCISED[workload] if mean(key, counted) == 0.0]
    setup = per_op.get(SETUP_OP, {})
    metrics["setup.conditions.estimate_constants.total_s"] = (
        setup.get("conditions.estimate_constants.total_s", 0.0), "s", "traced set-up")
    return metrics, zero
