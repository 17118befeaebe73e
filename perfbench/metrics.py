"""Summary statistics and per-layer metrics computed from spans."""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import COUNT, END, ERROR, NAME, OP, PARENT, START, LAYERS, self_times

# Highest percentile reported is the largest of these with at least ten
# samples beyond it.
_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def summarize(values) -> dict:
    """Median, the highest percentile with >= 10 samples beyond it (None
    when there are too few samples), and the sample count."""
    values = sorted(float(v) for v in values)
    n = len(values)
    out = {"median": statistics.median(values) if values else None, "n": n,
           "tail": None}
    for p in _PERCENTILES:
        if n * (1 - p / 100) >= 10:
            rank = min(n - 1, int(round(p / 100 * (n - 1))))
            out["tail"] = {"p": p, "value": values[rank]}
            break
    return out


VERIFY_CHECKS = ("surface.conformality_and_harmonicity",
                 "surface.nondegeneracy_check", "surface.null_curve",
                 "surface.fixed_point_alignment")
CLI_COMMAND_EXCLUDE = ("cli.residual_battery", "cli.write_report")
COMMANDS = ("solve", "verify", "export")


class _Agg:
    __slots__ = ("calls", "self_s", "dur_s", "count", "points", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.dur_s = 0.0
        self.count = 0           # the span's own count (panels, bytes, ...)
        self.points = 0          # integrand nodes, for integrate_vector
        self.errors = defaultdict(int)


def layer_metrics(tracer, pass_seconds: dict) -> dict:
    """Per-layer metrics per traced pass and its set-up, plus coverage.

    `pass_seconds` maps each traced pass index to its timed seconds.
    Every count and time is divided by the number of traced passes.
    """
    spans = tracer.spans
    ops = tracer.ops
    selfs = self_times(spans)
    n_pass = max(1, len(pass_seconds))
    agg = defaultdict(_Agg)          # (scope, name) -> totals
    by_kind = defaultdict(_Agg)      # (name, op kind) -> totals
    ops_by_kind = defaultdict(int)
    periods_at_parent = defaultdict(int)
    top_level = 0.0
    for op in ops:
        ops_by_kind[op["kind"]] += 1
    for s, self_s in zip(spans, selfs):
        op = ops[s[OP]] if s[OP] >= 0 else None
        scope = "setup" if op is None or op["kind"] == "setup" else "pass"
        dur = s[END] - s[START]
        for a in (agg[(scope, s[NAME])],
                  by_kind[(s[NAME], op["kind"] if op else "")]):
            a.calls += 1
            a.self_s += self_s
            a.dur_s += dur
            if isinstance(s[COUNT], list):
                a.count += s[COUNT][0]
                a.points += s[COUNT][1]
            elif s[COUNT] is not None:
                a.count += s[COUNT]
            if s[ERROR] is not None:
                a.errors[s[ERROR]] += 1
        if scope == "pass":
            if s[PARENT] < 0:
                top_level += dur
            elif s[NAME] == "solver.periods_at":
                periods_at_parent[spans[s[PARENT]][NAME]] += 1

    def get(name, scope="pass"):
        return agg.get((scope, name)) or _Agg()

    def per(x):
        return x / n_pass

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    form, vec, fth = (get("periods.integrate_form"),
                      get("periods.integrate_vector"), get("wdata.f_theta"))
    m["periods.integrate_form.calls"] = per(form.calls)
    m["periods.integrate_form.self_s"] = per(form.self_s)
    m["periods.integrate_vector.calls"] = per(vec.calls)
    m["periods.panels"] = per(vec.count)
    m["periods.points"] = per(vec.points)
    m["periods.panels_per_integral"] = ratio(vec.count, vec.calls)
    m["periods.quadrature_errors"] = per(vec.errors["QuadratureError"])
    m["wdata.f_theta.calls"] = per(fth.calls)
    m["wdata.f_theta.points"] = per(fth.count)
    m["wdata.f_theta.self_s"] = per(fth.self_s)
    m["wdata.f_theta.us_per_point"] = 1e6 * ratio(fth.self_s, fth.count)
    m["wdata.residuals.self_s"] = per(
        get("wdata.nullity_residual").self_s
        + get("wdata.equivariance_residual_f").self_s)

    for name in ("build_period_spray", "period_jacobian", "jacobian_columns",
                 "dependencies", "newton_correct", "interpolate_values"):
        m[f"solver.{name}.self_s"] = per(get(f"solver.{name}").self_s)
    m["solver.jacobian_columns.calls"] = per(get("solver.jacobian_columns").calls)
    m["solver.periods_at.calls.jacobian"] = per(
        periods_at_parent["solver.jacobian_columns"])
    m["solver.periods_at.calls.line_search"] = per(
        periods_at_parent["solver.newton_correct"])
    newton = get("solver.newton_correct")
    iters = newton.count
    m["solver.newton.iterations"] = per(iters)
    m["solver.newton.s_per_iteration"] = ratio(newton.dur_s, iters)
    # every newton_correct call evaluates the periods once before its
    # first step; the rest are line-search trials, one accepted per step
    trials = periods_at_parent["solver.newton_correct"] - newton.calls
    m["solver.line_search.accept_ratio"] = ratio(iters, trials)
    for fn in ("feasibility_check", "newton_correct"):
        for cmd in COMMANDS:
            m[f"solver.{fn}.calls_per_command.{cmd}"] = ratio(
                by_kind[(f"solver.{fn}", cmd)].calls, ops_by_kind[cmd])

    m["surface.evaluate.calls"] = per(get("surface.evaluate").calls)
    evm = get("surface.evaluate_many")
    m["surface.evaluate_many.points"] = per(evm.count)
    m["surface.evaluate_many.self_s"] = per(evm.self_s)
    for name in ("equivariance_residual_F", "build_mesh", "curvature",
                 "mesh_export"):
        m[f"surface.{name}.self_s"] = per(get(f"surface.{name}").self_s)
    m["surface.mesh_export.bytes"] = per(get("surface.mesh_export").count)
    m["surface.verify_checks.self_s"] = per(sum(get(n).self_s
                                                for n in VERIFY_CHECKS))

    for cmd in COMMANDS:
        m[f"cli.command.self_s.{cmd}"] = per(sum(
            a.self_s for (name, kind), a in by_kind.items()
            if kind == cmd and name.startswith("cli.")
            and name not in CLI_COMMAND_EXCLUDE))
    m["cli.residual_battery.self_s"] = per(get("cli.residual_battery").self_s)
    m["cli.write_report.self_s"] = per(get("cli.write_report").self_s)
    m["cli.write_report.bytes"] = per(get("cli.write_report").count)
    m["domain.build_path_system.calls"] = per(
        get("domain.build_path_system").calls)
    m["symgroup.find_invariant_rotation_plane.calls"] = per(
        get("symgroup.find_invariant_rotation_plane").calls)
    m["gallery.entry.self_s"] = per(sum(
        a.self_s for (scope, name), a in agg.items()
        if scope == "pass" and name.startswith("gallery.")))

    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = per(sum(
            a.self_s for (scope, name), a in agg.items()
            if scope == "pass" and name.startswith(layer + ".")))
        m[f"setup.layer.{layer}.self_s"] = per(sum(
            a.self_s for (scope, name), a in agg.items()
            if scope == "setup" and name.startswith(layer + ".")))
    m["setup.gallery.entry.self_s"] = m["setup.layer.gallery.self_s"]

    traced_s = sum(pass_seconds.values())
    m["trace.pass_s"] = per(traced_s)
    m["trace.coverage"] = ratio(top_level, traced_s)
    m["trace.spans"] = per(sum(a.calls for (scope, _), a in agg.items()
                               if scope == "pass"))
    return m
