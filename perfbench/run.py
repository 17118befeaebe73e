"""equimin benchmark: one process, one client, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gallery_pipeline --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --self-check

The program is imported from ./src of the checkout; the benchmark exits
with code 2, printing no result, when that source tree is missing.

A run repeats passes until the timed operations add up to --seconds of
wall time (and at least three passes).  Each pass first sets the
workload up afresh (import of equimin, configs, gallery entries and,
for dense_surface, the deformed pre-solves).  pass_s and setup_s are
medians over passes of times scaled to the nominal host speed (see
host_reference); the unscaled medians are reported as pass_wall_s and
setup_wall_s.  With --trace 1, passes alternate between untraced and
traced; the traced ones give the per-layer metrics and the difference
gives the tracing overhead.  End-to-end figures come from untraced
passes only.

Every metric goes to a human-readable table and to
.bench_out/<workload>-seed<seed>-trace<t>.json (with the run
environment and the seed-commit baseline); traced runs also write their
spans to .bench_out/spans-<workload>-seed<seed>.json.gz.  The last line
of standard output is the JSON result:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from metrics import layer_metrics, summarize  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import FULL, WORKLOADS, Check, run_timed  # noqa: E402

MIN_SETUPS = 3         # untraced runs set up at least this often

# Host-speed reference.  The CPU speed of a shared host drifts: the same
# equivariance evaluation took 0.29-0.57 s within one minute on a 2-vCPU
# VM, with CPU time tracking wall time on both vCPUs, in phases lasting
# 10-30 s.  Medians inside one run cannot remove that, so each pass also
# times a fixed reference kernel before its set-up and after its set-up
# and every operation, and scales its times by REF_NOMINAL_S over the
# median of those reference times.  The kernel is a mix of small-array
# numpy and interpreter work, like the program's integrand loops, and
# calls nothing of equimin.
REF_LOOPS = 1500
REF_NOMINAL_S = 0.020
_REF_X = np.linspace(0.0, 1.0, 15)


def host_reference() -> float:
    """Seconds the fixed reference kernel takes right now."""
    start = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(REF_LOOPS):
        z = np.exp(1j * (_REF_X + i * 1e-3)) * (_REF_X + 1.0)
        acc += float(np.sum(z.real * z.imag))
        table[i & 63] = acc
        for j in range(8):
            acc += (i * j) % 7
    return time.perf_counter() - start


BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for m in BENCH["end_to_end"] + BENCH["per_layer"]}


def unit_of(name: str) -> str:
    """Unit of a reported figure, read off its name."""
    if name in UNITS:
        return UNITS[name]
    parts = name.split(".")
    if "_per_s" in name:
        return "1/s"
    if "s_per_iteration" in parts or any(p.endswith("_s") for p in parts):
        return "s"
    for suffix, unit in (("bytes", "bytes"), ("us_per_point", "us"),
                         ("ratio", "ratio"), ("coverage", "ratio"),
                         ("per_integral", "ratio"), ("error_rate", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


class SourceMissing(RuntimeError):
    pass


def import_fresh():
    """Import equimin from ./src, dropping any earlier import first, so
    every set-up repetition pays the package's own import."""
    src = ROOT / "src"
    if not (src / "equimin" / "__init__.py").is_file():
        raise SourceMissing(f"no equimin source tree under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules
                 if n == "equimin" or n.startswith("equimin.")]:
        del sys.modules[name]
    eq = importlib.import_module("equimin")
    for layer in LAYERS:
        importlib.import_module(f"equimin.{layer}")
    if Path(eq.__file__).resolve().parent != (src / "equimin").resolve():
        raise SourceMissing(f"equimin imported from {eq.__file__}, not {src}")
    return eq


def environment(args) -> dict:
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def run_workload(wl, seed: int, seconds: float, trace: bool, sizes, workdir):
    """Run passes until the timed operations add up to `seconds` of wall
    time, then return the raw record.

    Every pass starts with a fresh, timed set-up (re-import of equimin and
    the workload's inputs), so the set-up samples are spread over the run
    like the passes are.  One untimed import first pays the one-off import
    of numpy and scipy.  The reference kernel runs before the set-up and
    after the set-up and every operation.
    """
    import_fresh()
    tracer = Tracer() if trace else None
    setups, passes, memo = [], [], {}
    measured = 0.0
    index = 0
    while True:
        traced = trace and index % 2 == 1
        ref = host_reference()
        start = time.perf_counter()
        eq = import_fresh()
        if traced:
            tracer.install()
        try:
            if traced:
                tracer.begin_op(index, "setup", wl.name)
            state = wl.setup(eq, seed, sizes, workdir)
            setup_wall = time.perf_counter() - start
            refs = [ref, host_reference()]
            ops = []
            for op, fn in wl.plan_pass(eq, state, index):
                if traced:
                    tracer.begin_op(index, op.kind, op.label)
                ops.append(run_timed(op, fn))
                refs.append(host_reference())
        finally:
            if traced:
                tracer.uninstall()
        speed = REF_NOMINAL_S / statistics.median(refs)
        for op in ops:
            op.norm_s = op.seconds * speed
        if not traced:
            setups.append((setup_wall, setup_wall * speed))
        for op in ops:
            if op.error is not None:
                continue
            try:
                wl.check_op(eq, state, op, memo)
            except Exception as exc:  # noqa: BLE001 - a broken output fails its op
                op.check(f"check raised {type(exc).__name__}: {exc}", False)
        wl.end_pass(state, index)
        wall = sum(op.seconds for op in ops)
        passes.append({"index": index, "traced": traced, "wall_s": wall,
                       "norm_s": sum(op.norm_s for op in ops), "ops": ops,
                       "reference_s": statistics.median(refs),
                       "metrics": wl.pass_metrics(ops)})
        # keep only the verdicts, so memory does not grow with the passes
        for op in ops:
            op.result, op.ctx = None, {}
        del eq, state
        gc.collect()
        measured += wall
        index += 1
        enough = index >= 2 if trace else index >= MIN_SETUPS
        if measured >= seconds and enough:
            break
    return {"setups": setups, "passes": passes, "tracer": tracer,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0}


def check_summary(passes) -> dict:
    out = {}
    for p in passes:
        for op in p["ops"]:
            checks = op.checks if op.error is None else \
                [Check("operation_raised", False)]
            for c in checks:
                key = f"{op.kind}:{op.label}:{c.name}"
                row = out.setdefault(key, {"n": 0, "failed": 0, "values": [],
                                           "gate": c.gate,
                                           "known_defect": c.known_defect})
                row["n"] += 1
                row["failed"] += not c.ok
                if c.value is not None:
                    row["values"].append(c.value)
    for row in out.values():
        vals = row.pop("values")
        if vals:
            row["worst"] = max(vals)
            row["median"] = statistics.median(vals)
    return out


def build_report(wl, raw, env) -> dict:
    passes = raw["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    ops = [op for p in passes for op in p["ops"]]
    attempted = len(ops)
    failed = sum(op.failed for op in ops)
    unexpected = [f"pass {p['index']} {op.kind}:{op.label}: "
                  + (op.error or ", ".join(c.name for c in op.checks
                                           if not c.ok))
                  for p in passes for op in p["ops"] if op.unexpected]

    e2e = {
        "pass_s": summarize(p["norm_s"] for p in plain),
        "setup_s": summarize(norm for _, norm in raw["setups"]),
        "peak_rss_mb": {"median": raw["peak_rss_mb"], "n": 1, "tail": None},
        "pass_wall_s": summarize(p["wall_s"] for p in plain),
        "setup_wall_s": summarize(wall for wall, _ in raw["setups"]),
        "host_reference_s": summarize(p["reference_s"] for p in passes),
        "error_rate": {"median": failed / attempted, "n": attempted,
                       "tail": None},
    }
    names = sorted({k for p in plain for k in p["metrics"]})
    for name in names:
        e2e[name] = summarize(p["metrics"][name] for p in plain
                              if name in p["metrics"])
    report = {"workload": wl.name, "environment": env,
              "attempted": attempted, "failed": failed,
              "unexpected_failures": unexpected,
              "end_to_end": e2e, "checks": check_summary(passes),
              "passes": [{k: p[k] for k in ("index", "traced", "wall_s",
                                            "norm_s", "reference_s")}
                         for p in passes]}
    if traced:
        tr = layer_metrics(raw["tracer"],
                           {p["index"]: p["wall_s"] for p in traced})
        tr["trace.overhead_s"] = (statistics.median(p["norm_s"] for p in traced)
                                  - statistics.median(p["norm_s"]
                                                      for p in plain))
        report["per_layer"] = tr
    return report


def contract_values(report) -> dict:
    """Every metric BENCHMARK.json names, end-to-end and per-layer."""
    out = {m["name"]: report["end_to_end"][m["name"]]["median"]
           for m in BENCH["end_to_end"]}
    out.update({m["name"]: report.get("per_layer", {}).get(m["name"])
                for m in BENCH["per_layer"]})
    return out


def contract_result(report, trace: bool) -> dict:
    """The last output line: per-layer metrics when traced, else end-to-end."""
    values = contract_values(report)
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    return {"correct": not report["unexpected_failures"],
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in wanted}}


def print_report(report, baseline: dict) -> None:
    base = baseline.get(report["workload"], {})
    env = report["environment"]
    print(f"== {report['workload']}  seed={env['seed']}  nproc={env['nproc']}"
          f"  python={env['python']}  numpy={env['numpy']}"
          f"  scipy={env['scipy']}")
    print(f"   attempted={report['attempted']}  failed={report['failed']}"
          f"  unexpected={len(report['unexpected_failures'])}")
    print(f"   {'metric':44s} {'median':>14s} {'unit':>6s} {'n':>4s}"
          f" {'tail':>22s} {'baseline':>12s}")
    for name, s in report["end_to_end"].items():
        tail = (f"p{s['tail']['p']:g}={s['tail']['value']:.6g}" if s["tail"]
                else "(<10 beyond p50)")
        b = base.get("end_to_end", {}).get(name)
        print(f"   {name:44s} {s['median']:14.6g} {unit_of(name):>6s}"
              f" {s['n']:4d} {tail:>22s} {_fmt(b):>12s}")
    for name, v in report.get("per_layer", {}).items():
        b = base.get("per_layer", {}).get(name)
        print(f"   {name:44s} {v:14.6g} {unit_of(name):>6s}"
              f" {'':4s} {'':>22s} {_fmt(b):>12s}")
    for key, row in report["checks"].items():
        if row["failed"] or "worst" in row:
            flag = "KNOWN DEFECT" if row["failed"] and row["known_defect"] \
                else ("FAIL" if row["failed"] else "ok")
            worst = f"worst={row['worst']:.3g}" if "worst" in row else ""
            print(f"   check {key:50s} {row['failed']}/{row['n']} failed"
                  f"  {worst}  {flag}")
    for line in report["unexpected_failures"]:
        print(f"   UNEXPECTED: {line}")


def _fmt(x) -> str:
    return "" if x is None else f"{x:.6g}"


def _baseline_view(report) -> dict:
    """End-to-end medians from an untraced run, or the per-layer figures
    from a traced one."""
    if "per_layer" in report:
        return {"per_layer": report["per_layer"]}
    return {"end_to_end": {k: v["median"]
                           for k, v in report["end_to_end"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="one tiny pass per workload exercising every "
                             "wrapper and every output check")
    parser.add_argument("--write-baseline", action="store_true",
                        help="store this run's figures as the baseline")
    args = parser.parse_args(argv)
    # the solver's optional thread pool stays off: one client, one thread
    os.environ.pop("EQUIMIN_THREADS", None)
    if args.self_check:
        import selfcheck
        return selfcheck.run(run_workload, build_report, contract_values)
    if args.workload is None:
        parser.error("--workload is required")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args)
    baseline_path = HERE / "baseline.json"
    baseline = json.loads(baseline_path.read_text()) \
        if baseline_path.is_file() else {}
    workdir = ROOT / ".bench_work" / str(os.getpid())
    out_dir = ROOT / ".bench_out"
    results = {}
    try:
        for name in names:
            wl = WORKLOADS[name]
            raw = run_workload(wl, args.seed, args.seconds, bool(args.trace),
                               FULL, str(workdir / name))
            report = build_report(wl, raw, env)
            report["baseline"] = baseline.get(name)
            out_dir.mkdir(exist_ok=True)
            stem = f"{name}-seed{args.seed}-trace{args.trace}"
            (out_dir / f"{stem}.json").write_text(
                json.dumps(report, indent=1, sort_keys=True, default=str))
            if raw["tracer"] is not None:
                raw["tracer"].write(str(out_dir / f"spans-{name}-seed{args.seed}"
                                        ".json.gz"), {"environment": env,
                                                      "workload": name})
            print_report(report, baseline)
            results[name] = report
    except SourceMissing as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if args.write_baseline:
        for n, r in results.items():
            baseline.setdefault(n, {}).update(_baseline_view(r))
        baseline.setdefault("environment", {}).update(
            {k: env[k] for k in ("nproc", "python", "numpy", "scipy",
                                 "platform", "seconds")})
        baseline["environment"][f"seed_trace{args.trace}"] = args.seed
        baseline_path.write_text(json.dumps(baseline, indent=1, sort_keys=True)
                                 + "\n")
    if len(names) == 1:
        final = contract_result(results[names[0]], bool(args.trace))
    else:
        parts = {n: contract_result(r, bool(args.trace))
                 for n, r in results.items()}
        final = {"correct": all(p["correct"] for p in parts.values()),
                 "attempted": sum(p["attempted"] for p in parts.values()),
                 "failed": sum(p["failed"] for p in parts.values()),
                 "metrics": {f"{n}.{k}": v for n, p in parts.items()
                             for k, v in p["metrics"].items()}}
    for m in final["metrics"].values():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            print(f"non-finite metric in result: {final['metrics']}",
                  file=sys.stderr)
            return 3
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
