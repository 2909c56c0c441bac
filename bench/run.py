"""Benchmark of hypkonvex: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload {dist,geodesic,kernels,suites} --seed N \\
        --seconds S --trace {0,1}

Times set-up (fresh interpreters that import hypkonvex and write the seeded
inputs), then runs the workload in a fresh single-threaded worker process,
checks every output against oracles computed apart from the program, and
prints one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones.  Work files go to .bench_out/<workload>/ under the repository root.
"""

import sys

from pin import pin_threads

pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostclock  # noqa: E402
import oracles  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("dist", "geodesic", "kernels", "suites")
SETUP_REPEATS = 5  # timed set-ups per run, after one untimed warm-up
SUITES = ("curvature", "dimension", "ellipse-sum", "encadrement", "equivariance", "extended",
          "gram-rank", "kernels", "minkowski", "quasiiso", "wirtinger")
SWEPT = ("supportfn.eval_at", "supportfn.eval_deriv", "supportfn.boundary_curve", "supportfn.fourier",
         "supportfn.is_support_function", "supportfn.chord_convexity_defect", "supportfn.support_split",
         "supportfn.scaled", "supportfn.combine", "supportfn.signed_diff", "lorentz.form_A",
         "lorentz.normalize", "lorentz.pi0", "lorentz.h1_seminorms", "lorentz.hyper_dist",
         "lorentz.geodesic_point", "mobius.rho_act", "shapedoc.to_even_fn", "svgout.write_svg")

# Per-layer metrics: (name, unit, source, traced name).  "self" is span time
# minus the time of the spans it encloses, "total" is span time, "calls" a
# call count and "count" a counter kept by the tracer; all are per round.
LAYERS = [
    ("supportfn.offgrid.points", "count", "count", "supportfn.offgrid.points"),
    ("supportfn.eval_at.self_s", "s", "self", "supportfn.eval_at"),
    ("supportfn.eval_deriv.self_s", "s", "self", "supportfn.eval_deriv"),
    ("supportfn.boundary_curve.self_s", "s", "self", "supportfn.boundary_curve"),
    ("mobius.rho_act.calls", "count", "calls", "mobius.rho_act"),
    ("mobius.rho_act.self_s", "s", "self", "mobius.rho_act"),
    ("lorentz.form_A.exact_calls", "count", "calls", "lorentz.form_A.exact"),
    ("lorentz.form_A.spectral_calls", "count", "calls", "lorentz.form_A.spectral"),
    ("lorentz.form_A.self_s", "s", "self", "lorentz.form_A"),
    ("lorentz.hyper_dist.self_s", "s", "self", "lorentz.hyper_dist"),
    ("lorentz.normalize.self_s", "s", "self", "lorentz.normalize"),
    ("supportfn.combine.calls", "count", "calls", "supportfn.combine"),
    ("supportfn.combine.tagged", "count", "count", "supportfn.combine.tagged"),
    ("shapes.mixed_area.calls", "count", "calls", "shapes.mixed_area"),
    ("shapes.mixed_area.self_s", "s", "self", "shapes.mixed_area"),
    ("shapes.minkowski_sum.self_s", "s", "self", "shapes.minkowski_sum"),
    ("shapes.support.self_s", "s", "self", "shapes.support"),
    ("specfun.agm.calls", "count", "calls", "specfun.agm"),
    ("specfun.agm.self_s", "s", "self", "specfun.agm"),
    ("verify.kernels_compare.self_s", "s", "self", "verify.kernels_compare"),
    ("mobius.iota_dist_quadrature.self_s", "s", "self", "mobius.iota_dist_quadrature"),
    ("limits.empirical_dim_estimate.self_s", "s", "self", "limits.empirical_dim_estimate"),
    ("limits.covering_number.calls", "count", "calls", "limits.covering_number"),
] + [("verify.suite.%s.s" % n, "s", "total", "verify.suite.%s" % n) for n in SUITES] + [
    ("svgout.write_svg.self_s", "s", "self", "svgout.write_svg"),
    ("svgout.bytes", "bytes", "count", "svgout.bytes"),
    ("shapedoc.to_even_fn.self_s", "s", "self", "shapedoc.to_even_fn"),
    ("cli.main.self_s", "s", "self", "cli.main"),
]
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms", "op_p99_ms": "ms"}


def per_layer_units():
    units = {name: unit for name, unit, _, _ in LAYERS}
    units["bench.trace_overhead_s"] = "s"
    for fn in SWEPT:
        for body in ("kinked", "smooth"):
            units["%s.scale_ratio.%s" % (fn, body)] = "ratio"
    return units


def op_times(result, which="latencies"):
    """Per operation key, the median of its attempts in reference-host seconds."""
    samples = result["host_samples"]
    return {key: statistics.median(hostclock.scaled(samples, attempts)) for key, attempts in result[which].items()}


def end_to_end(result, setup_s):
    ops = op_times(result)
    q = statistics.quantiles(sorted(ops.values()), n=100, method="inclusive")
    return {
        "setup_s": setup_s,
        "run_s": sum(ops.values()),
        "peak_rss_mb": result["peak_rss_mb"],
        "op_p50_ms": 1e3 * q[49],
        "op_p99_ms": 1e3 * q[98],
    }


def per_layer(result):
    rounds = len(result["traced_rounds"])
    layers, counts = result["layers"], result["counts"]
    pick = {"calls": lambda n: counts.get(n + ".calls", 0), "count": lambda n: counts.get(n, 0),
            "self": lambda n: layers.get(n, [0, 0.0, 0.0])[2], "total": lambda n: layers.get(n, [0, 0.0, 0.0])[1]}
    out = {name: pick[source](traced) / rounds for name, _, source, traced in LAYERS}
    out["bench.trace_overhead_s"] = sum(op_times(result, "traced_latencies").values()) - sum(op_times(result).values())
    out.update(result["scale_ratios"])
    return out


def check_manifest(units):
    """Fail loudly when BENCHMARK.json and this file disagree on the metrics."""
    manifest = ROOT / "BENCHMARK.json"
    if not manifest.is_file():
        return
    spec = json.loads(manifest.read_text())
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if listed != {**END_TO_END, **units}:
        raise SystemExit("error: BENCHMARK.json metrics differ from bench/run.py")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "hypkonvex" / "__init__.py").is_file():
        print("error: no hypkonvex sources under %s" % SRC, file=sys.stderr)
        return 2
    units = per_layer_units()
    check_manifest(units)

    work = ROOT / ".bench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def child(script, *extra, timeout):
        cmd = [sys.executable, str(BENCH / script), *map(str, extra)]
        # Children write their stray output to our stderr: stdout carries the result line.
        subprocess.run(cmd, env=env, stdout=sys.stderr, check=True, timeout=timeout)

    clock, setups = hostclock.HostClock(), []
    for i in range(1 + SETUP_REPEATS):
        t0 = time.perf_counter()
        child("gen.py", "--workload", args.workload, "--seed", args.seed, "--out", inputs, timeout=120)
        end = time.perf_counter()
        clock.after(end - t0)
        if i:
            setups.append((end, end - t0))
    result_path = work / "result.json"
    child("worker.py", "--inputs", inputs / "inputs.json", "--seconds", args.seconds,
          "--trace", args.trace, "--result", result_path, timeout=args.seconds + 150)

    spec = json.loads((inputs / "inputs.json").read_text())
    result = json.loads(result_path.read_text())
    problems = oracles.hand_checks()
    attempted, failed, unexpected = checks.judge(spec, result["outcomes"])
    problems += ["unexpected failure: " + u for u in unexpected]
    for p in problems:
        print(p, file=sys.stderr)

    if args.trace:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer(result).items()}
    else:
        e2e = end_to_end(result, statistics.median(hostclock.scaled(clock.samples, setups)))
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
