"""Command-line surface: distances, geodesic renders, suites, kernel tables.

Exit codes: 0 success, 2 usage or parse error or an unwritable output (an
--out that is not a directory), 3 domain error (a body with no finite
positive area, identical geodesic endpoints, a distance that breaks the
reversed Cauchy-Schwarz bound or whose mixed area overflows, samples that
are not a support function where a boundary is drawn), 4 suite failure.
Output is deterministic for a fixed (seed, grid); machine-readable floats
are written with 17 significant digits.
"""

import argparse
import functools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .limits import covering_number, empirical_dim_estimate, hausdorff_dim_estimate
from .lorentz import (
    HyperbolicInvariantError,
    IsotropicVectorError,
    _cosh_between,
    form_A,
    geodesic_point,
    hyper_dist,
    normalize,
    pi0,
)
from .shapedoc import ShapeDocError, load_shapedoc, to_even_fn
from .supportfn import DEFAULT_GRID, NotSupportFunctionError, SpectralTailWarning, boundary_curve
from .verify import KERNEL_T_MAX, SUITES, kernels_compare, run_suite
from .svgout import write_svg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_SUITE = 4
# --steps, --grid and hdim --samples caps, checked before any work: geodesic writes a 33 kB SVG file per
# step, kernels one row of quadratures, and a grid or a sample is 8 bytes in each of several arrays, so a
# larger value would only exhaust disk, memory or time before it ends.
MAX_GEODESIC_STEPS = 10_000
MAX_KERNELS_STEPS = 100_000
MAX_GRID = 1 << 20
MAX_HDIM_SAMPLES = 10_000_000


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _grid(args):
    """The --grid value, once it is a multiple of 4 from 64 to MAX_GRID."""
    if not 64 <= args.grid <= MAX_GRID or args.grid % 4 != 0:
        raise CliError("grid must be a multiple of 4 from 64 to %d" % MAX_GRID, EXIT_USAGE)
    return args.grid


def _check_steps(steps, most):
    if not 1 <= steps <= most:
        raise CliError("steps must be at least 1" if steps < 1 else "steps must be at most %d" % most, EXIT_USAGE)


def _fmt(x):
    return "%.17g" % float(x)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _load_pair(args, grid):
    """The bodies shape_a and shape_b on the grid, then their hyperboloid points."""
    bodies, points = [], []
    for path in (args.shape_a, args.shape_b):
        try:
            bodies.append(to_even_fn(load_shapedoc(path), grid))
        except (OSError, ShapeDocError, ValueError) as exc:
            raise CliError("cannot read body from %s: %s" % (path, exc), EXIT_USAGE)
    for label, h in zip(("shape_a", "shape_b"), bodies):
        try:
            points.append(normalize(h))
        except IsotropicVectorError as exc:
            raise CliError("%s: %s" % (label, exc), EXIT_DOMAIN)
    return bodies + points


def cmd_dist(args):
    grid = _grid(args)
    ha, hb, pa, pb = _load_pair(args, grid)
    d = hyper_dist(pa, pb)
    record = {
        "distance": d,
        "cosh_form": _cosh_between(pa.fn, pb.fn),
        "area_a": math.pi * form_A(ha),
        "area_b": math.pi * form_A(hb),
        "perimeter_a": 2.0 * math.pi * pi0(ha),
        "perimeter_b": 2.0 * math.pi * pi0(hb),
        "grid": grid,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    _write_json(args.out / "dist.json", record)
    print(_fmt(d))
    return EXIT_OK


def cmd_geodesic(args):
    grid = _grid(args)
    _check_steps(args.steps, MAX_GEODESIC_STEPS)
    _, _, pa, pb = _load_pair(args, grid)
    total = hyper_dist(pa, pb)
    if total == 0.0:
        raise CliError("geodesic endpoints are identical", EXIT_DOMAIN)

    rows = []
    args.out.mkdir(parents=True, exist_ok=True)
    for k in range(args.steps + 1):
        t = k / args.steps
        p = geodesic_point(pa, pb, t)
        da = hyper_dist(pa, p)
        db = hyper_dist(p, pb)
        if abs(da + db - total) > 1e-9 * (1.0 + total):
            raise CliError("geodesic additivity violated at t=%.3f: %.3g" % (t, abs(da + db - total)), EXIT_DOMAIN)
        rows.append((t, da, db, 2.0 * math.pi * pi0(p.fn)))
        frame = boundary_curve(p.fn, min(grid, 2048))
        write_svg(frame, args.out / ("frame_%03d.svg" % k), title="t=%.4f" % t)
    _write_csv(args.out / "geodesic.csv", ["t", "d_from_a", "d_from_b", "perimeter"], rows)
    print("wrote %d frames and geodesic.csv to %s" % (len(rows), args.out))
    return EXIT_OK


def cmd_verify(args):
    grid = _grid(args)
    if args.seed < 0:
        raise CliError("seed must be nonnegative, got %d" % args.seed, EXIT_USAGE)
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise CliError("unknown suite %r" % (name,), EXIT_USAGE)
    args.out.mkdir(parents=True, exist_ok=True)
    all_pass = True
    for name in names:
        report = run_suite(name, seed=args.seed, grid=grid)
        with open(args.out / ("%s.json" % name), "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        status = "PASS" if report.passed else "FAIL"
        print("%-12s %s  cases=%d  max_violation=%.3g" % (name, status, report.cases, report.max_violation))
        all_pass = all_pass and report.passed
    return EXIT_OK if all_pass else EXIT_SUITE


def cmd_kernels(args):
    _check_steps(args.steps, MAX_KERNELS_STEPS)
    if not 0.0 < args.t_min <= args.t_max <= KERNEL_T_MAX:
        raise CliError("need 0 < t_min <= t_max <= %.4g" % KERNEL_T_MAX, EXIT_USAGE)
    tvals = [args.t_min] if args.t_min == args.t_max else list(np.linspace(args.t_min, args.t_max, args.steps))
    rows = []
    for t in tvals:
        kv = kernels_compare(float(t))
        rows.append((float(t), kv.i1, kv.i2, kv.closed, kv.kern2, kv.gap))
    args.out.mkdir(parents=True, exist_ok=True)
    _write_csv(args.out / "kernels.csv", ["t", "I1", "I2", "closed", "kern2", "gap"], rows)
    print("wrote %d rows to %s" % (len(rows), args.out / "kernels.csv"))
    return EXIT_OK


def cmd_hdim(args):
    if not (2 <= args.j_min < args.j_max <= 16):
        raise CliError("need 2 <= j_min < j_max <= 16", EXIT_USAGE)
    if args.empirical and args.samples > MAX_HDIM_SAMPLES:
        raise CliError("samples must be at most %d" % MAX_HDIM_SAMPLES, EXIT_USAGE)
    metric = "round" if args.control else "visual"
    slope, resid = hausdorff_dim_estimate(args.j_min, args.j_max, metric=metric)
    emp = {}
    if args.empirical:
        try:
            emp_slope, js, counts = empirical_dim_estimate(
                args.j_min, args.j_max, args.samples, metric=metric
            )
        except ValueError as exc:
            raise CliError("--samples %d: %s" % (args.samples, exc), EXIT_USAGE) from None
        emp = dict(zip(js, counts))
    rows = []
    for j in range(args.j_min, args.j_max + 1):
        eps = 2.0**-j
        n = covering_number(eps, metric=metric)
        if args.empirical:
            rows.append((j, eps, n, emp.get(j, "")))
        else:
            rows.append((j, eps, n))
    header = ["j", "eps", "N_analytic"] + (["N_empirical"] if args.empirical else [])
    args.out.mkdir(parents=True, exist_ok=True)
    _write_csv(args.out / "hdim.csv", header, rows)
    summary = "slope=%s residual=%s" % (_fmt(slope), _fmt(resid))
    if args.empirical:
        summary += " empirical_slope=%s" % _fmt(emp_slope)
    print(summary)
    return EXIT_OK


@functools.cache  # once per process
def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypkonvex",
        description="Hyperbolic geometry of plane symmetric convex bodies",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    # the commands that compute on a grid, where spectral warnings can fire
    spectral = argparse.ArgumentParser(add_help=False, parents=[out])
    spectral.add_argument("--grid", type=int, default=DEFAULT_GRID, help="grid size M (multiple of 4, 64 to 2^20)")
    spectral.add_argument("--strict", action="store_true", help="escalate spectral warnings to errors")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", parents=[spectral], help="hyperbolic distance between two bodies")
    p.add_argument("shape_a")
    p.add_argument("shape_b")

    p = sub.add_parser("geodesic", parents=[spectral], help="render the geodesic between two bodies")
    p.add_argument("shape_a")
    p.add_argument("shape_b")
    p.add_argument("--steps", type=int, default=8)

    p = sub.add_parser("verify", parents=[spectral], help="run verification suites")
    p.add_argument("--suite", default="all", help="suite name or 'all'")
    p.add_argument("--seed", type=int, default=0, help="random seed for suites")

    p = sub.add_parser("kernels", parents=[out], help="kernel comparison table")
    p.add_argument("--t-min", type=float, default=0.1)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--steps", type=int, default=50)

    p = sub.add_parser("hdim", parents=[out], help="limit-set dimension estimate")
    p.add_argument("--j-min", type=int, default=4)
    p.add_argument("--j-max", type=int, default=12)
    p.add_argument("--empirical", action="store_true")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--control", action="store_true", help="use the round-circle control metric")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            if getattr(args, "strict", False):  # kernels and hdim take no --strict
                warnings.simplefilter("error", SpectralTailWarning)
            return globals()["cmd_" + args.command](args)  # read at each call, so a patched command runs
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except OSError as exc:  # inputs are read in _load_pair, so this is an output
        print("error: cannot write output: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (HyperbolicInvariantError, IsotropicVectorError, NotSupportFunctionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    except SpectralTailWarning as exc:
        print("error (strict): %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
