"""Command-line surface: distances, geodesic renders, suites, kernel tables.

Exit codes: 0 success, 2 usage or parse error, 3 domain error (a body with
no finite positive area, identical geodesic endpoints, a distance that
breaks the reversed Cauchy-Schwarz bound, samples that are not a support
function where a boundary is drawn), 4 suite failure.  Output is
deterministic for a fixed (seed, grid); machine-readable floats are written
with 17 significant digits.
"""

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
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
from .supportfn import NotSupportFunctionError, SpectralTailWarning, boundary_curve
from .verify import KERNEL_T_MAX, SUITES, kernels_compare, run_suite
from .svgout import write_svg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_SUITE = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


@dataclass
class RunConfig:
    grid: int = 2048
    seed: int = 0
    out: Path = Path("out")
    strict: bool = False

    def __post_init__(self):
        if self.grid < 64 or self.grid % 4 != 0:
            raise CliError("grid must be a multiple of 4 and at least 64", EXIT_USAGE)


def _grid(flag):
    """The --grid value, else HYPKONVEX_GRID, else 2048."""
    text = os.environ.get("HYPKONVEX_GRID", "2048") if flag is None else flag
    try:
        return int(text)
    except ValueError:
        raise CliError("HYPKONVEX_GRID must be an integer, got %r" % (text,), EXIT_USAGE) from None


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


def _load_body(path, cfg):
    try:
        doc = load_shapedoc(path)
        return to_even_fn(doc, cfg.grid)
    except (OSError, ShapeDocError, ValueError) as exc:
        raise CliError("cannot read body from %s: %s" % (path, exc), EXIT_USAGE)


def _normalized(h, label):
    try:
        return normalize(h)
    except IsotropicVectorError as exc:
        raise CliError("%s: %s" % (label, exc), EXIT_DOMAIN)


def cmd_dist(args, cfg):
    ha = _load_body(args.shape_a, cfg)
    hb = _load_body(args.shape_b, cfg)
    pa, pb = _normalized(ha, "shape_a"), _normalized(hb, "shape_b")
    d = hyper_dist(pa, pb)
    record = {
        "distance": d,
        "cosh_form": _cosh_between(pa.fn, pb.fn),
        "area_a": math.pi * form_A(ha),
        "area_b": math.pi * form_A(hb),
        "perimeter_a": 2.0 * math.pi * pi0(ha),
        "perimeter_b": 2.0 * math.pi * pi0(hb),
        "grid": cfg.grid,
    }
    cfg.out.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.out / "dist.json", record)
    print(_fmt(d))
    return EXIT_OK


def cmd_geodesic(args, cfg):
    ha = _load_body(args.shape_a, cfg)
    hb = _load_body(args.shape_b, cfg)
    pa, pb = _normalized(ha, "shape_a"), _normalized(hb, "shape_b")
    total = hyper_dist(pa, pb)
    if total == 0.0:
        raise CliError("geodesic endpoints are identical", EXIT_DOMAIN)
    if args.steps < 1:
        raise CliError("steps must be at least 1", EXIT_USAGE)

    points = [geodesic_point(pa, pb, k / args.steps) for k in range(args.steps + 1)]
    rows = []
    cfg.out.mkdir(parents=True, exist_ok=True)
    for k, p in enumerate(points):
        t = k / args.steps
        da = hyper_dist(pa, p)
        db = hyper_dist(p, pb)
        if abs(da + db - total) > 1e-9 * (1.0 + total):
            raise CliError(
                "geodesic additivity violated at t=%.3f: %.3g" % (t, abs(da + db - total)),
                EXIT_DOMAIN,
            )
        rows.append((t, da, db, 2.0 * math.pi * pi0(p.fn)))
        frame = boundary_curve(p.fn, min(cfg.grid, 2048))
        write_svg(frame, cfg.out / ("frame_%03d.svg" % k), title="t=%.4f" % t)
    _write_csv(cfg.out / "geodesic.csv", ["t", "d_from_a", "d_from_b", "perimeter"], rows)
    print("wrote %d frames and geodesic.csv to %s" % (len(points), cfg.out))
    return EXIT_OK


def cmd_verify(args, cfg):
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise CliError("unknown suite %r" % (name,), EXIT_USAGE)
    cfg.out.mkdir(parents=True, exist_ok=True)
    all_pass = True
    for name in names:
        report = run_suite(name, seed=cfg.seed, grid=cfg.grid)
        with open(cfg.out / ("%s.json" % name), "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        status = "PASS" if report.passed else "FAIL"
        print("%-12s %s  cases=%d  max_violation=%.3g" % (name, status, report.cases, report.max_violation))
        all_pass = all_pass and report.passed
    return EXIT_OK if all_pass else EXIT_SUITE


def cmd_kernels(args, cfg):
    if args.steps < 1:
        raise CliError("steps must be at least 1", EXIT_USAGE)
    if not 0.0 < args.t_min <= args.t_max <= KERNEL_T_MAX:
        raise CliError("need 0 < t_min <= t_max <= %.4g" % KERNEL_T_MAX, EXIT_USAGE)
    if args.t_min == args.t_max:
        tvals = [args.t_min]
    else:
        tvals = list(np.linspace(args.t_min, args.t_max, args.steps))
    rows = []
    for t in tvals:
        kv = kernels_compare(float(t))
        rows.append((float(t), kv.i1, kv.i2, kv.closed, kv.kern2, kv.gap))
    cfg.out.mkdir(parents=True, exist_ok=True)
    _write_csv(cfg.out / "kernels.csv", ["t", "I1", "I2", "closed", "kern2", "gap"], rows)
    print("wrote %d rows to %s" % (len(rows), cfg.out / "kernels.csv"))
    return EXIT_OK


def cmd_hdim(args, cfg):
    if not (2 <= args.j_min < args.j_max <= 16):
        raise CliError("need 2 <= j_min < j_max <= 16", EXIT_USAGE)
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
    cfg.out.mkdir(parents=True, exist_ok=True)
    _write_csv(cfg.out / "hdim.csv", header, rows)
    summary = "slope=%s residual=%s" % (_fmt(slope), _fmt(resid))
    if args.empirical:
        summary += " empirical_slope=%s" % _fmt(emp_slope)
    print(summary)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypkonvex",
        description="Hyperbolic geometry of plane symmetric convex bodies",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid", type=int, default=None, help="grid size M (multiple of 4, >= 64)")
    common.add_argument("--seed", type=int, default=0, help="random seed for suites")
    common.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    common.add_argument("--strict", action="store_true", help="escalate spectral warnings to errors")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", parents=[common], help="hyperbolic distance between two bodies")
    p.add_argument("shape_a")
    p.add_argument("shape_b")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("geodesic", parents=[common], help="render the geodesic between two bodies")
    p.add_argument("shape_a")
    p.add_argument("shape_b")
    p.add_argument("--steps", type=int, default=8)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("verify", parents=[common], help="run verification suites")
    p.add_argument("--suite", default="all", help="suite name or 'all'")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("kernels", parents=[common], help="kernel comparison table")
    p.add_argument("--t-min", type=float, default=0.1)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--steps", type=int, default=50)
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("hdim", parents=[common], help="limit-set dimension estimate")
    p.add_argument("--j-min", type=int, default=4)
    p.add_argument("--j-max", type=int, default=12)
    p.add_argument("--empirical", action="store_true")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--control", action="store_true", help="use the round-circle control metric")
    p.set_defaults(func=cmd_hdim)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(grid=_grid(args.grid), seed=args.seed, out=args.out, strict=args.strict)
        with warnings.catch_warnings():
            if cfg.strict:
                warnings.simplefilter("error", SpectralTailWarning)
            return args.func(args, cfg)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except (HyperbolicInvariantError, NotSupportFunctionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    except SpectralTailWarning as exc:
        print("error (strict): %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
