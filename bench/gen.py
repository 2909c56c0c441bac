"""Seeded input generation for the benchmark workloads.

Run as a fresh process by ``run.py``, several times per run, to time set-up:
interpreter start, ``import hypkonvex`` and writing the inputs.  The inputs
are made here with numpy alone, so the program under test only ever sees
the generated documents.

    python3 bench/gen.py --workload dist --seed 1 --out DIR
"""

import argparse
import itertools
import json
import math
from pathlib import Path

import numpy as np

import hypkonvex  # noqa: F401  (set-up time includes the package import)

DIST_GRID = 2048
DIST_PER_KIND = 200  # queries of each seeded kind in one pass: 1001 in all
DIST_SMOOTH_BODIES = 40
GEODESIC_GRID = 4096
GEODESIC_STEPS = 4
SUITES_GRID = 2048
# Kernel parameters: fixed, so the operations hit by the 2^22-node cap are
# the same in every run.  The step of 1/2 keeps every t far from the 1e-9
# pass/fail edge of that fault (the I1 error is 2e-16 at 6.0, 1.1e-9 at 6.4
# and 6.5e-8 at 6.5).
KERNEL_TS = [0.1] + [0.5 * k for k in range(1, 17)]
SQUARE_SIDE = math.sqrt(math.pi)  # the area-pi square


def _rotation(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def unit_det_matrix(rng, s_lo, s_hi):
    """R1 diag(e^{s/2}, e^{-s/2}) R2 with elongation s drawn from [s_lo, s_hi]."""
    s = rng.uniform(s_lo, s_hi)
    d = np.diag([math.exp(0.5 * s), math.exp(-0.5 * s)])
    return _rotation(rng.uniform(0.0, 2.0 * math.pi)) @ d @ _rotation(rng.uniform(0.0, 2.0 * math.pi))


def random_polygon(rng, k):
    """Symmetric strictly convex polygon: k antipodal vertex pairs on the unit
    circle, at angles at least 0.3 apart, under a unit-determinant map.

    The gap floor bounds the area from below, so the body scaled to area pi
    stays inside the [-4, 4]^2 viewport of the geodesic frames.
    """
    gaps = 0.3 + (math.pi - 0.3 * k) * rng.dirichlet(np.ones(k))
    ang = rng.uniform(0.0, math.pi) + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    pts = np.concatenate([pts, -pts]) @ unit_det_matrix(rng, 0.0, 1.0).T
    return pts


def square_vertices(side):
    h = 0.5 * side
    return [[h, h], [-h, h], [-h, -h], [h, -h]]


def polygon_support(vertices, M):
    theta = 2.0 * np.pi * np.arange(M) / M
    return np.max(np.asarray(vertices) @ np.stack([np.cos(theta), np.sin(theta)]), axis=0)


def smooth_coeffs(rng):
    """Band-limited support function a0 + sum (a_n cos n + b_n sin n), n even <= 16.

    The harmonics are scaled so that sum (n^2 - 1)|c_n| = 0.6 a0, which keeps
    h + h'' >= 0.4 a0 > 0: the function is the support of a smooth body.
    """
    n = np.arange(2, 17, 2)
    ab = rng.normal(size=(2, n.size)) / n**2
    mag = float(np.dot(n**2 - 1.0, np.hypot(ab[0], ab[1])))
    a0 = float(rng.uniform(1.0, 2.0))
    ab *= 0.6 * a0 / mag
    return {"a0": a0, "n": n.tolist(), "a": ab[0].tolist(), "b": ab[1].tolist()}


def smooth_samples(c, M):
    theta = 2.0 * np.pi * np.arange(M) / M
    n = np.asarray(c["n"])[:, None]
    v = c["a0"] + np.asarray(c["a"]) @ np.cos(n * theta) + np.asarray(c["b"]) @ np.sin(n * theta)
    return v.tolist()


def ellipse_doc(m):
    return {"type": "ellipse", "matrix": np.asarray(m).tolist()}


def polygon_doc(v):
    return {"type": "polygon", "vertices": np.asarray(v).tolist()}


def gen_dist(rng):
    """Bodies and queries; an operand is a list of body indices, Minkowski-summed."""
    bodies, coeffs = [], {}

    def add(doc):
        bodies.append(doc)
        return len(bodies) - 1

    smooth = []
    for _ in range(DIST_SMOOTH_BODIES):
        c = smooth_coeffs(rng)
        i = add({"type": "samples", "grid": DIST_GRID, "values": smooth_samples(c, DIST_GRID)})
        coeffs[str(i)] = c
        smooth.append(i)

    # Vertex counts cycle through 3..6 pairs in a fixed order, so every seed
    # asks for the same mix of work; only the geometry is drawn.
    pairs = itertools.cycle(range(3, 7))

    def polygon():
        return add(polygon_doc(random_polygon(rng, next(pairs))))

    queries = []
    for q in range(DIST_PER_KIND):
        e1, e2 = (add(ellipse_doc(unit_det_matrix(rng, 0.2, 2.5))) for _ in range(2))
        queries.append({"key": "ellipse-%d" % q, "a": [e1], "b": [e2]})
        p1, p2 = polygon(), polygon()
        queries.append({"key": "polygon-%d" % q, "a": [p1], "b": [p2]})
        s = [polygon() for _ in range(4)]
        queries.append({"key": "sum-%d" % q, "a": s[:2], "b": s[2:]})
        e, p = add(ellipse_doc(unit_det_matrix(rng, 0.2, 2.5))), polygon()
        queries.append({"key": "mixed-%d" % q, "a": [e], "b": [p]})
        i, j = rng.choice(smooth, size=2, replace=False)
        queries.append({"key": "smooth-%d" % q, "a": [int(i)], "b": [int(j)]})
    # Fault (a): one body given once as a polygon and once as its samples.
    sq = square_vertices(SQUARE_SIDE)
    a = add(polygon_doc(sq))
    b = add({"type": "samples", "grid": DIST_GRID, "values": polygon_support(sq, DIST_GRID).tolist()})
    queries.append({"key": "fault-a", "a": [a], "b": [b], "b_oracle": [a], "fault": "a"})
    return {"grid": DIST_GRID, "bodies": bodies, "coeffs": coeffs, "queries": queries}


def gen_geodesic(rng):
    disc = ellipse_doc(np.eye(2))
    pairs = []
    for q in range(2):
        pairs.append({"key": "ellipse-%d" % q, "a": disc, "b": ellipse_doc(unit_det_matrix(rng, 0.5, 2.0))})
    for q in range(2):
        pairs.append({"key": "polygon-%d" % q, "a": polygon_doc(random_polygon(rng, 4)),
                      "b": polygon_doc(random_polygon(rng, 5))})
    pairs.append({"key": "square", "a": disc, "b": polygon_doc(square_vertices(SQUARE_SIDE)), "fault": "b"})
    return {"grid": GEODESIC_GRID, "steps": GEODESIC_STEPS, "pairs": pairs}


def gen_kernels(rng):
    return {"ts": KERNEL_TS, "hdim": {"j_min": 4, "j_max": 12, "samples": int(rng.integers(50_000, 150_001))}}


def gen_suites(rng):
    return {"grid": SUITES_GRID}


GENERATORS = {"dist": gen_dist, "geodesic": gen_geodesic, "kernels": gen_kernels, "suites": gen_suites}


def write_inputs(workload, seed, out):
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    spec = GENERATORS[workload](rng)
    spec.update(workload=workload, seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    if workload == "geodesic":
        # The CLI reads bodies from files.
        for p in spec["pairs"]:
            for end in ("a", "b"):
                path = out / ("%s-%s.json" % (p["key"], end))
                path.write_text(json.dumps(p[end]))
                p[end + "_path"] = str(path)
    (out / "inputs.json").write_text(json.dumps(spec))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    write_inputs(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
