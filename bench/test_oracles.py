"""The benchmark's oracles against values known by hand.

    python3 -m pytest bench/test_oracles.py

``run.py`` runs the same checks on every run and reports correct=false if
any fails.
"""

import math

import numpy as np

import oracles


def test_hand_values():
    assert oracles.hand_checks() == []


def test_polygon_oracles_agree_with_the_ellipse_formula_on_a_fine_polygon():
    # A 2000-gon inscribed in the ellipse diag(2, 1/2) has almost its mixed area with the disc.
    t = np.linspace(0.0, 2.0 * math.pi, 2000, endpoint=False)
    m = np.diag([2.0, 0.5])
    fine = ("polygon", (m @ np.stack([np.cos(t), np.sin(t)])).T)
    disc = ("ellipse", np.eye(2))
    assert abs(oracles.mixed_area(fine, disc) - oracles.mixed_area(("ellipse", m), disc)) < 1e-5


def test_mixed_area_is_symmetric_across_kinds():
    p = ("polygon", [[1.0, 0.2], [-0.3, 0.9], [-1.0, -0.2], [0.3, -0.9]])
    e = ("ellipse", np.array([[1.5, 0.3], [0.0, 1.0 / 1.5]]))
    assert math.isclose(oracles.mixed_area(p, e), oracles.mixed_area(e, p), rel_tol=1e-14)
