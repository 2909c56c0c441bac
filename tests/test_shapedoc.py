"""ShapeDoc JSON parsing, validation, and round trips."""

import json
import warnings

import numpy as np
import pytest

from hypkonvex.shapedoc import ShapeDocError, parse_shapedoc, to_even_fn
from hypkonvex.shapes import Ellipse, Polygon
from hypkonvex.supportfn import EvenFn, SpectralTailWarning, grid_angles


def test_parse_ellipse():
    doc = parse_shapedoc('{"type":"ellipse","matrix":[[1.0,0.0],[0.0,1.0]]}')
    assert isinstance(doc, Ellipse)
    h = to_even_fn(doc, 256)
    assert np.abs(h.samples - 1.0).max() < 1e-15


def test_parse_rejects_bad_determinant():
    with pytest.raises(ShapeDocError):
        parse_shapedoc('{"type":"ellipse","matrix":[[2.0,0.0],[0.0,1.0]]}')


def test_parse_segment_and_polygon():
    # both parse to a Polygon held as its generators; a segment has one
    seg = parse_shapedoc('{"type":"segment","endpoint":[1.0,0.5]}')
    assert isinstance(seg, Polygon) and np.array_equal(seg.generators, [[2.0, 1.0]])
    poly = parse_shapedoc(
        '{"type":"polygon","vertices":[[1,1],[-1,1],[-1,-1],[1,-1]]}'
    )
    assert isinstance(poly, Polygon)


def test_parse_rejects_asymmetric_polygon():
    with pytest.raises(ShapeDocError):
        parse_shapedoc('{"type":"polygon","vertices":[[1,1],[-1,1.2],[-1,-1],[1,-1]]}')


def test_parse_samples_and_grid_mismatch():
    vals = (2.0 + np.cos(2 * grid_angles(64))).tolist()
    doc = parse_shapedoc(json.dumps({"type": "samples", "grid": 64, "values": vals}))
    assert isinstance(doc, EvenFn)
    with pytest.raises(ShapeDocError):
        parse_shapedoc(json.dumps({"type": "samples", "grid": 128, "values": vals}))


def test_samples_resample_warns_and_is_accurate():
    # refining keeps the interpolant exactly, so it does not warn
    vals = 2.0 + np.cos(2 * grid_angles(64))
    doc = parse_shapedoc(json.dumps({"type": "samples", "grid": 64, "values": vals.tolist()}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", SpectralTailWarning)
        h = to_even_fn(doc, 256)
    expect = 2.0 + np.cos(2 * grid_angles(256))
    assert np.abs(h.samples - expect).max() < 1e-13


def test_parse_garbage():
    with pytest.raises(ShapeDocError):
        parse_shapedoc("not json")
    with pytest.raises(ShapeDocError):
        parse_shapedoc('{"no_type": 1}')
    with pytest.raises(ShapeDocError):
        parse_shapedoc('{"type":"blob"}')
    with pytest.raises(ShapeDocError):
        parse_shapedoc('{"type":"ellipse"}')


def test_round_trip():
    # every document type written with json.dumps reads back to the same
    # numbers: a segment's endpoint up to its sign, a polygon's vertices up to
    # the vertex the walk of its generators starts at
    docs = [
        (Ellipse, "matrix", "ellipse", [[2.0, 0.0], [0.0, 0.5]]),
        (Polygon, "endpoint", "segment", [0.3, -0.4]),
        (Polygon, "vertices", "polygon", [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]),
    ]
    for cls, field, kind, value in docs:
        again = parse_shapedoc(json.dumps({"type": kind, field: value}))
        assert type(again) is cls
        want = np.array(value)
        if kind == "segment":  # its one generator is 2v
            got = 0.5 * again.generators[0]
            got = np.sign(got @ want) * got
        else:
            got = getattr(again, field)
        if kind == "polygon":
            got = np.roll(got, -int(np.flatnonzero((got == want[0]).all(axis=1))[0]), axis=0)
        assert np.array_equal(got, want)
    h = EvenFn(1.0 + 0.1 * np.cos(2 * grid_angles(64)))
    again = parse_shapedoc(json.dumps({"type": "samples", "grid": h.grid, "values": h.samples.tolist()}))
    assert np.array_equal(again.samples, h.samples)
