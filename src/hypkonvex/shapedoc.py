"""Reading and writing body descriptions (ShapeDoc JSON).

Four document types:

    {"type": "ellipse", "matrix": [[a, b], [c, d]]}
    {"type": "segment", "endpoint": [x, y]}
    {"type": "polygon", "vertices": [[x1, y1], ...]}
    {"type": "samples", "grid": M, "values": [...]}

Parsers reject ellipse matrices with determinant away from 1, asymmetric
or non-convex polygons, and a samples grid that is not an integer.  Segments
and polygons parse to a Polygon held as its generators, the edge vectors
over half its boundary (2v for the segment [-v, v]).
"""

import json
import warnings

import numpy as np

from .shapes import Ellipse, Polygon, Segment
from .supportfn import EvenFn, SpectralTailWarning, _on_grid, _tail_share


class ShapeDocError(ValueError):
    """Malformed or invalid shape document."""


def parse_shapedoc(text):
    """Parse a ShapeDoc JSON string into a shape or raw-sample description."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ShapeDocError("invalid JSON: %s" % exc) from exc
    if not isinstance(doc, dict) or "type" not in doc:
        raise ShapeDocError("a shape document is an object with a 'type' field")
    kind = doc["type"]
    try:
        if kind == "ellipse":
            return Ellipse(np.asarray(doc["matrix"], dtype=float))
        if kind == "segment":
            return Segment(np.asarray(doc["endpoint"], dtype=float))
        if kind == "polygon":
            return Polygon(np.asarray(doc["vertices"], dtype=float))
        if kind == "samples":
            grid = doc["grid"]
            if int(grid) != grid:
                raise ShapeDocError("grid %r is not an integer" % (grid,))
            values = np.asarray(doc["values"], dtype=float)
            if values.size != grid:
                raise ShapeDocError("grid %d does not match %d values" % (grid, values.size))
            return EvenFn(values)
    except ShapeDocError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ShapeDocError("invalid %s document: %s" % (kind, exc)) from exc
    raise ShapeDocError("unknown shape type %r" % (kind,))


def load_shapedoc(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_shapedoc(fh.read())


def to_even_fn(doc, M):
    """Realize a parsed document on an M-point grid.

    Raw samples on another grid are moved by their spectrum (supportfn._on_grid),
    exactly onto a finer grid; onto a coarser one the harmonics at and above
    its Nyquist fold, with a SpectralTailWarning when their energy share
    exceeds rounding (1e-24).
    """
    if isinstance(doc, (Ellipse, Polygon)):
        return EvenFn(doc, M)
    if isinstance(doc, EvenFn):
        folded = _tail_share(doc, M // 2) if doc.grid > M else 0.0
        if folded > 1e-24:
            why = "resampling raw samples from grid %d to %d folds %.3g of their energy"
            warnings.warn(why % (doc.grid, M, folded), SpectralTailWarning)
        return _on_grid(doc, M)
    raise ShapeDocError("cannot realize %r" % (doc,))

