"""The shoelace area, a test oracle for the mixed-area areas of polygons."""

import numpy as np


def shoelace_area(vertices):
    """Signed shoelace area; positive for counterclockwise order."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    x1, y1 = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * y1 - y * x1))
