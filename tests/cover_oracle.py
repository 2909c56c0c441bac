"""The greedy cover and the golden sample in their direct form, test oracles
for limits.greedy_cover_count and limits.sample_directions.

The cover walks a doubled copy of the points with one searchsorted per arc;
it expects sorted finite points and a nonnegative halfwidth.
"""

import math

import numpy as np

from hypkonvex.limits import GOLDEN


def sample_directions_oracle(n):
    return np.sort((np.arange(n) / GOLDEN) % 1.0 * math.pi)


def greedy_cover_count_oracle(points, halfwidth):
    pts = np.asarray(points, dtype=float)
    ext = np.concatenate([pts, pts + math.pi])
    limit = pts[0] + math.pi
    i, count = 0, 0
    while i < pts.size and ext[i] < limit:
        count += 1
        i = int(np.searchsorted(ext, ext[i] + 2.0 * halfwidth, side="right"))
    return count
