"""Monte-Carlo volume of a detector's normal-decision region.

A detector with score function f and threshold tau accepts (labels normal)
the points with f(x) < tau; everything at or above tau is flagged
anomalous.  The accepted fraction of a uniform sample over a fixed box
estimates the relative volume of the accept region.  Small volume at a
given false-positive budget means a tight model of the normal class.

The estimate has two steps: :func:`uniform_sample` draws the sample that
the models score, and :func:`accepted_fraction` counts each model's scores
below its threshold.  The grid draws one sample per (table, repetition)
block, in the bounding box of the table's normal class, scores each of its
points once per model, checks each model's scores to be finite and
thresholds every model's row at every FPR level in one comparison, at the
thresholds of :class:`~adeval.experiments.LabelledSample`; ``adeval volume``
does the same for the one row of one combo at one level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


@dataclass(frozen=True)
class SamplingBox:
    """Axis-aligned box from which volume samples are drawn."""

    b_min: NDArray[np.float64]
    b_max: NDArray[np.float64]

    def __post_init__(self) -> None:
        b_min = np.asarray(self.b_min, dtype=np.float64)
        b_max = np.asarray(self.b_max, dtype=np.float64)
        if b_min.ndim != 1 or b_min.shape != b_max.shape or b_min.shape[0] < 1:
            raise ValueError("box bounds must be matching one-dimensional arrays")
        if not (np.isfinite(b_min).all() and np.isfinite(b_max).all()):
            raise ValueError("box bounds must be finite")
        if (b_min > b_max).any():
            raise ValueError("box must satisfy b_min <= b_max componentwise")
        object.__setattr__(self, "b_min", b_min)
        object.__setattr__(self, "b_max", b_max)

    @property
    def dim(self) -> int:
        return int(self.b_min.shape[0])


def bounding_box(points: np.ndarray) -> SamplingBox:
    """Componentwise min/max box of a point set (exact, no margin).

    Degenerate dimensions are allowed; sampling then repeats the single
    coordinate value.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a nonempty (n, d) array")
    return SamplingBox(b_min=points.min(axis=0), b_max=points.max(axis=0))


def uniform_sample(box: SamplingBox, n: int, seed: int) -> NDArray[np.float64]:
    """``n`` points drawn uniformly from ``box`` by one stream seeded ``seed``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    return rng.uniform(box.b_min, box.b_max, size=(n, box.dim))


def accepted_fraction(
    scores: NDArray[np.float64], thresholds: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Fraction of each row of a (rows, n) scored sample strictly below its row's threshold.

    Row r is thresholded at ``thresholds[..., r]``, so a (levels, rows)
    array of thresholds gives (levels, rows) fractions.  Ties count as
    anomalous.  CVOL is one minus this fraction.
    """
    below = scores < np.asarray(thresholds)[..., None]
    return np.count_nonzero(below, axis=-1) / scores.shape[-1]
