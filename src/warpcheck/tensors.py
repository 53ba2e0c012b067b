"""g-norms of tensor components with one variance flag per index."""

from __future__ import annotations

import numpy as np

__all__ = ["tensor_norm_sq"]


def tensor_norm_sq(components: np.ndarray, variance: tuple[str, ...], up: np.ndarray, low: np.ndarray) -> float:
    """Squared g-norm as a sum of squares in the orthonormal frame of g0 = L L^T.

    ``up = L^T`` takes a contravariant index to the frame, ``low = L^-1`` a
    covariant one.  Each step contracts the leading axis and appends the new
    one last; the sum of squares does not depend on the order of the axes.
    """
    s = np.asarray(components, dtype=float)
    if s.ndim != len(variance):
        raise ValueError(f"tensor rank {s.ndim} != variance length {len(variance)}")
    for flag in variance:
        frame = low if flag == "l" else up
        s = s.reshape(len(frame), -1).T @ frame.T
    return float(np.vdot(s, s))
