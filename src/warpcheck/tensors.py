"""g-norms of tensor components with one variance flag per index."""

from __future__ import annotations

import numpy as np

__all__ = ["tensor_norm_sq"]


def tensor_norm_sq(components: np.ndarray, variance: tuple[str, ...], up: np.ndarray, low: np.ndarray):
    """Squared g-norm as a sum of squares in the orthonormal frame of g0 = L L^T.

    ``up = L^T`` takes a contravariant index to the frame, ``low = L^-1`` a
    covariant one.  Each step contracts the leading axis and appends the new
    one last; the sum of squares does not depend on the order of the axes.
    Frames of shape (*lead, n, n) give norms of shape ``lead``, each with the
    bits of its frame alone: ``matmul`` runs one product per matrix of a
    stack, and one more per row, (1, m) by (m, 1).
    """
    s = np.asarray(components, dtype=float)
    lead = up.shape[:-2]
    if s.ndim != len(lead) + len(variance):
        raise ValueError(f"tensor rank {s.ndim - len(lead)} != variance length {len(variance)}")
    for flag in variance:
        frame = low if flag == "l" else up
        s = s.reshape(lead + (frame.shape[-1], -1)).swapaxes(-1, -2) @ frame.swapaxes(-1, -2)
    return (s.reshape(lead + (1, -1)) @ s.reshape(lead + (-1, 1))).reshape(lead)
