"""g-norms of tensor components with one variance flag per index."""

from __future__ import annotations

import numpy as np

__all__ = ["tensor_norm_sq", "tensor_norm"]


def tensor_norm_sq(components: np.ndarray, variance: tuple[str, ...], g: np.ndarray, ginv: np.ndarray) -> float:
    """Squared g-norm: contract each covariant index with ginv, each contravariant with g."""
    comps = np.asarray(components, dtype=float)
    if comps.ndim == 0:
        return float(comps**2)
    letters = "abcdefgh"
    primes = "pqrstuvw"
    subs_a = letters[: comps.ndim]
    subs_b = primes[: comps.ndim]
    operands = [comps, comps]
    spec_parts = [subs_a, subs_b]
    for i, v in enumerate(variance):
        operands.append(ginv if v == "l" else g)
        spec_parts.append(letters[i] + primes[i])
    spec = ",".join(spec_parts) + "->"
    return float(np.einsum(spec, *operands))


def tensor_norm(components: np.ndarray, variance: tuple[str, ...], g: np.ndarray, ginv: np.ndarray) -> float:
    """g-norm of a tensor; tiny negative round-off is clipped to zero."""
    return float(np.sqrt(max(tensor_norm_sq(components, variance, g, ginv), 0.0)))
