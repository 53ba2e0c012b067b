"""Pointwise tensor values with variance bookkeeping and g-norms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TensorValue", "tensor_norm_sq", "tensor_norm"]


@dataclass(frozen=True)
class TensorValue:
    """Components of a tensor at one point.

    ``variance`` holds one flag per index: 'l' (lower/covariant) or
    'u' (upper/contravariant), in component-axis order.
    """

    components: np.ndarray
    variance: tuple[str, ...]
    point: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", comps)
        if comps.ndim != len(self.variance):
            raise ValueError(
                f"rank mismatch: {comps.ndim} axes vs variance {self.variance}"
            )
        if any(v not in ("l", "u") for v in self.variance):
            raise ValueError(f"variance flags must be 'l' or 'u', got {self.variance}")

    @property
    def rank(self) -> int:
        return self.components.ndim

    @property
    def dim(self) -> int:
        return self.components.shape[0] if self.rank else 0


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
