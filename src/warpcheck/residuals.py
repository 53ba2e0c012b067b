"""Residual bookkeeping shared by the verifier modules.

A residual carries the absolute defect of an identity together with the
scale of the terms that entered it; the relative residual abs/(1+scale) is
what gets compared against tolerances, so identities between large tensors
and identities between near-zero tensors are judged on the same footing.
The analyses form them for a chunk of points at once, as arrays with one
entry per point, and each point reads its own row as floats.  A residual
that holds only at some points (a closed field's) carries the mask of those
points, ``where``, and the other points' rows leave it out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Residual", "ResidualSet", "PreconditionSkip", "at_row"]


class PreconditionSkip(Exception):
    """A check's numerical precondition failed; the check must be SKIPped."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


@dataclass(frozen=True)
class Residual:
    abs: float
    scale: float = 0.0
    where: np.ndarray | None = None

    @property
    def rel(self) -> float:
        return self.abs / (1.0 + self.scale)

    def at(self, row: int) -> Residual:
        """Point ``row``'s residual, of one over a chunk's points (an array of abs and of scale)."""
        return Residual(float(self.abs[row]), float(self.scale[row]))


ResidualSet = dict[str, Residual]


def at_row(residuals: ResidualSet, row: int) -> ResidualSet:
    """Point ``row``'s residuals, of a set over a chunk's points: each but those whose ``where`` leaves it out."""
    return {name: r.at(row) for name, r in residuals.items() if r.where is None or r.where[row]}
