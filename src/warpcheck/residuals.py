"""Residual bookkeeping shared by the verifier modules.

A residual carries the absolute defect of an identity together with the
scale of the terms that entered it; the relative residual abs/(1+scale) is
what gets compared against tolerances, so identities between large tensors
and identities between near-zero tensors are judged on the same footing.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Residual", "ResidualSet", "PreconditionSkip"]


class PreconditionSkip(Exception):
    """A check's numerical precondition failed; the check must be SKIPped."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


@dataclass(frozen=True)
class Residual:
    abs: float
    scale: float = 0.0

    @property
    def rel(self) -> float:
        return self.abs / (1.0 + self.scale)


ResidualSet = dict[str, Residual]
