"""Numerical tolerance policy shared across the library.

Every rank decision, PSD test and equality test in usdkit routes through a
single :class:`ToleranceContext`, so there is exactly one notion of "zero"
per computation.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ToleranceContext:
    """Collection of cutoffs used by the numerical routines.

    rank_cutoff is relative to the largest singular value; rank_atol is the
    absolute fallback used when an operator is numerically zero.  psd_floor
    is the most-negative admissible eigenvalue of a nominally PSD operator
    (scaled by the operator norm when that exceeds one).  The remaining
    fields are absolute tolerances for the named matrix identities.
    """

    rank_cutoff: float = 1e-10
    rank_atol: float = 1e-12
    psd_floor: float = 1e-10
    hermitian: float = 1e-10
    equality: float = 1e-8

    def __post_init__(self):
        for name in ("rank_cutoff", "rank_atol", "psd_floor", "hermitian",
                     "equality"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.rank_cutoff >= 1:
            raise ValueError("rank_cutoff must be below 1")

    def with_overrides(self, **kwargs) -> "ToleranceContext":
        return replace(self, **kwargs)


DEFAULT_TOL = ToleranceContext()
