"""Thermal occupation of non-interacting hard-core modes.

Each mode sits in a field B_i > 0 at chemical potential mu, giving the
Fermi-Dirac occupation <n_i> = 1/(exp((2 B_i - mu)/kT) + 1).  The zero
temperature limit is the step function with value 1/2 exactly at 2B = mu.
The prose limit condition elsewhere compares B (not 2B) against mu, so
inputs with mu/2 < B_i < mu are flagged: there the two readings disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ThermalParams:
    B: tuple
    mu: float
    kT: float = 1.0
    zero_limit: bool = False

    def __post_init__(self):
        object.__setattr__(self, "B", tuple(float(b) for b in self.B))
        if not self.B:
            raise ValueError("need at least one field value")
        if any(not math.isfinite(b) or b <= 0 for b in self.B):
            raise ValueError("fields must be positive and finite")
        if not math.isfinite(self.mu):
            raise ValueError("chemical potential must be finite")
        if self.zero_limit:
            if self.kT != 0.0:
                raise ValueError("zero_limit fixes kT at 0")
        elif not math.isfinite(self.kT) or self.kT <= 0:
            raise ValueError("kT must be positive unless zero_limit is set")

    def ambiguous_sites(self) -> tuple:
        """Indices with mu/2 < B < mu, where prose and formula disagree."""
        return tuple(i for i, b in enumerate(self.B)
                     if self.mu / 2 < b < self.mu)


def _fermi(x: float) -> float:
    # evaluate 1/(e^x + 1) without overflow for large |x|
    if x >= 0:
        e = math.exp(-x)
        return e / (1.0 + e)
    return 1.0 / (math.exp(x) + 1.0)


def occupation(params: ThermalParams) -> list:
    """Per-site mean occupations, each in [0, 1].

    At finite T a value is exactly 1.0 once (2B - mu)/kT falls below about
    -37, and exactly 0.0 once it passes about 745: floating point rounds
    the Fermi function to its ends there."""
    out = []
    for b in params.B:
        gap = 2.0 * b - params.mu
        if params.zero_limit:
            out.append(0.5 if gap == 0 else (1.0 if gap < 0 else 0.0))
        else:
            out.append(_fermi(gap / params.kT))
    return out


def sweep(B, mu: float, kt_values) -> list:
    """Occupation rows for a temperature sweep; one row per kT value."""
    rows = []
    for kt in kt_values:
        p = (ThermalParams(B, mu, 0.0, zero_limit=True) if kt == 0
             else ThermalParams(B, mu, kt))
        rows.append((float(kt), occupation(p)))
    return rows
