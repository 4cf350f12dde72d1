"""Fermion-to-qubit transform and the collective-mode commutator.

Fermions are carried to hard-core modes by attaching a string to each
creation/annihilation operator:

    f_i -> a_i S_i,   S_i = prod_{k<i} (1 - 2 n_k)

with the mode order fixed globally (strings act on lower-indexed modes).
Under the on-site dictionary each string factor is -Z, so S_i is a single
signed Z-string and every fermionic monomial lands on an exact Pauli sum:
``jw_fermion_to_pauli`` folds the terms with ``parafermion.fold_terms``
through the on-site images, with S_i as a second image after each creation
and annihilation image.  The fold reads each image, S_i included, once per
process into its integer table, so it forms no OperatorSum product.

The module also hosts the exact anticommutation relations of the string
fermions and the collective-mode commutator [B, B'] as an exact Pauli sum.
Everything here is exact; the dense compound-particle checks, which realize
a hard-core mode inside a pair of fermionic or bosonic modes, live with the
oracle in ``verifier``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SpeciesError
from .pauli import ONE, OperatorSum, Scalar, anticommutator, commutator
from .parafermion import (
    ANNIHILATE,
    CREATE,
    NUMBER,
    SecondQuantizedExpr,
    fold_terms,
    lowering_op,
    number_site,
    raising_op,
)


def string_operator(mode: int, n_modes: int) -> OperatorSum:
    """S_i = prod_{k<i}(1 - 2n_k) as a Pauli sum: (-1)**i Z_0...Z_{i-1}."""
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} out of range for {n_modes} modes")
    coeff = ONE if mode % 2 == 0 else -ONE
    return OperatorSum(n_modes, {(0, (1 << mode) - 1): coeff})


_STRING_IMAGES = {CREATE: (raising_op, string_operator),
                  ANNIHILATE: (lowering_op, string_operator),
                  NUMBER: (number_site,)}


def jw_fermion_to_pauli(expr: SecondQuantizedExpr) -> OperatorSum:
    """Exact Pauli image of a fermionic expression via string attachment."""
    if expr.species != "fermion":
        raise SpeciesError(
            f"jw_fermion_to_pauli expects a fermion expression, "
            f"got {expr.species!r}")
    return fold_terms(expr.terms, expr.n_modes, _STRING_IMAGES)


# -- relation reports ------------------------------------------------------

@dataclass(frozen=True)
class RelationCheck:
    name: str
    passed: bool


@dataclass(frozen=True)
class CarReport:
    n_modes: int
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_car(n_modes: int) -> CarReport:
    """Exact canonical anticommutation relations of the string fermions.

    Checks {f_i, f_j+} = delta_ij, {f_i, f_j} = 0 and {f_i+, f_j+} = 0 as
    Pauli-sum identities for every mode pair.
    """
    f = [jw_fermion_to_pauli(
            SecondQuantizedExpr.annihilate(i, n_modes, "fermion"))
         for i in range(n_modes)]
    fd = [jw_fermion_to_pauli(SecondQuantizedExpr.create(i, n_modes, "fermion"))
          for i in range(n_modes)]
    ident = OperatorSum.identity(n_modes)
    checks = []
    for i in range(n_modes):
        for j in range(i, n_modes):
            mixed = anticommutator(f[i], fd[j])
            want = ident if i == j else OperatorSum.zero(n_modes)
            checks.append(RelationCheck(
                f"{{f{i}, f{j}+}} = {'1' if i == j else '0'}",
                mixed == want))
            ann = anticommutator(f[i], f[j])
            checks.append(RelationCheck(f"{{f{i}, f{j}}} = 0", ann.is_zero))
            cre = anticommutator(fd[i], fd[j])
            checks.append(RelationCheck(f"{{f{i}+, f{j}+}} = 0", cre.is_zero))
    return CarReport(n_modes, tuple(checks))


def boson_approx_commutator(n_modes: int) -> OperatorSum:
    """[B, B+] for the collective mode B = (1/sqrt(N)) sum_i a_i.

    Computed as [sum a_i, sum a_i+]/N so every coefficient stays rational;
    the result equals 1 - (2/N) sum_i n_i exactly.  The on-site terms of
    the two sums have distinct keys, so each sum is built in one step, its
    terms in mode order.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be positive")
    low, high = (OperatorSum(n_modes, {key: c for i in range(n_modes)
                                       for key, c in site(i, n_modes).items()})
                 for site in (lowering_op, raising_op))
    return commutator(low, high) * Scalar(Fraction(1, n_modes))
