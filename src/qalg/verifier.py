"""Named checks for every closed-form operator identity in the package, and
the dense oracle they share.

Each check builds both sides of one identity and compares them either
exactly (Pauli algebra with exact scalars, zero residual demanded) or as
dense matrices with an explicit tolerance.  Checks never raise on a failed
identity; they return an IdentityCheck carrying the verdict, the residual
and human-readable detail lines, so the whole battery can run to the end.

This is the only module that imports numpy when it loads.  Besides the
checks it holds the rest of the dense oracle: truncated bosonic Fock
spaces and the compound-particle maps checked as dense matrices.

The oracle builds its operators by index arithmetic, not by products of
matrices: a boson ladder, number or hopping operator is written entry by
entry from the digits of the basis index (no np.kron with identities),
and the constrained basis states of a compound map come from whole-array
tests on the labels.  The compound relations are tested on all pairs at
once, as stacks of matrices.  Each check forms each exponential once:
a diagonal generator (the Kerr gate n1 n3, the self-interaction) is
exponentiated elementwise, an exponential that a loop does not change is
formed before the loop, and for a Hermitian H the pair exp(-i t H),
exp(i t H) comes from one dense exponential and its adjoint.  The
generators of ``recoupling`` and ``bch`` are the caller's, so those
checks exponentiate both signs.  Nothing is kept between calls.

Conjugations by exp(i A phi) at eighth-turn angles are done exactly: for
any Hermitian A with A**3 = A the exponential is I + (cos phi - 1) A**2 +
i sin phi A, and 2 cos phi and 2 sin phi lie in Z[sqrt(2)].  The work is
done in integers, on the kernel of ``pauli``: A's integer reading is
squared once and checked against its cube once, and
the exponential is built as an integer reading over 2 den(A)**2 by kernel
sums of A**2 and A, scaled by the exact 2 cos phi - 2 and 2i sin phi; the
part even in phi is formed once for exp(-i A phi) and exp(i A phi).  A
conjugation is then two integer products, and it builds no Scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .codes import build_code, encoded_cphase, physical_generator
from .jw import (
    CarReport,
    RelationCheck,
    boson_approx_commutator,
    jw_fermion_to_pauli,
    verify_car,
)
from .errors import DenseLimitError, ModeMismatchError
from .pauli import (
    DENSE_LIMIT,
    HALF,
    I_UNIT,
    ONE,
    RT2_HALF,
    OperatorSum,
    Scalar,
    anticommutator,
    commutator,
    from_integers,
    integer_product,
    integer_scaled,
    integer_sum,
    integer_terms,
    matrix_exponential,
    realize,
)
from .parafermion import (
    SecondQuantizedExpr,
    bilinear_su2,
    lowering_op,
    raising_op,
)

TOL = 1e-10


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    metric: str  # "exact" or "max_abs_diff"
    tolerance: float
    passed: bool
    residual: float
    details: tuple = ()


# -- exact eighth-turn conjugation ----------------------------------------

_RT2 = 2 * RT2_HALF
_COS2 = (2, _RT2, 0, -_RT2, -2, -_RT2, 0, _RT2)  # 2 cos(k pi/4), k = 0..7
# the multipliers 2 cos phi - 2 of G**2 and 2i sin phi of G in 2 exp(i G phi)
# at phi = k pi/4, since sin(k pi/4) = cos((k - 2) pi/4)
_MULTIPLIERS = tuple((_COS2[k] - 2, I_UNIT * _COS2[k - 2]) for k in range(8))
_IDENTITY = integer_terms(OperatorSum.identity(0))[1]


def _read_generator(gen: OperatorSum) -> tuple:
    """(den, gen, gen**2) as integer readings over den and den**2, after
    checking gen**3 = gen in integers."""
    den, terms = integer_terms(gen)
    sq = integer_product(terms, terms)
    cube = integer_product(sq, terms)
    if cube != integer_sum((terms, den**2)):
        raise ValueError("exact_exp needs gen**3 = gen")
    return den, terms, sq


def _exponentials(den: int, gen: dict, sq: dict, k: int) -> tuple:
    """exp(-i G phi) and exp(i G phi) at phi = k pi/4, each
    I + (cos phi - 1) G**2 -+ i sin phi G as an integer reading over
    2 den**2, by kernel sums of scaled readings; the even part, I and G**2,
    is formed once for both.

    Keys come in the order of those sums: the identity, then the keys of
    G**2, then those of G; a key whose total is zero after the G**2 or the
    G stage is dropped there, as adding OperatorSums drops it.
    """
    cos2, sin2 = _MULTIPLIERS[k]
    even = integer_sum((_IDENTITY, 2 * den * den),
                       (integer_scaled(sq, cos2)[1], 1))
    odd = integer_scaled(gen, sin2)[1]
    return (integer_sum((even, 1), (odd, -den)),
            integer_sum((even, 1), (odd, den)))


def exact_exp(gen: OperatorSum, eighths: int) -> OperatorSum:
    """exp(i gen (eighths * pi/4)) for generators satisfying gen**3 = gen."""
    den, terms, sq = _read_generator(gen)
    return from_integers(gen.n_modes, 2 * den * den,
                         _exponentials(den, terms, sq, eighths % 8)[1])


def conjugate_eighth(op: OperatorSum, gen: OperatorSum,
                     eighths: int) -> OperatorSum:
    """exp(-i gen phi) op exp(i gen phi) at phi = eighths * pi/4, exact.

    Two integer products, U(-phi) op and then that times U(phi), with the
    terms that cancel in the first dropped before the second.
    """
    den, terms, sq = _read_generator(gen)
    if op.n_modes != gen.n_modes:
        raise ModeMismatchError(
            f"operands on {gen.n_modes} and {op.n_modes} modes")
    op_den, op_terms = integer_terms(op)
    minus, plus = _exponentials(den, terms, sq, eighths % 8)
    left = integer_product(minus, op_terms)
    u_den = 2 * den * den
    return from_integers(gen.n_modes, u_den * op_den * u_den,
                         integer_product(left, plus))


def _exact_residual(diff: OperatorSum) -> float:
    if diff.is_zero:
        return 0.0
    return max(abs(c.to_complex()) for _, c in diff.items())


def _dense_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    return float(np.max(np.abs(lhs - rhs)))


def _exp_pair(matrix: np.ndarray, scale: complex) -> tuple:
    """(exp(-scale matrix), exp(scale matrix)) from one exponential.

    scale * matrix must be anti-Hermitian, so that the exponential is
    unitary and its inverse is its adjoint.
    """
    u = matrix_exponential(matrix, scale)
    return u.conj().T, u


# -- truncated boson spaces ------------------------------------------------

@dataclass
class TruncatedBosonSpace:
    """Dense bosonic Fock space with a per-mode occupation cap.

    Basis index = sum_i n_i * (cutoff+1)**i, so mode 0 is the fastest
    varying digit.  [b, b+] = 1 holds on states below the cap; the top
    rung is truncated.  A space of more than 2**DENSE_LIMIT states, the
    dimension of the largest matrix realize builds, raises DenseLimitError.
    """

    n_modes: int
    cutoff: int = 2
    dim: int = field(init=False)

    def __post_init__(self):
        if self.n_modes < 1 or self.cutoff < 1:
            raise ValueError("need at least one mode and cutoff >= 1")
        self.dim = (self.cutoff + 1) ** self.n_modes
        if self.dim > 1 << DENSE_LIMIT:
            raise DenseLimitError(f"{self.dim} states exceeds the dense "
                                  f"limit of {1 << DENSE_LIMIT}")

    def occupation(self, mode: int) -> np.ndarray:
        """The occupation of mode in every basis state: digit mode of each
        basis index."""
        if not 0 <= mode < self.n_modes:
            raise ValueError(
                f"mode {mode} out of range for {self.n_modes} modes")
        d = self.cutoff + 1
        return np.arange(self.dim) // d ** mode % d

    def annihilate(self, mode: int) -> np.ndarray:
        """b|n> = sqrt(n)|n - 1>: sqrt(n) at (k - (cutoff+1)**mode, k) for
        every basis index k whose digit n at mode is at least 1."""
        n = self.occupation(mode)
        cols = np.flatnonzero(n)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[cols - (self.cutoff + 1) ** mode, cols] = np.sqrt(n[cols])
        return out

    def create(self, mode: int) -> np.ndarray:
        return self.annihilate(mode).conj().T

    def hop(self, to: int, frm: int) -> np.ndarray:
        """create(to) @ annihilate(frm) for to != frm, entry by entry:
        sqrt(n_to + 1) sqrt(n_frm) at (k + d**to - d**frm, k), d = cutoff + 1,
        for every k with n_frm >= 1 and n_to < cutoff."""
        if to == frm:
            raise ValueError("hop needs two different modes")
        d = self.cutoff + 1
        n_to, n_frm = self.occupation(to), self.occupation(frm)
        cols = np.flatnonzero((n_frm > 0) & (n_to < self.cutoff))
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[cols + d ** to - d ** frm, cols] = (np.sqrt(n_to[cols] + 1)
                                                * np.sqrt(n_frm[cols]))
        return out

    def number(self, mode: int) -> np.ndarray:
        return np.diag(self.occupation(mode)).astype(complex)

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    def occupations(self, index: int):
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} out of range for {self.dim} states")
        d = self.cutoff + 1
        out = []
        for _ in range(self.n_modes):
            out.append(index % d)
            index //= d
        return tuple(out)

    def index_of(self, occupations) -> int:
        d = self.cutoff + 1
        if len(occupations) != self.n_modes:
            raise ValueError("wrong number of occupations")
        if any(not 0 <= n <= self.cutoff for n in occupations):
            raise ValueError("occupation outside the cutoff")
        return sum(n * d ** i for i, n in enumerate(occupations))


# -- compound-particle constructions ---------------------------------------

@dataclass(frozen=True)
class CompoundReport:
    case: int
    n_pairs: int
    cutoff: int | None
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _fermion_dense(case: int, n_pairs: int):
    """Composite ops, constrained indices and vacuum for the fermion cases.

    The composites go through the string transform; their sl(2) partners
    are diagonal and come from the labels, as the constraint does.
    """
    n = 2 * n_pairs
    f = partial(SecondQuantizedExpr.annihilate, n_modes=n, species="fermion")
    fd = partial(SecondQuantizedExpr.create, n_modes=n, species="fermion")
    # dense labels store 1 - occupation per bit
    labels = np.arange(1 << n)
    occ = [1 - (labels >> m & 1) for m in range(n)]
    comp, zt = [], []
    for p in range(n_pairs):
        lo, hi = 2 * p, 2 * p + 1
        if case == 1:
            a_expr = f(hi) * f(lo)
            z_diag = occ[lo] + occ[hi] - 1
        else:
            a_expr = fd(hi) * f(lo)
            z_diag = occ[lo] - occ[hi]
        comp.append(realize(jw_fermion_to_pauli(a_expr)))
        zt.append(np.diag(z_diag).astype(complex))
    # the occupations of a pair agree (case 1) or differ (case 2) exactly
    # when its two bits do
    low_bits = sum(1 << 2 * p for p in range(n_pairs))
    differ = (labels ^ labels >> 1) & low_bits
    want = 0 if case == 1 else low_bits
    indices = np.flatnonzero(differ == want).tolist()
    # the vacuum has every mode empty (case 1) or the odd modes filled
    vacuum = (1 << n) - 1 if case == 1 else low_bits
    return comp, zt, indices, vacuum


def _boson_dense(n_pairs: int, cutoff: int):
    space = TruncatedBosonSpace(2 * n_pairs, cutoff)
    comp, zt = [], []
    for p in range(n_pairs):
        lo, hi = 2 * p, 2 * p + 1
        comp.append(space.hop(hi, lo))
        zt.append(space.number(lo) - space.number(hi))
    occ = [space.occupation(m) for m in range(2 * n_pairs)]
    good = np.all([occ[2 * p] + occ[2 * p + 1] == 1
                   for p in range(n_pairs)], axis=0)
    indices = np.flatnonzero(good).tolist()
    vacuum = space.index_of([1 if m % 2 else 0 for m in range(2 * n_pairs)])
    return comp, zt, indices, vacuum


def compound_mapping_check(case: int, n_pairs: int,
                           cutoff: int | None = None) -> CompoundReport:
    """Verify that paired modes realize hard-core modes on the constraint.

    Case 1 pairs two fermions (occupations locked equal), case 2 a fermionic
    particle-hole pair and case 3 a bosonic one (occupations summing to 1).
    Checks, restricted to the constrained subspace: no leakage out of it,
    on-site {a, a+} = 1 and a**2 = 0, cross-pair commutation, the sl(2)
    relations with the stated 2n - 1 partner, and vacuum annihilation.
    """
    if case not in (1, 2, 3):
        raise ValueError(f"unknown case {case!r}")
    if n_pairs < 1 or n_pairs > 3:
        raise ValueError("n_pairs must be between 1 and 3")
    if case == 3:
        cutoff = 1 if cutoff is None else cutoff
        if cutoff < 1:
            raise ValueError("case 3 needs cutoff >= 1")
        comp, zt, indices, vacuum = _boson_dense(n_pairs, cutoff)
        tol = 1e-10
    else:
        if cutoff is not None:
            raise ValueError("cutoff applies to case 3 only")
        comp, zt, indices, vacuum = _fermion_dense(case, n_pairs)
        tol = 0.0
    # every relation is tested on all pairs at once, as stacks of matrices
    def holds(stack, target=0):
        """Per matrix of the stack: max |matrix - target| <= tol."""
        return np.max(np.abs(stack - target), axis=(1, 2), initial=0.0) <= tol

    full = np.array(comp)
    inside = np.zeros(full.shape[1], dtype=bool)
    inside[indices] = True
    rows, cols = np.flatnonzero(~inside)[:, None], np.array(indices)
    # a and a+ map no state inside the subspace out of it; a+ does not
    # exactly when a maps no state outside into it
    kept = holds(full[:, rows, cols]) & holds(full[:, cols[:, None], rows.T])
    checks = [RelationCheck(f"pair {p}: constraint preserved", bool(ok))
              for p, ok in enumerate(kept)]
    A = full[:, cols[:, None], cols]
    Z = np.array(zt)[:, cols[:, None], cols]
    Ad = A.conj().transpose(0, 2, 1)
    relations = (
        ("{a, a+} = 1", holds(A @ Ad + Ad @ A, np.eye(len(indices)))),
        ("a**2 = 0", holds(A @ A)),
        ("[a+, a] = 2n-1", holds(Ad @ A - A @ Ad, Z)),
        ("[2n-1, a+] = 2a+", holds(Z @ Ad - Ad @ Z, 2 * Ad)),
        ("[2n-1, a] = -2a", holds(Z @ A - A @ Z, -2 * A)),
    )
    for p in range(n_pairs):
        checks.extend(RelationCheck(f"pair {p}: {name}", bool(ok[p]))
                      for name, ok in relations)
    ps, qs = np.triu_indices(n_pairs, 1)
    both = holds(A[ps] @ A[qs] - A[qs] @ A[ps])
    mixed = holds(A[ps] @ Ad[qs] - Ad[qs] @ A[ps])
    for p, q, ok, ok_d in zip(ps.tolist(), qs.tolist(), both, mixed):
        checks.append(RelationCheck(f"pairs {p},{q}: [a_p, a_q] = 0",
                                    bool(ok)))
        checks.append(RelationCheck(f"pairs {p},{q}: [a_p, a_q+] = 0",
                                    bool(ok_d)))
    # a|vacuum> is the vacuum's column of a
    ok_vac = bool(holds(A[:, :, [indices.index(vacuum)]]).all())
    checks.append(RelationCheck("vacuum annihilated by every a", ok_vac))
    return CompoundReport(case, n_pairs,
                          cutoff if case == 3 else None, tuple(checks))


# -- selective recoupling ---------------------------------------------------

def check_recoupling(A: OperatorSum | None = None,
                     B: OperatorSum | None = None,
                     theta: float = 0.7,
                     phi: float = math.pi / 4) -> IdentityCheck:
    """Conjugation of exp(i theta B) by exp(i A phi) for anticommuting A, B.

    With {A, B} = 0 and A**2 = I the conjugated flow is exp(i theta (B cos
    2phi + iBA sin 2phi)); at phi = pi/2 this is exp(-i theta B) and at
    phi = pi/4 it is exp(i theta (iBA)).  Note the operator order: iBA, not
    iAB; the two differ by a sign for anticommuting pairs, and iBA is the
    one the quarter-turn Euler rotation of X into Y fixes.
    """
    if A is None:
        A = OperatorSum.z(0, 1)
    if B is None:
        B = OperatorSum.x(0, 1)
    details = []
    anti = anticommutator(A, B)
    sq = A * A
    ident = OperatorSum.identity(A.n_modes)
    details.append(f"precondition {{A,B}} = 0: {'ok' if anti.is_zero else 'VIOLATED'}")
    details.append(f"precondition A**2 = I: {'ok' if sq == ident else 'VIOLATED'}")
    ok = anti.is_zero and sq == ident
    residual = 0.0

    iba = (B * A) * I_UNIT
    if ok:
        quarter = conjugate_eighth(B, A, 1)
        r = _exact_residual(quarter - iba)
        residual = max(residual, r)
        details.append(f"exact quarter-turn conjugate equals iBA: residual {r:g}")
        details.append("note: iAB = -iBA here; the iBA form reproduces the "
                       "Euler rotation exp(-i pi Z/4) X exp(i pi Z/4) = Y")
        half = conjugate_eighth(B, A, 2)
        r = _exact_residual(half + B)
        residual = max(residual, r)
        details.append(f"exact half-turn conjugate equals -B: residual {r:g}")

        a_d, b_d = realize(A), realize(B)
        lhs = (matrix_exponential(a_d, -1j * phi)
               @ matrix_exponential(b_d, 1j * theta)
               @ matrix_exponential(a_d, 1j * phi))
        target = (realize(B) * math.cos(2 * phi)
                  + realize(iba) * math.sin(2 * phi))
        rhs = matrix_exponential(target, 1j * theta)
        r = _dense_residual(lhs, rhs)
        residual = max(residual, r)
        details.append(f"dense flow at theta={theta:g}, phi={phi:g}: residual {r:g}")
    return IdentityCheck("recoupling", "max_abs_diff", TOL,
                         ok and residual <= TOL, residual, tuple(details))


def check_angular_recoupling(theta: float = 0.9,
                             phi: float = math.pi) -> IdentityCheck:
    """Rotation formula for su(2) triples without the A**2 = I assumption.

    Uses the two-mode pairing triple: with J_z = R_z/2 the conjugation
    exp(-i phi J_z) R_x exp(i phi J_z) = R_x cos phi + (R_y/2) sin phi, and
    conjugating by the unhalved R_z doubles the angle.
    """
    details = []
    r_x, r_y, r_z = bilinear_su2((0, 1), 2, family="pairing")
    half_rz = r_z * HALF
    half_ry = r_y * HALF

    # J_z = R_z/2 fails the cube condition; use R_z at half the angle
    quarter = conjugate_eighth(r_x, r_z, 1)  # phi = pi/2 on J_z
    r0 = _exact_residual(quarter - half_ry)
    details.append(f"exact quarter rotation R_x -> R_y/2: residual {r0:g}")
    halfturn = conjugate_eighth(r_x, r_z, 2)
    r1 = _exact_residual(halfturn + r_x)
    details.append(f"exact half rotation R_x -> -R_x: residual {r1:g}")

    jz_d, jx_d, jy_d = realize(half_rz), realize(r_x), realize(half_ry)
    jz_minus, jz_plus = _exp_pair(jz_d, 1j * phi)
    lhs = jz_minus @ jx_d @ jz_plus
    rhs = jx_d * math.cos(phi) + jy_d * math.sin(phi)
    r2 = _dense_residual(lhs, rhs)
    details.append(f"dense rotation at phi={phi:g}: residual {r2:g}")

    # unhalved generator doubles the angle inside the exp flow
    rz_minus, rz_plus = _exp_pair(realize(r_z), 1j * phi)
    lhs = rz_minus @ matrix_exponential(jx_d, 1j * theta) @ rz_plus
    target = jx_d * math.cos(2 * phi) + jy_d * math.sin(2 * phi)
    rhs = matrix_exponential(target, 1j * theta)
    r3 = _dense_residual(lhs, rhs)
    details.append(f"dense flow with doubled angle 2*phi: residual {r3:g}")

    residual = max(r0, r1, r2, r3)
    return IdentityCheck("angular", "max_abs_diff", TOL,
                         residual <= TOL, residual, tuple(details))


def check_canonical_reduction() -> IdentityCheck:
    """Two-step reduction of the symmetric two-site coupling to ZZ form."""
    details = []
    n = 2
    xx = OperatorSum(n, {(3, 0): ONE})
    yy = OperatorSum(n, {(3, 3): ONE})
    zz = OperatorSum(n, {(0, 3): ONE})
    xy_sum = xx + yy
    x0 = OperatorSum.x(0, n)
    y0, y1 = OperatorSum.y(0, n), OperatorSum.y(1, n)

    flipped = conjugate_eighth(xy_sum, x0, 2)
    r0 = _exact_residual(flipped - (xx - yy))
    details.append(f"exact half-turn about X flips YY sign: residual {r0:g}")

    step2 = conjugate_eighth(conjugate_eighth(xx, y0, 1), y1, 1)
    r1 = _exact_residual(step2 - zz)
    details.append(f"exact quarter-turns about Y take XX to ZZ: residual {r1:g}")

    residual = max(r0, r1)
    xy_d, xx_d, zz_d = realize(xy_sum), realize(xx), realize(zz)
    x_minus, x_plus = _exp_pair(realize(x0), 1j * math.pi / 2)
    y_minus, y_plus = _exp_pair(realize(y0 + y1), 1j * math.pi / 4)
    for theta in (0.1, 0.7, math.pi / 3):
        half_flow = matrix_exponential(xy_d, 1j * theta / 2)
        xx_flow = matrix_exponential(xx_d, 1j * theta)
        lhs = half_flow @ (x_minus @ half_flow @ x_plus)
        r = _dense_residual(lhs, xx_flow)
        details.append(f"step 1 flow at theta={theta:g}: residual {r:g}")
        residual = max(residual, r)
        lhs2 = y_minus @ xx_flow @ y_plus
        r = _dense_residual(lhs2, matrix_exponential(zz_d, 1j * theta))
        details.append(f"step 2 flow at theta={theta:g}: residual {r:g}")
        residual = max(residual, r)
    return IdentityCheck("canonical", "max_abs_diff", TOL,
                         residual <= TOL, residual, tuple(details))


# -- Kerr / self-interaction -----------------------------------------------

def check_kerr_selfkerr() -> IdentityCheck:
    """Three-gate self-interaction circuit equals the Kerr gate on dual rails.

    Four bosonic modes at cutoff 2; the beamsplitter between the two active
    modes conserves their total occupation (at most 2 on dual-rail inputs)
    so the truncation is exact on the subspace.
    """
    details = []
    space = TruncatedBosonSpace(4, 2)
    # n1, n3 and both diagonal generators as their diagonals, which the
    # exponentials take elementwise
    n1, n3 = space.occupation(1), space.occupation(3)
    lhs = np.diag(np.exp(-1j * math.pi * (n1 * n3)))

    rails = [space.index_of(occ) for occ in
             ((1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1))]
    block = lhs[np.ix_(rails, rails)]
    r0 = _dense_residual(block, np.diag([1, 1, 1, -1]).astype(complex))
    details.append(f"Kerr gate on dual rails is diag(1,1,1,-1): residual {r0:g}")

    bs = space.hop(1, 3) - space.hop(3, 1)
    self_int = np.exp(-1j * math.pi / 2 * (n1 * n1 + n3 * n3 - n1 - n3))
    bs_minus, bs_plus = _exp_pair(bs, math.pi / 4)
    # the circuit on the dual-rail columns only; * self_int scales columns
    rhs = (bs_minus * self_int) @ bs_plus[:, rails]
    r1 = _dense_residual(lhs[:, rails], rhs)
    details.append(f"three-gate circuit matches on dual-rail inputs: residual {r1:g}")

    # beamsplitter rotation of a creation operator, below the cutoff
    two = TruncatedBosonSpace(2, 2)
    gen = two.hop(0, 1) - two.hop(1, 0)
    phi = 0.37
    gen_minus, gen_plus = _exp_pair(gen, phi)
    conj = gen_plus @ two.create(1) @ gen_minus
    want = math.cos(phi) * two.create(1) + math.sin(phi) * two.create(0)
    cols = np.flatnonzero(two.occupation(0) + two.occupation(1) <= 1)
    r2 = _dense_residual(conj[:, cols], want[:, cols])
    details.append(f"beamsplitter rotates b+ into cos b+ + sin a+: residual {r2:g}")

    residual = max(r0, r1, r2)
    return IdentityCheck("kerr", "max_abs_diff", TOL,
                         residual <= TOL, residual, tuple(details))


# -- series expansion -------------------------------------------------------

def check_bch_series(A: OperatorSum | None = None,
                     B: OperatorSum | None = None,
                     alpha: float = 1e-2,
                     order: int = 4) -> IdentityCheck:
    """Truncated similarity-transform series against the dense conjugation.

    The series is sum_k (-alpha)**k / k! ad_A^k(B): signs alternate.  (A
    well-known typo writes the cubic term with a plus sign; the alternating
    form is what the exponential derivative gives.)  The truncation error
    must scale as alpha**(order+1), tested by halving alpha.
    """
    if A is None:
        A = OperatorSum.z(0, 1)
    if B is None:
        B = OperatorSum.x(0, 1)
    if order < 0:
        raise ValueError("order must be non-negative")
    if order > 6:
        raise ValueError("order capped at 6")
    details = []

    nested = []
    term = B
    for _ in range(order + 1):
        nested.append(realize(term))
        term = commutator(A, term)
    a_d, b_d = realize(A), realize(B)

    def residual_at(a: float) -> float:
        conj = (matrix_exponential(a_d, -a) @ b_d
                @ matrix_exponential(a_d, a))
        acc = np.zeros_like(b_d)
        for k, mat in enumerate(nested):
            acc = acc + ((-a) ** k / math.factorial(k)) * mat
        return _dense_residual(conj, acc)

    r_full = residual_at(alpha)
    r_half = residual_at(alpha / 2)
    details.append(f"residual at alpha={alpha:g}: {r_full:g}")
    details.append(f"residual at alpha/2: {r_half:g}")
    if r_full < 1e-14 and r_half < 1e-14:
        details.append("residual at machine zero (commuting inputs); "
                       "scaling test vacuous")
        passed = True
        ratio = float("inf")
    else:
        ratio = r_full / r_half if r_half > 0 else float("inf")
        expect = 2.0 ** (order + 1)
        details.append(f"halving ratio {ratio:.3f}, expected about {expect:g}")
        passed = ratio >= 0.8 * 2.0 ** order
    return IdentityCheck("bch", "max_abs_diff", TOL,
                         passed and r_full < 1e-6, r_full, tuple(details))


# -- phonon-mediated coupling ----------------------------------------------

def check_iontrap_xy(cutoff: int = 2) -> IdentityCheck:
    """Phonon-mediated pair coupling reduces to the symmetric XY term.

    On qubits (a, b) sharing one bosonic mode, 2i[s_a^- b+ + s_a^+ b,
    s_b^- b+ + s_b^+ b] = X_a Y_b - Y_a X_b wherever [b, b+] = 1, and the
    quarter-turn generated by (Z_a - Z_b)/2 carries that to X_a X_b +
    Y_a Y_b.  The conjugation by the unhalved Z_a - Z_b over-rotates and
    only flips the commutator's sign; both residuals are reported.  The
    top truncated boson level violates [b, b+] = 1, so sectors are compared
    separately and only the sub-cutoff ones are required to match.
    """
    details = []
    n_q = 2
    dim_q = 4
    space = TruncatedBosonSpace(1, cutoff)

    def hybrid(qubit_op: OperatorSum, boson_mat: np.ndarray) -> np.ndarray:
        return np.kron(boson_mat, realize(qubit_op))

    sp = [raising_op(i, n_q) for i in range(2)]
    sm = [lowering_op(i, n_q) for i in range(2)]
    bd, b = space.create(0), space.annihilate(0)
    v = [hybrid(sm[i], bd) + hybrid(sp[i], b) for i in range(2)]
    comm2i = 2j * (v[0] @ v[1] - v[1] @ v[0])

    z_diff = OperatorSum.z(0, n_q) - OperatorSum.z(1, n_q)
    xy = realize(OperatorSum(n_q, {(3, 0): ONE, (3, 3): ONE}))  # XX + YY
    half_gen = hybrid(z_diff * HALF, space.identity())
    rot, rot_inv = _exp_pair(half_gen, 1j * math.pi / 4)
    conj = rot @ comm2i @ rot_inv

    residual = 0.0
    for sector in range(cutoff + 1):
        rows = [q + dim_q * sector for q in range(dim_q)]
        block = conj[np.ix_(rows, rows)]
        r = _dense_residual(block, xy)
        if sector < cutoff:
            residual = max(residual, r)
            details.append(f"boson sector {sector}: residual {r:g}")
        else:
            details.append(f"boson sector {sector} (top, truncated): "
                           f"residual {r:g} — truncation artifact, excluded")

    full_minus, full_plus = _exp_pair(hybrid(z_diff, space.identity()),
                                      1j * math.pi / 4)
    lit = full_minus @ comm2i @ full_plus
    r_lit = _dense_residual(lit[:dim_q, :dim_q], xy)
    details.append(
        f"with the unhalved generator the sector-0 residual is {r_lit:g}: "
        "the stated conjugation needs the generator halved, (Z_a - Z_b)/2")
    return IdentityCheck("iontrap", "max_abs_diff", TOL,
                         residual <= TOL, residual, tuple(details))


# -- encoded antisymmetric-XY identities -----------------------------------

def check_axy_encoded() -> IdentityCheck:
    """Encoded selective recoupling identities, then the inter-pair ZZ table."""
    details = []
    n = 3
    t01, t12, t02 = (physical_generator("x", pair, n)
                     for pair in ((0, 1), (1, 2), (0, 2)))
    zz01 = OperatorSum(n, {(0, 3): ONE})
    step1 = conjugate_eighth(t12, t01, 2)
    want1 = (zz01 * t02) * I_UNIT
    r0 = _exact_residual(step1 - want1)
    details.append(f"half-turn recoupling gives i Z0 Z1 Tx(0,2): residual {r0:g}")

    step2 = conjugate_eighth(step1, t02, 1)
    z0 = OperatorSum.z(0, n)
    z1 = OperatorSum.z(1, n)
    z2 = OperatorSum.z(2, n)
    want2 = (z1 * (z2 - z0)) * HALF
    r1 = _exact_residual(step2 - want2)
    details.append(f"quarter-turn then gives Z1 (Z2 - Z0)/2: residual {r1:g}")

    code = build_code(2, 1)
    gate = encoded_cphase(code, code)
    r2 = float(max(abs(got - want) for got, want
                   in zip(gate.zz_diagonal, (-1, 1, 1, -1))))
    details.append("boundary ZZ on the paired single-excitation codes acts as "
                   f"diag(-1,1,1,-1): residual {r2:g}")
    residual = max(r0, r1, r2)
    return IdentityCheck("axy-encoded", "exact", TOL,
                         residual == 0.0, residual, tuple(details))


def check_axy_split() -> IdentityCheck:
    """Pair Hamiltonian splits exactly into commuting hopping/pairing blocks.

    For one pair, H0 + V with V = Jxy X0 Y1 + Jyx Y0 X1 equals
    (J~/2) R_y + e+ R_z - (D~/2) T_y + e- T_z with J~ = Jxy + Jyx,
    D~ = Jxy - Jyx and e+- = (e0 +- e1)/2.  The halved couplings, the minus
    sign on the T_y term and the averaged detunings are what the exact
    algebra forces; displayed versions without them do not balance.
    """
    details = []
    n = 2
    t_x, t_y, t_z = bilinear_su2((0, 1), n, family="hopping")
    r_x, r_y, r_z = bilinear_su2((0, 1), n, family="pairing")
    x0y1 = OperatorSum(n, {(3, 2): ONE})
    y0x1 = OperatorSum(n, {(3, 1): ONE})
    z0 = OperatorSum.z(0, n)
    z1 = OperatorSum.z(1, n)

    cases = [
        (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(-1, 7)),
        (Fraction(1), Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(-1), Fraction(2), Fraction(3)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
    ]
    residual = 0.0
    for jxy, jyx, e0, e1 in cases:
        h = (x0y1 * Scalar(jxy) + y0x1 * Scalar(jyx)
             + z0 * Scalar(e0 / 2) + z1 * Scalar(e1 / 2))
        j_sym = Scalar((jxy + jyx) / 2)
        d_asym = Scalar((jxy - jyx) / 2)
        e_plus = Scalar((e0 + e1) / 2)
        e_minus = Scalar((e0 - e1) / 2)
        split = (r_y * j_sym + r_z * e_plus
                 - t_y * d_asym + t_z * e_minus)
        r = _exact_residual(h - split)
        residual = max(residual, r)
        details.append(
            f"Jxy={jxy}, Jyx={jyx}, e=({e0},{e1}): residual {r:g}")
        if jxy == jyx and not (t_y * d_asym).is_zero:
            details.append("symmetric case leaked a T_y term")
            residual = max(residual, 1.0)
        if jxy == -jyx and not (r_y * j_sym).is_zero:
            details.append("antisymmetric case leaked an R_y term")
            residual = max(residual, 1.0)

    for t_part in (t_x, t_y, t_z):
        for r_part in (r_x, r_y, r_z):
            r = _exact_residual(commutator(t_part, r_part))
            residual = max(residual, r)
    details.append("hopping and pairing blocks commute exactly")
    return IdentityCheck("axy-split", "exact", TOL,
                         residual == 0.0, residual, tuple(details))


# -- wrappers over other modules -------------------------------------------

def check_boson_commutator(n_max: int = 6) -> IdentityCheck:
    details = []
    residual = 0.0
    for n in range(1, n_max + 1):
        got = boson_approx_commutator(n)
        # 1 - (2/N) sum_i (1 + Z_i)/2 as one sum: the identity parts cancel
        want = OperatorSum(n, {(0, 1 << i): Scalar(Fraction(-1, n))
                               for i in range(n)})
        r = _exact_residual(got - want)
        residual = max(residual, r)
        details.append(f"N={n}: [B, B+] = 1 - (2/N) n_total, residual {r:g}")
    return IdentityCheck("boson-commutator", "exact", 0.0,
                         residual == 0.0, residual, tuple(details))


def check_car(n_modes: int = 5) -> IdentityCheck:
    report: CarReport = verify_car(n_modes)
    bad = [c.name for c in report.checks if not c.passed]
    details = [f"{len(report.checks)} relations on {n_modes} modes"]
    details.extend(f"FAILED: {name}" for name in bad)
    return IdentityCheck("car", "exact", 0.0, report.ok,
                         0.0 if report.ok else float(len(bad)),
                         tuple(details))


def _check_compound(case: int) -> IdentityCheck:
    details = []
    ok = True
    worst = 0.0
    for n_pairs in (1, 2, 3):
        report = compound_mapping_check(case, n_pairs)
        bad = [c.name for c in report.checks if not c.passed]
        ok = ok and report.ok
        worst = max(worst, float(len(bad)))
        details.append(f"{n_pairs} pair(s): "
                       f"{'all relations hold' if report.ok else bad}")
    tol = 1e-10 if case == 3 else 0.0
    return IdentityCheck(f"compound-{case}", "exact" if case != 3 else
                         "max_abs_diff", tol, ok, worst, tuple(details))


CHECKS = {
    "recoupling": check_recoupling,
    "angular": check_angular_recoupling,
    "canonical": check_canonical_reduction,
    "kerr": check_kerr_selfkerr,
    "bch": check_bch_series,
    "iontrap": check_iontrap_xy,
    "axy-encoded": check_axy_encoded,
    "axy-split": check_axy_split,
    "boson-commutator": check_boson_commutator,
    "compound-1": partial(_check_compound, 1),
    "compound-2": partial(_check_compound, 2),
    "compound-3": partial(_check_compound, 3),
    "car": check_car,
}


def run_all() -> list:
    return [CHECKS[name]() for name in CHECKS]
