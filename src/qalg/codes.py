"""Constant-excitation code subspaces and their encoded operations.

A code C(N, n) is spanned by the N-mode basis states carrying exactly n
excitations.  Codewords are kept as occupation masks (bit i = occupation of
mode i) and printed mode-0-first, so the string "001" on three modes means
mode 2 is excited.  The order is ascending in the printed string value,
which makes the small examples come out in the familiar ladder order
|00...01> < |00...10> < ... and fixes every matrix in this module.  It is
the reverse of the lexicographic order of the excited modes, so codewords
are enumerated by combination, without a scan of all 2**N masks.

A code is admitted when its codeword table, N * C(N, n) bits, holds at most
MAX_TABLE_BITS = 10 * C(10, 5) bits: every code on up to 10 modes, and
fewer codewords on more modes.  Every encoded operation here then finishes
in seconds; the largest admitted dimension is C(10, 5) = 252.  A code on
more than MAX_JSON_MODES = 53 modes is refused too: its masks and dense
indices reach 2**N - 1, and a JSON reader holds integers exactly only up
to 2**53.

Encoded one-pair generators are the projections of the two-mode hopping
operators: the x kind swaps the two occupations (and kills codewords where
they agree), the z kind is diagonal with entry q_j - q_i.  An inter-block
ZZ interaction between the last mode of one code and the first mode of the
next factorizes over the two codes and induces a generalized CPHASE.

Encoded operations are kept as their exact nonzero matrix entries, so
properties such as Hermiticity are decided without a tolerance; dense
matrices of them are left to the callers that print or cross-check them.
CodeSubspace.project computes those entries for any block-preserving
Pauli sum.  encoded_generator does not use it: it writes the Tx and Tz
entries straight from the codewords, and a test pins them, value and
order, against the projection of physical_generator.  lie.close_on_subspace
and synthesize_su_d (``qalg code synthesize``) still project physical
operators.  Writing synthesis's generators directly as well would make it
faster, but the benchmark keeps every round's outputs, so its peak memory
would rise past its bound; that waits for the benchmark change that
ROADMAP.md lists as item 1.  This module imports lie for the synthesis
closure (lie imports no codes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import ModeMismatchError, SubspaceLeakError
from .lie import GeneratorSet, LieBasis, close_on_subspace
from .pauli import ZERO, OperatorSum, Scalar
from .parafermion import bilinear_su2

MAX_TABLE_BITS = 10 * math.comb(10, 5)
MAX_JSON_MODES = 53


def _check_counts(n_modes: int, excitations: int) -> None:
    if not 0 <= excitations <= n_modes:
        raise ValueError(
            f"excitation count {excitations} invalid for {n_modes} modes")
    if n_modes < 1:
        raise ValueError("n_modes must be positive")


@dataclass(frozen=True)
class CodeSubspace:
    """Span of the n-excitation basis states on n_modes modes."""

    n_modes: int
    excitations: int

    def __post_init__(self):
        n, k = self.n_modes, self.excitations
        _check_counts(n, k)
        # the table has at least N bits, so a huge N fails before C(N, k)
        if n > MAX_TABLE_BITS or n * math.comb(n, k) > MAX_TABLE_BITS:
            raise ValueError(
                f"code C({n}, {k}) exceeds the code bound: its codeword "
                f"table, N * C(N, k) bits, may hold at most {MAX_TABLE_BITS}")
        if n > MAX_JSON_MODES:
            raise ValueError(
                f"code C({n}, {k}) exceeds the code bound: its masks and "
                f"dense indices reach 2**{n} - 1, and JSON holds integers "
                f"exactly only up to 2**53, so at most {MAX_JSON_MODES} modes")

    @cached_property
    def codewords(self) -> tuple:
        """Occupation masks, ascending in printed (mode-0-first) value."""
        masks = [sum(1 << m for m in modes) for modes
                 in combinations(range(self.n_modes), self.excitations)]
        return tuple(reversed(masks))

    @property
    def dim(self) -> int:
        return math.comb(self.n_modes, self.excitations)

    @cached_property
    def dense_indices(self) -> tuple:
        """Dense basis labels of the codewords (label bit = 1 - occupation)."""
        full = (1 << self.n_modes) - 1
        return tuple(full ^ m for m in self.codewords)

    def codeword_strings(self) -> tuple:
        return tuple(
            "".join("1" if m >> k & 1 else "0" for k in range(self.n_modes))
            for m in self.codewords)

    def project(self, op: OperatorSum) -> dict:
        """Exact nonzero matrix elements {(row, col): Scalar} of op between
        codewords; raises SubspaceLeakError on block leakage."""
        if op.n_modes != self.n_modes:
            raise ModeMismatchError(
                f"operator on {op.n_modes} modes, code on {self.n_modes}")
        indices = self.dense_indices
        pos = {label: k for k, label in enumerate(indices)}
        entries = {}
        leaks = []
        for col, label in enumerate(indices):
            for out_label, amp in op.apply_basis_state(label).items():
                row = pos.get(out_label)
                if row is None:
                    leaks.append((label, out_label))
                else:
                    entries[row, col] = amp
        if leaks:
            raise SubspaceLeakError("operator leaks out of the code",
                                    leaks=leaks)
        return entries


def build_code(n_modes: int, excitations: int) -> CodeSubspace:
    return CodeSubspace(n_modes, excitations)


def rate(n_modes: int, excitations: int) -> float:
    """Encoded qubits per physical mode, log2(dim)/N; the code bound does
    not apply."""
    _check_counts(n_modes, excitations)
    code_dim = math.comb(n_modes, excitations)
    return math.log2(code_dim) / n_modes


def shannon_entropy(p: float) -> float:
    """Binary entropy S(p) in bits: the rate of C(N, pN) as N grows, the
    limit that rate(N, pN) approaches from below."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


# -- encoded operations ----------------------------------------------------

@dataclass(frozen=True, eq=False)
class EncodedGate:
    """Action of a block-preserving physical operator on the codeword basis:
    the exact nonzero entries {(row, col): Scalar} of a dim x dim matrix.

    Generators (kinds x and z) are Hermitian; circuit gates are unitary.
    """

    name: str
    support: tuple
    entries: dict
    dim: int

    @property
    def is_hermitian(self) -> bool:
        return all(self.entries.get((c, r), ZERO) == s.conjugate()
                   for (r, c), s in self.entries.items())


def physical_generator(kind: str, pair, n_modes: int) -> OperatorSum:
    """The two-mode Hermitian operator whose projection is the encoded gate."""
    i, j = pair
    x_like, _, z_like = bilinear_su2((i, j), n_modes, family="hopping")
    if kind == "x":
        return x_like
    if kind == "z":
        return -z_like  # diagonal entry q_j - q_i on basis states
    raise ValueError(f"unknown generator kind {kind!r}")


def encoded_generator(code: CodeSubspace, kind: str, pair) -> EncodedGate:
    """Projected hopping generator on a mode pair, read off the codewords.

    kind "x" swaps the occupations of the pair (zero on codewords where
    they agree); kind "z" is diag(q_j - q_i).  Accepts "x"/"z" or the
    longer "Tx"/"Tz" spellings, in any case.  The entries are those of
    code.project(physical_generator(kind, pair, n_modes)), in its column
    order, written without forming the Pauli sum.
    """
    kind = kind.lower().removeprefix("t")
    i, j = pair
    if not 0 <= i < j < code.n_modes:
        raise ValueError(f"invalid pair {pair!r} for {code.n_modes} modes")
    if kind not in ("x", "z"):
        raise ValueError(f"unknown generator kind {kind!r}")
    words = code.codewords
    if kind == "x":
        row = {m: k for k, m in enumerate(words)}
        swap = 1 << i | 1 << j
    entries = {}
    for col, m in enumerate(words):
        q_i, q_j = m >> i & 1, m >> j & 1
        if q_i != q_j:
            if kind == "x":
                entries[row[m ^ swap], col] = Scalar(1)
            else:
                entries[col, col] = Scalar(q_j - q_i)
    return EncodedGate(name=f"T{kind}({i},{j})", support=(i, j),
                       entries=entries, dim=code.dim)


@dataclass(frozen=True, eq=False)
class EncodedCphase(EncodedGate):
    """Inter-block ZZ diagonal, its two sign factors, and the induced gate."""

    left_signs: tuple = ()
    right_signs: tuple = ()
    zz_diagonal: tuple = ()


def encoded_cphase(code_a: CodeSubspace, code_b: CodeSubspace) -> EncodedCphase:
    """ZZ coupling between the last mode of code_a and the first of code_b.

    The coupling is diagonal on codeword pairs with sign
    (1 - 2 q_last(a)) * (1 - 2 q_first(b)), so it factorizes exactly into a
    tensor product of per-block sign vectors.  The reported gate is the
    quarter-turn it generates, normalized so the first basis state is fixed;
    its entries are +-1.
    """
    left = tuple(1 - 2 * (m >> (code_a.n_modes - 1) & 1)
                 for m in code_a.codewords)
    right = tuple(1 - 2 * (m & 1) for m in code_b.codewords)
    zz = tuple(l * r for l in left for r in right)
    return EncodedCphase(
        name="CPHASE", support=(code_a.n_modes - 1, code_a.n_modes),
        entries={(k, k): Scalar(s * zz[0]) for k, s in enumerate(zz)},
        dim=len(zz), left_signs=left, right_signs=right, zz_diagonal=zz)


# -- full subspace algebra -------------------------------------------------

@dataclass(frozen=True)
class SynthesisResult:
    """Closure of the projected pair generators on a code."""

    basis: LieBasis
    success: bool
    counting: dict


def synthesize_su_d(code: CodeSubspace, d_limit: int = 20,
                    pairs: str = "all") -> SynthesisResult:
    """Close projected {Tx(i,j), Tz(i,j)} on the code; full su(d) is success.

    pairs "all" uses every mode pair i < j, the inventory the counting
    argument assumes: each pair swaps C(N-2, n-1) codeword pairs, and the
    total over all C(N,2) pairs dominates the codeword count whenever
    n(N-n)/2 > 1.  pairs "nearest" restricts to (i, i+1) links.  The
    nearest-neighbor chain cannot reach su(d) when C(N-2, n-1) > 1: those
    generators match their string-transformed quadratic images, so their
    closure stays inside the N^2-dimensional bilinear algebra no matter
    how it is projected, and swap conjugation cannot leave a Lie closure.
    A non-adjacent hard-core hop differs from its quadratic image by the
    occupations in between, which is what breaks the bound.
    """
    n_big, n_exc = code.n_modes, code.excitations
    if not 0 < n_exc < n_big:
        raise ValueError("synthesis needs 0 < excitations < n_modes")
    if pairs not in ("all", "nearest"):
        raise ValueError(f"unknown pair range {pairs!r}")
    d = code.dim
    if d > d_limit:
        raise ValueError(f"code dimension {d} exceeds the limit {d_limit}")
    if pairs == "all":
        links = [(i, j) for i in range(n_big) for j in range(i + 1, n_big)]
    else:
        links = [(i, i + 1) for i in range(n_big - 1)]
    gens = []
    for link in links:
        gens.append(physical_generator("x", link, n_big))
        gens.append(physical_generator("z", link, n_big))
    basis = close_on_subspace(GeneratorSet(n_big, gens), code)
    pairs_per_link = math.comb(n_big - 2, n_exc - 1)
    links = math.comb(n_big, 2)
    counting = {
        "pairs_per_link": pairs_per_link,
        "links": links,
        "pair_budget": pairs_per_link * links,
        "dim": d,
        "budget_covers_dim": pairs_per_link * links >= d,
        "half_n_times_rest": n_exc * (n_big - n_exc) / 2,
        "interior_condition": n_exc * (n_big - n_exc) / 2 > 1,
    }
    return SynthesisResult(
        basis=basis,
        success=basis.dimension_traceless == d * d - 1,
        counting=counting)
