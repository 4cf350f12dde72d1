"""Exact Lie closure of Hermitian generator sets, and algebra classification.

Hermitian Pauli sums with rational coefficients are vectors over the
Hermitian reference strings with rational coordinates; the bracket
(A, B) -> i[A, B] keeps them real.  Closure therefore runs in exact integer
arithmetic: every operator is scaled to a primitive integer vector, new
commutators are reduced against the current basis by fraction-free
elimination on the smallest key, and independent remainders are appended
in discovery order.  Dimensions are exact ranks, not numerical estimates.

Generators projected onto a code subspace close on the same engine: their
d x d Hermitian matrices are integer vectors over the matrix units E_jj,
E_jk + E_kj and i(E_jk - E_kj), with their own bracket.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import _project
from .pauli import OperatorSum, Scalar, realize
from .parafermion import conserves_number, conserves_parity


@dataclass
class GeneratorSet:
    """Labelled list of Hermitian generators on a common mode count."""

    n_modes: int
    generators: list
    label: str = ""

    def __post_init__(self):
        if not self.generators:
            raise ValueError("empty generator set")
        for g in self.generators:
            if g.n_modes != self.n_modes:
                raise ValueError("generator mode count mismatch")
            if g.is_zero:
                raise ValueError("zero generator")
            if not g.is_hermitian:
                raise ValueError("generators must be Hermitian")


@dataclass
class LieBasis:
    """Result of a closure run.

    basis holds the reduced elements in discovery order: OperatorSum for a
    full-space closure; for a subspace closure, the exact Hermitian entries
    {(row, col): Scalar} of a d x d matrix on the codeword basis, with
    Gaussian-integer values and zero entries left out.  provenance[k] is None
    for a seed generator and (i, j) when element k came from i[basis_i,
    basis_j].  dimension counts all independent elements; the traceless
    count excludes an identity component when one lies in the span.
    """

    n_modes: int
    basis: tuple
    dimension: int
    dimension_traceless: int
    closed: bool
    rounds: int
    provenance: tuple
    subspace_dim: int | None = None

    @property
    def contains_identity(self) -> bool:
        return self.dimension_traceless < self.dimension

    @property
    def provenance_depth(self) -> int:
        depth = []
        for src in self.provenance:
            if src is None:
                depth.append(0)
            else:
                i, j = src
                depth.append(max(depth[i], depth[j]) + 1)
        return max(depth, default=0)


# -- integer vector layer --------------------------------------------------

_IRRATIONAL = ("exact closure requires rational coefficients; "
               "irrational coefficient encountered")


def _primitive(coords: dict) -> dict:
    """Primitive integer vector of rational coordinates {key: Fraction}."""
    denom = math.lcm(*(v.denominator for v in coords.values()))
    return _normalize({k: int(v * denom) for k, v in coords.items() if v})


def _to_vec(op: OperatorSum) -> dict:
    """Primitive integer coordinate vector of a rational Hermitian sum."""
    if not op.is_rational:
        raise ValueError(_IRRATIONAL)
    n = op.n_modes
    return _primitive({(x << n) | z: c.re for (x, z), c in op.items()})


def _normalize(vec: dict) -> dict:
    if not vec:
        return vec
    g = 0
    for v in vec.values():
        g = math.gcd(g, v)
    lead = vec[min(vec)]
    if lead < 0:
        g = -g
    return {k: v // g for k, v in vec.items()}


def _from_vec(vec: dict, n_modes: int) -> OperatorSum:
    mask = (1 << n_modes) - 1
    return OperatorSum(n_modes, {
        (k >> n_modes, k & mask): Scalar(Fraction(v))
        for k, v in vec.items()})


def _bracket(va: dict, vb: dict, n_modes: int) -> dict:
    """i[A, B] of two integer vectors, unnormalized."""
    mask = (1 << n_modes) - 1
    out = {}
    for ka, ca in va.items():
        xa, za = ka >> n_modes, ka & mask
        for kb, cb in vb.items():
            xb, zb = kb >> n_modes, kb & mask
            if ((za & xb).bit_count() + (xa & zb).bit_count()) % 2 == 0:
                continue
            e = ((xa & za).bit_count() + (xb & zb).bit_count()
                 - ((xa ^ xb) & (za ^ zb)).bit_count()
                 + 2 * (za & xb).bit_count() + 1) % 4
            s = 2 * ca * cb if e == 0 else -2 * ca * cb
            k3 = ((xa ^ xb) << n_modes) | (za ^ zb)
            c = out.get(k3, 0) + s
            if c:
                out[k3] = c
            else:
                out.pop(k3, None)
    return out


# A Hermitian d x d matrix on a codeword basis is an integer vector over the
# matrix units: key j*d + j is E_jj, key j*d + k (j < k) is E_jk + E_kj and
# key k*d + j is i(E_jk - E_kj).

def _matrix_vec(entries: dict, d: int) -> dict:
    """Primitive integer vector of Hermitian entries {(row, col): Scalar}."""
    if not all(s.is_rational for s in entries.values()):
        raise ValueError(_IRRATIONAL)
    return _primitive({r * d + c: s.re if r <= c else -s.im
                       for (r, c), s in entries.items()})


def _matrix_entries(vec: dict, d: int) -> dict:
    """Gaussian-integer entries {(row, col): [re, im]} of a matrix vector."""
    out = defaultdict(lambda: [0, 0])
    for key, v in vec.items():
        r, c = divmod(key, d)
        if r <= c:
            out[r, c][0] = out[c, r][0] = v
        else:
            out[c, r][1], out[r, c][1] = v, -v
    return out


def _matrix_bracket(va: dict, vb: dict, d: int) -> dict:
    """i[A, B] of two Hermitian matrix vectors, unnormalized."""
    rows = defaultdict(list)
    for (k, c), z in _matrix_entries(vb, d).items():
        rows[k].append((c, z))
    prod = defaultdict(lambda: [0, 0])  # P = AB
    for (r, k), (ar, ai) in _matrix_entries(va, d).items():
        for c, (br, bi) in rows.get(k, ()):
            p = prod[r, c]
            p[0] += ar * br - ai * bi
            p[1] += ar * bi + ai * br
    # BA = P^dagger for Hermitian A, B, so i[A, B] = i(P - P^dagger)
    out = defaultdict(int)
    for (r, c), (p, q) in prod.items():
        if r == c:
            out[r * d + r] -= 2 * q
        elif r < c:
            out[r * d + c] -= q
            out[c * d + r] += p
        else:
            out[c * d + r] -= q
            out[r * d + c] -= p
    return {k: v for k, v in out.items() if v}


def _reduce(vec: dict, pivots: dict) -> dict:
    """Eliminate vec against the pivot table; return the normalized rest."""
    while vec:
        k = min(vec)
        row = pivots.get(k)
        if row is None:
            return _normalize(vec)
        a, b = vec[k], row[k]
        g = math.gcd(a, b)
        ma, mb = b // g, a // g
        new = {}
        for key, v in vec.items():
            new[key] = v * ma
        for key, v in row.items():
            c = new.get(key, 0) - v * mb
            if c:
                new[key] = c
            else:
                new.pop(key, None)
        vec = _normalize(new)
    return vec


# -- closure engine --------------------------------------------------------

def _closure(n_modes: int, seeds, bracket, identity: dict, full_dim: int,
             max_dim: int | None, export,
             subspace_dim: int | None = None) -> LieBasis:
    """Breadth-first closure of integer seed vectors; the engine of close
    and close_on_subspace, which differ only in bracket and identity vector.
    In both coordinate systems the trace of a vector is proportional to its
    dot product with the identity vector.
    export maps each basis vector to the reported element.
    """
    cap = full_dim if max_dim is None else min(max_dim, full_dim)
    pivots: dict = {}
    vectors: list = []
    provenance: list = []

    def insert(vec, src):
        rest = _reduce(vec, pivots)
        if not rest:
            return False
        pivots[min(rest)] = rest
        vectors.append(rest)
        provenance.append(src)
        return True

    for vec in seeds:
        insert(vec, None)

    def traceless(vec):
        return not sum(vec.get(k, 0) * c for k, c in identity.items())

    def saturated():
        if len(vectors) == full_dim:
            return True
        return (len(vectors) == full_dim - 1
                and all(map(traceless, vectors)))

    rounds = 0
    closed = True
    batch_start = 0
    while batch_start < len(vectors):
        if saturated():
            break
        if len(vectors) >= cap and cap < full_dim:
            closed = False
            break
        rounds += 1
        batch_end = len(vectors)
        stop = False
        for j in range(batch_start, batch_end):
            for i in range(j):
                out = bracket(vectors[i], vectors[j])
                if out and insert(out, (i, j)):
                    if saturated():
                        stop = True
                        break
                    if len(vectors) >= cap and cap < full_dim:
                        closed = False
                        stop = True
                        break
            if stop:
                break
        if stop:
            break
        batch_start = batch_end

    has_identity = not _reduce(identity, pivots)
    dim = len(vectors)
    return LieBasis(
        n_modes=n_modes,
        basis=tuple(map(export, vectors)),
        dimension=dim,
        dimension_traceless=dim - 1 if has_identity else dim,
        closed=closed,
        rounds=rounds,
        provenance=tuple(provenance),
        subspace_dim=subspace_dim)


def close(generator_set: GeneratorSet, max_dim: int | None = None) -> LieBasis:
    """Breadth-first exact Lie closure of a Hermitian generator set.

    Seeds with the independent generators, then brackets every earlier
    element with each member of the newest batch, in index order, reducing
    exactly and appending independent results.  Stops when a full round
    adds nothing, when the span saturates the whole operator space, or at
    max_dim (reported via closed=False, not an error).  Full saturation
    includes the traceless case: 4**n - 1 elements none of which has an
    identity component.
    """
    n = generator_set.n_modes
    return _closure(
        n, [_to_vec(g) for g in generator_set.generators],
        bracket=lambda va, vb: _bracket(va, vb, n),
        identity={0: 1}, full_dim=4 ** n, max_dim=max_dim,
        export=lambda vec: _from_vec(vec, n))


def close_on_subspace(generator_set: GeneratorSet, subspace,
                      max_dim: int | None = None) -> LieBasis:
    """Exact Lie closure of the generators' actions on a code subspace.

    Each generator must preserve the subspace exactly (checked symbolically
    on the codeword basis states; leaks raise SubspaceLeakError).  The
    projected d x d matrices are rational, so they close on the same exact
    engine as close: every dimension is an exact rank.  The
    identity-on-subspace component is tracked so both dimensions are
    reported.
    """
    n = generator_set.n_modes
    if subspace.n_modes != n:
        raise ValueError("subspace mode count mismatch")
    d = subspace.dim
    return _closure(
        n, [_matrix_vec(_project(subspace, g), d)
            for g in generator_set.generators],
        bracket=lambda va, vb: _matrix_bracket(va, vb, d),
        identity={j * (d + 1): 1 for j in range(d)},
        full_dim=d * d, max_dim=max_dim,
        export=lambda vec: {rc: Scalar(re, im) for rc, (re, im)
                            in _matrix_entries(vec, d).items()},
        subspace_dim=d)


# -- classification --------------------------------------------------------

CANDIDATE_ALGEBRAS = ("su(2^N)", "u(2^N)", "so(2N+1)", "so(2N)",
                      "u(N)", "su(N)", "number-conserving", "parity-conserving")


def expected_dimension(name: str, n_modes: int) -> int:
    n = n_modes
    table = {
        "su(2^N)": 4 ** n - 1,
        "u(2^N)": 4 ** n,
        "so(2N+1)": n * (2 * n + 1),
        "so(2N)": n * (2 * n - 1),
        "u(N)": n * n,
        "su(N)": n * n - 1,
        "number-conserving": math.comb(2 * n, n),
        "parity-conserving": 2 ** (2 * n - 1),
    }
    if name not in table:
        raise ValueError(f"unknown algebra name {name!r}")
    return table[name]


@dataclass(frozen=True)
class CandidateMatch:
    name: str
    expected_dim: int
    hit: bool


@dataclass(frozen=True)
class AlgebraVerdict:
    dimension: int
    dimension_traceless: int
    matches: tuple
    conserves_number: bool
    conserves_parity: bool
    universal_full_space: bool


# su/so counts are traceless; u and the maximal subalgebras include identity
_TRACELESS_CANDIDATES = {"su(2^N)", "so(2N+1)", "so(2N)", "su(N)"}
_NUMBER_CANDIDATES = {"u(N)", "su(N)", "number-conserving"}
_PARITY_CANDIDATES = {"so(2N+1)", "so(2N)", "parity-conserving"}


def classify_algebra(basis: LieBasis) -> AlgebraVerdict:
    """Compare a closed basis against the named algebra dimensions."""
    if not basis.closed:
        raise ValueError("classify_algebra requires a closed basis")
    if basis.subspace_dim is not None:
        raise ValueError("classification applies to full-space closures")
    n = basis.n_modes
    number_ok = all(map(conserves_number, basis.basis))
    parity_ok = all(map(conserves_parity, basis.basis))
    matches = []
    for name in CANDIDATE_ALGEBRAS:
        want = expected_dimension(name, n)
        got = (basis.dimension_traceless if name in _TRACELESS_CANDIDATES
               else basis.dimension)
        hit = got == want
        if name in _NUMBER_CANDIDATES:
            hit = hit and number_ok
        if name in _PARITY_CANDIDATES:
            hit = hit and parity_ok
        matches.append(CandidateMatch(name, want, hit))
    return AlgebraVerdict(
        dimension=basis.dimension,
        dimension_traceless=basis.dimension_traceless,
        matches=tuple(matches),
        conserves_number=number_ok,
        conserves_parity=parity_ok,
        universal_full_space=basis.dimension_traceless >= 4 ** n - 1)


# -- dense cross-checks ----------------------------------------------------

def dense_span_rank(ops, tol: float = 1e-9) -> int:
    """Rank of realized operators' vectorizations; closure cross-check."""
    mats = [realize(op).reshape(-1) for op in ops]
    if not mats:
        return 0
    stack = np.array(mats)
    svals = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(svals > tol * max(1.0, svals[0])))
