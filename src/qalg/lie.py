"""Exact Lie closure of Hermitian generator sets, and algebra classification.

Hermitian Pauli sums with rational coefficients are vectors over the
Hermitian reference strings with rational coordinates; the bracket
(A, B) -> i[A, B] keeps them real.  Closure therefore runs in exact integer
arithmetic: every operator is scaled to a primitive integer vector, and new
commutators are appended in discovery order when they are independent of
the elements found so far.  Dimensions are exact ranks, not numerical
estimates.

Independence starts out decided on an integer echelon: a vector is reduced
on the smallest key by gcd-normalized cross-multiplication, and its
nonzero rest becomes the next element.  Those rows can grow to thousands
of bits.  Once one holds an entry of 2**61 - 1 or more, the closure
switches its elements to the raw brackets, whose entries grow only with
bracket depth, and decides on an echelon of them modulo that prime, whose
rows are packed one lane per key into an int: one multiply-add per row.
Independence mod p implies independence over Q; a dependence mod p counts
only after the combination, rebuilt by rational reconstruction, passes an
exact integer identity check, and otherwise the integer echelon decides
again.  No tolerance and no probabilistic step ever decides.

Three things keep a closure cheap without changing an answer.  The
bracket works each sign out from bit counts, term pair by term pair; for
n <= 4, when the operands hold many terms, it instead walks the shorter
one term by term, over only the strings that anticommute with that term,
from two per-process rows of its key read off the same sign rule, and
reads the other operand from a list over all keys.  A span remembers the
normalized vectors it has decided, so a repeated bracket is rejected
without a reduction.  And a LieBasis exports its elements only when they
are first read, each in one key order whichever path built it.

Hermitian d x d matrices on a code subspace close on the same engine:
they are integer vectors over the matrix units E_jj, E_jk + E_kj and
i(E_jk - E_kj), with their own bracket.  close_matrices takes them as exact
entries {(row, col): number} and refuses non-Hermitian, inexact or
irrational ones.  close_on_subspace projects each generator with the
subspace's own project method and closes the result through it; code
synthesis hands it the codeword-written generators directly.  So this
module does not import codes; codes imports it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

from .pauli import (OperatorSum, Scalar, from_integers, integer_reading,
                    integer_terms)
from .parafermion import conserves_number, conserves_parity


@dataclass
class GeneratorSet:
    """List of Hermitian generators with rational coefficients on a common
    mode count; exact closure needs both."""

    n_modes: int
    generators: list

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
            if not g.is_rational:
                raise ValueError("exact closure requires rational "
                                 "coefficients; irrational coefficient "
                                 "encountered")


@dataclass
class LieBasis:
    """Result of a closure run.

    basis holds the elements in discovery order: OperatorSum for a
    full-space closure; for a subspace closure, the exact Hermitian entries
    {(row, col): Scalar} of a d x d matrix on the codeword basis, with
    Gaussian-integer values and zero entries left out.  The elements are
    exported on first read: the result keeps the closure's integer vectors,
    and basis converts them all once, when it is first asked for.  A run
    that reads only the dimensions exports nothing.  Whichever bracket path
    and span phase built it, a full-space element lists its terms in
    ascending (x, z) order, and a subspace element its entries in ascending
    (row, col) order, each a Scalar of integer parts over 1.

    provenance[k] is None for a seed generator and (i, j) when element k
    came from i[basis_i, basis_j].  Element k is that bracket, or the
    generator, reduced against the elements before it (an integer echelon
    row); a closure that ends on the modular echelon reports the raw
    brackets instead, each the primitive integer multiple of i[basis_i,
    basis_j] itself, and its seeds as the primitive generators.  Either way
    element k equals its bracket up to a nonzero factor plus earlier
    elements, so the span after each element, and every other field, is the
    same.  dimension counts all independent elements; the traceless count
    excludes an identity component when one lies in the span.
    """

    n_modes: int
    dimension: int
    dimension_traceless: int
    closed: bool
    rounds: int
    provenance: tuple
    _vectors: tuple = field(repr=False)
    _export: Callable = field(repr=False, compare=False)
    subspace_dim: int | None = None

    @cached_property
    def basis(self) -> tuple:
        return tuple(map(self._export, self._vectors))

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

def _to_vec(op: OperatorSum) -> dict:
    """Primitive integer coordinate vector of a rational Hermitian sum: the
    real parts of its integer reading, normalized."""
    n = op.n_modes
    return _normalize({(x << n) | z: parts[0] for (x, z), parts
                       in integer_terms(op)[1].items() if parts[0]})


def _normalize(vec: dict) -> dict:
    """The primitive multiple of vec whose entry on the smallest key is
    positive; vec itself when it already is."""
    if not vec:
        return vec
    g = math.gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    if g == 1:
        return vec
    return {k: v // g for k, v in vec.items()}


def _from_vec(vec: dict, n_modes: int) -> OperatorSum:
    """The OperatorSum of an integer vector, its terms in ascending (x, z)
    order.  A vector's own key order depends on the bracket path that built
    it; this is the one place that fixes the order an element exports in."""
    mask = (1 << n_modes) - 1
    return from_integers(n_modes, 1, {(k >> n_modes, k & mask): (vec[k], 0)
                                      for k in sorted(vec)})


def _pauli_bracket(n_modes: int) -> Callable:
    """The kernel of i[A, B] for two integer vectors on n modes,
    unnormalized, picked once per closure.

    Key (x << n) | z stands for the Hermitian string i^|x & z| X^x Z^z, and
    i[P_a, P_b] is 0 or +-2 P_(ka ^ kb).  While 4**n <= _WALK_KEYS,
    operands with at least _DENSE_PAIRS * 4**n term pairs go to
    _dense_bracket and the rest to _popcount_bracket; above that,
    _popcount_bracket takes every pair.  The key order of a result depends
    on the path it took.
    """
    n = n_modes
    if 4 ** n > _WALK_KEYS:
        return lambda va, vb: _popcount_bracket(va, vb, n)
    dense_from = _DENSE_PAIRS * 4 ** n

    def bracket(va: dict, vb: dict) -> dict:
        if len(va) * len(vb) >= dense_from:
            return _dense_bracket(va, vb, n)
        return _popcount_bracket(va, vb, n)
    return bracket


def _popcount_bracket(va: dict, vb: dict, n_modes: int) -> dict:
    """i[A, B] by the popcount rule (Aaronson and Gottesman,
    quant-ph/0406196), visiting every term pair; keys are listed in the
    order the pair loop first meets them.  Two strings anticommute when
    |z_a & x_b| + |x_a & z_b| is odd, one bit count of the key with its
    halves swapped against the other key; then i[P_a, P_b] = +-2
    P_(ka ^ kb), the sign read from the Y counts.  This is the one place
    the sign of a Pauli bracket is worked out."""
    n = n_modes
    mask = (1 << n) - 1
    out = {}
    for ka, ca in va.items():
        swapped = (ka & mask) << n | ka >> n
        ya = (ka >> n & ka).bit_count() + 1
        c2 = 2 * ca
        for kb, cb in vb.items():
            if not (swapped & kb).bit_count() & 1:
                continue
            k3 = ka ^ kb
            if (ya + (kb >> n & kb).bit_count() - (k3 >> n & k3).bit_count()
                    + 2 * (ka & kb >> n).bit_count()) & 2:
                c = out.get(k3, 0) - c2 * cb
            else:
                c = out.get(k3, 0) + c2 * cb
            if c:
                out[k3] = c
            else:
                del out[k3]
    return out


def _dense_bracket(va: dict, vb: dict, n_modes: int) -> dict:
    """i[A, B] over lists of all 4**n keys, for operands with many terms.

    It walks the operand with fewer terms.  For each of its terms it visits
    only the strings that anticommute with it, from the two walk rows of
    its key, and reads the other operand's coefficient from a list; walking
    B instead of A gives i[B, A] = -i[A, B], so the sign flips with the
    roles.  The nonzero entries come out in ascending key order.

    The walk rows of key ka are built on first use and kept in _WALKS:
    _popcount_bracket of P_ka against every string, its keys ka ^ kb split
    by sign into one bytes row of the kb with +2 and one of those with -2,
    each ascending.  Keys are below 256, so each fits a byte; a string
    other than the identity anticommutes with exactly half of all strings,
    so a pair holds 4**n / 2 keys.
    """
    size = 4 ** n_modes
    walks = _WALKS.get(n_modes)
    if walks is None:
        walks = _WALKS[n_modes] = [None] * size
    if len(va) <= len(vb):
        walked, other, two = va, vb, 2
    else:
        walked, other, two = vb, va, -2
    coeffs = [0] * size
    for kb, cb in other.items():
        coeffs[kb] = cb
    out = [0] * size
    for ka, ca in walked.items():
        if walks[ka] is None:
            signs = _popcount_bracket({ka: 1}, dict.fromkeys(range(size), 1),
                                      n_modes)
            walks[ka] = tuple(bytes(ka ^ k3 for k3, s in signs.items()
                                    if s == sign) for sign in (2, -2))
        plus, minus = walks[ka]
        c2 = two * ca
        for kb in plus:
            out[ka ^ kb] += c2 * coeffs[kb]
        for kb in minus:
            out[ka ^ kb] -= c2 * coeffs[kb]
    return {k: c for k, c in enumerate(out) if c}


# Walk rows serve mode counts with at most this many keys 4**n, so n <= 4:
# every key fits a byte, and one mode count keeps at most 256 pairs of 128
# bytes.
_WALK_KEYS = 256

# _dense_bracket takes operands with at least this many term pairs per key.
# Timed bracket by bracket on 6673 brackets of 3- and 4-mode closures (dense
# pairs, su(2^N), so(8), u(4)), every threshold from 0.25 to 3 came within
# 0.4% of always taking the faster of it and _popcount_bracket.
_DENSE_PAIRS = 2

_WALKS: dict = {}  # n -> walk-row pairs by key, shared by every closure


# A Hermitian d x d matrix on a codeword basis is an integer vector over the
# matrix units: key j*d + j is E_jj, key j*d + k (j < k) is E_jk + E_kj and
# key k*d + j is i(E_jk - E_kj).

def _matrix_vec(entries: dict, d: int) -> dict:
    """Primitive integer vector of rational Hermitian entries
    {(row, col): number}: each entry's ``integer_reading``, its real part at
    or above the diagonal and minus its imaginary part below it."""
    coords = {r * d + c: integer_reading(s) for (r, c), s in entries.items()}
    lcd = math.lcm(*(den for den, _ in coords.values()))
    return _normalize({k: v * (lcd // den) for k, (den, p) in coords.items()
                       if (v := p[0] if k // d <= k % d else -p[1])})


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


# -- exact span membership -------------------------------------------------

# Residues of the modular echelon live in Z/pZ for this Mersenne prime.  It
# is read at call time: any prime gives the same answers, only more slowly.
_MODULUS = (1 << 61) - 1


def _rational(a: int, p: int):
    """(num, den) with num = den * a (mod p) and |num|, den <= sqrt(p / 2),
    or None when no such fraction exists (Wang's rational reconstruction)."""
    bound = math.isqrt(p // 2)
    r0, r1, s0, s1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


class _Span:
    """Exact span membership over Q for one closure run.

    It starts as the integer echelon of _reduce, whose rows are the
    elements.  Those rows can grow to thousands of bits, so when a row
    first holds an entry of at least p = _MODULUS, the span switches: the
    elements become the raw brackets, the seeds stay the primitive
    generators and element k is recomputed from its provenance (i, j) as
    _normalize(bracket(raw_i, raw_j)).  If the raw elements are independent
    mod p, an echelon mod p of them decides from then on:

    * a vector independent mod p is independent over Q, because the
      elements are independent mod p;
    * a vector dependent mod p is dependent only if its combination of the
      elements, rebuilt by rational reconstruction, passes an exact integer
      identity check.

    When that check fails, or the raw elements are dependent mod p at the
    switch, the span returns to the integer echelon for good: it reduces
    the raw elements found meanwhile onto it, and the elements become the
    echelon rows again.  (A failed check usually means the span's relations
    have large coefficients, as in closures that stop short of su(2^N), so
    later checks would fail too.)  Element k equals bracket(b_i, b_j) up to
    a nonzero factor plus earlier elements in every phase, so each span, and
    with it every answer, is the one the integer echelon alone gives.

    _rest alone decides membership.  It normalizes the vector first, and
    decided holds the frozen items of every normalized vector found in the
    span or inserted into it.  The span only grows, so a vector met again
    is in it, and _rest rejects it without a reduction.  Lead keys are
    unique, so pivots and rows each hold the row of element k as their k-th
    entry.

    A modular row is packed: residue c of key k sits in lane k - lead, each
    lane 2 * bitlen(p) + 64 bits or more, scaled so the lead's lane holds 1.
    _mod_reduce walks a packed vector upward, shifting out each lane once
    read, and clears a pivot's lane with one multiply-add (p - f) * row.
    """

    def __init__(self, bracket):
        self.bracket = bracket
        self.elements: list = []
        self.provenance: list = []
        self.seeds: dict = {}   # index -> primitive seed vector
        self.pivots: dict = {}  # integer echelon: lead key -> row
        self.switched = False
        self.rows = None        # mod p: lead -> (packed row, inv, factors)
        self.decided = set()    # frozenset(vec.items()) of vectors in the span

    def insert(self, vec: dict, src) -> bool:
        """Append vec (src None for a seed, else (i, j)) if independent."""
        vec, rest, factors = self._rest(vec)
        if not rest:
            return False
        self.decided.add(frozenset(vec.items()))
        if src is None:
            self.seeds[len(self.elements)] = vec
        self.provenance.append(src)
        if factors is not None:
            self._mod_add(rest, factors)
            self.elements.append(vec)
            return True
        self.pivots[min(rest)] = rest
        self.elements.append(rest)
        if not self.switched and max(map(abs, rest.values())) >= _MODULUS:
            self._switch()
        return True

    def __contains__(self, vec: dict) -> bool:
        return not self._rest(vec)[1]

    def _rest(self, vec: dict):
        """(vec, rest, factors), vec normalized: rest is empty exactly when
        vec lies in the span.  factors is None when the memo or the integer
        echelon decided, and rest is then vec reduced on that echelon;
        otherwise rest and factors are those of _mod_reduce."""
        vec = _normalize(vec)
        key = frozenset(vec.items())
        if key in self.decided:
            return vec, {}, None
        factors = None
        if self.rows is not None:
            rest, factors = self._mod_reduce(vec)
            if not rest and not self._certified(vec, factors):
                self._unswitch()
                factors = None
        if factors is None:
            rest = _reduce(vec, self.pivots)
        if not rest:
            self.decided.add(key)
        return vec, rest, factors

    def _switch(self):
        self.switched = True
        raw = []
        for k, src in enumerate(self.provenance):
            raw.append(self.seeds[k] if src is None else _normalize(
                self.bracket(raw[src[0]], raw[src[1]])))
        self.elements[:] = raw
        self.rows = {}
        # bytes per lane: a lane starts below p and gains less than p**2
        # from each of fewer than 2**63 rows (sys.maxsize) before it is read
        self.lane_bytes = (2 * _MODULUS.bit_length() + 71) // 8
        for vec in raw:
            rest, factors = self._mod_reduce(vec)
            if not rest:
                self._unswitch()
                return
            self._mod_add(rest, factors)

    def _unswitch(self):
        """Back to the integer echelon for good, its rows as the elements."""
        for element in self.elements[len(self.pivots):]:
            row = _reduce(element, self.pivots)
            self.pivots[min(row)] = row
        self.elements[:] = self.pivots.values()
        self.rows = None

    def _mod_reduce(self, vec: dict):
        """(rest, factors) with vec = rest + sum f * rows[lead] (mod p) over
        (lead, f) in factors, in ascending lead order, by the lane walk."""
        p, width = _MODULUS, 8 * self.lane_bytes
        mask, key, rows = (1 << width) - 1, min(vec), self.rows
        lanes, rest, factors = self._pack(vec, key), {}, []
        while lanes:
            if not lanes & mask:  # jump to the lowest nonzero lane
                skip = ((lanes & -lanes).bit_length() - 1) // width
                lanes >>= skip * width
                key += skip
            f = (lanes & mask) % p
            if f and key in rows:
                lanes += (p - f) * rows[key][0]
                factors.append((key, f))
            elif f:
                rest[key] = f
            lanes >>= width
            key += 1
        return rest, factors

    def _mod_add(self, rest: dict, factors: list):
        """Add the row of the next element b: rest = b - sum f * rows[lead],
        scaled to 1 at its lead."""
        p = _MODULUS
        lead = min(rest)
        inv = pow(rest[lead], -1, p)
        self.rows[lead] = (self._pack({k: c * inv for k, c in rest.items()},
                                      lead), inv, factors)

    def _pack(self, vec: dict, lead: int) -> int:
        """The residues of vec mod p as one int, key k in lane k - lead."""
        size, p = self.lane_bytes, _MODULUS
        parts = [bytes(size)] * (max(vec) - lead + 1)
        for k, c in vec.items():
            parts[k - lead] = (c % p).to_bytes(size, "little")
        return int.from_bytes(b"".join(parts), "little")

    def _combination(self, factors: list) -> dict:
        """{l: c} with sum f * rows[lead] = sum c * elements[l] (mod p).

        The row of element l is inv * (elements[l] - sum f * rows[lead])
        over its own factors, which name only rows made before it, so one
        pass from the newest row back resolves every row."""
        p = _MODULUS
        coeffs = dict(factors)
        comb = {}
        for index, lead in reversed(list(enumerate(self.rows))):
            c = coeffs.pop(lead, 0) % p
            if c:
                _, inv, row_factors = self.rows[lead]
                c = c * inv % p
                comb[index] = c
                for r, f in row_factors:
                    coeffs[r] = coeffs.get(r, 0) - c * f
        return comb

    def _certified(self, vec: dict, factors: list) -> bool:
        """Whether vec is exactly the rational combination of elements that
        its combination mod p reconstructs to."""
        fractions = []
        for l, c in self._combination(factors).items():
            q = _rational(c, _MODULUS)
            if q is None:
                return False
            fractions.append((l, *q))
        den = math.lcm(*(d for _, _, d in fractions))
        acc = {k: den * v for k, v in vec.items()}
        for l, num, d in fractions:
            f = num * (den // d)
            for k, x in self.elements[l].items():
                acc[k] = acc.get(k, 0) - f * x
        return not any(acc.values())


# -- closure engine --------------------------------------------------------

def _closure(n_modes: int, seeds, bracket, identity: dict, full_dim: int,
             max_dim: int | None, export,
             subspace_dim: int | None = None) -> LieBasis:
    """Breadth-first closure of integer seed vectors; the engine of close
    and close_on_subspace, which differ only in bracket and identity vector.
    In both coordinate systems the trace of a vector is proportional to its
    dot product with the identity vector.
    export maps a basis vector to the reported element; the LieBasis calls
    it when its basis is first read.
    """
    if max_dim is not None and max_dim < 1:
        raise ValueError(f"max_dim must be at least 1, got {max_dim}")
    cap = full_dim if max_dim is None else min(max_dim, full_dim)
    span = _Span(bracket)
    vectors = span.elements

    for vec in seeds:
        span.insert(vec, None)

    def traceless(vec):
        return not sum(vec.get(k, 0) * c for k, c in identity.items())

    def saturated():
        if len(vectors) == full_dim:
            return True
        return (len(vectors) == full_dim - 1
                and all(map(traceless, vectors)))

    def run_round(start: int, end: int) -> bool:
        """Bracket the batch [start, end) with every earlier element.  Below
        the cap an independent bracket is appended; at the cap brackets are
        only tested, and False means one left the span."""
        for j in range(start, end):
            for i in range(j):
                out = bracket(vectors[i], vectors[j])
                if not out:
                    continue
                if len(vectors) < cap:
                    if span.insert(out, (i, j)) and saturated():
                        return True
                elif out not in span:
                    return False
        return True

    rounds = 0
    closed = True
    batch_start = 0
    while closed and batch_start < len(vectors) and not saturated():
        rounds += 1
        batch_end = len(vectors)
        closed = run_round(batch_start, batch_end)
        batch_start = batch_end

    has_identity = identity in span
    dim = len(vectors)
    return LieBasis(
        n_modes=n_modes,
        dimension=dim,
        dimension_traceless=dim - 1 if has_identity else dim,
        closed=closed,
        rounds=rounds,
        provenance=tuple(span.provenance),
        _vectors=tuple(vectors),
        _export=export,
        subspace_dim=subspace_dim)


def close(generator_set: GeneratorSet, max_dim: int | None = None) -> LieBasis:
    """Breadth-first exact Lie closure of a Hermitian generator set.

    Seeds with the independent generators, then brackets every earlier
    element with each member of the newest batch, in index order, reducing
    exactly and appending independent results.  Stops when a full round
    adds nothing or when the span saturates the whole operator space.  Full
    saturation includes the traceless case: 4**n - 1 elements none of which
    has an identity component.  Once max_dim elements are in, brackets are
    only tested against their span: the first one outside it stops the run
    with closed=False (not an error), and a capped span that no bracket
    leaves is reported closed.
    """
    n = generator_set.n_modes
    return _closure(
        n, [_to_vec(g) for g in generator_set.generators],
        bracket=_pauli_bracket(n),
        identity={0: 1}, full_dim=4 ** n, max_dim=max_dim,
        export=lambda vec: _from_vec(vec, n))


def close_on_subspace(generator_set: GeneratorSet, subspace,
                      max_dim: int | None = None) -> LieBasis:
    """Exact Lie closure of the generators' actions on a code subspace.

    Each generator must act on the subspace's modes and preserve it
    exactly (subspace.project checks both, symbolically on the codeword
    basis states, and raises ModeMismatchError or SubspaceLeakError).  The
    projected d x d matrices then close through close_matrices.
    """
    return close_matrices(
        generator_set.n_modes, subspace.dim,
        [subspace.project(g) for g in generator_set.generators], max_dim)


def close_matrices(n_modes: int, d: int, matrices,
                   max_dim: int | None = None) -> LieBasis:
    """Exact Lie closure of Hermitian d x d matrices on a code of n_modes
    modes, each given as its entries {(row, col): number}.

    The entries must be exact and rational (ints, Fractions or Scalars
    without sqrt(2) parts), and each entry's mirror across the diagonal its
    conjugate, a missing entry reading as zero; anything else, or an entry
    outside the d x d matrix, raises ValueError.  A matrix of no entries is
    allowed and adds nothing.  The matrices close on the same exact engine
    as close, so every dimension is an exact rank.  The
    identity-on-subspace component is tracked so both dimensions are
    reported.
    """
    if d < 1:
        raise ValueError(f"matrix size must be positive, got {d}")
    matrices = list(matrices)
    if not matrices:
        raise ValueError("empty generator set")
    for entries in matrices:
        _check_matrix(entries, d)
    return _closure(
        n_modes, [_matrix_vec(entries, d) for entries in matrices],
        bracket=lambda va, vb: _matrix_bracket(va, vb, d),
        identity={j * (d + 1): 1 for j in range(d)},
        full_dim=d * d, max_dim=max_dim,
        export=lambda vec: {rc: Scalar(re, im) for rc, (re, im)
                            in sorted(_matrix_entries(vec, d).items())},
        subspace_dim=d)


def _check_matrix(entries: dict, d: int) -> None:
    """Refuse, with ValueError, entries that close_matrices cannot close."""
    readings = {}
    for (r, c), value in entries.items():
        if not (0 <= r < d and 0 <= c < d):
            raise ValueError(f"entry ({r}, {c}) lies outside a {d} x {d} "
                             f"matrix")
        try:
            reading = integer_reading(value)
        except TypeError as exc:
            raise ValueError(f"exact closure requires exact entries; "
                             f"{exc}") from None
        if len(reading[1]) != 2:
            raise ValueError("exact closure requires rational coefficients; "
                             "irrational coefficient encountered")
        readings[r, c] = reading
    for (r, c), (den, (re, im)) in readings.items():
        if readings.get((c, r), (1, (0, 0))) != (den, (re, -im)):
            raise ValueError("generators must be Hermitian")


# -- classification --------------------------------------------------------

# name -> (dimension on N modes, counted without the identity, must conserve
# number, must conserve parity): su and so count traceless elements, u and
# the maximal subalgebras include the identity
_CANDIDATES = {
    "su(2^N)": (lambda n: 4 ** n - 1, True, False, False),
    "u(2^N)": (lambda n: 4 ** n, False, False, False),
    "so(2N+1)": (lambda n: n * (2 * n + 1), True, False, True),
    "so(2N)": (lambda n: n * (2 * n - 1), True, False, True),
    "u(N)": (lambda n: n * n, False, True, False),
    "su(N)": (lambda n: n * n - 1, True, True, False),
    "number-conserving": (lambda n: math.comb(2 * n, n), False, True, False),
    "parity-conserving": (lambda n: 2 ** (2 * n - 1), False, False, True),
}


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


def classify_algebra(basis: LieBasis) -> AlgebraVerdict:
    """Compare a closed basis against the candidate algebras.

    Each candidate's dimension is worked out once, from its rule in
    _CANDIDATES: it is hit when the basis has that dimension, counted
    traceless where the rule says so, and conserves what the rule asks.
    The conservation flags are read off the seed elements alone: they span
    the generators, and brackets of operators that commute with N (or
    with the parity) commute with it too, by the Jacobi identity.
    """
    if not basis.closed:
        raise ValueError("classify_algebra requires a closed basis")
    if basis.subspace_dim is not None:
        raise ValueError("classification applies to full-space closures")
    n = basis.n_modes
    seeds = [basis._export(vec) for vec, origin
             in zip(basis._vectors, basis.provenance) if origin is None]
    number_ok = all(map(conserves_number, seeds))
    parity_ok = all(map(conserves_parity, seeds))
    matches = []
    for name, (dimension, traceless, number, parity) in _CANDIDATES.items():
        want = dimension(n)
        got = basis.dimension_traceless if traceless else basis.dimension
        hit = (got == want and (number_ok or not number)
               and (parity_ok or not parity))
        matches.append(CandidateMatch(name, want, hit))
    return AlgebraVerdict(
        dimension=basis.dimension,
        dimension_traceless=basis.dimension_traceless,
        matches=tuple(matches),
        conserves_number=number_ok,
        conserves_parity=parity_ok,
        universal_full_space=basis.dimension_traceless >= 4 ** n - 1)
