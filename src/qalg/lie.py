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
of bits.  Once one holds an entry of 2**8 or more (of p = 2**61 - 1 or
more above 256 keys), the closure switches its elements to the raw
brackets, whose entries grow only with bracket depth, and decides on an
echelon of them modulo p, whose rows are packed one lane per key into an
int: one multiply-add per row.  The switch is one-way.  Independence mod p
implies independence over Q.  A dependence mod p counts once the
combination, rebuilt by rational reconstruction, passes an exact integer
identity check, or the span's reduced echelon basis, rebuilt the same way
and checked against every element, holds the vector; otherwise p-adic
lifting of the combination decides it either way.  No tolerance and no
probabilistic step ever decides.

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
from fractions import Fraction
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
    row); a closure that switches to the modular echelon ends there and
    reports the raw brackets instead, each the primitive integer multiple
    of i[basis_i, basis_j] itself, and its seeds as the primitive
    generators.  Either way element k equals its bracket up to a nonzero
    factor plus earlier elements, so the span after each element, and every
    other field, is the same.  dimension counts all independent elements;
    the traceless count excludes an identity component when one lies in
    the span.
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

# The modular echelon works modulo the first of these primes, and moves to
# the next only when its raw elements, or a vector independent of them over
# Q, are dependent modulo the current one, which takes a prime that divides
# a nonzero minor of the elements.  2**61 - 1 is a Mersenne prime; the
# others are the largest primes below 2**62, 2**63 and 2**64.  Any prime
# gives the same answers, only more slowly; read at call time.
_MODULI = ((1 << 61) - 1, (1 << 62) - 57, (1 << 63) - 25, (1 << 64) - 59)

# On at most _WALK_KEYS keys, the integer echelon hands over to the modular
# one once a row holds an entry of at least this, or of p when p is
# smaller: integer rows only grow from there, and on 3-mode dense pairs
# switching here instead of at p cut the elements held at the switch from 9
# to 4 and exact-closure task_tail_ms by about a tenth.  On more keys a
# packed row spans every key from its lead to its last, up to 4**n lanes,
# and sparse closures whose rows pass this entry (weighted fermion chains
# on 8-12 modes) would run out of memory, so the switch waits for p.
_SWITCH_AT = 1 << 8


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


def _unpack(packed: int, size: int) -> dict:
    """{k: v} for the nonzero lanes of sum v * 2**(8 * size * k), each v of
    size less than 2**(8 * size - 1), read from the lowest nonzero lane to
    the highest: an offset of half a lane in each makes every lane hold
    v + half, from 0 to its top."""
    if not packed:
        return {}
    width = 8 * size
    low = ((packed & -packed).bit_length() - 1) // width
    lanes = (abs(packed).bit_length() + width) // width - low
    half = 1 << (width - 1)
    raw = ((packed >> (low * width)) + int.from_bytes(
        half.to_bytes(size, "little") * lanes, "little")).to_bytes(
            lanes * size, "little")
    return {low + k: v for k in range(lanes) if (v := int.from_bytes(
        raw[k * size:(k + 1) * size], "little") - half)}


def _pack_signed(vec: dict, size: int) -> int:
    """sum v * 2**(8 * size * k) over the entries v of key k."""
    def pack(entries):
        parts = [bytes(size)] * (max(entries, default=0) + 1)
        for k, v in entries.items():
            parts[k] = v.to_bytes(size, "little")
        return int.from_bytes(b"".join(parts), "little")
    return (pack({k: v for k, v in vec.items() if v > 0})
            - pack({k: -v for k, v in vec.items() if v < 0}))


class _Span:
    """Exact span membership over Q for one closure run.

    It starts as the integer echelon of _reduce, whose rows are the
    elements.  Those rows can grow to thousands of bits, so when a row
    first holds an entry of at least switch_at (see _SWITCH_AT), the span
    switches, for good: the elements become the raw brackets, the seeds
    stay the primitive generators and element k is recomputed from its
    provenance (i, j) as _normalize(bracket(raw_i, raw_j)).  An echelon
    modulo a prime p of the raw elements decides from then on.  A vector
    independent mod p is independent over Q, because the elements are
    independent mod p.  A vector dependent mod p is dependent when
    _dependent proves it, and otherwise joins the elements.

    The elements stay independent mod p: when raw elements are dependent
    mod p at the switch, or a vector independent over Q but dependent mod p
    joins them, the span moves to the next prime of _MODULI and rebuilds
    its echelon.  Element k equals bracket(b_i, b_j) up to a nonzero factor
    plus earlier elements on either echelon, so each span, and with it
    every answer, is the one the integer echelon alone gives.

    _rest alone decides membership.  It normalizes the vector first, and
    decided holds the frozen items of every normalized vector found in the
    span or inserted into it.  The span only grows, so a vector met again
    is in it, and _rest rejects it without a reduction.  Lead keys are
    unique, so pivots and rows each hold the row of element k as their k-th
    entry.

    A modular row is packed: residue c of key k sits in lane k - lead,
    scaled so the lead's lane holds 1.  _mod_reduce walks a packed vector
    upward, shifting out each lane once read, and clears a pivot's lane with
    one multiply-add (p - f) * row.  A lane starts below p and gains less
    than p**2 from each row, and the span holds at most full_dim rows, so
    2 * bitlen(p) + bitlen(full_dim) + 1 bits, rounded up to bytes, never
    overflow before the lane is read.
    """

    def __init__(self, bracket, full_dim: int):
        self.bracket = bracket
        self.full_dim = full_dim
        self.switch_at = (min(_SWITCH_AT, _MODULI[0])
                          if full_dim <= _WALK_KEYS else _MODULI[0])
        self.elements: list = []
        self.provenance: list = []
        self.seeds: dict = {}   # index -> primitive seed vector
        self.pivots: dict = {}  # integer echelon: lead key -> row
        self.rows = None        # mod p: lead -> (packed row, row index)
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
        if self.rows is None:
            self.pivots[min(rest)] = rest
            self.elements.append(rest)
            if max(map(abs, rest.values())) >= self.switch_at:
                self._switch()
            return True
        self.elements.append(vec)
        self.emax = max(self.emax, *map(abs, vec.values()))
        if factors is None:  # independent over Q, dependent mod p
            self._rebuild(self.modulus + 1)
        else:
            self._mod_add(rest, factors)
        return True

    def __contains__(self, vec: dict) -> bool:
        return not self._rest(vec)[1]

    def _rest(self, vec: dict):
        """(vec, rest, factors), vec normalized: rest is empty exactly when
        vec lies in the span.  On the integer echelon, factors is None and
        rest is vec reduced on it; on the modular echelon, a vector that the
        span's reduced basis holds, once built, needs no walk, and otherwise
        rest and factors are those of _mod_reduce, except that a vector
        dependent mod p but independent over Q comes back as rest vec and
        factors None."""
        vec = _normalize(vec)
        key = frozenset(vec.items())
        if key in self.decided:
            return vec, {}, None
        if self.rows is None:
            rest, factors = _reduce(vec, self.pivots), None
        elif self._held(vec):
            rest, factors = {}, None
        else:
            rest, factors = self._mod_reduce(vec)
            if not rest and not self._dependent(vec, factors):
                rest, factors = vec, None
        if not rest:
            self.decided.add(key)
        return vec, rest, factors

    def _switch(self):
        raw = []
        for k, src in enumerate(self.provenance):
            raw.append(self.seeds[k] if src is None else _normalize(
                self.bracket(raw[src[0]], raw[src[1]])))
        self.elements[:] = raw
        self.pivots = None
        self.emax = max((abs(c) for vec in raw for c in vec.values()),
                        default=0)
        self.den = 1            # the last denominator that certified
        self.exact = (0, [])    # (lane bytes, elements packed exactly)
        self.reduced = (-1, None)  # (elements, _reduced's basis or None)
        self._rebuild(0)

    def _rebuild(self, modulus: int):
        """The echelon of the elements modulo _MODULI[modulus], or modulo the
        first prime after it there that keeps them independent."""
        for self.modulus in range(modulus, len(_MODULI)):
            p = self.p = _MODULI[self.modulus]
            self.rows, self.chain = {}, []
            self.lane_bytes = (2 * p.bit_length()
                               + self.full_dim.bit_length() + 8) // 8
            for vec in self.elements:
                rest, factors = self._mod_reduce(vec)
                if not rest:
                    break
                self._mod_add(rest, factors)
            else:
                return
        raise ValueError("the closure's elements are independent but "
                         "dependent modulo every prime of lie._MODULI, so "
                         "no exact modular echelon is left")

    def _mod_reduce(self, vec: dict):
        """(rest, factors) with vec = rest + sum f * rows[lead] (mod p) over
        (lead, f) in factors, in ascending lead order, by the lane walk."""
        p, width = self.p, 8 * self.lane_bytes
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
        p, rows = self.p, self.rows
        lead = min(rest)
        inv = pow(rest[lead], -1, p)
        rows[lead] = (self._pack({k: c * inv for k, c in rest.items()}, lead),
                      len(self.chain))
        self.chain.append((inv, [(rows[r][1], f) for r, f in factors]))

    def _pack(self, vec: dict, lead: int) -> int:
        """The residues of vec mod p as one int, key k in lane k - lead."""
        size, p = self.lane_bytes, self.p
        parts = [bytes(size)] * (max(vec) - lead + 1)
        for k, c in vec.items():
            parts[k - lead] = (c % p).to_bytes(size, "little")
        return int.from_bytes(b"".join(parts), "little")

    def _combination(self, factors: list) -> dict:
        """{l: c} with sum f * rows[lead] = sum c * elements[l] (mod p).

        The row of element l is inv * (elements[l] - sum f * rows[lead])
        over its own factors, which name only rows made before it; chain[l]
        holds inv and those factors by row index, so one pass from the
        newest row back resolves every row."""
        p, rows, chain = self.p, self.rows, self.chain
        coeffs, top = [0] * len(chain), -1
        for lead, f in factors:
            index = rows[lead][1]
            coeffs[index], top = f, max(top, index)
        comb = {}
        for index in range(top, -1, -1):
            c = coeffs[index] % p
            if c:
                inv, row_factors = chain[index]
                c = c * inv % p
                comb[index] = c
                for r, f in row_factors:
                    coeffs[r] -= c * f
        return comb

    def _dependent(self, vec: dict, factors: list) -> bool:
        """Whether vec, dependent mod p by factors, lies in the span over Q.

        Most often its combination mod p, rebuilt by rational
        reconstruction, passes an exact check at once.  Otherwise the
        reduced echelon basis of the span decides, when it has one with
        small entries, and else Dixon's p-adic lifting (Numer. Math. 40,
        1982).  x holds the combination modulo q = p**t after t lifts, and
        r = (vec - sum x_l * elements[l]) / q is an integer vector; each
        lift walks r to its combination mod p, the next p-adic digit of x.
        The elements are independent mod p, so a rational combination has
        no p in its denominators and every r lies in their span mod p: a
        nonzero rest proves vec independent.  The lift ends either way: for
        an independent vec, some integer w orthogonal to the elements has
        w . r = w . vec / q, a nonzero integer, so p**t divides w . vec; for
        a dependent one, _certified succeeds once q is large enough.  It is
        tried after 1, 2, 4, 8, ... lifts, so a dependence that needs t
        lifts takes at most 2t lifts and about log2(t) attempts."""
        p = q = self.p
        digits = self._combination(factors)
        x = dict(digits)
        if self._certified(vec, x, q):
            return True
        reduced = self._reduced()
        if reduced is not None:
            return self._in_reduced(vec, reduced)
        r, lifts = vec, 0
        while True:
            r = self._lift(r, digits)
            if not r:  # vec = sum x_l * elements[l] exactly
                return True
            rest, factors = self._mod_reduce(r)
            if rest:
                return False
            lifts += 1
            digits = self._combination(factors)
            for l, c in digits.items():
                x[l] = x.get(l, 0) + c * q
            q *= p
            if not lifts & (lifts - 1) and self._certified(vec, x, q):
                return True

    def _certified(self, vec: dict, x: dict, q: int) -> bool:
        """Whether vec, equal to sum x_l * elements[l] mod q, is exactly
        L * vec = sum z_l * elements[l] for a denominator L and the residues
        z_l of L * x_l mod q of least size.

        L * vec - sum z_l * elements[l] is 0 mod q, so when L * max|vec| +
        emax * sum |z_l| < q / 2, each of its entries is a multiple of q
        smaller than q, so 0.  L is first the last denominator that
        certified: the combinations in one span share denominators, and
        this bound holds at about half the precision that reconstruction
        needs.  Otherwise L is rebuilt from x by rational reconstruction,
        and the identity is checked exactly when the bound does not yet
        hold."""
        vmax = max(map(abs, vec.values()))

        def bounded(den):
            size = 0
            for c in x.values():
                z = den * c % q
                size += min(z, q - z)
                if 2 * (den * vmax + self.emax * size) >= q:
                    return False
            return True

        if bounded(self.den):
            return True
        den = 1
        for c in x.values():
            frac = _rational(den * c % q, q)
            if frac is None:
                return False
            den *= frac[1]
        if not bounded(den):
            acc = {k: den * v for k, v in vec.items()}
            for l, c in x.items():
                z = (den * c + q // 2) % q - q // 2
                for k, e in self.elements[l].items():
                    acc[k] = acc.get(k, 0) - z * e
            if any(acc.values()):
                return False
        self.den = den
        return True

    def _reduced(self):
        """The reduced echelon basis of the span over Q, {lead: {key: c}}
        with each row's entries off the leads, or None.

        It is the reduced echelon basis mod p, back-substituted from the
        highest lead down and each entry rebuilt by rational
        reconstruction, once every element passes _in_reduced: its rows are
        independent and as many as the elements, so they span the same
        space.  Closures that stop short of full_dim often span Pauli
        strings, whose basis has no entries off the leads, and there the
        last round's brackets, all dependent, are decided without a lift.
        Built once per span; the first entry that reconstruction cannot
        rebuild leaves None."""
        if self.reduced[0] == len(self.elements):
            return self.reduced[1]
        p, size, residues, basis = self.p, self.lane_bytes, {}, {}
        for lead in sorted(self.rows, reverse=True):
            row = {lead + k: c for k, c
                   in _unpack(self.rows[lead][0], size).items() if k}
            for t in [k for k in row if k in residues]:
                f = row.pop(t)
                for k, c in residues[t].items():
                    row[k] = (row.get(k, 0) - f * c) % p
            residues[lead] = {k: c for k, c in row.items() if c}
            basis[lead] = {}
            for k, c in residues[lead].items():
                frac = _rational(c, p)
                if frac is None:
                    basis = None
                    break
                basis[lead][k] = Fraction(*frac)
            if basis is None:
                break
        if basis is not None and not all(
                self._in_reduced(e, basis) for e in self.elements):
            basis = None
        self.reduced = (len(self.elements), basis)
        return basis

    def _held(self, vec: dict) -> bool:
        """Whether the reduced basis of the current span, when it was built
        and exists, holds vec."""
        count, basis = self.reduced
        return (count == len(self.elements) and basis is not None
                and self._in_reduced(vec, basis))

    @staticmethod
    def _in_reduced(vec: dict, basis: dict) -> bool:
        """Whether vec is sum vec[lead] * (lead + basis[lead]) exactly."""
        acc = {k: -v for k, v in vec.items() if k not in basis}
        for lead, v in vec.items():
            for k, c in basis.get(lead, {}).items():
                acc[k] = acc.get(k, 0) + v * c
        return not any(acc.values())

    def _lift(self, r: dict, digits: dict) -> dict:
        """(r - sum c * elements[l]) / p over (l, c) in digits, exactly, on
        the elements packed with signed lanes wide enough for r; the packed
        elements are kept for one lane width, repacked only when a wider one
        is needed."""
        bound = max(map(abs, r.values())) + sum(digits.values()) * self.emax
        size = -(-(bound.bit_length() + 1) // 64) * 8
        if size > self.exact[0]:
            self.exact = (size, [])
        size, packed = self.exact
        for vec in self.elements[len(packed):]:
            packed.append(_pack_signed(vec, size))
        acc = _pack_signed(r, size)
        acc -= sum(c * packed[l] for l, c in digits.items())
        return _unpack(acc // self.p, size)


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
    span = _Span(bracket, full_dim)
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
