"""Exact algebra of multi-mode Pauli operators.

Encoding: a term on N modes is a pair of bit masks ``(x_mask, z_mask)`` plus
a phase ``i**k``.  Bit ``i`` of ``x_mask`` (``z_mask``) records an X (Z)
factor on mode ``i``; a mode with both bits set carries Y.  The reference
operator for a mask pair is

    P(x, z) = i**popcount(x & z) * X**x * Z**z

which is Hermitian, so a term with phase +1 is Hermitian and a sum is
Hermitian exactly when every stored coefficient is real.

Coefficients are exact scalars ``a + b*sqrt(2) + i*(c + d*sqrt(2))`` with
rational a, b, c, d.  The sqrt(2) parts are there so that conjugation by
eighth-turn exponentials (cos and sin both sqrt(2)/2) stays inside the
representation; everyday operators carry plain Gaussian-rational
coefficients.

An OperatorSum stores its coefficients as one canonical integer reading
``(den, {(x, z): parts})``: the coefficient of P(x, z) is
(re + i*im + sqrt(2)*(re2 + i*im2)) / den for parts (re, im), or
(re, im, re2, im2) on every term when some sqrt(2) part is nonzero.  No
term has all-zero parts, den > 0, and den has no common factor with every
part; ``_canonical`` makes that form for the constructor and
``from_integers`` alike, so equality and hashing compare readings.  A
Scalar is built only where a coefficient is read (``items``,
``coefficient``, ``apply_basis_state``, printing).

Products and linear combinations are formed on the readings, by one kernel
that ``OperatorSum``, the brackets, the fold in ``parafermion`` and the
eighth-turn exponential in ``verifier`` use.  ``integer_terms`` returns a
sum's reading; ``integer_product`` multiplies two readings term pair by
term pair, as Gaussian integers when neither carries a sqrt(2) part, each
product rotated by the power of i that ``product_phase_exp`` gives;
``integer_scaled`` multiplies a reading by a number; ``integer_sum`` adds
integer multiples of any number of readings into one dict; and
``from_integers`` makes the sum of a reading.  The products and sums
leave out every key whose parts cancel, so no reading the kernel returns
holds all-zero parts, and ``from_integers`` takes them as they are; the
constructor drops the zero coefficients it is given.  Only this module
builds, pads or width-tests complex parts; ``lie`` reads and writes real
ones, (re, 0), and others compare parts, sum them or test them with
``any``.

Mode 0 is the least significant bit of basis-state labels in the dense
realization, i.e. ``realize`` maps mode 0 to the last Kronecker factor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, lcm, log2

from .errors import DenseLimitError, ModeMismatchError

# largest mode count realize builds a dense matrix for
DENSE_LIMIT = 10
_SQRT2 = 2 ** 0.5
# shared default for the unset parts of a Scalar; Fractions are immutable
_Q0 = Fraction(0)


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


def _operand(value):
    """A binary operator's other operand as a Scalar, or NotImplemented when
    it is not a number, so that its own reflected operator can answer.
    Floats and complex numbers raise TypeError, as the constructor does."""
    if isinstance(value, (Scalar, int, Fraction, float, complex)):
        return Scalar.of(value)
    return NotImplemented


class Scalar:
    """Exact complex number a + b*sqrt(2) + i*(c + d*sqrt(2)), rational a..d."""

    __slots__ = ("re", "re2", "im", "im2")

    def __init__(self, re=_Q0, im=_Q0, re2=_Q0, im2=_Q0):
        self.re = _frac(re)
        self.im = _frac(im)
        self.re2 = _frac(re2)
        self.im2 = _frac(im2)

    @classmethod
    def of(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return cls(_frac(value))

    def __add__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        return Scalar(self.re + other.re, self.im + other.im,
                      self.re2 + other.re2, self.im2 + other.im2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        return other - self

    def __neg__(self):
        return Scalar(-self.re, -self.im, -self.re2, -self.im2)

    def __mul__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        a1, b1, c1, d1 = self.re, self.re2, self.im, self.im2
        a2, b2, c2, d2 = other.re, other.re2, other.im, other.im2
        return Scalar(
            a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im, self.re2, -self.im2)

    @property
    def is_zero(self) -> bool:
        return not (self.re or self.im or self.re2 or self.im2)

    @property
    def is_rational(self) -> bool:
        """True when the sqrt(2) parts vanish."""
        return not (self.re2 or self.im2)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Scalar.of(other)
            return (self.re == other.re and self.im == other.im
                    and self.re2 == other.re2 and self.im2 == other.im2)
        return NotImplemented

    def __hash__(self):
        # a Scalar equal to a rational must hash as that rational
        if self.im or self.re2 or self.im2:
            return hash((self.re, self.im, self.re2, self.im2))
        return hash(self.re)

    def to_complex(self) -> complex:
        return complex(float(self.re) + float(self.re2) * _SQRT2,
                       float(self.im) + float(self.im2) * _SQRT2)

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r}, {self.re2!r}, {self.im2!r})"


ZERO = Scalar(0)
ONE = Scalar(1)
I_UNIT = Scalar(0, 1)
HALF = Scalar(Fraction(1, 2))
# cos(pi/4) = sin(pi/4), exact
RT2_HALF = Scalar(0, 0, Fraction(1, 2), 0)


def product_phase_exp(x1: int, z1: int, x2: int, z2: int) -> int:
    """Power of i in P(x1,z1) * P(x2,z2) = i**e * P(x1^x2, z1^z2).

    This is the phase rule of the symplectic encoding (Aaronson and
    Gottesman, quant-ph/0406196), written for the Hermitian reference terms.
    """
    x3 = x1 ^ x2
    z3 = z1 ^ z2
    e = ((x1 & z1).bit_count() + (x2 & z2).bit_count()
         - (x3 & z3).bit_count() + 2 * (z1 & x2).bit_count())
    return e % 4


class OperatorSum:
    """Finite sum of Pauli terms with exact coefficients.

    Built from a map (x_mask, z_mask) -> int, Fraction or Scalar, the
    coefficient of the Hermitian reference term P(x, z); zero coefficients
    are dropped, and a float raises TypeError.  Stored as the canonical
    integer reading of those coefficients that the module docstring
    describes, so two sums are equal exactly when their readings are.  A
    negative n_modes, or a mask with a bit at or above n_modes (or a
    negative one), raises ValueError.
    """

    __slots__ = ("n_modes", "_den", "_terms")

    def __init__(self, n_modes: int, terms=None):
        if n_modes < 0:
            raise ValueError("n_modes must be nonnegative")
        self.n_modes = n_modes
        fracs = {}
        used = 0
        for key, c in (terms or {}).items():
            used |= key[0] | key[1]
            fracs[key] = ((c.re, c.im, c.re2, c.im2) if isinstance(c, Scalar)
                          else (_frac(c), 0, 0, 0))
        if used >> n_modes:
            raise ValueError("mask exceeds the declared mode count")
        den = lcm(*(p.denominator for parts in fracs.values() for p in parts))
        self._den, self._terms = _canonical(den, {
            key: tuple(p.numerator * (den // p.denominator) for p in parts)
            for key, parts in fracs.items() if any(parts)})

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n_modes: int) -> "OperatorSum":
        return cls(n_modes)

    @classmethod
    def identity(cls, n_modes: int) -> "OperatorSum":
        return cls(n_modes, {(0, 0): ONE})

    @classmethod
    def x(cls, mode: int, n_modes: int) -> "OperatorSum":
        return cls(n_modes, {(1 << mode, 0): ONE})

    @classmethod
    def y(cls, mode: int, n_modes: int) -> "OperatorSum":
        return cls(n_modes, {(1 << mode, 1 << mode): ONE})

    @classmethod
    def z(cls, mode: int, n_modes: int) -> "OperatorSum":
        return cls(n_modes, {(0, 1 << mode): ONE})

    # -- inspection -------------------------------------------------------

    def items(self):
        """Terms in canonical (x_mask, z_mask) order."""
        return [(key, _scalar(parts, self._den))
                for key, parts in sorted(self._terms.items())]

    def coefficient(self, x_mask: int, z_mask: int) -> Scalar:
        parts = self._terms.get((x_mask, z_mask))
        return ZERO if parts is None else _scalar(parts, self._den)

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_hermitian(self) -> bool:
        return not any(any(parts[1::2]) for parts in self._terms.values())

    @property
    def is_rational(self) -> bool:
        return all(len(parts) == 2 for parts in self._terms.values())

    def support(self) -> int:
        mask = 0
        for x, z in self._terms:
            mask |= x | z
        return mask

    def support_modes(self) -> set:
        mask = self.support()
        return {i for i in range(self.n_modes) if mask >> i & 1}

    # -- algebra ----------------------------------------------------------

    def _check_modes(self, other):
        if self.n_modes != other.n_modes:
            raise ModeMismatchError(
                f"operands on {self.n_modes} and {other.n_modes} modes")

    def _combine(self, other, sign: int) -> "OperatorSum":
        """self + sign * other over the lcm of the two denominators."""
        self._check_modes(other)
        den = lcm(self._den, other._den)
        return from_integers(self.n_modes, den, integer_sum(
            (self._terms, den // self._den),
            (other._terms, sign * (den // other._den))))

    def __add__(self, other):
        """Sum in integers: self's terms in order, then other's new ones."""
        if not isinstance(other, OperatorSum):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        """Difference in integers, with the terms of self + (-other)."""
        if not isinstance(other, OperatorSum):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return from_integers(self.n_modes, self._den, {
            key: tuple(-p for p in parts)
            for key, parts in self._terms.items()})

    def __mul__(self, other):
        """Product with a scalar, or with another sum on the same modes.

        Both multiply the stored readings in integers: a scalar is read as
        itself times the identity, the term pairs multiply as integers
        (``integer_product``), and the output reading is over the product
        of the two denominators.  The terms come out in the order the pair
        loop, self's terms outside and other's inside, first meets their
        keys; a scalar keeps self's order.
        """
        if isinstance(other, (int, Fraction, Scalar)):
            other = OperatorSum(self.n_modes, {(0, 0): other})
        elif not isinstance(other, OperatorSum):
            return NotImplemented
        self._check_modes(other)
        return from_integers(self.n_modes, self._den * other._den,
                             integer_product(self._terms, other._terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self * other
        return NotImplemented

    def adjoint(self) -> "OperatorSum":
        return from_integers(self.n_modes, self._den, {
            key: tuple(-p if k % 2 else p for k, p in enumerate(parts))
            for key, parts in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, OperatorSum):
            return NotImplemented
        return (self.n_modes == other.n_modes and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.n_modes, self._den,
                     frozenset(self._terms.items())))

    def apply_basis_state(self, label: int) -> dict:
        """Exact action on computational basis state |label>.

        Returns {out_label: Scalar amplitude}.  Uses Z|0> = +|0>,
        Z|1> = -|1> and X as the bit flip, with mode i on bit i.  A label
        outside [0, 2**n_modes) raises ValueError.
        """
        if not 0 <= label < 1 << self.n_modes:
            raise ValueError(
                f"basis state {label} out of range for {self.n_modes} modes")
        out = {}
        for (x, z), parts in self._terms.items():
            amp = _times_i(parts, (x & z).bit_count()
                           + 2 * (z & label).bit_count())
            target = label ^ x
            acc = out.get(target)
            if acc is not None:
                amp = tuple(a + b for a, b in zip(acc, amp))
            if any(amp):
                out[target] = amp
            elif acc is not None:
                del out[target]
        return {target: _scalar(parts, self._den)
                for target, parts in out.items()}

    def __repr__(self):
        if self.is_zero:
            return f"OperatorSum({self.n_modes}, 0)"
        bits = []
        for (x, z), c in self.items():
            ops = []
            for i in range(self.n_modes):
                xb, zb = x >> i & 1, z >> i & 1
                if xb and zb:
                    ops.append(f"Y{i}")
                elif xb:
                    ops.append(f"X{i}")
                elif zb:
                    ops.append(f"Z{i}")
            label = ".".join(ops) if ops else "I"
            bits.append(f"({c.to_complex():.3g})*{label}")
        return " + ".join(bits)


# -- the integer kernel ---------------------------------------------------

def _canonical(den: int, terms: dict) -> tuple:
    """(den, terms) over den > 0 in canonical form, for terms with no
    all-zero parts: the terms in order, pairs when no sqrt(2) part is left,
    and no common factor of den and every part."""
    if all(len(parts) == 4 and not (parts[2] or parts[3])
           for parts in terms.values()):
        terms = {key: parts[:2] for key, parts in terms.items()}
    g = den
    for parts in terms.values():
        g = gcd(g, *parts)
        if g == 1:
            break
    if g != 1:
        den //= g
        terms = {key: tuple(p // g for p in parts)
                 for key, parts in terms.items()}
    return den, terms


def _scalar(parts: tuple, den: int) -> Scalar:
    """The Scalar of one reading's parts over den."""
    return Scalar(*(Fraction(p, den) for p in parts))


def _times_i(parts: tuple, power: int) -> tuple:
    """parts times i**power: each (real, imaginary) pair turns alike."""
    for _ in range(power % 4):
        parts = tuple(p for re, im in zip(parts[::2], parts[1::2])
                      for p in (-im, re))
    return parts


def integer_terms(op: OperatorSum) -> tuple:
    """(den, {(x, z): parts}): op's canonical reading, as the module
    docstring lays it out.  It is op's own, not a copy: callers read it and
    never change it."""
    return op._den, op._terms


def integer_scaled(terms: dict, value) -> tuple:
    """(den, terms times value) for an int, Fraction or Scalar value, over
    den times the denominator of terms: their product with value times the
    identity, so a nonzero value keeps the keys and their order, and 0
    gives no terms."""
    den, scalar = integer_terms(OperatorSum(0, {(0, 0): value}))
    return den, integer_product(terms, scalar)


def integer_product(left: dict, right: dict) -> dict:
    """{(x, z): parts} of the product of two ``integer_terms`` readings.

    The product of the sums over den1 * den2.  Keys appear in the order the
    pair loop, left outside and right inside, first meets them, and the
    keys whose contributions cancel are left out once the loop is done.
    Each term product is rotated by the power of i that
    ``product_phase_exp`` gives.  The parts are Gaussian pairs when both
    readings are, else quadruples.
    """
    if not left or not right:
        return {}
    out = {}
    get = out.get
    if len(next(iter(left.values()))) == len(next(iter(right.values()))) == 2:
        rows = [(x, z, re, im) for (x, z), (re, im) in right.items()]
        for (x1, z1), (a1, c1) in left.items():
            for x2, z2, a2, c2 in rows:
                re = a1 * a2 - c1 * c2
                im = a1 * c2 + c1 * a2
                e = product_phase_exp(x1, z1, x2, z2)
                if e & 2:
                    re, im = -re, -im
                if e & 1:
                    re, im = -im, re
                key = (x1 ^ x2, z1 ^ z2)
                old = get(key)
                out[key] = (re, im) if old is None else (old[0] + re,
                                                         old[1] + im)
        return {key: parts for key, parts in out.items() if any(parts)}
    # a Gaussian operand meets a sqrt(2) one: pad its parts with zeros
    rows = [(x, z, *parts, *(0,) * (4 - len(parts)))
            for (x, z), parts in right.items()]
    for (x1, z1), parts in left.items():
        a1, c1, b1, d1 = *parts, *(0,) * (4 - len(parts))
        for x2, z2, a2, c2, b2, d2 in rows:
            re = a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2
            im = a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2)
            re2 = a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2
            im2 = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
            e = product_phase_exp(x1, z1, x2, z2)
            if e & 2:
                re, im, re2, im2 = -re, -im, -re2, -im2
            if e & 1:
                re, im, re2, im2 = -im, re, -im2, re2
            key = (x1 ^ x2, z1 ^ z2)
            old = get(key)
            out[key] = ((re, im, re2, im2) if old is None else
                        (old[0] + re, old[1] + im, old[2] + re2, old[3] + im2))
    return {key: parts for key, parts in out.items() if any(parts)}


def integer_sum(*pairs) -> dict:
    """{(x, z): parts} of m1 * terms1 + m2 * terms2 + ... for (terms, m)
    pairs of integer readings over one denominator and integer multipliers.

    Every term is added in turn into one dict, as adding the sums one by
    one would add it: a zero contribution is never inserted, a key whose
    total comes to zero is deleted, and a key that comes back goes last.
    The parts are pairs when every reading's are, else quadruples.
    """
    out = {}
    get = out.get
    if all(len(next(iter(terms.values()), ())) != 4 for terms, _ in pairs):
        for terms, m in pairs:
            for key, (a, c) in terms.items():
                a, c = m * a, m * c
                old = get(key)
                if old is not None:
                    a, c = old[0] + a, old[1] + c
                if a or c:
                    out[key] = (a, c)
                elif old is not None:
                    del out[key]
        return out
    # a Gaussian reading meets a sqrt(2) one: pad its parts with zeros
    for terms, m in pairs:
        for key, parts in terms.items():
            a, c, b, d = parts if len(parts) == 4 else (*parts, 0, 0)
            a, c, b, d = m * a, m * c, m * b, m * d
            old = get(key)
            if old is not None:
                a, c, b, d = old[0] + a, old[1] + c, old[2] + b, old[3] + d
            if a or c or b or d:
                out[key] = (a, c, b, d)
            elif old is not None:
                del out[key]
    return out


def from_integers(n_modes: int, den: int, terms: dict) -> OperatorSum:
    """The OperatorSum of the reading {(x, z): parts} over den, with parts
    as ``integer_terms`` gives them and none all zero, as the kernel's
    products and sums leave them.  The reading is put in canonical form
    (``_canonical``), its terms in their order.  No Scalar is built."""
    op = object.__new__(OperatorSum)
    op.n_modes = n_modes
    op._den, op._terms = _canonical(den, terms)
    return op


def _bracket(a: OperatorSum, b: OperatorSum, sign: int) -> OperatorSum:
    """a*b + sign * b*a: both products over one denominator, combined in
    integers and built once.  The terms are those of the two products
    formed and then added: a*b's nonzero terms in order, then b*a's new
    ones; a key that cancels in a*b and comes back from b*a goes last."""
    a._check_modes(b)
    left, right = a._terms, b._terms
    return from_integers(a.n_modes, a._den * b._den, integer_sum(
        (integer_product(left, right), 1), (integer_product(right, left), sign)))


def commutator(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    return _bracket(a, b, -1)


def anticommutator(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    return _bracket(a, b, 1)


# -- dense realization ----------------------------------------------------
# The dense oracle's entry points stay here, but numpy loads only when they
# are called: the exact algebra above never needs it.

# Numerator coefficients b_0..b_13 of the degree-13 Pade approximant to exp,
# and the 1-norm up to which it meets double precision without scaling
# (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, Table 2.3).
_PADE13 = (64764752532480000, 32382376266240000, 7771770303897600,
           1187353796428800, 129060195264000, 10559470521600, 670442572800,
           33522128640, 1323241920, 40840800, 960960, 16380, 182, 1)
_THETA13 = 5.371920351148152


@lru_cache(maxsize=None)
def _parity_signs(n_modes: int) -> "np.ndarray":
    """(-1)**popcount(v) for v in [0, 2**n)."""
    import numpy as np

    v = np.arange(1 << n_modes, dtype=np.uint32)
    pop = np.zeros(1 << n_modes, dtype=np.int64)
    for i in range(n_modes):
        pop += (v >> i) & 1
    return np.where(pop & 1, -1.0, 1.0)


def realize(op: OperatorSum) -> "np.ndarray":
    """Dense complex matrix of an OperatorSum.

    Basis-state labels carry mode i on bit i (mode 0 least significant).
    A sum on more than DENSE_LIMIT modes raises DenseLimitError, since the
    matrix takes 16**n_modes bytes.
    """
    import numpy as np

    if op.n_modes > DENSE_LIMIT:
        raise DenseLimitError(
            f"{op.n_modes} modes exceeds the dense limit of {DENSE_LIMIT}")
    dim = 1 << op.n_modes
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    signs = _parity_signs(op.n_modes)
    for (x, z), parts in op._terms.items():
        # as Scalar.to_complex: p / den is correctly rounded, as float(Fraction)
        re, im, re2, im2 = (p / op._den for p in (*parts, 0, 0)[:4])
        phase = (complex(re + re2 * _SQRT2, im + im2 * _SQRT2)
                 * (1j) ** ((x & z).bit_count()))
        out[cols ^ x, cols] += phase * signs[cols & z]
    return out


def matrix_exponential(matrix: "np.ndarray",
                       scale: complex = 1.0) -> "np.ndarray":
    """exp(scale * matrix) by scaling and squaring (deterministic).

    One path for every square matrix, normal or not: scale by 2**-s until
    the 1-norm is at most theta_13, take the degree-13 Pade approximant
    and square s times (Higham 2005).  Raises ValueError for a matrix that
    is not square, or when scale * matrix has an entry that is not finite.
    """
    import numpy as np

    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("square matrix required")
    with np.errstate(invalid="ignore", over="ignore"):
        a = scale * m
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    norm = np.abs(a).sum(axis=0).max(initial=0.0)
    s = max(0, ceil(log2(norm / _THETA13))) if norm else 0
    a = a / 2 ** s
    b = _PADE13
    ident = np.eye(len(a), dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r
