"""Exact algebra of multi-mode Pauli operators.

Encoding: a term on N modes is a pair of bit masks ``(x_mask, z_mask)`` plus
a phase ``i**k``.  Bit ``i`` of ``x_mask`` (``z_mask``) records an X (Z)
factor on mode ``i``; a mode with both bits set carries Y.  The reference
operator for a mask pair is

    P(x, z) = i**popcount(x & z) * X**x * Z**z

which is Hermitian, so a term with phase +1 is Hermitian and a sum is
Hermitian exactly when every stored coefficient is real.

Coefficients are exact a + b*sqrt(2) + i*(c + d*sqrt(2)), rational a..d:
the sqrt(2) parts keep conjugation by eighth-turn exponentials (cos and sin
both sqrt(2)/2) exact.  They have one form, the integer reading
``(den, {(x, z): parts})``: the coefficient of P(x, z) is
(re + i*im + sqrt(2)*(re2 + i*im2)) / den for parts (re, im), or
(re, im, re2, im2) on every term when some sqrt(2) part is nonzero.  No
term has all-zero parts, den > 0, and den has no common factor with every
part; ``_canonical`` makes that form, so equality and hashing compare
readings.  An OperatorSum holds the reading of its terms, a Scalar that of
itself times the identity.  Numbers enter it through one function,
``integer_reading``, which reads an int, a Fraction or a Scalar.

One kernel forms products and linear combinations on the readings, for
sums and Scalars alike: ``integer_terms`` returns a sum's reading,
``integer_product`` multiplies two readings (the product rule of the parts
is written only in its two paths, ``_tensor_product`` and
``_phase_product``), ``integer_sum`` adds integer multiples of readings,
and ``from_integers`` makes the sum of a reading.  No reading passed to
the kernel or returned by it holds all-zero parts.  Only this module
builds, pads or width-tests parts; ``lie`` reads them and writes real ones,
(re, 0), others compare parts, sum them or test them with ``any``.

Mode 0 is the least significant bit of basis-state labels in the dense
realization, i.e. ``realize`` maps mode 0 to the last Kronecker factor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, lcm, log2
from operator import mul, neg

from .errors import DenseLimitError, ModeMismatchError

# largest mode count realize builds a dense matrix for
DENSE_LIMIT = 10
_SQRT2 = 2 ** 0.5


def _operand(value):
    """The other operand's integer reading, or NotImplemented when it is no
    number; a float or complex raises TypeError, as the constructor does."""
    if isinstance(value, (Scalar, int, Fraction, float, complex)):
        return integer_reading(value)
    return NotImplemented


class Scalar:
    """Exact complex number a + b*sqrt(2) + i*(c + d*sqrt(2)), rational a..d.

    Held as ``integer_reading`` gives it, (den, parts), and zero as
    (1, (0, 0)); re, im, re2 and im2 read the parts back as Fractions.
    Sums and products are the kernel's, on the identity key.
    """

    __slots__ = ("_reading",)
    re, im, re2, im2 = (property(lambda s, k=k: Fraction(
        (*s._reading[1], 0, 0)[k], s._reading[0])) for k in range(4))

    def __init__(self, re=0, im=0, re2=0, im2=0):
        parts = (re, im, re2, im2)
        den = 1
        if not type(re) is type(im) is type(re2) is type(im2) is int:
            for p in parts:
                if not isinstance(p, (int, Fraction)):
                    raise TypeError("exact rational expected, "
                                    f"got {type(p).__name__}")
            # reduced fractions over the lcm of their denominators share
            # no factor with it: the reading is canonical with no gcd
            den = lcm(*[p.denominator for p in parts])
            parts = tuple([p.numerator * (den // p.denominator)
                           for p in parts])
        self._reading = den, parts if parts[2] or parts[3] else parts[:2]

    @classmethod
    def of(cls, value) -> "Scalar":
        return value if isinstance(value, Scalar) else cls(value)

    def __add__(self, other):
        return _linear(self._reading, _operand(other), 1)

    __radd__ = __add__

    def __sub__(self, other):
        return _linear(self._reading, _operand(other), -1)

    def __rsub__(self, other):
        return _linear(_operand(other), self._reading, -1)

    def __neg__(self):
        den, parts = self._reading
        return _held(den, tuple(map(neg, parts)))

    def __mul__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        (den1, parts1), (den2, parts2) = self._reading, other
        return _scalar(den1 * den2, integer_product(_on_identity(parts1),
                                                    _on_identity(parts2)))

    __rmul__ = __mul__

    def conjugate(self) -> "Scalar":
        den, parts = self._reading
        return _held(den, _conjugate(parts))

    @property
    def is_zero(self) -> bool:
        return not self

    @property
    def is_rational(self) -> bool:
        """True when the sqrt(2) parts vanish."""
        return len(self._reading[1]) == 2

    def __bool__(self):
        return any(self._reading[1])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self._reading == integer_reading(other)
        return NotImplemented

    def __hash__(self):
        # a Scalar equal to a rational must hash as that rational
        return hash(self.re if self._reading[1][1:] == (0,) else self._reading)

    def to_complex(self) -> complex:
        return _complex(*self._reading)

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r}, {self.re2!r}, {self.im2!r})"


ZERO = Scalar(0)
ONE = Scalar(1)
I_UNIT = Scalar(0, 1)
HALF = Scalar(Fraction(1, 2))
# cos(pi/4) = sin(pi/4), exact
RT2_HALF = Scalar(0, 0, Fraction(1, 2), 0)


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
        readings = {k: integer_reading(c) for k, c in (terms or {}).items()}
        if any((x | z) >> n_modes for x, z in readings):
            raise ValueError("mask exceeds the declared mode count")
        den = lcm(*(d for d, _ in readings.values()))
        self._den, self._terms = _canonical(den, integer_sum(*(
            ({key: parts}, den // d) for key, (d, parts) in readings.items()
            if any(parts))))

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
        return [(key, _scalar(self._den, {(0, 0): parts}))
                for key, parts in sorted(self._terms.items())]

    def coefficient(self, x_mask: int, z_mask: int) -> Scalar:
        parts = self._terms.get((x_mask, z_mask))
        return ZERO if parts is None else _scalar(self._den, {(0, 0): parts})

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

    def support_modes(self) -> set:
        mask = 0
        for x, z in self._terms:
            mask |= x | z
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
            key: tuple(map(neg, parts)) for key, parts in self._terms.items()})

    def __mul__(self, other):
        """Product with a scalar, or with another sum on the same modes.

        Both are one ``integer_product``, a scalar's ``integer_reading``
        taken as itself times the identity, over the product of the two
        denominators.  The terms come out in the order the pair loop,
        self's terms outside and other's inside, first meets their keys; a
        scalar keeps self's order.
        """
        if isinstance(other, (int, Fraction, Scalar)):
            den, parts = integer_reading(other)
            other = from_integers(self.n_modes, den, _on_identity(parts))
        elif not isinstance(other, OperatorSum):
            return NotImplemented
        self._check_modes(other)
        return from_integers(self.n_modes, self._den * other._den,
                             integer_product(self._terms, other._terms))

    __rmul__ = __mul__

    def adjoint(self) -> "OperatorSum":
        return from_integers(self.n_modes, self._den, {
            key: _conjugate(parts) for key, parts in self._terms.items()})

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
        out = integer_sum(*(({label ^ x: _times_i(
            parts, (x & z).bit_count() + 2 * (z & label).bit_count())}, 1)
            for (x, z), parts in self._terms.items()))
        return {target: _scalar(self._den, {(0, 0): parts})
                for target, parts in out.items()}

    def __repr__(self):
        from .dsl import print_expr
        head = f"<OperatorSum on {self.n_modes} modes"
        try:
            return f"{head}: {print_expr(self)}>"
        except ValueError:
            return f"{head}, {self.n_terms} terms>"


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


def integer_reading(value) -> tuple:
    """(den, parts): an int, Fraction or Scalar times the identity as a
    canonical one-term reading, and zero as (1, (0, 0)), which the kernel
    takes as no term.  An int or a Fraction is read without building a
    Scalar; a float or a complex number raises TypeError."""
    if isinstance(value, int):
        return 1, (value, 0)
    if isinstance(value, Scalar):
        return value._reading
    if isinstance(value, Fraction):
        return value.denominator, (value.numerator, 0)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


def _on_identity(parts: tuple) -> dict:
    """A number's parts on the identity key, and no term for zero."""
    return {(0, 0): parts} if any(parts) else {}


def _held(den: int, parts: tuple) -> Scalar:
    """The Scalar of a canonical reading, such as a negated or conjugate."""
    s = object.__new__(Scalar)
    s._reading = den, parts
    return s


def _scalar(den: int, terms: dict) -> Scalar:
    """The Scalar of a reading over den on at most the identity key."""
    den, terms = _canonical(den, terms)
    return _held(den, terms.get((0, 0), (0, 0)))


def _linear(left: tuple, right: tuple, sign: int) -> Scalar:
    """left + sign * right of two numbers' readings, or NotImplemented when
    either operand is no number."""
    if left is NotImplemented or right is NotImplemented:
        return NotImplemented
    (d1, p1), (d2, p2) = left, right
    den = lcm(d1, d2)
    return _scalar(den, integer_sum((_on_identity(p1), den // d1),
                                    (_on_identity(p2), sign * (den // d2))))


def _conjugate(parts: tuple) -> tuple:
    """The parts of the complex conjugate: the imaginary ones negated."""
    return tuple(map(mul, parts, (1, -1, 1, -1)))


def _complex(den: int, parts: tuple) -> complex:
    """parts over den as a complex; p / den rounds as float(Fraction)."""
    re, im, re2, im2 = (p / den for p in (*parts, 0, 0)[:4])
    return complex(re + re2 * _SQRT2, im + im2 * _SQRT2)


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


def integer_product(left: dict, right: dict) -> dict:
    """{(x, z): parts} of the product of two ``integer_terms`` readings.

    The product of the sums over den1 * den2.  Keys appear in the order the
    pair loop, left outside and right inside, first meets them, and the
    keys whose contributions cancel are left out once the loop is done.
    The parts are Gaussian pairs when both readings are, else quadruples.

    A product takes one of two paths, chosen by the operands' supports.
    When no mode carries a factor of both (an identity or number reading
    carries none), it is a tensor product (``_tensor_product``): Pauli
    images on different sites commute, the between-site bosonic half of
    parafermion statistics, so every pair lands on a key of its own with
    power i**0.  Otherwise the pairs meet on shared modes and each product
    is turned by the phase rule (``_phase_product``).  Each path has one
    loop per pair of widths, with no zero padding.
    """
    if not left or not right:
        return {}
    used = 0
    for x, z in left:
        used |= x | z
    for x, z in right:
        if (x | z) & used:
            return _phase_product(left, right)
    return _tensor_product(left, right)


def _widths(left: dict, right: dict) -> tuple:
    """Whether left's parts are quadruples, and whether right's are."""
    return (len(next(iter(left.values()))) == 4,
            len(next(iter(right.values()))) == 4)


def _tensor_product(left: dict, right: dict) -> dict:
    """The product of two nonempty readings on disjoint supports.

    With no mode in common, |x3 & z3| = |x1 & z1| + |x2 & z2| and
    z1 & x2 = 0, so every pair has power i**0, and each key (x1 | x2,
    z1 | z2) is met once.  A product of nonzero parts is nonzero, so the
    pairs are written in loop order, with no phase, sum or zero test."""
    root1, root2 = _widths(left, right)
    if not (root1 or root2):
        return {(x1 | x2, z1 | z2): (a1 * a2 - c1 * c2, a1 * c2 + c1 * a2)
                for (x1, z1), (a1, c1) in left.items()
                for (x2, z2), (a2, c2) in right.items()}
    if not root2:
        return {(x1 | x2, z1 | z2): (a1 * a2 - c1 * c2, a1 * c2 + c1 * a2,
                                     b1 * a2 - d1 * c2, b1 * c2 + d1 * a2)
                for (x1, z1), (a1, c1, b1, d1) in left.items()
                for (x2, z2), (a2, c2) in right.items()}
    if not root1:
        return {(x1 | x2, z1 | z2): (a1 * a2 - c1 * c2, a1 * c2 + c1 * a2,
                                     a1 * b2 - c1 * d2, a1 * d2 + c1 * b2)
                for (x1, z1), (a1, c1) in left.items()
                for (x2, z2), (a2, c2, b2, d2) in right.items()}
    return {(x1 | x2, z1 | z2): (a1 * a2 - c1 * c2 + 2 * (b1 * b2 - d1 * d2),
                                 a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
                                 a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
                                 a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)
            for (x1, z1), (a1, c1, b1, d1) in left.items()
            for (x2, z2), (a2, c2, b2, d2) in right.items()}


def _phase_product(left: dict, right: dict) -> dict:
    """The product of two nonempty readings that share a mode.

    Each pair is turned by the phase rule of the symplectic encoding
    (Aaronson and Gottesman, quant-ph/0406196), written for the Hermitian
    reference terms: P(x1, z1) P(x2, z2) = i**e P(x3, z3) with
    x3 = x1 ^ x2, z3 = z1 ^ z2 and

        e = |x1 & z1| + |x2 & z2| - |x3 & z3| + 2 |z1 & x2|  (mod 4).

    The right reading is read once into rows (x2, z2, |x2 & z2|, turns),
    turns holding its parts times i**0 .. i**3, and each pair picks turn e,
    with no call and no branch.  The sums go into one dict.
    """
    root1, root2 = _widths(left, right)
    if root2:
        rows = [(x, z, (x & z).bit_count(),
                 ((a, c, b, d), (-c, a, -d, b), (-a, -c, -b, -d),
                  (c, -a, d, -b)))
                for (x, z), (a, c, b, d) in right.items()]
    else:
        rows = [(x, z, (x & z).bit_count(),
                 ((a, c), (-c, a), (-a, -c), (c, -a)))
                for (x, z), (a, c) in right.items()]
    out = {}
    get = out.get
    if not (root1 or root2):
        for (x1, z1), (a1, c1) in left.items():
            y1 = (x1 & z1).bit_count()
            for x2, z2, y2, turns in rows:
                x3, z3 = x1 ^ x2, z1 ^ z2
                a2, c2 = turns[(y1 + y2 - (x3 & z3).bit_count()
                                + 2 * (z1 & x2).bit_count()) & 3]
                re = a1 * a2 - c1 * c2
                im = a1 * c2 + c1 * a2
                key = (x3, z3)
                old = get(key)
                out[key] = (re, im) if old is None else (old[0] + re,
                                                         old[1] + im)
    elif not root2:
        for (x1, z1), (a1, c1, b1, d1) in left.items():
            y1 = (x1 & z1).bit_count()
            for x2, z2, y2, turns in rows:
                x3, z3 = x1 ^ x2, z1 ^ z2
                a2, c2 = turns[(y1 + y2 - (x3 & z3).bit_count()
                                + 2 * (z1 & x2).bit_count()) & 3]
                re = a1 * a2 - c1 * c2
                im = a1 * c2 + c1 * a2
                re2 = b1 * a2 - d1 * c2
                im2 = b1 * c2 + d1 * a2
                key = (x3, z3)
                old = get(key)
                out[key] = ((re, im, re2, im2) if old is None else
                            (old[0] + re, old[1] + im,
                             old[2] + re2, old[3] + im2))
    elif not root1:
        for (x1, z1), (a1, c1) in left.items():
            y1 = (x1 & z1).bit_count()
            for x2, z2, y2, turns in rows:
                x3, z3 = x1 ^ x2, z1 ^ z2
                a2, c2, b2, d2 = turns[(y1 + y2 - (x3 & z3).bit_count()
                                        + 2 * (z1 & x2).bit_count()) & 3]
                re = a1 * a2 - c1 * c2
                im = a1 * c2 + c1 * a2
                re2 = a1 * b2 - c1 * d2
                im2 = a1 * d2 + c1 * b2
                key = (x3, z3)
                old = get(key)
                out[key] = ((re, im, re2, im2) if old is None else
                            (old[0] + re, old[1] + im,
                             old[2] + re2, old[3] + im2))
    else:
        for (x1, z1), (a1, c1, b1, d1) in left.items():
            y1 = (x1 & z1).bit_count()
            # sqrt(2) times sqrt(2) is 2: double left's sqrt(2) parts once
            b1x2, d1x2 = 2 * b1, 2 * d1
            for x2, z2, y2, turns in rows:
                x3, z3 = x1 ^ x2, z1 ^ z2
                a2, c2, b2, d2 = turns[(y1 + y2 - (x3 & z3).bit_count()
                                        + 2 * (z1 & x2).bit_count()) & 3]
                re = a1 * a2 - c1 * c2 + b1x2 * b2 - d1x2 * d2
                im = a1 * c2 + c1 * a2 + b1x2 * d2 + d1x2 * b2
                re2 = a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2
                im2 = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
                key = (x3, z3)
                old = get(key)
                out[key] = ((re, im, re2, im2) if old is None else
                            (old[0] + re, old[1] + im,
                             old[2] + re2, old[3] + im2))
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
        phase = _complex(op._den, parts) * (1j) ** ((x & z).bit_count())
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
