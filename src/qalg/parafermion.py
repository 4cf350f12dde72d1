"""Second-quantized expressions and the parafermion-to-Pauli dictionary.

A parafermion here is a hard-core mode: creation and annihilation operators
anticommute on site ({a, a'} = 1, a^2 = 0) but commute across sites.  The
on-site qubit dictionary is

    raising  -> a',   lowering -> a,   2n - 1 -> Z

with raising/lowering built from (X +- iY)/2, so the occupied state of a
mode is the Z = +1 eigenstate.  ``fold_terms`` multiplies a sum of factor
products out through a table of such images; it is the one place where
``to_pauli``, the string transform in ``jw`` and the qubit expressions of
``dsl`` turn factors into Pauli sums.  It works in integers, on the
kernel of ``pauli``: each image's integer reading is kept once per
process, a term's coefficient is read by ``integer_reading``, the factors
of a term multiply through ``integer_product``, and one ``integer_sum``
adds every term over one denominator.

Number and parity conservation of an operator, that is exact commutation
with the total number operator and with the product of on-site (1 - 2n)
factors, are read off the Pauli masks of its terms without forming either
commutator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, neg, sub

from .errors import ModeMismatchError, SpeciesError
from .pauli import (
    HALF,
    I_UNIT,
    ONE,
    OperatorSum,
    Scalar,
    commutator,
    from_integers,
    integer_product,
    integer_reading,
    integer_sum,
    integer_terms,
)

SPECIES = ("parafermion", "fermion", "boson")

CREATE = "+"
ANNIHILATE = "-"
NUMBER = "n"
_KINDS = (CREATE, ANNIHILATE, NUMBER)


class SecondQuantizedExpr:
    """Sum of scalar-weighted products of mode operators of one species.

    terms is a tuple of (Scalar, factors) pairs where factors is a tuple of
    (kind, mode) with kind one of "+", "-", "n".  Factor order is preserved;
    nothing is normal-ordered behind the caller's back.

    The constructor checks every factor and reads every coefficient, and
    drops zero terms.  Sums, products and adjoints of expressions are built
    from terms already checked, so they skip that (``_held``).
    """

    __slots__ = ("n_modes", "species", "terms")

    def __init__(self, n_modes: int, species: str, terms=()):
        if species not in SPECIES:
            raise SpeciesError(f"unknown species {species!r}")
        if n_modes < 1:
            raise ValueError("n_modes must be positive")
        clean = []
        for coeff, factors in terms:
            coeff = Scalar.of(coeff)
            factors = tuple(factors)
            for kind, mode in factors:
                if kind not in _KINDS:
                    raise ValueError(f"unknown factor kind {kind!r}")
                if not 0 <= mode < n_modes:
                    raise ValueError(f"mode {mode} out of range for {n_modes} modes")
            if coeff:
                clean.append((coeff, factors))
        self.n_modes = n_modes
        self.species = species
        self.terms = tuple(clean)

    # -- constructors -----------------------------------------------------

    @classmethod
    def create(cls, mode: int, n_modes: int, species: str = "parafermion"):
        return cls(n_modes, species, [(ONE, ((CREATE, mode),))])

    @classmethod
    def annihilate(cls, mode: int, n_modes: int, species: str = "parafermion"):
        return cls(n_modes, species, [(ONE, ((ANNIHILATE, mode),))])

    @classmethod
    def number(cls, mode: int, n_modes: int, species: str = "parafermion"):
        return cls(n_modes, species, [(ONE, ((NUMBER, mode),))])

    @classmethod
    def constant(cls, value, n_modes: int, species: str = "parafermion"):
        return cls(n_modes, species, [(Scalar.of(value), ())])

    # -- algebra ----------------------------------------------------------

    def _check(self, other):
        if self.n_modes != other.n_modes:
            raise ModeMismatchError(
                f"operands on {self.n_modes} and {other.n_modes} modes")
        if self.species != other.species:
            raise SpeciesError(
                f"cannot mix species {self.species!r} and {other.species!r}")

    def __add__(self, other):
        if not isinstance(other, SecondQuantizedExpr):
            return NotImplemented
        self._check(other)
        return _held(self, self.terms + other.terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _held(self, tuple([(-c, f) for c, f in self.terms]))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            # products of nonzero numbers are nonzero: only a zero factor
            # leaves zero terms, and it leaves nothing
            return _held(self, tuple([(c * other, f) for c, f in self.terms])
                         if other else ())
        if not isinstance(other, SecondQuantizedExpr):
            return NotImplemented
        self._check(other)
        return _held(self, tuple([(c1 * c2, f1 + f2)
                                  for c1, f1 in self.terms
                                  for c2, f2 in other.terms]))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self * other
        return NotImplemented

    def adjoint(self) -> "SecondQuantizedExpr":
        flip = {CREATE: ANNIHILATE, ANNIHILATE: CREATE, NUMBER: NUMBER}
        return _held(self, tuple([
            (coeff.conjugate(),
             tuple([(flip[k], m) for k, m in reversed(factors)]))
            for coeff, factors in self.terms]))

    def __eq__(self, other):
        if not isinstance(other, SecondQuantizedExpr):
            return NotImplemented
        return (self.n_modes == other.n_modes
                and self.species == other.species
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n_modes, self.species, self.terms))

    def __repr__(self):
        from .dsl import print_expr
        try:
            return f"<{self.species} expr: {print_expr(self)}>"
        except ValueError:
            return f"<{self.species} expr, {len(self.terms)} terms>"


def _held(like: SecondQuantizedExpr, terms: tuple) -> SecondQuantizedExpr:
    """The expression on like's modes and species with terms as given:
    nonzero Scalar coefficients and factors that like's checks admit."""
    expr = object.__new__(SecondQuantizedExpr)
    expr.n_modes, expr.species, expr.terms = like.n_modes, like.species, terms
    return expr


# -- single-site Pauli images ---------------------------------------------

_HALF_I = HALF * I_UNIT  # the Y coefficient of the raising image

def raising_op(mode: int, n_modes: int) -> OperatorSum:
    """(X + iY)/2 on one mode; the image of a creation operator."""
    bit = 1 << mode
    return OperatorSum(n_modes, {(bit, 0): HALF, (bit, bit): _HALF_I})

def lowering_op(mode: int, n_modes: int) -> OperatorSum:
    bit = 1 << mode
    return OperatorSum(n_modes, {(bit, 0): HALF, (bit, bit): -_HALF_I})

def number_site(mode: int, n_modes: int) -> OperatorSum:
    """(1 + Z)/2 on one mode: the occupied state is the Z = +1 eigenstate."""
    return OperatorSum(n_modes, {(0, 0): HALF, (0, 1 << mode): HALF})

def number_operator(n_modes: int) -> OperatorSum:
    """Total number operator, sum of on-site (1 + Z)/2."""
    total = OperatorSum.zero(n_modes)
    for i in range(n_modes):
        total = total + number_site(i, n_modes)
    return total

def parity_operator(n_modes: int) -> OperatorSum:
    """(-1)**number: the product of on-site (1 - 2n) = -Z factors."""
    full = (1 << n_modes) - 1
    sign = ONE if n_modes % 2 == 0 else -ONE
    return OperatorSum(n_modes, {(0, full): sign})


@lru_cache(maxsize=None)
def _integer_image(image, mode: int, n_modes: int):
    """image(mode, n_modes) as ``integer_terms`` reads it, (den, terms) in
    the image's term order.  The table lives for the process and holds one
    entry per (image, mode, n_modes) a fold has used."""
    return integer_terms(image(mode, n_modes))


def _fold_term(coeff, factors, n_modes: int, images):
    """(den, terms): coeff times the product of the factor images, as an
    integer reading over den, formed left to right from coeff times the
    identity: coeff's ``integer_reading`` on the identity key, and no term
    for a zero coefficient, with no OperatorSum built."""
    den, parts = integer_reading(coeff)
    acc = {(0, 0): parts} if any(parts) else {}
    for kind, mode in factors:
        for image in images[kind]:
            image_den, image_terms = _integer_image(image, mode, n_modes)
            den *= image_den
            acc = integer_product(acc, image_terms)
    return den, acc


def fold_terms(terms, n_modes: int, images) -> OperatorSum:
    """Sum of coeff * image(f1) * image(f2) * ... over (coeff, factors) terms.

    Each coeff is a number.  Each factor is a (kind, mode) pair, and
    images[kind] is the tuple of single-site images, each called as
    image(mode, n_modes), whose product left to right is the factor's
    OperatorSum.  The value and the term order are those of the plain
    fold: coeff times the identity, multiplied by one image at a time as
    OperatorSums, the terms then added in turn.

    The work is done on the integer kernel of ``pauli``, in time linear in
    the number of terms.  Each image is read once per process by
    ``integer_terms`` (``_integer_image``).  A term starts as its
    coefficient's ``integer_reading`` on the identity key (``_fold_term``),
    so no OperatorSum is built per term.  It multiplies through its images by
    ``integer_product``, which drops the entries that cancel.  One
    ``integer_sum`` then adds every term into one dict over the lcm of all
    their denominators, and ``from_integers`` makes the sum.
    """
    readings = [_fold_term(coeff, factors, n_modes, images)
                for coeff, factors in terms]
    den = lcm(*(d for d, _ in readings))
    return from_integers(n_modes, den, integer_sum(
        *((acc, den // d) for d, acc in readings)))


_SITE_IMAGES = {CREATE: (raising_op,), ANNIHILATE: (lowering_op,),
                NUMBER: (number_site,)}


def to_pauli(expr: SecondQuantizedExpr) -> OperatorSum:
    """Exact Pauli image of a parafermion expression."""
    if expr.species != "parafermion":
        raise SpeciesError(
            f"to_pauli maps parafermion expressions, got {expr.species!r}")
    return fold_terms(expr.terms, expr.n_modes, _SITE_IMAGES)


# -- transfer-operator catalogue ------------------------------------------

@dataclass(frozen=True)
class GeneratorIndex:
    """Index (alpha, beta) of a normal-ordered transfer monomial.

    alpha and beta are occupation bit masks: the monomial creates on the
    modes of alpha (descending mode order) and annihilates on the modes of
    beta (descending mode order).  Repeated modes therefore appear as
    creation-before-annihilation, i.e. as number operators.
    """

    n_modes: int
    alpha: int
    beta: int

    def __post_init__(self):
        full = (1 << self.n_modes) - 1
        if self.alpha & ~full or self.beta & ~full:
            raise ValueError("index mask exceeds the mode count")

    @property
    def n_created(self) -> int:
        return self.alpha.bit_count()

    @property
    def n_annihilated(self) -> int:
        return self.beta.bit_count()

    @property
    def conserves_number(self) -> bool:
        return self.n_created == self.n_annihilated

    @property
    def conserves_parity(self) -> bool:
        return (self.n_created - self.n_annihilated) % 2 == 0

    def monomial(self) -> SecondQuantizedExpr:
        factors = []
        for mode in range(self.n_modes - 1, -1, -1):
            if self.alpha >> mode & 1:
                factors.append((CREATE, mode))
        for mode in range(self.n_modes - 1, -1, -1):
            if self.beta >> mode & 1:
                factors.append((ANNIHILATE, mode))
        return SecondQuantizedExpr(self.n_modes, "parafermion",
                                   [(ONE, tuple(factors))])


DEFAULT_ENUM_LIMIT = 8


def enumerate_generators(n_modes: int, filter: str | None = None,
                         limit: int | None = None):
    """All 4**n_modes transfer monomial indices in (alpha, beta) order.

    filter "number" keeps the number-conserving ones (equal masses of
    creations and annihilations), "parity" the parity-conserving ones
    (mass difference even).  More than limit modes (default
    DEFAULT_ENUM_LIMIT) are refused.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be positive")
    cap = DEFAULT_ENUM_LIMIT if limit is None else limit
    if n_modes > cap:
        raise ValueError(
            f"{n_modes} modes exceeds the enumeration limit of {cap}")
    if filter not in (None, "number", "parity"):
        raise ValueError(f"unknown filter {filter!r}")
    out = []
    for alpha in range(1 << n_modes):
        for beta in range(1 << n_modes):
            idx = GeneratorIndex(n_modes, alpha, beta)
            if filter == "number" and not idx.conserves_number:
                continue
            if filter == "parity" and not idx.conserves_parity:
                continue
            out.append(idx)
    return out


# -- classification --------------------------------------------------------

@dataclass(frozen=True)
class SubalgebraVerdict:
    conserves_number: bool
    conserves_parity: bool
    support: frozenset


def conserves_parity(op: OperatorSum) -> bool:
    """Exactly [op, parity] = 0.

    The parity operator is the single string +-Z...Z, which commutes with
    P(x, z) exactly when popcount(x) is even: op conserves parity when every
    term flips an even number of modes.
    """
    return all(x.bit_count() % 2 == 0 for x, _ in integer_terms(op)[1])


def conserves_number(op: OperatorSum) -> bool:
    """Exactly [op, N] = 0, with integer additions only.

    2[op, N] = -sum_i [Z_i, op], and [Z_i, P(x, z)] is 0 when bit i of x is
    clear, else 2i * (+1 if bit i of z is clear, else -1) * P(x, z ^ 2**i).
    op conserves number when the signed coefficients landing on each target
    string sum to zero.  The coefficients are read by ``integer_terms`` as
    numerators over one denominator, so the sums are sums of integers.

    The targets are visited from the terms, each once: a target (x, t)
    takes the term (x, t ^ 2**i) for each bit i of x, with sign +1 when bit
    i of t is set.  Its parts are summed as tuples, and the first target
    whose sum is not zero answers False.
    """
    terms = integer_terms(op)[1]
    get = terms.get
    seen = set()
    for x, z in terms:
        rest = x
        while rest:
            bit = rest & -rest
            rest ^= bit
            t = z ^ bit
            if (x, t) in seen:
                continue
            seen.add((x, t))
            total = None
            bits = x
            while bits:
                b = bits & -bits
                bits ^= b
                parts = get((x, t ^ b))
                if parts is None:
                    continue
                if total is None:
                    total = parts if t & b else tuple(map(neg, parts))
                else:
                    total = tuple(map(add if t & b else sub, total, parts))
            if any(total):
                return False
    return True


def classify(op: OperatorSum) -> SubalgebraVerdict:
    """Exact conservation properties of a Hermitian operator.

    Both rules read the Pauli masks of op's terms; neither forms an
    operator product.  Parity: every string P(x, z) has an even number of
    X/Y factors, popcount(x) even.  Number: sum_i [Z_i, op] = 0, where
    [Z_i, P(x, z)] is 0 when bit i of x is clear and otherwise
    2i * (+1 if bit i of z is clear, else -1) * P(x, z ^ 2**i); the signed
    coefficients landing on each string, read as integer numerators over
    one denominator, must sum to zero.
    """
    if not op.is_hermitian:
        raise ValueError("classify expects a Hermitian operator")
    return SubalgebraVerdict(conserves_number(op), conserves_parity(op),
                             frozenset(op.support_modes()))


# -- two-mode angular-momentum pairs ---------------------------------------

def bilinear_su2(pair, n_modes: int, family: str = "hopping"):
    """Angular-momentum triple built from a pair of modes.

    family "hopping" is number conserving: X-like is the symmetric hop,
    Z-like the population difference n_i - n_j.  family "pairing" is
    parity conserving: X-like creates/destroys the pair, Z-like is
    n_i + n_j - 1.  In both cases Y-like = i[X-like, Z-like], and the
    (X, Y/2, Z) rescaling satisfies the standard Pauli relations.
    """
    i, j = pair
    if i == j or not (0 <= i < n_modes and 0 <= j < n_modes):
        raise ValueError(f"invalid mode pair {pair!r} on {n_modes} modes")
    ai = SecondQuantizedExpr.annihilate(i, n_modes)
    aj = SecondQuantizedExpr.annihilate(j, n_modes)
    adi = SecondQuantizedExpr.create(i, n_modes)
    adj = SecondQuantizedExpr.create(j, n_modes)
    ni = SecondQuantizedExpr.number(i, n_modes)
    nj = SecondQuantizedExpr.number(j, n_modes)
    one = SecondQuantizedExpr.constant(1, n_modes)
    if family == "hopping":
        x_like = to_pauli(adj * ai + adi * aj)
        z_like = to_pauli(ni - nj)
    elif family == "pairing":
        x_like = to_pauli(ai * aj + adj * adi)
        z_like = to_pauli(ni + nj - one)
    else:
        raise ValueError(f"unknown family {family!r}")
    y_like = commutator(x_like, z_like) * I_UNIT
    return x_like, y_like, z_like
