"""Rings with lambda-operations, and checkers for the defining identities.

Five ring instances share one element protocol (operators ``+ - *``,
integer scalars, ``lambda_k``, ``lambda_t``, ``augmentation``):

* ``IntegerRing`` -- the integers, lambda^k = binomial coefficient;
* ``GWFieldRing`` -- formal differences of diagonal forms over a model
  field, held as square-class multisets, equality by complete invariants;
* ``KTorusRing`` -- the group ring of Z^r, spanned by line elements e^g;
* ``KExtTorusRing`` -- character-level extension by an order-2 involution:
  basis 1, d (the sign character), and rank-2 symbols [e^g];
* ``GWExtTorusRing`` -- the same basis with square-class-tuple
  coefficients over a model field; multiplication and lambda^2 on the
  rank-2 symbols follow structure constants that can be overridden (so a
  deliberately corrupted table is observable through the identity checks).

lambda_t is a homomorphism from addition to the multiplicative group of
power series with constant term 1; negative summands are handled by
truncated series inversion.  The checkers compare lambda^k of products and
compositions against the universal polynomial tables from ``symfun``.
"""

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, FormatError
from .fields import field_model
from .forms import GWClass
from . import symfun


# ---------------------------------------------------------------------------
# truncated series helpers (coefficients are ring elements)


def _series_mul(a, b, zero, d):
    out = [zero] * (d + 1)
    for i, ai in enumerate(a[: d + 1]):
        for j, bj in enumerate(b[: d + 1 - i]):
            out[i + j] = out[i + j] + ai * bj
    return out


def _series_inv(a, one, zero, d):
    """Inverse of a series with constant term 1, truncated at degree d."""
    out = [zero] * (d + 1)
    out[0] = one
    for k in range(1, d + 1):
        acc = zero
        for i in range(1, k + 1):
            ai = a[i] if i < len(a) else zero
            acc = acc + ai * out[k - i]
        out[k] = -acc
    return out


class LambdaSeries:
    """Truncation of lambda_t(x): coefficients lambda^0(x)..lambda^d(x)."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs or coeffs[0] != ring.one:
            raise DomainError("lambda series must start at the ring unit")
        self.ring = ring
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __getitem__(self, k):
        return self.coeffs[k]

    def __repr__(self):
        return "LambdaSeries(degree=%d)" % self.degree


def _lambda_t_from_atoms(ring, atoms, d):
    """Multiply out per-atom series; sign -1 atoms contribute inverses."""
    one, zero = ring.one, ring.zero
    pos = [one] + [zero] * d
    neg = [one] + [zero] * d
    for series, sign in atoms:
        series = list(series[: d + 1]) + [zero] * (d + 1 - len(series[: d + 1]))
        if sign > 0:
            pos = _series_mul(pos, series, zero, d)
        else:
            neg = _series_mul(neg, series, zero, d)
    total = _series_mul(pos, _series_inv(neg, one, zero, d), zero, d)
    return LambdaSeries(ring, total)


def _binom_general(n, k):
    """Binomial coefficient with arbitrary integer top."""
    num = 1
    for i in range(k):
        num *= n - i
    return num // math.factorial(k)


# ---------------------------------------------------------------------------
# integers


@dataclass(frozen=True)
class IntegerRing:
    """The integers as a lambda-ring: lambda^k(n) = C(n, k)."""

    def elt(self, n):
        return IntElt(self, int(n))

    @property
    def one(self):
        return self.elt(1)

    @property
    def zero(self):
        return self.elt(0)


class IntElt:
    __slots__ = ("ring", "n")

    def __init__(self, ring, n):
        self.ring = ring
        self.n = n

    def _coerce(self, other):
        if isinstance(other, IntElt) and other.ring == self.ring:
            return other
        raise DomainError("mixed-ring arithmetic")

    def __add__(self, other):
        return IntElt(self.ring, self.n + self._coerce(other).n)

    def __sub__(self, other):
        return IntElt(self.ring, self.n - self._coerce(other).n)

    def __neg__(self):
        return IntElt(self.ring, -self.n)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntElt(self.ring, self.n * other)
        return IntElt(self.ring, self.n * self._coerce(other).n)

    def __rmul__(self, scalar):
        return IntElt(self.ring, scalar * self.n)

    def __eq__(self, other):
        return (
            isinstance(other, IntElt) and other.ring == self.ring and other.n == self.n
        )

    def __hash__(self):
        return hash((self.ring, self.n))

    def augmentation(self):
        return self.n

    def is_line(self):
        return self.n == 1

    def lambda_t(self, d):
        return LambdaSeries(
            self.ring, [IntElt(self.ring, _binom_general(self.n, k)) for k in range(d + 1)]
        )

    def lambda_k(self, k):
        if k < 0:
            raise DomainError("lambda index must be >= 0")
        return IntElt(self.ring, _binom_general(self.n, k))

    def __repr__(self):
        return "IntElt(%d)" % self.n


# ---------------------------------------------------------------------------
# diagonal forms over a model field, up to complete invariants


@dataclass(frozen=True)
class GWFieldRing:
    """Formal differences of diagonal forms <a1,...,am> over a model field.

    Elements keep canonical square-class representatives; identical
    entries appearing on both sides of the difference cancel.  Equality is
    decided by the complete invariants of the model (GWClass).
    """

    field: object

    def elt(self, pos=(), neg=()):
        field = self.field
        p = [field.square_class(a) for a in pos]
        n = [field.square_class(a) for a in neg]
        for v in set(p) & set(n):
            while v in p and v in n:
                p.remove(v)
                n.remove(v)
        key = field.sort_key
        return GWFieldElt(self, tuple(sorted(p, key=key)), tuple(sorted(n, key=key)))

    def diag(self, entries):
        """The class of the diagonal form with the given entries."""
        return self.elt(pos=entries)

    @property
    def one(self):
        return self.elt(pos=(self.field.one,))

    @property
    def zero(self):
        return self.elt()


@lru_cache(maxsize=None)
def _zero_class(field):
    """GWClass.zero(field), built once per field model for is_zero."""
    return GWClass.zero(field)


class GWFieldElt:
    """An immutable coefficient; its GWClass is computed on first use."""

    __slots__ = ("ring", "pos", "neg", "_class")

    def __init__(self, ring, pos, neg):
        self.ring = ring
        self.pos = pos
        self.neg = neg
        self._class = None

    def _coerce(self, other):
        if isinstance(other, GWFieldElt) and other.ring == self.ring:
            return other
        raise DomainError("mixed-ring arithmetic")

    def __add__(self, other):
        other = self._coerce(other)
        return self.ring.elt(self.pos + other.pos, self.neg + other.neg)

    def __neg__(self):
        return self.ring.elt(self.neg, self.pos)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        other = self._coerce(other)
        mul = self.ring.field.mul
        pos, neg = [], []
        for a, b in itertools.product(self.pos, other.pos):
            pos.append(mul(a, b))
        for a, b in itertools.product(self.neg, other.neg):
            pos.append(mul(a, b))
        for a, b in itertools.product(self.pos, other.neg):
            neg.append(mul(a, b))
        for a, b in itertools.product(self.neg, other.pos):
            neg.append(mul(a, b))
        return self.ring.elt(pos, neg)

    def __rmul__(self, scalar):
        if scalar >= 0:
            return self.ring.elt(self.pos * scalar, self.neg * scalar)
        return self.ring.elt(self.neg * (-scalar), self.pos * (-scalar))

    def gw_class(self):
        if self._class is None:
            self._class = GWClass.of_diagonal(self.ring.field, self.pos, self.neg)
        return self._class

    def __eq__(self, other):
        if not isinstance(other, GWFieldElt) or other.ring != self.ring:
            return NotImplemented
        return self.gw_class() == other.gw_class()

    __hash__ = None

    def is_zero(self):
        return self.gw_class() == _zero_class(self.ring.field)

    def augmentation(self):
        return len(self.pos) - len(self.neg)

    def is_line(self):
        return len(self.pos) == 1 and not self.neg

    def lambda_t(self, d):
        one, field = self.ring.one, self.ring.field
        atoms = []
        for a in self.pos:
            atoms.append(([one, self.ring.elt((a,))], 1))
        for a in self.neg:
            atoms.append(([one, self.ring.elt((a,))], -1))
        return _lambda_t_from_atoms(self.ring, atoms, d)

    def lambda_k(self, k):
        if k < 0:
            raise DomainError("lambda index must be >= 0")
        if k == 0:
            return self.ring.one
        return self.lambda_t(k)[k]

    def __repr__(self):
        return "GWFieldElt(%s)" % element_str(self)


# ---------------------------------------------------------------------------
# the torus character ring


@dataclass(frozen=True)
class KTorusRing:
    """Group ring of Z^r; every basis element e^g is a line."""

    r: int

    def __post_init__(self):
        if self.r < 1:
            raise DomainError("torus rank must be >= 1")

    def elt(self, terms):
        clean = {}
        for gamma, coeff in dict(terms).items():
            gamma = tuple(int(v) for v in gamma)
            if len(gamma) != self.r:
                raise DomainError("weight length must equal the torus rank")
            if coeff:
                clean[gamma] = clean.get(gamma, 0) + coeff
        return KTorusElt(self, {g: c for g, c in clean.items() if c})

    def line(self, gamma):
        return self.elt({tuple(gamma): 1})

    @property
    def one(self):
        return self.line((0,) * self.r)

    @property
    def zero(self):
        return self.elt({})


class KTorusElt:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _coerce(self, other):
        if isinstance(other, KTorusElt) and other.ring == self.ring:
            return other
        raise DomainError("mixed-ring arithmetic")

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for g, c in other.terms.items():
            terms[g] = terms.get(g, 0) + c
        return self.ring.elt(terms)

    def __neg__(self):
        return self.ring.elt({g: -c for g, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        other = self._coerce(other)
        terms = {}
        for g1, c1 in self.terms.items():
            for g2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(g1, g2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return self.ring.elt(terms)

    def __rmul__(self, scalar):
        return self.ring.elt({g: scalar * c for g, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, KTorusElt) or other.ring != self.ring:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def augmentation(self):
        return sum(self.terms.values())

    def is_line(self):
        return len(self.terms) == 1 and next(iter(self.terms.values())) == 1

    def lambda_t(self, d):
        one = self.ring.one
        atoms = []
        for gamma, coeff in self.terms.items():
            series = [one, self.ring.line(gamma)]
            atoms.extend([(series, 1 if coeff > 0 else -1)] * abs(coeff))
        return _lambda_t_from_atoms(self.ring, atoms, d)

    def lambda_k(self, k):
        if k < 0:
            raise DomainError("lambda index must be >= 0")
        if k == 0:
            return self.ring.one
        return self.lambda_t(k)[k]

    def __repr__(self):
        return "KTorusElt(%s)" % element_str(self)


# ---------------------------------------------------------------------------
# basis symbols for the extended torus


@dataclass(frozen=True)
class BasisSym:
    """Basis of the extension: the unit, the sign character d, and the
    rank-2 symbols [e^g] indexed by a weight up to global sign."""

    kind: str
    gamma: tuple = ()

    ONE = "one"
    DELTA = "delta"
    PAIR = "pair"

    def __post_init__(self):
        if self.kind not in (self.ONE, self.DELTA, self.PAIR):
            raise DomainError("unknown basis kind %r" % (self.kind,))
        if self.kind == self.PAIR:
            if not self.gamma or all(v == 0 for v in self.gamma):
                raise DomainError("pair symbol requires a nonzero weight")
            if not _gamma_is_canonical(self.gamma):
                raise DomainError("pair weight must be sign-canonical")
        elif self.gamma:
            raise DomainError("only pair symbols carry a weight")

    @classmethod
    def one(cls):
        return cls(cls.ONE)

    @classmethod
    def delta(cls):
        return cls(cls.DELTA)

    @classmethod
    def pair(cls, gamma):
        gamma = tuple(int(v) for v in gamma)
        if all(v == 0 for v in gamma):
            raise DomainError("pair symbol requires a nonzero weight")
        return cls(cls.PAIR, _canonical_gamma(gamma))

    @property
    def rank(self):
        return 2 if self.kind == self.PAIR else 1

    def sort_key(self):
        order = {self.ONE: 0, self.DELTA: 1, self.PAIR: 2}
        return (order[self.kind], self.gamma)

    def to_str(self):
        if self.kind == self.ONE:
            return "one"
        if self.kind == self.DELTA:
            return "delta"
        return "pair:" + ",".join(str(v) for v in self.gamma)


def _canonical_gamma(gamma):
    """Flip the global sign so the first nonzero coordinate is positive."""
    for v in gamma:
        if v > 0:
            return tuple(gamma)
        if v < 0:
            return tuple(-x for x in gamma)
    return tuple(gamma)


def _gamma_is_canonical(gamma):
    return tuple(gamma) == _canonical_gamma(gamma)


def parse_basis(text, r):
    if text == "one":
        return BasisSym.one()
    if text == "delta":
        return BasisSym.delta()
    if text.startswith("pair:"):
        try:
            coords = tuple(int(v) for v in text[5:].split(","))
        except ValueError:
            raise FormatError("bad pair weight in basis %r" % (text,)) from None
        if len(coords) != r:
            raise FormatError("basis %r has %d coordinates, expected %d" % (text, len(coords), r))
        try:
            return BasisSym.pair(coords)
        except DomainError as exc:
            raise FormatError("bad basis %r: %s" % (text, exc)) from None
    raise FormatError("unknown basis %r" % (text,))


# ---------------------------------------------------------------------------
# JSON field checks shared by the record parsers


_JSON_KINDS = {int: "an integer", list: "a list", dict: "an object"}


def _checked(value, kind, where):
    """``value`` if it is a JSON integer, list or object as ``kind`` asks.

    JSON ``true``/``false`` load as ``bool``, a subclass of ``int``; they
    are not integers here.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        raise FormatError("%s must be %s" % (where, _JSON_KINDS[kind]))
    return value


# ---------------------------------------------------------------------------
# structure constants for the extension rings


@dataclass(frozen=True)
class ExtTorusConstants:
    """Multiplication and lambda^2 targets on the extension basis.

    The defaults are the true constants.  Alternative values that are
    structurally well-formed (rank-compatible) are accepted so that a
    corrupted table can be loaded and then caught by the identity checks
    rather than by the parser.
    """

    delta_delta: str = "one"  # d * d
    delta_pair: str = "pair"  # d * [e^g]
    lambda2_pair: str = "delta"  # lambda^2([e^g])
    pair_zero_scale: int = 2  # [e^0] = <s>*1 + <s>*d

    def __post_init__(self):
        if self.delta_delta not in ("one", "delta"):
            raise FormatError("delta_delta must be 'one' or 'delta'")
        if self.delta_pair != "pair":
            raise FormatError("delta_pair must be 'pair'")
        if self.lambda2_pair not in ("delta", "one", "zero"):
            raise FormatError("lambda2_pair must be 'delta', 'one', or 'zero'")
        if _checked(self.pair_zero_scale, int, "pair_zero_scale") == 0:
            raise FormatError("pair_zero_scale must be a nonzero integer")


DEFAULT_CONSTANTS = ExtTorusConstants()


def load_constants(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError("invalid JSON in %s: %s" % (path, exc)) from None
    if not isinstance(data, dict):
        raise FormatError("constants file must hold an object")
    allowed = {"delta_delta", "delta_pair", "lambda2_pair", "pair_zero_scale"}
    unknown = set(data) - allowed
    if unknown:
        raise FormatError("unknown constants keys: %s" % ", ".join(sorted(unknown)))
    return ExtTorusConstants(**data)


# ---------------------------------------------------------------------------
# character-level extension ring


@dataclass(frozen=True)
class KExtTorusRing:
    """Characters of the extension: basis 1, d, and rank-2 symbols [e^g]."""

    r: int

    def __post_init__(self):
        if self.r < 1:
            raise DomainError("torus rank must be >= 1")

    def elt(self, terms):
        clean = {}
        for basis, coeff in dict(terms).items():
            if not isinstance(basis, BasisSym):
                raise DomainError("keys must be basis symbols")
            if basis.kind == BasisSym.PAIR and len(basis.gamma) != self.r:
                raise DomainError("pair weight length must equal the torus rank")
            if coeff:
                clean[basis] = clean.get(basis, 0) + coeff
        return KExtElt(self, {b: c for b, c in clean.items() if c})

    def basis_elt(self, basis):
        return self.elt({basis: 1})

    @property
    def one(self):
        return self.basis_elt(BasisSym.one())

    @property
    def zero(self):
        return self.elt({})

    def _pair_or_zero(self, gamma):
        """[e^g] for g != 0; the unit-plus-sign expansion at g = 0."""
        if all(v == 0 for v in gamma):
            return {BasisSym.one(): 1, BasisSym.delta(): 1}
        return {BasisSym.pair(gamma): 1}


class KExtElt:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _coerce(self, other):
        if isinstance(other, KExtElt) and other.ring == self.ring:
            return other
        raise DomainError("mixed-ring arithmetic")

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for b, c in other.terms.items():
            terms[b] = terms.get(b, 0) + c
        return self.ring.elt(terms)

    def __neg__(self):
        return self.ring.elt({b: -c for b, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        other = self._coerce(other)
        out = {}

        def bump(target_terms, scale):
            for b, c in target_terms.items():
                out[b] = out.get(b, 0) + scale * c

        for b1, c1 in self.terms.items():
            for b2, c2 in other.terms.items():
                scale = c1 * c2
                for terms in _basis_product_k(self.ring, b1, b2):
                    bump(terms, scale)
        return self.ring.elt(out)

    def __rmul__(self, scalar):
        return self.ring.elt({b: scalar * c for b, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, KExtElt) or other.ring != self.ring:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def augmentation(self):
        return sum(c * b.rank for b, c in self.terms.items())

    def is_line(self):
        if len(self.terms) != 1:
            return False
        basis, coeff = next(iter(self.terms.items()))
        return coeff == 1 and basis.rank == 1

    def lambda_t(self, d):
        ring = self.ring
        one = ring.one
        atoms = []
        for basis, coeff in self.terms.items():
            if basis.kind == BasisSym.PAIR:
                series = [
                    one,
                    ring.basis_elt(basis),
                    ring.basis_elt(BasisSym.delta()),
                ]
            else:
                series = [one, ring.basis_elt(basis)]
            atoms.extend([(series, 1 if coeff > 0 else -1)] * abs(coeff))
        return _lambda_t_from_atoms(ring, atoms, d)

    def lambda_k(self, k):
        if k < 0:
            raise DomainError("lambda index must be >= 0")
        if k == 0:
            return self.ring.one
        return self.lambda_t(k)[k]

    def __repr__(self):
        return "KExtElt(%s)" % element_str(self)


def _basis_product_k(ring, b1, b2):
    """Expansion of a basis product as a list of term dicts (K level)."""
    if b1.kind == BasisSym.ONE:
        return [{b2: 1}]
    if b2.kind == BasisSym.ONE:
        return [{b1: 1}]
    if b1.kind == BasisSym.DELTA and b2.kind == BasisSym.DELTA:
        return [{BasisSym.one(): 1}]
    if b1.kind == BasisSym.DELTA or b2.kind == BasisSym.DELTA:
        pair = b1 if b1.kind == BasisSym.PAIR else b2
        return [{pair: 1}]
    g1, g2 = b1.gamma, b2.gamma
    out = []
    for gamma in (
        tuple(a + b for a, b in zip(g1, g2)),
        tuple(a - b for a, b in zip(g1, g2)),
    ):
        out.append(ring._pair_or_zero(gamma))
    return out


# ---------------------------------------------------------------------------
# form-level extension ring


@dataclass(frozen=True)
class GWExtTorusRing:
    """The extension basis with diagonal-form coefficients over a model field.

    Products and lambda^2 of the rank-2 symbols follow the structure
    constants; [e^0] is eagerly rewritten as <s>*1 + <s>*d with the scale s
    from the constants (truly 2: the invariant subspace carries <2> and the
    anti-invariant one <-2> twisted by the sign character).
    """

    r: int
    field: object
    constants: ExtTorusConstants = DEFAULT_CONSTANTS

    def __post_init__(self):
        if self.r < 1:
            raise DomainError("torus rank must be >= 1")

    @property
    def coeff_ring(self):
        return GWFieldRing(self.field)

    def elt(self, terms):
        clean = {}
        for basis, coeff in dict(terms).items():
            if not isinstance(basis, BasisSym):
                raise DomainError("keys must be basis symbols")
            if basis.kind == BasisSym.PAIR and len(basis.gamma) != self.r:
                raise DomainError("pair weight length must equal the torus rank")
            if not isinstance(coeff, GWFieldElt) or coeff.ring != self.coeff_ring:
                raise DomainError("coefficients must come from the coefficient ring")
            if basis in clean:
                clean[basis] = clean[basis] + coeff
            else:
                clean[basis] = coeff
        return GWExtElt(self, {b: c for b, c in clean.items() if not c.is_zero()})

    def basis_elt(self, basis, coeff=None):
        if coeff is None:
            coeff = self.coeff_ring.one
        return self.elt({basis: coeff})

    @property
    def one(self):
        return self.basis_elt(BasisSym.one())

    @property
    def zero(self):
        return self.elt({})

    def basis_symbols(self, bound):
        """1, d, and the canonical pair symbols with coordinates in [-bound, bound]."""
        syms = [BasisSym.one(), BasisSym.delta()]
        pairs = set()
        for coords in itertools.product(range(-bound, bound + 1), repeat=self.r):
            if any(coords):
                pairs.add(_canonical_gamma(coords))
        syms.extend(BasisSym.pair(g) for g in sorted(pairs))
        return syms

    def _pair_or_zero_terms(self, gamma, coeff):
        if all(v == 0 for v in gamma):
            scale = self.field.from_int(self.constants.pair_zero_scale)
            scaled = self.coeff_ring.elt((scale,)) * coeff
            return {BasisSym.one(): scaled, BasisSym.delta(): scaled}
        return {BasisSym.pair(gamma): coeff}

    def _lambda2_pair_elt(self):
        target = self.constants.lambda2_pair
        if target == "zero":
            return self.zero
        basis = BasisSym.one() if target == "one" else BasisSym.delta()
        return self.basis_elt(basis)


class GWExtElt:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _coerce(self, other):
        if isinstance(other, GWExtElt) and other.ring == self.ring:
            return other
        raise DomainError("mixed-ring arithmetic")

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for b, c in other.terms.items():
            terms[b] = terms[b] + c if b in terms else c
        return self.ring.elt(terms)

    def __neg__(self):
        return self.ring.elt({b: -c for b, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        other = self._coerce(other)
        ring = self.ring
        out = {}

        def bump(terms):
            for b, c in terms.items():
                out[b] = out[b] + c if b in out else c

        for b1, c1 in self.terms.items():
            for b2, c2 in other.terms.items():
                coeff = c1 * c2
                if b1.kind == BasisSym.ONE:
                    bump({b2: coeff})
                elif b2.kind == BasisSym.ONE:
                    bump({b1: coeff})
                elif b1.kind == BasisSym.DELTA and b2.kind == BasisSym.DELTA:
                    target = (
                        BasisSym.one()
                        if ring.constants.delta_delta == "one"
                        else BasisSym.delta()
                    )
                    bump({target: coeff})
                elif b1.kind == BasisSym.DELTA or b2.kind == BasisSym.DELTA:
                    pair = b1 if b1.kind == BasisSym.PAIR else b2
                    bump({pair: coeff})
                else:
                    g1, g2 = b1.gamma, b2.gamma
                    for gamma in (
                        tuple(a + b for a, b in zip(g1, g2)),
                        tuple(a - b for a, b in zip(g1, g2)),
                    ):
                        bump(ring._pair_or_zero_terms(gamma, coeff))
        return ring.elt(out)

    def __rmul__(self, scalar):
        return self.ring.elt({b: scalar * c for b, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, GWExtElt) or other.ring != self.ring:
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[b] == other.terms[b] for b in self.terms)

    __hash__ = None

    def augmentation(self):
        return sum(c.augmentation() * b.rank for b, c in self.terms.items())

    def is_line(self):
        if len(self.terms) != 1:
            return False
        basis, coeff = next(iter(self.terms.items()))
        return basis.rank == 1 and coeff.is_line()

    def lambda_t(self, d):
        ring = self.ring
        one = ring.one
        lam2 = ring._lambda2_pair_elt()
        atoms = []
        for basis, coeff in self.terms.items():
            for entries, sign in ((coeff.pos, 1), (coeff.neg, -1)):
                for a in entries:
                    scaled = ring.basis_elt(basis, ring.coeff_ring.elt((a,)))
                    if basis.kind == BasisSym.PAIR:
                        # lambda^2(<a>[e^g]) = <a^2> lambda^2([e^g]) = lambda^2([e^g])
                        series = [one, scaled, lam2]
                    else:
                        series = [one, scaled]
                    atoms.append((series, sign))
        return _lambda_t_from_atoms(ring, atoms, d)

    def lambda_k(self, k):
        if k < 0:
            raise DomainError("lambda index must be >= 0")
        if k == 0:
            return self.ring.one
        return self.lambda_t(k)[k]

    def __repr__(self):
        return "GWExtElt(%s)" % element_str(self)


# ---------------------------------------------------------------------------
# maps between the rings


def augmentation(x):
    """Virtual rank: the ring map to the integers sending every line to 1."""
    return x.augmentation()


def forgetful(x):
    """Drop the forms: GWExt -> KExt, coefficient becoming its virtual rank."""
    if not isinstance(x, GWExtElt):
        raise DomainError("the forgetful map starts from the form-level ring")
    target = KExtTorusRing(x.ring.r)
    return target.elt({b: c.augmentation() for b, c in x.terms.items()})


def hyperbolic_map(x, gw_ring):
    """Additive map KExt -> GWExt sending a character to its hyperbolic form.

    Each basis copy acquires the split coefficient <1,-1>.  Additive but
    not multiplicative.
    """
    if not isinstance(x, KExtElt):
        raise DomainError("the hyperbolic map starts from the character ring")
    if not isinstance(gw_ring, GWExtTorusRing) or gw_ring.r != x.ring.r:
        raise DomainError("target ring must extend the same torus")
    field = gw_ring.field
    split = gw_ring.coeff_ring.elt(pos=(field.one, field.neg(field.one)))
    terms = {}
    for basis, coeff in x.terms.items():
        terms[basis] = coeff * split
    return gw_ring.elt(terms)


# ---------------------------------------------------------------------------
# identity checks


class CheckRecord:
    """One compared pair of elements, with the identity and index checked."""

    __slots__ = ("check", "k", "lhs", "rhs", "passed")

    def __init__(self, check, k, lhs, rhs):
        self.check = check
        self.k = k
        self.lhs = lhs
        self.rhs = rhs
        self.passed = lhs == rhs

    def to_record(self):
        return {
            "check": self.check,
            "k": self.k,
            "lhs": element_record(self.lhs),
            "rhs": element_record(self.rhs),
            "pass": self.passed,
        }

    def __repr__(self):
        return "CheckRecord(%s, k=%d, %s)" % (
            self.check,
            self.k,
            "pass" if self.passed else "FAIL",
        )


class CheckReport:
    __slots__ = ("records",)

    def __init__(self, records):
        self.records = tuple(records)

    @property
    def all_pass(self):
        return all(r.passed for r in self.records)

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


def _default_kmax(value):
    return max(1, value)


def check_lambda1(x, y, kmax=None):
    """Compare lambda^k(x*y) with the universal polynomial in lambda^i(x), lambda^j(y)."""
    if x.ring != y.ring:
        raise DomainError("operands must share a ring")
    if kmax is None:
        kmax = _default_kmax(x.augmentation() * y.augmentation())
    if kmax < 1:
        raise DomainError("kmax must be >= 1")
    ring = x.ring
    lx = x.lambda_t(kmax)
    ly = y.lambda_t(kmax)
    lxy = (x * y).lambda_t(kmax)
    records = []
    for k in range(1, kmax + 1):
        poly = symfun.universal_P(k)
        rhs = poly.evaluate(
            [lx[i] for i in range(1, k + 1)],
            [ly[i] for i in range(1, k + 1)],
            one=ring.one,
        )
        records.append(CheckRecord("lambda1", k, lxy[k], rhs))
    return CheckReport(records)


def check_lambda2(x, j, kmax=None):
    """Compare lambda^k(lambda^j(x)) with the universal polynomial in lambda^i(x)."""
    if j < 1:
        raise DomainError("inner index j must be >= 1")
    if kmax is None:
        kmax = _default_kmax(_binom_general(x.augmentation(), j))
    if kmax < 1:
        raise DomainError("kmax must be >= 1")
    ring = x.ring
    lx = x.lambda_t(kmax * j)
    inner = lx[j]
    linner = inner.lambda_t(kmax)
    records = []
    for k in range(1, kmax + 1):
        poly = symfun.universal_P_kj(k, j)
        rhs = poly.evaluate(
            [lx[i] for i in range(1, k * j + 1)],
            one=ring.one,
        )
        records.append(CheckRecord("lambda2", k, linner[k], rhs))
    return CheckReport(records)


def check_line_special(line, x, kmax=None):
    """Compare lambda^k(l*x) with l^k * lambda^k(x) for a line element l."""
    if line.ring != x.ring:
        raise DomainError("operands must share a ring")
    if not line.is_line():
        raise DomainError("first operand must be a line element")
    if kmax is None:
        kmax = _default_kmax(x.augmentation())
    if kmax < 1:
        raise DomainError("kmax must be >= 1")
    lx = x.lambda_t(kmax)
    llx = (line * x).lambda_t(kmax)
    records = []
    power = line.ring.one
    for k in range(1, kmax + 1):
        power = power * line
        records.append(CheckRecord("line_special", k, llx[k], power * lx[k]))
    return CheckReport(records)


# ---------------------------------------------------------------------------
# element exchange format


def _coeff_record(coeff):
    field = coeff.ring.field
    return {
        "pos": [field.to_str(a) for a in coeff.pos],
        "neg": [field.to_str(a) for a in coeff.neg],
    }


def element_record(x):
    """JSON-ready record: ring tag, torus rank, field spec, and terms."""
    if isinstance(x, IntElt):
        return {
            "ring": "integers",
            "rank_r": None,
            "field": None,
            "terms": [{"basis": "one", "coeff": x.n}] if x.n else [],
        }
    if isinstance(x, GWFieldElt):
        return {
            "ring": "gw-field",
            "rank_r": None,
            "field": x.ring.field.spec,
            "terms": [{"basis": "one", "coeff": _coeff_record(x)}],
        }
    if isinstance(x, KTorusElt):
        terms = [
            {"basis": "wt:" + ",".join(str(v) for v in g), "coeff": c}
            for g, c in sorted(x.terms.items())
        ]
        return {"ring": "k-torus", "rank_r": x.ring.r, "field": None, "terms": terms}
    if isinstance(x, KExtElt):
        terms = [
            {"basis": b.to_str(), "coeff": c}
            for b, c in sorted(x.terms.items(), key=lambda bc: bc[0].sort_key())
        ]
        return {
            "ring": "k-ext-torus",
            "rank_r": x.ring.r,
            "field": None,
            "terms": terms,
        }
    if isinstance(x, GWExtElt):
        terms = [
            {"basis": b.to_str(), "coeff": _coeff_record(c)}
            for b, c in sorted(x.terms.items(), key=lambda bc: bc[0].sort_key())
        ]
        return {
            "ring": "gw-ext-torus",
            "rank_r": x.ring.r,
            "field": x.ring.field.spec,
            "terms": terms,
        }
    raise DomainError("unknown element type %r" % type(x).__name__)


def _parse_rank(record):
    r = _checked(record.get("rank_r"), int, "rank_r")
    if r < 1:
        raise FormatError("rank_r must be a positive integer")
    return r


def _parse_coeff(record, ring, where):
    record = _checked(record, dict, "%s.coeff" % where)
    field = ring.field
    sides = []
    for name in ("pos", "neg"):
        entries = _checked(record.get(name), list, "%s.coeff.%s" % (where, name))
        try:
            side = [field.parse(str(v)) for v in entries]
        except FormatError as exc:
            raise FormatError("%s.coeff: %s" % (where, exc)) from None
        if any(field.is_zero(v) for v in side):
            raise FormatError("%s.coeff.%s holds a zero entry" % (where, name))
        sides.append(side)
    return ring.elt(*sides)


def parse_element(record, constants=DEFAULT_CONSTANTS):
    """Inverse of :func:`element_record`; diagnostics name the bad field."""
    record = _checked(record, dict, "element record")
    tag = record.get("ring")
    # (diagnostic name, term object) pairs
    terms = [
        ("terms[%d]" % idx, _checked(term, dict, "terms[%d]" % idx))
        for idx, term in enumerate(_checked(record.get("terms"), list, "terms"))
    ]
    if tag == "integers":
        ring = IntegerRing()
        total = 0
        for where, term in terms:
            if term.get("basis") != "one":
                raise FormatError("%s.basis must be 'one'" % where)
            total += _checked(term.get("coeff"), int, where + ".coeff")
        return ring.elt(total)
    if tag == "gw-field":
        field = field_model(str(record.get("field")))
        ring = GWFieldRing(field)
        out = ring.zero
        for where, term in terms:
            out = out + _parse_coeff(term.get("coeff"), ring, where)
        return out
    if tag == "k-torus":
        r = _parse_rank(record)
        ring = KTorusRing(r)
        acc = {}
        for where, term in terms:
            basis = str(term.get("basis", ""))
            if not basis.startswith("wt:"):
                raise FormatError("%s.basis must look like 'wt:<coords>'" % where)
            try:
                gamma = tuple(int(v) for v in basis[3:].split(","))
            except ValueError:
                raise FormatError("%s.basis has bad coordinates" % where) from None
            if len(gamma) != r:
                raise FormatError("%s.basis has %d coordinates, expected %d" % (where, len(gamma), r))
            coeff = _checked(term.get("coeff"), int, where + ".coeff")
            acc[gamma] = acc.get(gamma, 0) + coeff
        return ring.elt(acc)
    if tag == "k-ext-torus":
        r = _parse_rank(record)
        ring = KExtTorusRing(r)
        acc = {}
        for where, term in terms:
            try:
                basis = parse_basis(str(term.get("basis", "")), r)
            except FormatError as exc:
                raise FormatError("%s: %s" % (where, exc)) from None
            coeff = _checked(term.get("coeff"), int, where + ".coeff")
            acc[basis] = acc.get(basis, 0) + coeff
        return ring.elt(acc)
    if tag == "gw-ext-torus":
        r = _parse_rank(record)
        field = field_model(str(record.get("field")))
        ring = GWExtTorusRing(r, field, constants)
        acc = {}
        for where, term in terms:
            try:
                basis = parse_basis(str(term.get("basis", "")), r)
            except FormatError as exc:
                raise FormatError("%s: %s" % (where, exc)) from None
            coeff = _parse_coeff(term.get("coeff"), ring.coeff_ring, where)
            acc[basis] = acc[basis] + coeff if basis in acc else coeff
        return ring.elt(acc)
    raise FormatError("unknown ring tag %r" % (tag,))


def load_element(path, constants=DEFAULT_CONSTANTS):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError("invalid JSON in %s: %s" % (path, exc)) from None
    return parse_element(record, constants)


# ---------------------------------------------------------------------------
# compact display strings


def _coeff_str(coeff):
    field = coeff.ring.field
    if not coeff.pos and not coeff.neg:
        return "0"
    pos = "<%s>" % ",".join(field.to_str(a) for a in coeff.pos) if coeff.pos else ""
    neg = "<%s>" % ",".join(field.to_str(a) for a in coeff.neg) if coeff.neg else ""
    if pos and neg:
        return "(%s - %s)" % (pos, neg)
    if neg:
        return "(-%s)" % neg
    return pos


def _basis_str(basis, gw):
    suffix = "+" if gw else ""
    if basis.kind == BasisSym.ONE:
        return "1" + suffix
    if basis.kind == BasisSym.DELTA:
        return "d" + suffix
    return "[e^(%s)]%s" % (",".join(str(v) for v in basis.gamma), suffix)


def element_str(x):
    """Readable one-line form of any ring element."""
    if isinstance(x, IntElt):
        return str(x.n)
    if isinstance(x, GWFieldElt):
        return _coeff_str(x)
    if isinstance(x, KTorusElt):
        if not x.terms:
            return "0"
        parts = []
        for g, c in sorted(x.terms.items()):
            body = "e[%s]" % ",".join(str(v) for v in g)
            parts.append(body if c == 1 else "%d*%s" % (c, body))
        return " + ".join(parts)
    if isinstance(x, KExtElt):
        if not x.terms:
            return "0"
        parts = []
        for b, c in sorted(x.terms.items(), key=lambda bc: bc[0].sort_key()):
            body = _basis_str(b, gw=False)
            parts.append(body if c == 1 else "%d*%s" % (c, body))
        return " + ".join(parts)
    if isinstance(x, GWExtElt):
        if not x.terms:
            return "0"
        parts = []
        for b, c in sorted(x.terms.items(), key=lambda bc: bc[0].sort_key()):
            parts.append("%s*%s" % (_coeff_str(c), _basis_str(b, gw=True)))
        return " + ".join(parts)
    return repr(x)
