"""Rings with lambda-operations, and checkers for the defining identities.

Every ring shares one element protocol (operators ``+ - *``, integer
scalars, ``lambda_k``, ``lambda_t``, ``augmentation``):

* ``IntegerRing`` -- the integers, lambda^k = binomial coefficient;
* ``GWFieldRing`` -- formal differences of diagonal forms over a model
  field, held as signed counts per square class, equality by complete
  invariants;
* ``FreeLambdaRing`` -- a free module on a basis with coefficients in Z
  (plain ints) or in GW(F) (a ``GWFieldRing``).  Its three instances:

  - ``KTorusRing`` -- the group ring of Z^r, spanned by line elements e^g;
  - ``KExtTorusRing`` -- character-level extension by an order-2
    involution: basis 1, d (the sign character), and rank-2 symbols [e^g];
  - ``GWExtTorusRing`` -- the same basis with GW(F) coefficients, so the
    forgetful map sends each coefficient to its rank.  Multiplication and
    lambda^2 on the rank-2 symbols follow structure constants that can be
    overridden (so a deliberately corrupted table is observable through
    the identity checks).

lambda_t is a homomorphism from addition to the multiplicative group of
power series with constant term 1; negative summands are handled by
truncated series inversion.  The checkers compare lambda^k of products and
compositions against the universal polynomial tables from ``symfun``.
"""

import itertools
import math
import operator
from dataclasses import dataclass

from .errors import DomainError, FormatError, _checked, _load_json
from .fields import field_model
from .forms import GWClass
from .weights import canonical_rep, classify_semidirect
from . import symfun

# ---------------------------------------------------------------------------
# truncated series helpers (coefficients are ring elements)


# Every series here starts at the ring unit, and entries past the end of a
# list are zero: products with the unit and with zero are never formed.
# The sum for each degree k still runs over a[i]*b[k-i] in increasing i.
# The order matters: each sum drops coefficients whose class is zero, and
# over fq such a coefficient can have nonzero counts, so another order can
# print the same class with other entries.


def _series_mul(a, b, d):
    """a*b truncated at degree d; a[0] and b[0] are the ring unit."""
    out = [a[0]]
    for k in range(1, min(d, len(a) + len(b) - 2) + 1):
        acc = b[k] if k < len(b) else None
        for i in range(max(1, k - len(b) + 1), min(k, len(a))):
            term = a[i] * b[k - i]
            acc = term if acc is None else acc + term
        if k < len(a):
            acc = a[k] if acc is None else acc + a[k]
        out.append(acc)
    return out


def _series_inv(a, d):
    """Inverse of a series with constant term 1, truncated at degree d."""
    out = [a[0]]
    if len(a) == 1:
        return out
    for k in range(1, d + 1):
        acc = None
        for i in range(1, min(k, len(a) - 1) + 1):
            term = a[i] if i == k else a[i] * out[k - i]
            acc = term if acc is None else acc + term
        out.append(-acc)
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
    pos = [ring.one]
    neg = [ring.one]
    for series, sign in atoms:
        if sign > 0:
            pos = _series_mul(pos, series, d)
        else:
            neg = _series_mul(neg, series, d)
    total = _series_mul(pos, _series_inv(neg, d), d)
    return LambdaSeries(ring, total + [ring.zero] * (d + 1 - len(total)))


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


class GWFieldRing:
    """Formal differences of diagonal forms <a1,...,am> over a model field.

    An element stores ``counts``: one signed int per square class of the
    field, in the order of ``field.square_classes`` -- how many entries <a>
    of that class are added, minus how many are subtracted.  Its ``pos`` and
    ``neg`` (the class representatives repeated by the positive and the
    negative counts) are the exchange format.  Equality is decided by the
    complete invariants of the model (GWClass), built once per counts and
    kept by the ring; counts alone do not decide it, since over fq
    2<1> - 2<u> is zero.  ``*`` multiplies counts through the square-class
    product table of the field.

    It is also the coefficient ring of ``GWExtTorusRing``: the methods
    from ``__contains__`` on are the coefficient protocol that
    ``FreeLambdaRing`` uses (``INTEGERS`` has the same methods on plain
    ints).
    """

    __slots__ = (
        "field", "_index", "_table", "_memo", "_zero_class", "_rank_one", "one", "zero",
    )

    def __init__(self, field):
        self.field = field
        classes = field.square_classes
        self._index = index = {a: i for i, a in enumerate(classes)}
        # _table[i][j]: index of the square class of classes[i] * classes[j]
        self._table = tuple(
            tuple(index[field.square_class(field.mul(a, b))] for b in classes)
            for a in classes
        )
        self._memo = {}  # {counts: GWClass}
        self._zero_class = GWClass.zero(field)
        # _rank_one[i]: the form <classes[i]>
        self._rank_one = tuple(
            GWFieldElt(self, tuple(int(i == j) for j in range(len(classes))))
            for i in range(len(classes))
        )
        self.one = self._rank_one[index[field.one]]
        self.zero = GWFieldElt(self, (0,) * len(classes))

    def __eq__(self, other):
        return self is other or (isinstance(other, GWFieldRing) and self.field == other.field)

    def __hash__(self):
        return hash(self.field)

    def __repr__(self):
        return "GWFieldRing(%r)" % (self.field,)

    def elt(self, pos=(), neg=()):
        """<pos entries> - <neg entries>; each entry is a nonzero field element."""
        index, square_class = self._index, self.field.square_class
        counts = [0] * len(index)
        for a in pos:
            counts[index[square_class(a)]] += 1
        for a in neg:
            counts[index[square_class(a)]] -= 1
        return GWFieldElt(self, tuple(counts))

    def diag(self, entries):
        """The class of the diagonal form with the given entries."""
        return self.elt(pos=entries)

    def __contains__(self, coeff):
        return isinstance(coeff, GWFieldElt) and coeff.ring == self

    def is_zero(self, coeff):
        return coeff.is_zero()

    def rank(self, coeff):
        return coeff.augmentation()

    def lines(self, coeff):
        """(<a>, sign) pairs whose signed sum is ``coeff``: pos, then neg."""
        pos, neg = [], []
        for line, c in zip(self._rank_one, coeff.counts):
            if c > 0:
                pos += [(line, 1)] * c
            elif c < 0:
                neg += [(line, -1)] * -c
        return pos + neg

    def scale(self, s):
        """The rank-1 form <s>."""
        return self.elt((self.field.from_int(s),))

    def record(self, coeff):
        field = self.field
        return {
            "pos": [field.to_str(a) for a in coeff.pos],
            "neg": [field.to_str(a) for a in coeff.neg],
        }

    def parse(self, record, where):
        """Inverse of :meth:`record`; ``where`` names the term in diagnostics."""
        record = _checked(record, dict, "%s.coeff" % where)
        field = self.field
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
        return self.elt(*sides)

    def to_str(self, coeff):
        field = self.field
        pos, neg = coeff.pos, coeff.neg
        if not pos and not neg:
            return "0"
        pos = "<%s>" % ",".join(field.to_str(a) for a in pos) if pos else ""
        neg = "<%s>" % ",".join(field.to_str(a) for a in neg) if neg else ""
        if pos and neg:
            return "(%s - %s)" % (pos, neg)
        if neg:
            return "(-%s)" % neg
        return pos

    def term_str(self, coeff, body):
        return "%s*%s+" % (self.to_str(coeff), body)


class GWFieldElt:
    """An immutable coefficient: signed counts per square class of the field."""

    __slots__ = ("ring", "counts")

    def __init__(self, ring, counts):
        self.ring = ring
        self.counts = counts

    @property
    def pos(self):
        """Representatives of the added entries, in class order."""
        classes = self.ring.field.square_classes
        return tuple(a for a, c in zip(classes, self.counts) for _ in range(c))

    @property
    def neg(self):
        """Representatives of the subtracted entries, in class order."""
        classes = self.ring.field.square_classes
        return tuple(a for a, c in zip(classes, self.counts) for _ in range(-c))

    def _coerce(self, other):
        if isinstance(other, GWFieldElt) and other.ring == self.ring:
            return other
        raise DomainError("mixed-ring arithmetic")

    def __add__(self, other):
        counts = self._coerce(other).counts
        return GWFieldElt(self.ring, tuple(map(operator.add, self.counts, counts)))

    def __neg__(self):
        return GWFieldElt(self.ring, tuple(map(operator.neg, self.counts)))

    def __sub__(self, other):
        counts = self._coerce(other).counts
        return GWFieldElt(self.ring, tuple(map(operator.sub, self.counts, counts)))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        theirs = self._coerce(other).counts
        table = self.ring._table
        out = [0] * len(theirs)
        for i, a in enumerate(self.counts):
            if a:
                row = table[i]
                for j, b in enumerate(theirs):
                    out[row[j]] += a * b
        return GWFieldElt(self.ring, tuple(out))

    def __rmul__(self, scalar):
        return GWFieldElt(self.ring, tuple(scalar * c for c in self.counts))

    def gw_class(self):
        memo = self.ring._memo
        cls = memo.get(self.counts)
        if cls is None:
            cls = memo[self.counts] = GWClass.of_diagonal(self.ring.field, self.pos, self.neg)
        return cls

    def __eq__(self, other):
        if not isinstance(other, GWFieldElt) or other.ring != self.ring:
            return NotImplemented
        return self.gw_class() == other.gw_class()

    __hash__ = None

    def is_zero(self):
        return self.gw_class() == self.ring._zero_class

    def augmentation(self):
        return sum(self.counts)

    def is_line(self):
        return sum(map(abs, self.counts)) == 1 == sum(self.counts)

    def lambda_t(self, d):
        one = self.ring.one
        atoms = [([one, line], sign) for line, sign in self.ring.lines(self)]
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
            if tuple(self.gamma) != canonical_rep(self.gamma):
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
        return cls(cls.PAIR, canonical_rep(tuple(int(v) for v in gamma)))

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


_ONE = BasisSym.one()
_DELTA = BasisSym.delta()


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
    data = _load_json(path)
    if not isinstance(data, dict):
        raise FormatError("constants file must hold an object")
    allowed = {"delta_delta", "delta_pair", "lambda2_pair", "pair_zero_scale"}
    unknown = set(data) - allowed
    if unknown:
        raise FormatError("unknown constants keys: %s" % ", ".join(sorted(unknown)))
    return ExtTorusConstants(**data)


# ---------------------------------------------------------------------------
# the two coefficient rings and the two bases of the free lambda-rings


class _Integers:
    """Z as a coefficient ring: coefficients are plain ints.

    Same methods as the coefficient protocol of ``GWFieldRing``.
    """

    field = None
    one = 1

    def __contains__(self, coeff):
        return isinstance(coeff, int)

    def is_zero(self, coeff):
        return coeff == 0

    def rank(self, coeff):
        return coeff

    def lines(self, coeff):
        return [(1, 1 if coeff > 0 else -1)] * abs(coeff)

    def scale(self, s):
        return 1

    def record(self, coeff):
        return coeff

    def parse(self, record, where):
        return _checked(record, int, where + ".coeff")

    def term_str(self, coeff, body):
        return body if coeff == 1 else "%d*%s" % (coeff, body)


INTEGERS = _Integers()


class _TorusWeights:
    """Basis of K(T): the weights g in Z^r, each e^g a line."""

    def unit(self, r):
        return (0,) * r

    def check(self, ring, gamma):
        gamma = tuple(int(v) for v in gamma)
        if len(gamma) != ring.r:
            raise DomainError("weight length must equal the torus rank")
        return gamma

    def rank(self, gamma):
        return 1

    def product(self, ring, g1, g2):
        return ((tuple(a + b for a, b in zip(g1, g2)), None),)

    def lambda2(self, ring, gamma):
        return None

    def symbols(self, r, bound):
        """Every weight with coordinates in [-bound, bound], in lex order."""
        return sorted(itertools.product(range(-bound, bound + 1), repeat=r))

    def sort_key(self, gamma):
        return gamma

    def record(self, gamma):
        return "wt:" + ",".join(str(v) for v in gamma)

    def parse(self, text, r, where):
        if not text.startswith("wt:"):
            raise FormatError("%s.basis must look like 'wt:<coords>'" % where)
        try:
            gamma = tuple(int(v) for v in text[3:].split(","))
        except ValueError:
            raise FormatError("%s.basis has bad coordinates" % where) from None
        if len(gamma) != r:
            raise FormatError("%s.basis has %d coordinates, expected %d" % (where, len(gamma), r))
        return gamma

    def display(self, gamma):
        return "e[%s]" % ",".join(str(v) for v in gamma)


class _ExtSymbols:
    """Basis of the extended torus: 1, d, and the rank-2 symbols [e^g]."""

    def unit(self, r):
        return _ONE

    def check(self, ring, basis):
        if not isinstance(basis, BasisSym):
            raise DomainError("keys must be basis symbols")
        if basis.kind == BasisSym.PAIR and len(basis.gamma) != ring.r:
            raise DomainError("pair weight length must equal the torus rank")
        return basis

    def rank(self, basis):
        return basis.rank

    def product(self, ring, b1, b2):
        """b1*b2 as (basis, factor) pairs, factor None for 1.

        [e^g][e^h] = [e^(g+h)] + [e^(g-h)], and [e^0] = <s>*1 + <s>*d with
        the ring's scale <s>.
        """
        if b1.kind == BasisSym.ONE:
            return ((b2, None),)
        if b2.kind == BasisSym.ONE:
            return ((b1, None),)
        if b1.kind == BasisSym.DELTA and b2.kind == BasisSym.DELTA:
            return ((_ONE if ring.constants.delta_delta == "one" else _DELTA, None),)
        if b1.kind == BasisSym.DELTA:
            return ((b2, None),)
        if b2.kind == BasisSym.DELTA:
            return ((b1, None),)
        out = []
        g1, g2 = b1.gamma, b2.gamma
        for gamma in (
            tuple(a + b for a, b in zip(g1, g2)),
            tuple(a - b for a, b in zip(g1, g2)),
        ):
            if any(gamma):
                out.append((BasisSym.pair(gamma), None))
            else:
                out += [(_ONE, ring.scale), (_DELTA, ring.scale)]
        return out

    def lambda2(self, ring, basis):
        """lambda^2 of a rank-2 symbol; None on the lines 1 and d."""
        if basis.kind != BasisSym.PAIR:
            return None
        target = ring.constants.lambda2_pair
        if target == "zero":
            return ring.zero
        return ring.basis_elt(_ONE if target == "one" else _DELTA)

    def symbols(self, r, bound):
        """1, d, and the canonical pair symbols with coordinates in [-bound, bound]."""
        simples = classify_semidirect(r, bound)
        return [_ONE, _DELTA] + [
            BasisSym.pair(s.rep) for s in simples if s.kind == "induced"
        ]

    def sort_key(self, basis):
        return basis.sort_key()

    def record(self, basis):
        return basis.to_str()

    def parse(self, text, r, where):
        try:
            return parse_basis(text, r)
        except FormatError as exc:
            raise FormatError("%s: %s" % (where, exc)) from None

    def display(self, basis):
        if basis.kind == BasisSym.ONE:
            return "1"
        if basis.kind == BasisSym.DELTA:
            return "d"
        return "[e^(%s)]" % ",".join(str(v) for v in basis.gamma)


TORUS_WEIGHTS = _TorusWeights()
EXT_SYMBOLS = _ExtSymbols()


# ---------------------------------------------------------------------------
# free lambda-rings


class FreeLambdaRing:
    """A free module on ``basis`` with coefficients in ``coeff_ring``.

    ``coeff_ring`` (``INTEGERS`` or a ``GWFieldRing``) says when a
    coefficient is zero, gives its rank and splits it into signed lines;
    ``basis`` (``TORUS_WEIGHTS`` or ``EXT_SYMBOLS``) multiplies basis
    elements and gives lambda^2 of a rank-2 one.  ``tag`` names the ring in
    element records.  Rings compare by (tag, r, coefficient ring,
    constants).
    """

    __slots__ = ("tag", "r", "coeff_ring", "basis", "constants", "field", "scale", "one", "zero")

    def __init__(self, tag, r, coeff_ring, basis, constants=DEFAULT_CONSTANTS):
        if r < 1:
            raise DomainError("torus rank must be >= 1")
        self.tag = tag
        self.r = r
        self.coeff_ring = coeff_ring
        self.basis = basis
        self.constants = constants
        self.field = coeff_ring.field
        self.scale = coeff_ring.scale(constants.pair_zero_scale)
        self.one = FreeElt(self, {basis.unit(r): coeff_ring.one})
        self.zero = FreeElt(self, {})

    def _key(self):
        return (self.tag, self.r, self.coeff_ring, self.constants)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, FreeLambdaRing) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "FreeLambdaRing(%r, r=%d)" % (self.tag, self.r)

    def elt(self, terms):
        """The element with ``terms`` {basis: coefficient}; checks both."""
        clean = {}
        for basis, coeff in dict(terms).items():
            basis = self.basis.check(self, basis)
            if coeff not in self.coeff_ring:
                raise DomainError("coefficients must come from the coefficient ring")
            clean[basis] = clean[basis] + coeff if basis in clean else coeff
        return self._reduced(clean)

    def _reduced(self, terms):
        is_zero = self.coeff_ring.is_zero
        return FreeElt(self, {b: c for b, c in terms.items() if not is_zero(c)})

    def basis_elt(self, basis, coeff=None):
        return self.elt({basis: self.coeff_ring.one if coeff is None else coeff})

    def line(self, gamma):
        """The line e^g of the torus ring."""
        return self.basis_elt(tuple(gamma))

    def basis_symbols(self, bound):
        return self.basis.symbols(self.r, bound)


class FreeElt:
    """An element of a ``FreeLambdaRing``: ``terms`` maps basis elements to
    nonzero coefficients and is never changed after construction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _coerce(self, other):
        if isinstance(other, FreeElt) and other.ring == self.ring:
            return other
        raise DomainError("mixed-ring arithmetic")

    def __add__(self, other):
        terms = dict(self.terms)
        for b, c in self._coerce(other).terms.items():
            terms[b] = terms[b] + c if b in terms else c
        return self.ring._reduced(terms)

    def __neg__(self):
        return FreeElt(self.ring, {b: -c for b, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        other = self._coerce(other)
        ring = self.ring
        product = ring.basis.product
        out = {}
        for b1, c1 in self.terms.items():
            for b2, c2 in other.terms.items():
                coeff = c1 * c2
                for b, factor in product(ring, b1, b2):
                    c = coeff if factor is None else factor * coeff
                    out[b] = out[b] + c if b in out else c
        return ring._reduced(out)

    def __rmul__(self, scalar):
        return self.ring._reduced({b: scalar * c for b, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, FreeElt) or other.ring != self.ring:
            return NotImplemented
        theirs = other.terms
        if self.terms.keys() != theirs.keys():
            return False
        return all(c == theirs[b] for b, c in self.terms.items())

    __hash__ = None

    def sorted_terms(self):
        sort_key = self.ring.basis.sort_key
        return sorted(self.terms.items(), key=lambda bc: sort_key(bc[0]))

    def augmentation(self):
        rank, coeff_rank = self.ring.basis.rank, self.ring.coeff_ring.rank
        return sum(coeff_rank(c) * rank(b) for b, c in self.terms.items())

    def is_line(self):
        if len(self.terms) != 1:
            return False
        ((basis, coeff),) = self.terms.items()
        lines = self.ring.coeff_ring.lines(coeff)
        return self.ring.basis.rank(basis) == 1 and len(lines) == 1 and lines[0][1] == 1

    def lambda_t(self, d):
        """One series 1 + l*t per signed line l = <a>*b of the coefficients,
        plus lambda^2(b)*t^2 on a rank-2 b, since
        lambda^2(<a>[e^g]) = <a^2> lambda^2([e^g]) = lambda^2([e^g])."""
        ring = self.ring
        atoms = []
        for basis, coeff in self.terms.items():
            top = ring.basis.lambda2(ring, basis)
            for line, sign in ring.coeff_ring.lines(coeff):
                series = [ring.one, FreeElt(ring, {basis: line})]
                if top is not None:
                    series.append(top)
                atoms.append((series, sign))
        return _lambda_t_from_atoms(ring, atoms, d)

    def lambda_k(self, k):
        if k < 0:
            raise DomainError("lambda index must be >= 0")
        if k == 0:
            return self.ring.one
        return self.lambda_t(k)[k]

    def __repr__(self):
        return "FreeElt(%s)" % element_str(self)


# perfbench/child.py wraps the element classes under these names.
KTorusElt = KExtElt = GWExtElt = FreeElt


def KTorusRing(r):
    """Group ring of Z^r; every basis element e^g is a line."""
    return FreeLambdaRing("k-torus", r, INTEGERS, TORUS_WEIGHTS)


def KExtTorusRing(r):
    """Characters of the extension: basis 1, d, and rank-2 symbols [e^g]."""
    return FreeLambdaRing("k-ext-torus", r, INTEGERS, EXT_SYMBOLS)


def GWExtTorusRing(r, field, constants=DEFAULT_CONSTANTS):
    """The extension basis with diagonal-form coefficients over a model field.

    Products and lambda^2 of the rank-2 symbols follow the structure
    constants; [e^0] is eagerly rewritten as <s>*1 + <s>*d with the scale s
    from the constants (truly 2: the invariant subspace carries <2> and the
    anti-invariant one <-2> twisted by the sign character).
    """
    return FreeLambdaRing("gw-ext-torus", r, GWFieldRing(field), EXT_SYMBOLS, constants)


# ---------------------------------------------------------------------------
# maps between the rings


def augmentation(x):
    """Virtual rank: the ring map to the integers sending every line to 1."""
    return x.augmentation()


def forgetful(x):
    """Drop the forms: GWExt -> KExt, coefficient becoming its virtual rank."""
    if not isinstance(x, FreeElt) or x.ring.tag != "gw-ext-torus":
        raise DomainError("the forgetful map starts from the form-level ring")
    rank = x.ring.coeff_ring.rank
    return KExtTorusRing(x.ring.r).elt({b: rank(c) for b, c in x.terms.items()})


def hyperbolic_map(x, gw_ring):
    """Additive map KExt -> GWExt sending a character to its hyperbolic form.

    Each basis copy acquires the split coefficient <1,-1>.  Additive but
    not multiplicative.
    """
    if not isinstance(x, FreeElt) or x.ring.tag != "k-ext-torus":
        raise DomainError("the hyperbolic map starts from the character ring")
    if (
        not isinstance(gw_ring, FreeLambdaRing)
        or gw_ring.tag != "gw-ext-torus"
        or gw_ring.r != x.ring.r
    ):
        raise DomainError("target ring must extend the same torus")
    field = gw_ring.field
    split = gw_ring.coeff_ring.elt(pos=(field.one, field.neg(field.one)))
    return gw_ring.elt({b: c * split for b, c in x.terms.items()})


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
            "terms": [{"basis": "one", "coeff": x.ring.record(x)}],
        }
    if isinstance(x, FreeElt):
        ring = x.ring
        terms = [
            {"basis": ring.basis.record(b), "coeff": ring.coeff_ring.record(c)}
            for b, c in x.sorted_terms()
        ]
        return {
            "ring": ring.tag,
            "rank_r": ring.r,
            "field": None if ring.field is None else ring.field.spec,
            "terms": terms,
        }
    raise DomainError("unknown element type %r" % type(x).__name__)


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
        ring = GWFieldRing(field_model(_checked(record.get("field"), str, "field")))
        out = ring.zero
        for where, term in terms:
            out = out + ring.parse(term.get("coeff"), where)
        return out
    if tag in ("k-torus", "k-ext-torus", "gw-ext-torus"):
        r = _checked(record.get("rank_r"), int, "rank_r")
        if r < 1:
            raise FormatError("rank_r must be a positive integer")
        if tag == "gw-ext-torus":
            field = field_model(_checked(record.get("field"), str, "field"))
            ring = GWExtTorusRing(r, field, constants)
        else:
            ring = (KTorusRing if tag == "k-torus" else KExtTorusRing)(r)
        acc = {}
        for where, term in terms:
            basis = ring.basis.parse(str(term.get("basis", "")), r, where)
            coeff = ring.coeff_ring.parse(term.get("coeff"), where)
            acc[basis] = acc[basis] + coeff if basis in acc else coeff
        return ring.elt(acc)
    raise FormatError("unknown ring tag %r" % (tag,))


def load_element(path, constants=DEFAULT_CONSTANTS):
    return parse_element(_load_json(path), constants)


# ---------------------------------------------------------------------------
# compact display strings


def element_str(x):
    """Readable one-line form of any ring element."""
    if isinstance(x, IntElt):
        return str(x.n)
    if isinstance(x, GWFieldElt):
        return x.ring.to_str(x)
    if isinstance(x, FreeElt):
        ring = x.ring
        parts = [
            ring.coeff_ring.term_str(c, ring.basis.display(b)) for b, c in x.sorted_terms()
        ]
        return " + ".join(parts) or "0"
    return repr(x)
