"""Rings with lambda-operations, and checkers for the defining identities.

Every ring is a ``FreeLambdaRing`` and every element a ``FreeElt``
(operators ``+ - *``, integer scalars as ``n * x``, ``lambda_k``, ``lambda_t``,
``augmentation``): a free module on a basis of plain hashable keys, with
coefficients in Z (plain ints) or in GW(F), itself a free lambda-ring.
The five rings differ only in their basis and coefficients:

* ``IntegerRing`` -- Z, free on the unit "one": lambda^k(n) = C(n, k);
* ``GWFieldRing`` -- GW(F), free over Z on the lines <a>, one per square
  class of a model field (keyed by index), taken modulo the Witt
  relations: equality compares one normal form of the counts per class;
* ``KTorusRing`` -- the group ring of Z^r, spanned by line elements e^g
  (keyed by the weight tuple g);
* ``KExtTorusRing`` -- character-level extension by an order-2
  involution: basis "one", "delta" (the sign character d), and rank-2
  symbols [e^g] keyed by the sign-canonical weight ``pair_key(g)``;
* ``GWExtTorusRing`` -- the same basis with GW(F) coefficients, so the
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
from collections import namedtuple

from .errors import DomainError, FormatError, _checked, _ints, _load_json
from .fields import field_model
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


def _binom_general(n, k):
    """C(n, k) for any integer n; for n < 0 it is (-1)^k C(k - n - 1, k)."""
    if n >= 0:
        return math.comb(n, k)
    return (-1) ** k * math.comb(k - n - 1, k)


# ---------------------------------------------------------------------------
# structure constants for the extension rings


class ExtTorusConstants(
    namedtuple(
        "ExtTorusConstants", "delta_delta delta_pair lambda2_pair pair_zero_scale"
    )
):
    """Multiplication and lambda^2 targets on the extension basis.

    The defaults are the true constants, in the convention where d is the
    sign character carrying the form <-1>: d * d = 1, [e^0] = <2>*1 + <2>*d
    and lambda^2([e^g]) = d.  Alternative values that are structurally
    well-formed (rank-compatible) are accepted so that a corrupted table
    can be loaded and then caught by the identity checks rather than by the
    parser.  ``delta_pair`` stays in the file format but is accepted only
    as "pair": ``_ExtSymbols.product`` hard-codes d * [e^g] = [e^g].
    """

    __slots__ = ()

    def __new__(
        cls,
        delta_delta="one",  # d * d
        delta_pair="pair",  # d * [e^g]
        lambda2_pair="delta",  # lambda^2([e^g])
        pair_zero_scale=2,  # [e^0] = <s>*1 + <s>*d
    ):
        if delta_delta not in ("one", "delta"):
            raise FormatError("delta_delta must be 'one' or 'delta'")
        if delta_pair != "pair":
            raise FormatError("delta_pair must be 'pair'")
        if lambda2_pair not in ("delta", "one", "zero"):
            raise FormatError("lambda2_pair must be 'delta', 'one', or 'zero'")
        if _checked(pair_zero_scale, int, "pair_zero_scale") == 0:
            raise FormatError("pair_zero_scale must be a nonzero integer")
        return super().__new__(cls, delta_delta, delta_pair, lambda2_pair, pair_zero_scale)


DEFAULT_CONSTANTS = ExtTorusConstants()


def load_constants(path):
    data = _load_json(path)
    if not isinstance(data, dict):
        raise FormatError("constants file must hold an object")
    unknown = set(data) - set(ExtTorusConstants._fields)
    if unknown:
        raise FormatError("unknown constants keys: %s" % ", ".join(sorted(unknown)))
    return ExtTorusConstants(**data)


# ---------------------------------------------------------------------------
# the coefficient ring Z, and the bases of the free lambda-rings


class _Integers:
    """Z as a coefficient ring: coefficients are plain ints.

    Same methods as the coefficient protocol of ``FreeLambdaRing``.
    """

    field = None
    one = 1

    def __contains__(self, coeff):
        return isinstance(coeff, int)

    def rank(self, coeff):
        return coeff

    def lines(self, coeff):
        # A product can make a coefficient past the C size that
        # itertools.repeat takes; lambda_t stops at MAX_LINES anyway.
        line = (1, 1 if coeff > 0 else -1)
        return (line for _ in range(abs(coeff)))

    def rank_one(self, s):
        return 1

    def record(self, coeff):
        return coeff

    def parse(self, record, where):
        return _checked(record, int, where + ".coeff")

    def term_str(self, coeff, body):
        return body if coeff == 1 else "%d*%s" % (coeff, body)


INTEGERS = _Integers()


class _Basis:
    """What the bases share: lines as keys, no quotient, and the generic
    exchange format and display of an element.

    A basis validates its plain hashable keys (``check``, called by
    ``FreeLambdaRing.elt``), multiplies them (``product``: the (key,
    factor) pairs of k1*k2, factor None for 1) and gives lambda^2 of a
    rank-2 key (None on a line).
    """

    field = None

    def unit(self, r):
        return "one"

    def rank(self, key):
        return 1

    def lambda2(self, ring, key):
        return None

    def sort_key(self, key):
        return key

    def same(self, x, y):
        return x.terms == y.terms

    def is_zero(self, x):
        return not x.terms

    def terms_record(self, x):
        record = x.ring.coeff_ring.record
        return [{"basis": self.record(b), "coeff": record(c)} for b, c in x.sorted_terms()]

    def parse_term(self, ring, term, where):
        """The (key, coefficient) pairs of one exchange-format term."""
        key = self.parse(str(term.get("basis", "")), ring.r, where)
        return ((key, ring.coeff_ring.parse(term.get("coeff"), where)),)

    def show(self, x):
        term_str = x.ring.coeff_ring.term_str
        return " + ".join(term_str(c, self.display(b)) for b, c in x.sorted_terms()) or "0"

    # GW(F) only; AttributeError keeps hasattr(x, "pos") False elsewhere.
    def entries(self, x, sign):
        raise AttributeError("pos and neg are defined on GW(F) only")

    def _gw_only(self, *args):
        raise DomainError("diagonal forms and their classes exist in GW(F) only")

    diag = coeff_record = coeff_parse = _gw_only


class _Unit(_Basis):
    """Basis of Z over itself: the unit alone, so lambda^k(n) = C(n, k)."""

    def check(self, ring, key):
        if key != "one":
            raise DomainError("the only basis key of the integers is 'one'")
        return key

    def product(self, ring, k1, k2):
        return (("one", None),)

    def record(self, key):
        return key

    def parse(self, text, r, where):
        if text != "one":
            raise FormatError("%s.basis must be 'one'" % where)
        return text

    def show(self, x):
        return str(x.augmentation())


class _SquareClasses(_Basis):
    """Basis of GW(F) over Z: the lines <a>, one per square class of the
    field, keyed by the index of a in ``field.square_classes``.

    The terms of an element are signed counts of entries <a> per class; its
    ``pos`` and ``neg`` (the class representatives repeated by the positive
    and the negative counts) are the exchange format.  GW(F) is the
    quotient of this free ring by the Witt relations, and ``same`` and
    ``is_zero`` compare one normal form of the counts (``_normal``).
    ``faithful`` says that the counts are that normal form.  Products of
    keys follow the square-class product table of the field.
    """

    def __init__(self, field):
        self.field = field
        classes = field.square_classes
        self.index = index = {a: i for i, a in enumerate(classes)}
        self._strs = tuple(field.to_str(a) for a in classes)
        # _table[i][j]: index of the square class of classes[i] * classes[j]
        self._table = tuple(
            tuple(index[field.square_class(field.mul(a, b))] for b in classes)
            for a in classes
        )
        # In the model fields the rank, the signature (rc) and the signed
        # discriminant (fq) are complete invariants, so two different counts
        # have the same class only over fq, where 2<u> = 2<1> (Lam, GSM 67,
        # ch. II §3).
        self.faithful = field.kind != "fq"
        self._zero = self._normal({})

    def _normal(self, counts):
        """The counts themselves, or over fq, with <1> at index 0 and the
        non-residue u at index 1, (c_1 + c_u - c_u mod 2, c_u mod 2): equal
        exactly when the classes are."""
        if self.faithful:
            return counts
        u = counts.get(1, 0)
        return (counts.get(0, 0) + u - u % 2, u % 2)

    def unit(self, r):
        return self.index[self.field.one]

    def check(self, ring, key):
        if not isinstance(key, int) or not 0 <= key < len(self._table):
            raise DomainError("keys must be square-class indices")
        return key

    def product(self, ring, i, j):
        return ((self._table[i][j], None),)

    def entries(self, x, sign):
        """Representatives of the added (sign 1) or subtracted (sign -1)
        entries, in class order."""
        classes = self.field.square_classes
        return tuple(classes[i] for i, c in sorted(x.terms.items()) for _ in range(sign * c))

    def same(self, x, y):
        return self._normal(x.terms) == self._normal(y.terms)

    def is_zero(self, x):
        return self._normal(x.terms) == self._zero

    def diag(self, ring, pos, neg):
        index, square_class = self.index, self.field.square_class
        counts = {}
        for sign, side in ((1, pos), (-1, neg)):
            for a in side:
                i = index[square_class(a)]
                counts[i] = counts.get(i, 0) + sign
        return ring._reduced(counts)

    def coeff_record(self, x):
        """{pos, neg}: the strings of ``entries``, in the same order."""
        strs, counts = self._strs, sorted(x.terms.items())
        return {
            "pos": [strs[i] for i, c in counts for _ in range(c)],
            "neg": [strs[i] for i, c in counts for _ in range(-c)],
        }

    def coeff_parse(self, ring, record, where):
        """Inverse of :meth:`coeff_record`; ``where`` names the term in diagnostics."""
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
        return self.diag(ring, *sides)

    # The exchange format of GW(F) is one "one" term holding the counts as
    # {pos, neg}, even for zero; a term on another basis is refused.
    def terms_record(self, x):
        return [{"basis": "one", "coeff": self.coeff_record(x)}]

    def parse_term(self, ring, term, where):
        _UNIT.parse(str(term.get("basis", "")), None, where)
        return self.coeff_parse(ring, term.get("coeff"), where).terms.items()

    def show(self, x):
        pos, neg = ("<%s>" % ",".join(s) if s else "" for s in self.coeff_record(x).values())
        if pos and neg:
            return "(%s - %s)" % (pos, neg)
        if neg:
            return "(-%s)" % neg
        return pos or "0"


class _TorusWeights(_Basis):
    """Basis of K(T): the weights g in Z^r, each e^g a line."""

    def unit(self, r):
        return (0,) * r

    def check(self, ring, gamma):
        gamma = tuple(int(v) for v in gamma)
        if len(gamma) != ring.r:
            raise DomainError("weight length must equal the torus rank")
        return gamma

    def product(self, ring, g1, g2):
        return ((tuple(a + b for a, b in zip(g1, g2)), None),)

    def count(self, r, bound):
        """len(symbols(r, bound)), without listing them."""
        return (2 * bound + 1) ** r

    def symbols(self, r, bound):
        """Every weight with coordinates in [-bound, bound], in lex order."""
        return list(itertools.product(range(-bound, bound + 1), repeat=r))

    def record(self, gamma):
        return "wt:" + ",".join(str(v) for v in gamma)

    def parse(self, text, r, where):
        if not text.startswith("wt:"):
            raise FormatError("%s.basis must look like 'wt:<coords>'" % where)
        gamma = _ints(text[3:], "%s.basis coordinates" % where)
        if len(gamma) != r:
            raise FormatError("%s.basis has %d coordinates, expected %d" % (where, len(gamma), r))
        return gamma

    def display(self, gamma):
        return "e[%s]" % ",".join(str(v) for v in gamma)


def canonical_rep(gamma):
    """Flip the global sign so the first nonzero coordinate is positive."""
    for v in gamma:
        if v > 0:
            return tuple(gamma)
        if v < 0:
            return tuple(-x for x in gamma)
    return tuple(gamma)


def pair_key(gamma):
    """Key of the rank-2 symbol [e^g]: g up to global sign, with its first
    nonzero coordinate positive."""
    gamma = canonical_rep(tuple(int(v) for v in gamma))
    if not any(gamma):
        raise DomainError("pair symbol requires a nonzero weight")
    return gamma


def parse_basis(text, r):
    """Key of an extension basis name: 'one', 'delta' or 'pair:<coords>'."""
    if text in ("one", "delta"):
        return text
    if text.startswith("pair:"):
        coords = _ints(text[5:], "pair coordinates")
        if len(coords) != r:
            raise FormatError("basis %r has %d coordinates, expected %d" % (text, len(coords), r))
        try:
            return pair_key(coords)
        except DomainError as exc:
            raise FormatError("bad basis %r: %s" % (text, exc)) from None
    raise FormatError("unknown basis %r" % (text,))


_EXT_ORDER = {"one": 0, "delta": 1}


class _ExtSymbols(_Basis):
    """Basis of the extended torus: the lines 1 ("one") and d ("delta"),
    and the rank-2 symbols [e^g] keyed by ``pair_key(g)``.

    d is the sign character carrying the form <-1>; with the default
    constants [e^0] = <2>*1 + <2>*d and lambda^2([e^g]) = d.  ``product``
    hard-codes d * [e^g] = [e^g], which is why ``delta_pair`` is accepted
    only as "pair".
    """

    def check(self, ring, key):
        if key in _EXT_ORDER or (
            isinstance(key, tuple)
            and len(key) == ring.r
            and all(isinstance(v, int) for v in key)
            and any(key)
            and key == canonical_rep(key)
        ):
            return key
        raise DomainError(
            "keys must be basis symbols: 'one', 'delta' or a sign-canonical nonzero weight"
            " of the torus rank"
        )

    def rank(self, key):
        return 2 if isinstance(key, tuple) else 1

    def product(self, ring, b1, b2):
        """b1*b2 as (key, factor) pairs, factor None for 1.

        [e^g][e^h] = [e^(g+h)] + [e^(g-h)], and [e^0] = <s>*1 + <s>*d with
        the ring's scale <s>.
        """
        if b1 == "one":
            return ((b2, None),)
        if b2 == "one":
            return ((b1, None),)
        if b1 == "delta" and b2 == "delta":
            return ((ring.constants.delta_delta, None),)
        if b1 == "delta":
            return ((b2, None),)
        if b2 == "delta":
            return ((b1, None),)
        out = []
        for gamma in (
            tuple(a + b for a, b in zip(b1, b2)),
            tuple(a - b for a, b in zip(b1, b2)),
        ):
            if any(gamma):
                out.append((canonical_rep(gamma), None))
            else:
                out += [("one", ring.scale), ("delta", ring.scale)]
        return out

    def lambda2(self, ring, key):
        """lambda^2 of a rank-2 symbol; None on the lines 1 and d."""
        if not isinstance(key, tuple):
            return None
        target = ring.constants.lambda2_pair
        return ring.zero if target == "zero" else ring.basis_elt(target)

    def count(self, r, bound):
        """len(symbols(r, bound)): 1, d and one of g, -g per nonzero g."""
        return 2 + (TORUS_WEIGHTS.count(r, bound) - 1) // 2

    def symbols(self, r, bound):
        """1, d, and the pair symbols with coordinates in [-bound, bound]:
        the nonzero sign-canonical weights of the torus box, in lex order."""
        box = TORUS_WEIGHTS.symbols(r, bound)
        return ["one", "delta"] + [g for g in box if any(g) and g == canonical_rep(g)]

    def sort_key(self, key):
        return (2, key) if isinstance(key, tuple) else (_EXT_ORDER[key], ())

    def record(self, key):
        return "pair:" + ",".join(str(v) for v in key) if isinstance(key, tuple) else key

    def parse(self, text, r, where):
        try:
            return parse_basis(text, r)
        except FormatError as exc:
            raise FormatError("%s: %s" % (where, exc)) from None

    def display(self, key):
        if isinstance(key, tuple):
            return "[e^(%s)]" % ",".join(str(v) for v in key)
        return "1" if key == "one" else "d"


_UNIT = _Unit()
TORUS_WEIGHTS = _TorusWeights()
EXT_SYMBOLS = _ExtSymbols()


# ---------------------------------------------------------------------------
# free lambda-rings


class FreeLambdaRing:
    """A free module on ``basis`` with coefficients in ``coeff_ring``.

    ``coeff_ring`` (``INTEGERS``, or GW(F) as a free lambda-ring) gives the
    rank of a coefficient and splits it into signed lines, and a coefficient
    is zero when it is false (an int, or a ``FreeElt`` by ``__bool__``);
    ``basis`` multiplies its keys, gives lambda^2 of a rank-2 one, and
    decides equality (a quotient on the square classes of GW(F)).  ``tag``
    names the ring in element records and ``r`` is the torus rank (None
    for Z and GW(F)).  Rings compare by (tag, r, coefficient ring, field,
    constants).

    A free lambda-ring is also a coefficient ring: the methods from
    ``__contains__`` on are the protocol that ``INTEGERS`` shares.  Only
    GW(F) serves as one: ``diag``, ``rank_one``, ``record``, ``parse`` and
    an element's ``pos`` and ``neg`` fail on the other bases.
    """

    __slots__ = (
        "tag", "r", "coeff_ring", "basis", "constants", "field", "scale", "one", "zero", "_products"
    )

    def __init__(self, tag, r, coeff_ring, basis, constants=DEFAULT_CONSTANTS):
        if r is not None and r < 1:
            raise DomainError("torus rank must be >= 1")
        if r is not None and r > MAX_RANK:
            raise DomainError("torus rank is %d; rings take ranks up to %d" % (r, MAX_RANK))
        self.tag = tag
        self.r = r
        self.coeff_ring = coeff_ring
        self.basis = basis
        self.constants = constants
        self.field = basis.field or coeff_ring.field
        # {(b1, b2): basis.product(self, b1, b2)}, filled as products are
        # formed; the pairs depend on the constants and the scale.
        self._products = {}
        self.scale = coeff_ring.rank_one(constants.pair_zero_scale)
        self.one = FreeElt(self, {basis.unit(r): coeff_ring.one})
        self.zero = FreeElt(self, {})

    def _key(self):
        return (self.tag, self.r, self.coeff_ring, self.field, self.constants)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, FreeLambdaRing) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "FreeLambdaRing(%r, r=%r)" % (self.tag, self.r)

    def elt(self, terms):
        """The element with ``terms`` {basis key: coefficient}; checks both."""
        clean = {}
        for basis, coeff in dict(terms).items():
            basis = self.basis.check(self, basis)
            if coeff not in self.coeff_ring:
                raise DomainError("coefficients must come from the coefficient ring")
            clean[basis] = clean[basis] + coeff if basis in clean else coeff
        return self._reduced(clean)

    def _reduced(self, terms):
        return FreeElt(self, {b: c for b, c in terms.items() if c})

    def basis_elt(self, basis, coeff=None):
        return self.elt({basis: self.coeff_ring.one if coeff is None else coeff})

    def line(self, gamma):
        """The line e^g of the torus ring."""
        return self.basis_elt(tuple(gamma))

    def basis_symbols(self, bound):
        """The basis keys with weight coordinates in [-bound, bound]."""
        if bound < 0:
            raise DomainError("bound must be >= 0")
        return self.basis.symbols(self.r, bound)

    def diag(self, pos, neg=()):
        """<pos entries> - <neg entries> in GW(F); each entry is a nonzero
        field element."""
        return self.basis.diag(self, pos, neg)

    def __contains__(self, coeff):
        return isinstance(coeff, FreeElt) and coeff.ring == self

    def rank(self, coeff):
        return coeff.augmentation()

    def lines(self, coeff):
        """(line, sign) pairs whose signed sum is ``coeff``, one at a time,
        in the order of the sorted terms."""
        for b, c in coeff.sorted_terms():
            for line, sign in self.coeff_ring.lines(c):
                yield FreeElt(self, {b: line}), sign

    def term_str(self, coeff, body):
        return "%s*%s+" % (element_str(coeff), body)

    def rank_one(self, s):
        """The rank-1 form <s>, for the constant ``pair_zero_scale`` s."""
        a = self.field.from_int(s)
        if self.field.is_zero(a):
            raise DomainError("pair_zero_scale %d is zero in the field %s" % (s, self.field.spec))
        return self.diag((a,))

    def record(self, coeff):
        return self.basis.coeff_record(coeff)

    def parse(self, record, where):
        return self.basis.coeff_parse(self, record, where)


class FreeElt:
    """An element of a ``FreeLambdaRing``: ``terms`` maps basis keys to
    nonzero coefficients and is never changed after construction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _coerce(self, other):
        if isinstance(other, FreeElt) and (other.ring is self.ring or other.ring == self.ring):
            return other
        raise DomainError("mixed-ring arithmetic")

    # Every element is built reduced, so a sum or product with an operand
    # that has no terms needs no _reduced; the operands are coerced first.
    def __add__(self, other):
        other = self._coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for b, c in other.terms.items():
            terms[b] = terms[b] + c if b in terms else c
        return self.ring._reduced(terms)

    def __neg__(self):
        return FreeElt(self.ring, {b: -c for b, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        ring = self.ring
        if not self.terms or not other.terms:
            return ring.zero
        products = ring._products
        out = {}
        for b1, c1 in self.terms.items():
            for b2, c2 in other.terms.items():
                coeff = c1 * c2
                pairs = products.get((b1, b2))
                if pairs is None:
                    pairs = products[b1, b2] = tuple(ring.basis.product(ring, b1, b2))
                for b, factor in pairs:
                    c = coeff if factor is None else factor * coeff
                    out[b] = out[b] + c if b in out else c
        return ring._reduced(out)

    def __rmul__(self, scalar):
        return self.ring._reduced({b: scalar * c for b, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, FreeElt) or other.ring != self.ring:
            return NotImplemented
        return self.ring.basis.same(self, other)

    __hash__ = None

    def is_zero(self):
        return self.ring.basis.is_zero(self)

    # The zero test of a GW(F) coefficient in _reduced.  It calls the basis
    # directly: the benchmark's spans pass times is_zero as an equality.
    def __bool__(self):
        return not self.ring.basis.is_zero(self)

    # GW(F) only: the exchange format.
    @property
    def pos(self):
        return self.ring.basis.entries(self, 1)

    @property
    def neg(self):
        return self.ring.basis.entries(self, -1)

    def sorted_terms(self):
        sort_key = self.ring.basis.sort_key
        return sorted(self.terms.items(), key=lambda bc: sort_key(bc[0]))

    def augmentation(self):
        rank, coeff_rank = self.ring.basis.rank, self.ring.coeff_ring.rank
        return sum(coeff_rank(c) * rank(b) for b, c in self.terms.items())

    def lambda_t(self, d):
        """[lambda^0(x), ..., lambda^d(x)]: the product of one series 1 + l*t
        per signed line l = <a>*b of the coefficients, plus lambda^2(b)*t^2
        on a rank-2 b, since lambda^2(<a>[e^g]) = <a^2> lambda^2([e^g]) =
        lambda^2([e^g]); the series of a negative line is inverted.  An
        integer n on a line b gives sum C(n, k) b^k t^k at once: sums over Z
        are exact, so their order cannot matter.  More than MAX_LINES line
        series are refused as the next one is reached."""
        ring = self.ring
        pos = neg = [ring.one]
        count = 0
        for basis, coeff in self.terms.items():
            top = ring.basis.lambda2(ring, basis)
            if top is None and ring.coeff_ring is INTEGERS:
                line, power, series = FreeElt(ring, {basis: 1}), ring.one, [ring.one]
                for k in range(1, (d if coeff < 0 else min(d, coeff)) + 1):
                    power = power * line
                    series.append(_binom_general(coeff, k) * power)
                pos = _series_mul(pos, series, d)
                continue
            for line, sign in ring.coeff_ring.lines(coeff):
                count += 1
                if count > MAX_LINES:
                    raise DomainError("a lambda-series takes at most %d line factors" % MAX_LINES)
                series = [ring.one, FreeElt(ring, {basis: line})]
                if top is not None:
                    series.append(top)
                if sign > 0:
                    pos = _series_mul(pos, series, d)
                else:
                    neg = _series_mul(neg, series, d)
        total = _series_mul(pos, _series_inv(neg, d), d)
        return total + [ring.zero] * (d + 1 - len(total))

    def lambda_k(self, k):
        if k < 0:
            raise DomainError("lambda index must be >= 0")
        if k == 0:
            return self.ring.one
        return self.lambda_t(k)[k]

    def __repr__(self):
        return "FreeElt(%s)" % element_str(self)


# perfbench/child.py wraps the element class under these names.
IntElt = GWFieldElt = KTorusElt = KExtElt = GWExtElt = FreeElt


def IntegerRing():
    """Z, free on its unit: lambda^k(n) = C(n, k)."""
    return FreeLambdaRing("integers", None, INTEGERS, _UNIT)


def GWFieldRing(field):
    """GW(F): formal differences of diagonal forms <a1,...,am> over a model
    field, up to complete invariants."""
    return FreeLambdaRing("gw-field", None, INTEGERS, _SquareClasses(field))


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


# The largest torus rank r of a ring.  A weight is a tuple of r integers,
# and a sweep at --bound 1 enumerates 3^r of them (6,561 at r = 8).
MAX_RANK = 8

# The most basis elements a sweep takes.  A sweep checks every pair, so its
# work grows with the square of the count: 64 elements at the largest table
# degree (gw-ext-torus over fq:5, r 1, bound 62, kmax 12, jmax 1; 2,080
# pairs) take 36 s, and 0.9 s at the default kmax 4 (README).
MAX_SWEEP = 64

# The most line series one lambda-series multiplies (FreeElt.lambda_t): one
# per unit of a coefficient on a rank-2 key or over GW(F).  At kmax 12 each
# takes up to 0.5 ms, so the three series of one check take about 0.4 s at
# the cap (README).
MAX_LINES = 256


def _checked_kmax(kmax, degree, what):
    """Refuse a kmax below 1, or a table degree above the cap, before any work."""
    if kmax < 1:
        raise DomainError("kmax must be >= 1")
    symfun.checked_degree(degree, what)


def _checked_sweep(count):
    """Refuse a sweep of more than MAX_SWEEP elements before any is listed."""
    if count > MAX_SWEEP:
        raise DomainError("the sweep has %d elements; sweeps take up to %d" % (count, MAX_SWEEP))


def _records(check, kmax, lhs, rhs):
    """One CheckRecord per k = 1..kmax: ``lhs[k]`` against ``rhs(k)``."""
    return tuple(CheckRecord(check, k, lhs[k], rhs(k)) for k in range(1, kmax + 1))


def check_lambda1(x, y, kmax=None):
    """Compare lambda^k(x*y) with the universal polynomial in lambda^i(x), lambda^j(y)."""
    if x.ring != y.ring:
        raise DomainError("operands must share a ring")
    if kmax is None:
        kmax = max(1, x.augmentation() * y.augmentation())
    _checked_kmax(kmax, kmax, "kmax")
    lx, ly, lxy = x.lambda_t(kmax), y.lambda_t(kmax), (x * y).lambda_t(kmax)
    return _records(
        "lambda1",
        kmax,
        lxy,
        lambda k: symfun.universal_P(k).evaluate(lx[1 : k + 1], ly[1 : k + 1], one=x.ring.one),
    )


def check_lambda2(x, j, kmax=None):
    """Compare lambda^k(lambda^j(x)) with the universal polynomial in lambda^i(x)."""
    if j < 1:
        raise DomainError("inner index j must be >= 1")
    if kmax is None:
        kmax = max(1, _binom_general(x.augmentation(), j))
    _checked_kmax(kmax, kmax * j, "kmax*j")
    lx = x.lambda_t(kmax * j)
    return _records(
        "lambda2",
        kmax,
        lx[j].lambda_t(kmax),
        lambda k: symfun.universal_P_kj(k, j).evaluate(lx[1 : k * j + 1], one=x.ring.one),
    )


# ---------------------------------------------------------------------------
# element exchange format


def element_record(x):
    """JSON-ready record: ring tag, torus rank, field spec, and terms."""
    ring = x.ring
    return {
        "ring": ring.tag,
        "rank_r": ring.r,
        "field": None if ring.field is None else ring.field.spec,
        "terms": ring.basis.terms_record(x),
    }


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
    elif tag == "gw-field":
        ring = GWFieldRing(field_model(_checked(record.get("field"), str, "field")))
    elif tag in ("k-torus", "k-ext-torus", "gw-ext-torus"):
        r = _checked(record.get("rank_r"), int, "rank_r")
        if r < 1:
            raise FormatError("rank_r must be a positive integer")
        if tag == "gw-ext-torus":
            field = field_model(_checked(record.get("field"), str, "field"))
            ring = GWExtTorusRing(r, field, constants)
        else:
            ring = (KTorusRing if tag == "k-torus" else KExtTorusRing)(r)
    else:
        raise FormatError("unknown ring tag %r" % (tag,))
    acc = {}
    for where, term in terms:
        for key, coeff in ring.basis.parse_term(ring, term, where):
            acc[key] = acc[key] + coeff if key in acc else coeff
    return ring.elt(acc)


def load_element(path, constants=DEFAULT_CONSTANTS):
    return parse_element(_load_json(path), constants)


# ---------------------------------------------------------------------------
# compact display strings


def element_str(x):
    """Readable one-line form of any ring element."""
    return x.ring.basis.show(x)
