"""Nondegenerate symmetric bilinear forms over the model fields.

A form is carried by its Gram matrix, kept as a lifted integer matrix M/d.
Sums, tensor products, exterior powers, determinants and invariants work
on those integers, and so do the eliminations of sub-Lagrangian reduction
and the witness (``field.echelon``); field elements appear only where
entries are read or written.  A form read from a Gram matrix is checked
when it is made; a constructed form is nondegenerate by a theorem, and
its symmetric elimination runs only when its determinant, diagonal or
class is read.  The constructions here are
the ones needed to realize exterior-power operations on Witt-style
invariants: orthogonal sum, tensor product, exterior power, hyperbolic
forms, diagonalization, sub-Lagrangian reduction, and an explicit
change-of-basis witness identifying ``a + (-a)`` with a hyperbolic form.

Complete invariants per model (rank over qc; rank and signature over rc;
rank and signed discriminant over fq) are packaged as :class:`GWClass`,
with the induced virtual (formal-difference) ring structure.
"""

import itertools
import math
from functools import reduce
from operator import mul

from .errors import DomainError, FormatError, _checked, _load_json
from .fields import field_model

# Caps on the two constructions whose size a few input bytes set, checked
# before any work (README).  Lambda^k of a form has C(dim, k) rows and a
# minor for every pair of rows: C(10, 5) = 252 rows are the middle power
# of a 10-dimensional form.  hyperbolic(n) has (2n)^2 entries.
MAX_EXTERIOR_ROWS = 252
MAX_HYPERBOLIC_RANK = 256

# Caps on a form read from a Gram matrix: its dimension, checked before
# any entry is read, and the bit size of the lifted (M, d), checked before
# its elimination; a sub-Lagrangian basis has the same bit cap (README).
# Lambda^(dim - 1), the slowest in-cap action, takes 1.5 s on a dense form
# at both caps, and no printed integer comes near Python's 4,300-digit
# limit on int-to-str conversion.
MAX_FORM_DIM = 20
MAX_FORM_BITS = 128


def _checked_bits(m, d, what):
    """Refuse a lifted matrix M/d with d or an entry of M past MAX_FORM_BITS."""
    bits = max([d.bit_length()] + [abs(v).bit_length() for row in m for v in row])
    if bits > MAX_FORM_BITS:
        raise DomainError("%s has %d-bit entries; the cap is %d" % (what, bits, MAX_FORM_BITS))


class GramForm:
    """A symmetric bilinear form with invertible Gram matrix.

    The form is held as its lifted integer matrix (``field.lift``): M and
    d > 0 with Gram matrix M/d.  The constructions below build the M and d
    of their result from those of their operands, and ``gram`` is made
    from them on first read.  The leading principal minors of one
    symmetric elimination (``field.sym_minors``) give the determinant, the
    rc signature and :func:`diagonalize`.

    A form read from a Gram matrix is checked when it is made: within
    MAX_FORM_DIM and MAX_FORM_BITS, square, symmetric, and nonsingular (its
    minors run at once).  A form made by a construction is nondegenerate
    by a theorem (see :meth:`_lifted`), so it is not checked, and its
    minors run on first read.

    The zero-dimensional form (empty matrix) is allowed; it arises as the
    core of a metabolic form under sub-Lagrangian reduction.
    """

    __slots__ = ("field", "_m", "_d", "_minor_cache", "_gram")

    def __init__(self, field, gram):
        # The rows may be lazy (parse_form): none is read past the cap.
        gram = tuple(gram)
        n = len(gram)
        if n > MAX_FORM_DIM:
            raise DomainError("the form has dimension %d; the cap is %d" % (n, MAX_FORM_DIM))
        gram = tuple(tuple(row) for row in gram)
        m, d = field.lift(gram)
        _checked_bits(m, d, "the lifted Gram matrix")
        for row in m:
            if len(row) != n:
                raise DomainError("gram matrix must be square")
        if tuple(map(tuple, m)) != tuple(zip(*m)):
            raise DomainError("gram matrix is not symmetric")
        self.field, self._m, self._d, self._gram = field, m, d, gram
        self._minor_cache = field.sym_minors(m)

    @classmethod
    def _lifted(cls, field, m, d):
        """The form with Gram matrix m/d, built by a construction, unchecked.

        Each construction keeps forms nondegenerate: det(a perp b) =
        det a det b, det(a tensor b) = det(a)^dim b det(b)^dim a,
        det Lambda^k a = det(a)^C(n-1, k-1) (Sylvester-Franke),
        det(-a) = (-1)^n det a, hyperbolic forms have det +-1, and N-perp/N
        of a nondegenerate form is nondegenerate.
        """
        form = cls.__new__(cls)
        form.field, form._m, form._d = field, m, d
        form._gram = form._minor_cache = None
        return form

    @property
    def _minors(self):
        if self._minor_cache is None:
            self._minor_cache = self.field.sym_minors(self._m)
        return self._minor_cache

    @property
    def gram(self):
        if self._gram is None:
            from_ratio, d = self.field.from_ratio, self._d
            self._gram = tuple(tuple(from_ratio(v, d) for v in row) for row in self._m)
        return self._gram

    @property
    def dim(self):
        return len(self._m)

    def det(self):
        n = self.dim
        return self.field.from_ratio(self._minors[-1] if n else 1, self._d**n)

    def __eq__(self, other):
        """Literal equality of Gram matrices (not isometry)."""
        return (
            isinstance(other, GramForm)
            and self.field == other.field
            and self.gram == other.gram
        )

    def __hash__(self):
        return hash((self.field, self.gram))

    def __repr__(self):
        rows = "; ".join(
            ",".join(self.field.to_str(v) for v in row) for row in self.gram
        )
        return "GramForm(%s, [%s])" % (self.field.spec, rows)


# ---------------------------------------------------------------------------
# constructions


def perp_sum(a, b):
    """Orthogonal sum: block-diagonal Gram matrix."""
    if a.field != b.field:
        raise DomainError("orthogonal sum of forms over different fields")
    n, m = a.dim, b.dim
    rows = [[v * b._d for v in row] + [0] * m for row in a._m]
    rows += [[0] * n + [v * a._d for v in row] for row in b._m]
    return GramForm._lifted(a.field, rows, a._d * b._d)


def tensor(a, b):
    """Tensor product: Kronecker product of Gram matrices."""
    if a.field != b.field:
        raise DomainError("tensor product of forms over different fields")
    rows = [[x * y for x in ra for y in rb] for ra in a._m for rb in b._m]
    return GramForm._lifted(a.field, rows, a._d * b._d)


def exterior_power(a, k):
    """k-th exterior power, rows and columns indexed by k-subsets in lex order.

    The (I, J) entry is the k x k minor of the Gram matrix on rows I and
    columns J.  Lambda^0 is <1> (the empty minor) and the top power is the
    determinant line.
    """
    if k < 0:
        raise DomainError("exterior power index must be >= 0")
    if k > a.dim:
        raise DomainError("exterior power index exceeds dimension")
    rows = math.comb(a.dim, k)
    if rows > MAX_EXTERIOR_ROWS:
        raise DomainError("Lambda^%d has %d rows; the cap is %d" % (k, rows, MAX_EXTERIOR_ROWS))
    field = a.field
    subsets = list(itertools.combinations(range(a.dim), k))
    # Minors of the lifted matrix M = d * gram scale by d**k; the Gram
    # matrix is symmetric, so only the minors with I <= J are computed.
    # cut[y] holds every row of M restricted to the columns of subset y.
    cut = [[[row[c] for c in cols] for row in a._m] for cols in subsets]
    minors = [[None] * len(subsets) for _ in subsets]
    for x, rows in enumerate(subsets):
        for y in range(x, len(subsets)):
            minors[x][y] = minors[y][x] = field.int_det([cut[y][r] for r in rows])
    return GramForm._lifted(field, minors, a._d**k)


def hyperbolic(n, field):
    """The hyperbolic form on a rank-n summand and its dual: [[0, I], [I, 0]]."""
    if n < 1:
        raise DomainError("hyperbolic rank must be >= 1")
    if n > MAX_HYPERBOLIC_RANK:
        raise DomainError("hyperbolic rank is %d; the cap is %d" % (n, MAX_HYPERBOLIC_RANK))
    rows = [[1 if abs(i - j) == n else 0 for j in range(2 * n)] for i in range(2 * n)]
    return GramForm._lifted(field, rows, 1)


def negate(a):
    """The form -a, with negated Gram matrix."""
    return GramForm._lifted(a.field, [[-v for v in row] for row in a._m], a._d)


def diagonalize(a):
    """Diagonal entries of a congruent diagonal Gram matrix.

    Symmetric Gaussian elimination; when every remaining diagonal entry
    vanishes, a basis vector is replaced by its sum with a non-orthogonal
    one, which produces the nonzero diagonal value 2*g_ij (char != 2).
    Entry i is D_i / (D_(i-1) d), from the minors of ``field.sym_minors``.
    """
    d, minors = a._d, a._minors
    return [a.field.from_ratio(x, y * d) for x, y in zip(minors, [1] + minors)]


# ---------------------------------------------------------------------------
# classes (complete invariants per model)


def _class_of(field, *factors):
    """The square class of a product of nonzero field elements."""
    return field.square_class(reduce(field.mul, factors))


class GWClass:
    """Isometry-class invariants of a (virtual) form over a model field.

    rank, signed discriminant, and (over rc) signature; ``disc`` is the
    canonical representative, an element of ``field.square_classes``.
    Equality and the hash read ``_invariants``, complete for the model: the
    rank and the signature over rc, the rank and the signed discriminant
    otherwise (over qc the discriminant is always 1).  The
    signed discriminant is (-1)^(n(n-1)/2) det as a square class, which
    makes the hyperbolic class have trivial discriminant.
    """

    __slots__ = ("field", "rank", "disc", "signature")

    def __init__(self, field, rank, disc, signature=None):
        if disc not in field.square_classes:
            raise DomainError("discriminant must be one of the field's square_classes")
        if field.kind == "rc":
            if signature is None:
                raise DomainError("rc classes carry a signature")
            # Virtual classes may have |signature| > |rank|; only the
            # parity constraint survives in the Grothendieck group.
            if (rank - signature) % 2 != 0:
                raise DomainError("signature incompatible with rank")
        else:
            signature = None
        self.field = field
        self.rank = rank
        self.disc = disc
        self.signature = signature

    @classmethod
    def zero(cls, field):
        return cls(field, 0, field.one, 0 if field.kind == "rc" else None)

    @classmethod
    def of_diagonal(cls, field, entries, minus=()):
        """Invariants of <a1,...,an> - <b1,...,bm> in closed form.

        With N = n - m: rank N, signed discriminant
        (-1)^(N(N-1)/2) a1...an b1...bm (each square class is its own
        inverse), and over rc the signature, #{ai > 0} - #{ai < 0} minus
        the same count over the bj.  No matrix or intermediate class is
        built.
        """
        entries, minus = tuple(entries), tuple(minus)
        n = len(entries) - len(minus)
        sign = field.from_int(-1 if (n * (n - 1) // 2) % 2 else 1)
        signature = None
        if field.kind == "rc":
            signature = sum(1 if a > 0 else -1 for a in entries) - sum(
                1 if b > 0 else -1 for b in minus
            )
        return cls(field, n, _class_of(field, sign, *entries, *minus), signature)

    def __add__(self, other):
        self._check(other)
        field = self.field
        # disc(a + b) = (-1)^(ra*rb) disc(a) disc(b)
        sign = field.from_int(-1 if (self.rank * other.rank) % 2 else 1)
        disc = _class_of(field, sign, self.disc, other.disc)
        sig = None
        if field.kind == "rc":
            sig = self.signature + other.signature
        return GWClass(field, self.rank + other.rank, disc, sig)

    def __neg__(self):
        field = self.field
        disc = _class_of(field, field.from_int(-1 if self.rank % 2 else 1), self.disc)
        sig = -self.signature if field.kind == "rc" else None
        return GWClass(field, -self.rank, disc, sig)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        field = self.field
        # disc(ab) = disc(a)^rank(b) * disc(b)^rank(a); the sign twist
        # exponent mn(m-1)(n-1)/2 is always even, so no extra sign.
        disc = _class_of(
            field,
            self.disc if other.rank % 2 else field.one,
            other.disc if self.rank % 2 else field.one,
        )
        sig = None
        if field.kind == "rc":
            sig = self.signature * other.signature
        return GWClass(field, self.rank * other.rank, disc, sig)

    def _check(self, other):
        if not isinstance(other, GWClass) or other.field != self.field:
            raise DomainError("class arithmetic over mismatched fields")

    def _invariants(self):
        return self.rank, self.signature if self.field.kind == "rc" else self.disc

    def __eq__(self, other):
        if not isinstance(other, GWClass):
            return NotImplemented
        if other.field != self.field:
            raise DomainError("class comparison over mismatched fields")
        return self._invariants() == other._invariants()

    def __hash__(self):
        return hash((self.field, self._invariants()))

    def __repr__(self):
        parts = ["rank=%d" % self.rank, "disc=%s" % self.field.to_str(self.disc)]
        if self.signature is not None:
            parts.append("sig=%d" % self.signature)
        return "GWClass(%s, %s)" % (self.field.spec, ", ".join(parts))


def gw_class(a):
    """Complete invariants of a form, as a GWClass."""
    field = a.field
    n = a.dim
    if n == 0:
        return GWClass.zero(field)
    minors = a._minors
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    # det = D_n / d**n lies in the square class of D_n * d**(n % 2).
    disc = field.square_class(field.from_int(sign * minors[-1] * a._d ** (n % 2)))
    signature = None
    if field.kind == "rc":
        signature = sum(
            1 if (x > 0) == (y > 0) else -1 for x, y in zip(minors, [1] + minors)
        )
    return GWClass(field, n, disc, signature)


# ---------------------------------------------------------------------------
# sub-Lagrangian reduction


def sublagrangian_reduce(a, vectors):
    """Quotient form on N-perp / N for a totally isotropic subspace N.

    ``vectors`` spans N and must be linearly independent; every pairing
    between spanning vectors must vanish.  Returns the induced form
    together with dim N.  The class of ``a`` equals the class of the
    reduced form plus the class of hyperbolic(dim N).
    """
    field = a.field
    n = a.dim
    vectors = [list(v) for v in vectors]
    if not vectors:
        raise DomainError("sub-Lagrangian must have rank >= 1")
    for v in vectors:
        if len(v) != n:
            raise DomainError("sub-Lagrangian vector has wrong length")
    k = len(vectors)
    basis, d = field.lift(vectors)
    _checked_bits(basis, d, "the lifted sub-Lagrangian basis")
    pairings = _product((basis, d), a)
    if not _is_zero(field, _product(pairings, (list(zip(*basis)), d))[0]):
        raise DomainError("sub-Lagrangian is not totally isotropic")

    # N-perp is the kernel of the pairing rows.  With the rows D times their
    # reduced echelon form, free column fc gives D times the kernel vector
    # with 1 at fc and -rref[r][fc] at pivot column r.
    rows, pivots, det = field.echelon(pairings[0])
    perp = []
    for fc in range(n):
        if fc not in pivots:
            v = [0] * n
            v[fc] = det
            for row, pc in zip(rows, pivots):
                v[pc] = -row[fc]
            perp.append(v)

    # Extend the basis of N to a basis of N-perp: the perp vectors at the
    # pivot columns past N of [N ; perp]^T span a complement on which the
    # induced form lives.  N is independent when it gives the first k pivots.
    chosen = field.echelon(list(zip(*(basis + perp))))[1]
    if chosen[:k] != list(range(k)):
        raise DomainError("sub-Lagrangian basis is linearly dependent")
    complement = [perp[c - k] for c in chosen[k:]]
    gram, scale = _product((complement, det), a, (list(zip(*complement)), det))
    return GramForm._lifted(field, gram, scale), k


def _product(*mats):
    """The matrix product of factors M_i / d_i, as the product of the integer
    matrices M_i and the product of the d_i.  A factor is a pair (M, d) or a
    GramForm, which brings its own M and d."""
    acc, scale = mats[0]
    for mat in mats[1:]:
        m, d = (mat._m, mat._d) if isinstance(mat, GramForm) else mat
        cols = list(zip(*m))
        acc = [[sum(map(mul, row, col)) for col in cols] for row in acc]
        scale *= d
    return acc, scale


def _is_zero(field, m):
    """Whether every entry of the integer matrix m is zero in the field."""
    return all(field.is_zero(field.from_int(v)) for row in m for v in row)


# ---------------------------------------------------------------------------
# hyperbolic witness


def hyperbolic_lemma_witness(a):
    """Change-of-basis matrix B with B^T * Gram(a perp -a) * B hyperbolic.

    In block form B = [[I, G^{-1}/2], [I, -G^{-1}/2]] with G the Gram
    matrix of a: the identity blocks fold the two copies diagonally and
    the inverse-symmetry blocks, scaled by 1/2, produce the dual half of
    the hyperbolic basis.  The identity is verified exactly before
    returning, so a returned matrix is always a valid witness.
    """
    field = a.field
    n = a.dim
    if n == 0:
        raise DomainError("witness needs a form of dimension >= 1")
    # hyperbolic(n)'s own integer matrix, whose d is 1; made first, so that
    # its rank cap is checked before any work.
    target = hyperbolic(n, field)._m
    # echelon([M | I]) is D [I | M^-1], and G^-1 = d M^-1, so B is c / 2D
    # with c = [[2D I, d X], [2D I, -d X]], X the right half of the rows.
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    rows, _, det = field.echelon([list(row) + e for row, e in zip(a._m, eye)])
    dx = [[a._d * x for x in row[n:]] for row in rows]
    c = [[2 * det * v for v in e] + w for e, w in zip(eye, dx)]
    c += [[2 * det * v for v in e] + [-x for x in w] for e, w in zip(eye, dx)]
    got, scale = _product((list(zip(*c)), 2 * det), perp_sum(a, negate(a)), (c, 2 * det))
    diff = [[v - t * scale for v, t in zip(*pair)] for pair in zip(got, target)]
    if not _is_zero(field, diff):
        raise AssertionError("hyperbolic witness failed verification")
    return tuple(tuple(field.from_ratio(v, 2 * det) for v in row) for row in c)


# ---------------------------------------------------------------------------
# exchange format


def form_record(a):
    """JSON-ready record for a form: field spec and Gram entries as strings."""
    return {
        "field": a.field.spec,
        "gram": [[a.field.to_str(v) for v in row] for row in a.gram],
    }


def parse_form(record):
    """Inverse of :func:`form_record`; diagnostics name the violated rule."""
    record = _checked(record, dict, "form record")
    try:
        spec = record["field"]
        gram = record["gram"]
    except KeyError as exc:
        raise FormatError("form record is missing field %s" % exc) from None
    field = field_model(_checked(spec, str, "field"))
    rows = [
        (field.parse(str(v)) for v in _checked(row, list, "gram[%d]" % i))
        for i, row in enumerate(_checked(gram, list, "gram"))
    ]
    return GramForm(field, rows)


def load_form(path):
    return parse_form(_load_json(path))
