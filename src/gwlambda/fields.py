"""Model fields of characteristic != 2 with decidable square classes.

Three models are provided, each with exact element arithmetic and a
canonical representative for every square class:

* ``qc`` -- rationals standing in for a quadratically closed field; every
  nonzero element is a square, so the only square class is 1.
* ``rc`` -- rationals standing in for a real closed field; squareness is
  the sign test and the square classes are represented by +1 and -1.
* ``fq:<q>`` -- the prime field with q elements, q an odd prime; squareness
  is the Euler criterion and the square classes are represented by 1 and
  the smallest quadratic non-residue.

Elements are plain ``Fraction`` values (qc, rc) or plain ``int`` residues
in ``[0, q)`` (fq).  All arithmetic goes through the model so that callers
never need to branch on the representation.  Every model provides:

* ``kind`` and ``spec`` -- "qc", "rc" or "fq", and the canonical spec
  string that :func:`field_model` accepts.
* ``zero``, ``one``, ``from_int(n)`` and ``from_ratio(n, d)`` -- the element
  n/d of integers n and d, d nonzero in the field.
* ``mul`` and ``is_zero``.
* ``is_square(a)`` and ``square_class(a)`` of a nonzero a (a DomainError on
  zero), and ``square_classes``: every canonical representative, in output
  order.
* ``lift(rows)`` -- an integer matrix M and an integer d > 0 with
  rows = M/d (fq: the residues, d = 1).
* ``int_det(M)`` -- its determinant (cofactors up to size 3, fraction-free
  Bareiss elimination over Z above; fq reduces it mod q), so det(rows) is
  ``from_ratio(int_det(M), d**n)`` in every model.
* ``echelon(M)`` -- the fraction-free Gauss-Jordan elimination over Z of
  every model: D times the reduced row echelon form of M in the field, its
  pivot columns, and D.
* ``sym_minors(M)`` -- the symmetric elimination of a symmetric M: its
  pivoting is a congruence P, and it returns the leading principal minors
  D_1..D_n of P^T M P (fq: mod q), or a DomainError if M is singular.  The
  rows M/d then have determinant D_n/d**n and the congruent diagonal
  entries D_i/(D_(i-1) d), D_0 = 1.
* ``parse(text)`` (a FormatError on bad text) and ``to_str(a)``.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import DomainError, FormatError


class FieldModel:
    """The kernels shared by every model; the module docstring lists the
    protocol, and each model supplies the rest."""

    kind = ""

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == self.zero

    def int_det(self, m):
        """Determinant of an integer matrix, as an integer for from_ratio.

        Size 3 and below is the cofactor expansion (the empty matrix gives
        1).  Above that it is Bareiss elimination over Z: every division is
        exact, and checked.  Row i holds its Bareiss row times level[i] /
        prev, prev being the last pivot.  A row with a zero in the pivot
        column is left as it is, so sparse and diagonal matrices cost no
        rescaling; level[i] is the divisor when the row is next eliminated
        or becomes the pivot.
        """
        n = len(m)
        if n == 3:
            (a, b, c), (d, e, f), (g, h, i) = m
            return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        if n == 2:
            (a, b), (c, d) = m
            return a * d - b * c
        if n < 2:
            return m[0][0] if n else 1
        m = [list(row) for row in m]
        level = [1] * n
        sign, prev = 1, 1
        for k in range(n):
            if not m[k][k]:
                swap = next((r for r in range(k + 1, n) if m[r][k]), None)
                if swap is None:
                    return 0
                m[k], m[swap] = m[swap], m[k]
                level[k], level[swap] = level[swap], level[k]
                sign = -sign
            pivot_row = m[k]
            if level[k] != prev:
                for j in range(k, n):
                    pivot_row[j], rest = divmod(pivot_row[j] * prev, level[k])
                    if rest:
                        raise AssertionError("Bareiss division is not exact")
            pk = pivot_row[k]
            for i in range(k + 1, n):
                row = m[i]
                a = row[k]
                if a:
                    s = level[i]
                    for j in range(k + 1, n):
                        row[j], rest = divmod(pk * row[j] - a * pivot_row[j], s)
                        if rest:
                            raise AssertionError("Bareiss division is not exact")
                    level[i] = pk
            prev = pk
        return sign * prev

    def echelon(self, m):
        """Fraction-free Gauss-Jordan elimination of an integer matrix over Z.

        Returns (rows, pivots, D): the rows, one per pivot column, are D
        times the reduced row echelon form of m in the field, and D is the
        last pivot (1 if none).  Only an entry nonzero in the field is a
        pivot.  Each step replaces every other row by (pivot * row - row[c]
        * pivot row) / previous pivot, exact over Z as in Bareiss.
        """
        m = [list(row) for row in m]
        pivots, prev = [], 1
        for c in range(len(m[0]) if m else 0):
            r = len(pivots)
            p = next(
                (i for i in range(r, len(m)) if not self.is_zero(self.from_int(m[i][c]))),
                None,
            )
            if p is None:
                continue
            m[r], m[p] = m[p], m[r]
            pivot_row = m[r]
            pk = pivot_row[c]
            for i, row in enumerate(m):
                if i != r:
                    a = row[c]
                    m[i] = _exact([pk * x - a * y for x, y in zip(row, pivot_row)], prev)
            pivots.append(c)
            prev = pk
        return m[: len(pivots)], pivots, prev

    def __eq__(self, other):
        # field_model() caches its models, so equal specs are usually the
        # same object; the spec comparison covers models built directly.
        return self is other or (
            isinstance(other, FieldModel) and self.spec == other.spec
        )

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return "field_model(%r)" % self.spec


class _Rational(FieldModel):
    """Shared by qc and rc, whose elements are ``Fraction`` values."""

    zero = Fraction(0)
    one = Fraction(1)

    @property
    def spec(self):
        return self.kind

    def from_int(self, n):
        return Fraction(n)

    def square_class(self, a):
        return self.one if self.is_square(a) else -self.one

    def parse(self, text):
        # Fraction expands an exponent at once: "1e20000000" takes 21 s
        # and makes a number too long to print.
        if "e" in text or "E" in text:
            raise FormatError("bad rational %r: exponent notation is refused" % (text,))
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError("bad rational %r: %s" % (text, exc)) from None

    def to_str(self, a):
        return str(a)  # Fraction prints "p" or "p/q" in lowest terms

    def lift(self, rows):
        d = lcm(*(v.denominator for row in rows for v in row))
        return [[v.numerator * (d // v.denominator) for v in row] for row in rows], d

    def from_ratio(self, n, d):
        return Fraction(n, d)

    def sym_minors(self, m):
        """Symmetric Bareiss elimination over Z, with int_det's levels.

        The pivoting of :func:`_pivot` acts on rows and columns alike, so
        the trailing block stays a multiple of the symmetric Schur
        complement, and pivot k is the minor D_k.  The sum e_k + e_j adds
        row j, at its Bareiss values, to the settled pivot row.
        """
        m = [list(row) for row in m]
        n = len(m)
        level = [1] * n
        prev = 1
        minors = []
        for k in range(n):
            other = _pivot(m, k)
            if other is not None and m[other][other]:
                _swap(m, k, other)
                level[k], level[other] = level[other], level[k]
            if level[k] != prev:
                m[k][k:] = _exact([v * prev for v in m[k][k:]], level[k])
                level[k] = prev
            if not m[k][k]:
                _add(m, k, other, _exact([v * prev for v in m[other][k:]], level[other]))
            pivot_row = m[k]
            pk = pivot_row[k]
            for i in range(k + 1, n):
                row = m[i]
                a = row[k]
                if a:
                    row[k + 1:] = _exact(
                        [pk * x - a * y for x, y in zip(row[k + 1:], pivot_row[k + 1:])],
                        level[i],
                    )
                    level[i] = pk
            prev = pk
            minors.append(pk)
        return minors


def _exact(values, s):
    """values // s, each division checked exact; no division when s is 1."""
    if s == 1:
        return values
    out = []
    for v in values:
        v, rest = divmod(v, s)
        if rest:
            raise AssertionError("Bareiss division is not exact")
        out.append(v)
    return out


def _pivot(m, k):
    """None when m[k][k] is a pivot.  Otherwise the j > k of the congruence
    that makes one: the first nonzero m[j][j] (swap e_k and e_j), else the
    first nonzero m[k][j] (e_k + e_j, with diagonal 2 m[k][j], char != 2).
    Zero tests only, so a row may be stored at any nonzero scale."""
    if m[k][k]:
        return None
    n = len(m)
    for j in range(k + 1, n):
        if m[j][j]:
            return j
    for j in range(k + 1, n):
        if m[k][j]:
            return j
    raise DomainError("gram matrix is singular")


# The basis changes of _pivot, on rows and columns >= k: the rows before k
# are finished and are not read again.
def _swap(m, k, j):
    for row in m[k:]:
        row[k], row[j] = row[j], row[k]
    m[k], m[j] = m[j], m[k]


def _add(m, k, j, jrow):
    """e_k + e_j: add jrow (row j from column k on, on row k's scale) to
    row k, then column j to column k."""
    m[k][k:] = [x + y for x, y in zip(m[k][k:], jrow)]
    for row in m[k:]:
        row[k] += row[j]


class QuadraticallyClosed(_Rational):
    kind = "qc"
    square_classes = (Fraction(1),)

    def is_square(self, a):
        if a == 0:
            raise DomainError("zero has no square class")
        return True


class RealClosed(_Rational):
    kind = "rc"
    square_classes = (Fraction(-1), Fraction(1))

    def is_square(self, a):
        if a == 0:
            raise DomainError("zero has no square class")
        return a > 0


class FinitePrime(FieldModel):
    kind = "fq"

    def __init__(self, q):
        if q < 3 or q % 2 == 0 or not _is_prime(q):
            raise DomainError("fq modulus must be an odd prime, got %r" % (q,))
        self.q = q
        # Smallest quadratic non-residue, the canonical non-square rep.
        self.non_residue = next(
            a for a in range(2, q) if pow(a, (q - 1) // 2, q) != 1
        )
        self.square_classes = (1, self.non_residue)

    @property
    def spec(self):
        return "fq:%d" % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    zero = 0
    one = 1

    def from_int(self, n):
        return n % self.q

    def is_square(self, a):
        a %= self.q
        if a == 0:
            raise DomainError("zero has no square class")
        return pow(a, (self.q - 1) // 2, self.q) == 1

    def square_class(self, a):
        return 1 if self.is_square(a) else self.non_residue

    def parse(self, text):
        # Accept "p/q" for symmetry with the rational models.
        if "/" in text:
            num, _, den = text.partition("/")
            try:
                n, d = int(num), int(den)
            except ValueError:
                raise FormatError("bad residue %r" % (text,)) from None
            if d % self.q == 0:
                raise FormatError("bad residue %r: the denominator is 0 in %s" % (text, self.spec))
            return self.from_ratio(n, d)
        try:
            return int(text) % self.q
        except ValueError:
            raise FormatError("bad residue %r" % (text,)) from None

    def to_str(self, a):
        return str(a % self.q)

    def lift(self, rows):
        return rows, 1

    def from_ratio(self, n, d):
        return n * pow(d, -1, self.q) % self.q

    def int_det(self, m):
        return super().int_det(m) % self.q

    def sym_minors(self, m):
        """Symmetric elimination on residues, pivoting as the rational
        models do; D_k is the product of the first k pivots.  A sum of
        basis vectors leaves row and column k unreduced, and each of their
        entries is reduced where it is read."""
        q = self.q
        m = [[v % q for v in row] for row in m]
        n = len(m)
        det = 1
        minors = []
        for k in range(n):
            other = _pivot(m, k)
            if other is not None and m[other][other]:
                _swap(m, k, other)
            if not m[k][k]:
                _add(m, k, other, m[other][k:])
            pivot_row = m[k]
            det = det * pivot_row[k] % q
            inv = pow(pivot_row[k], -1, q)
            for row in m[k + 1:]:
                f = row[k] * inv % q
                if f:
                    for j in range(k + 1, n):
                        row[j] = (row[j] - f * pivot_row[j]) % q
            minors.append(det)
        return minors


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, 2015); the bound itself is a strong pseudoprime.
PRIMALITY_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; a DomainError at or above PRIMALITY_BOUND."""
    if n >= PRIMALITY_BOUND:
        raise DomainError(
            "primality is decided only below %d, got %d" % (PRIMALITY_BOUND, n)
        )
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def field_model(spec):
    """Build (and cache) the field model named by a spec string."""
    if spec == "qc":
        return QuadraticallyClosed()
    if spec == "rc":
        return RealClosed()
    if spec.startswith("fq:"):
        try:
            q = int(spec[3:])
        except ValueError:
            raise FormatError("bad field spec %r" % (spec,)) from None
        return FinitePrime(q)
    raise FormatError("unknown field spec %r (expected qc, rc, or fq:<q>)" % (spec,))

