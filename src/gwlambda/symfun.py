"""The universal polynomial tables that control lambda-operations.

Two families: the coefficient of T^k in

    prod_{i,j} (1 + x_i y_j T)        (products of line bundles), and
    prod_{i1<...<ij} (1 + x_{i1}...x_{ij} T)   (composition with lambda^j),

expressed in the elementary symmetric polynomials of each alphabet
(x1..xn, and y1..yn for the first family) as an :class:`EPolynomial`.
Each table reduces one alphabet to the elementary basis from its
coefficients on partition-shaped monomials, by repeatedly clearing the
lexicographic leading term.  The first family is the sum over partitions
lam of k of m_lam(x) e_lam(y), the dual Cauchy identity (Macdonald,
Symmetric Functions and Hall Polynomials, ch. I (4.2')), so only each
m_lam(x) is reduced and no product is expanded.  The second expands its
product into a sparse {exponent vector: coefficient} dict, packing each
exponent vector into one int with nine bits per variable: eight for the
exponent and a guard bit that drops every partial product whose exponents
already exceed those of any partition of k*j.  Both refuse a degree (k,
resp. k*j) above MAX_DEGREE before any work.
Truncation degree k only requires n = k (resp. n = k*j) variables;
stability in n is a testable property, not an assumption baked into the
data structures.
"""

import itertools
import math
from functools import lru_cache

from .errors import DomainError


def _strip(exps):
    """Drop trailing zeros so exponent keys compare across variable counts."""
    exps = tuple(exps)
    while exps and exps[-1] == 0:
        exps = exps[:-1]
    return exps


class EPolynomial:
    """Integer polynomial in elementary symmetric variables.

    Variables are ex1, ex2, ... (and ey1, ey2, ... for two alphabets).
    Keys are pairs (x exponents, y exponents) with trailing zeros stripped,
    so the same polynomial built from different variable counts compares
    equal; a one-alphabet polynomial has empty y exponents.
    """

    __slots__ = ("terms", "_plan")

    def __init__(self, terms):
        clean = {}
        for (ex, ey), coeff in terms.items():
            key = (_strip(ex), _strip(ey))
            clean[key] = clean.get(key, 0) + coeff
        self.terms = {k: v for k, v in clean.items() if v}
        self._plan = None

    def __eq__(self, other):
        return isinstance(other, EPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def specialize(self, max_index):
        """Set every e-variable of index > max_index to zero."""
        return EPolynomial({
            key: c
            for key, c in self.terms.items()
            if len(key[0]) <= max_index and len(key[1]) <= max_index
        })

    def _make_plan(self):
        """The evaluation plan, built on the first ``evaluate`` and kept.

        ``(nx, ny, terms)``: the x and y values the terms use, and per term
        in sorted order ``(steps, slot, coeff)``.  ``steps`` are the prefix
        products this term forms first, each ``(parent slot, alphabet,
        index)`` with parent None for a single factor; ``slot`` is the
        term's monomial (slot 0 holds ``one``).
        """
        slots = {(): 0}
        nx = ny = 0
        plan = []
        for (ex, ey), coeff in sorted(self.terms.items()):
            nx, ny = max(nx, len(ex)), max(ny, len(ey))
            factors = tuple((0, i) for i, e in enumerate(ex) for _ in range(e)) + tuple(
                (1, i) for i, e in enumerate(ey) for _ in range(e)
            )
            steps = []
            for n in range(1, len(factors) + 1):
                key = factors[:n]
                if key not in slots:
                    slots[key] = len(slots)
                    steps.append((slots[key[:-1]] if n > 1 else None,) + key[-1])
            plan.append((tuple(steps), slots[factors], coeff))
        self._plan = (nx, ny, tuple(plan))
        return self._plan

    def evaluate(self, xs, ys=(), one=1):
        """Substitute values for the e-variables; ``xs[i]`` stands for ex(i+1).

        Values may come from any commutative ring whose elements support
        ``+``, ``*`` and integer scalars via ``n * value``; ``one`` must be
        the ring unit.

        Each monomial is the product of its factors from the left (x values
        in index order, then y values), built once from its longest proper
        prefix; products with ``one`` and sums with zero are not formed.
        The plan of these products and sums does not depend on the values.
        """
        nx, ny, plan = self._plan or self._make_plan()
        if nx > len(xs) or ny > len(ys):
            raise DomainError("not enough values for the e-variables used")
        values = (xs, ys)
        monomials = [one]
        total = None
        for steps, slot, coeff in plan:
            for parent, alphabet, i in steps:
                value = values[alphabet][i]
                monomials.append(value if parent is None else monomials[parent] * value)
            term = monomials[slot]
            if coeff != 1:
                term = coeff * term
            total = term if total is None else total + term
        return 0 * one if total is None else total

    def to_text(self):
        """Canonical text: descending lex on (x, y) exponents.

        Example: ``ex1^2*ey2 + ex2*ey1^2 - 2*ex2*ey2``.
        """
        if not self.terms:
            return "0"
        d = max(len(exps) for key in self.terms for exps in key)

        def padded(key):
            ex, ey = key
            return ex + (0,) * (d - len(ex)) + ey + (0,) * (d - len(ey))

        pieces = []
        for key in sorted(self.terms, key=padded, reverse=True):
            coeff = self.terms[key]
            factors = []
            for name, exps in zip(("ex", "ey"), key):
                for i, e in enumerate(exps):
                    if e == 1:
                        factors.append("%s%d" % (name, i + 1))
                    elif e > 1:
                        factors.append("%s%d^%d" % (name, i + 1, e))
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append("-" + body if coeff < 0 else body)
            else:
                pieces.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return "EPolynomial(%s)" % self.to_text()


def _partition_to_e(part):
    """Exponents (a1-a2, a2-a3, ...) of the e-monomial with leading term part."""
    exps = []
    for i, a in enumerate(part):
        nxt = part[i + 1] if i + 1 < len(part) else 0
        exps.append(a - nxt)
    return tuple(exps)


# ---------------------------------------------------------------------------
# universal polynomial tables

# The largest degree of a table: k of P_k, k*j of P_kj.  Each table up to
# it builds in under a second; P_kj at degree 12 is the slowest (README).
MAX_DEGREE = 12


def checked_degree(degree, what):
    """Refuse a table degree above MAX_DEGREE before any work."""
    if degree > MAX_DEGREE:
        raise DomainError("%s is %d; tables are built up to degree %d" % (what, degree, MAX_DEGREE))


# The leading-term reduction (``_reduce_symmetric``) runs on
# partition representatives only: a symmetric polynomial is determined by
# its coefficients on weakly decreasing exponent vectors, and the
# coefficient of x^cols in prod_r e_{rows[r]} is the number of 0/1
# matrices with the given row and column sums.  Expanding e-monomials over
# every monomial of the ambient ring instead blows up around total degree 8
# in 9+ variables.


@lru_cache(maxsize=None)
def _matrix_count(rows, cols):
    """Count 0/1 matrices with row sums ``rows`` and column sums ``cols``.

    Both arguments are weakly decreasing tuples of positive integers with
    equal totals (callers strip zeros).  The first column takes t of the m
    rows of each group of equal sums v, in C(m, t) ways, and those t rows
    drop to v - 1, so the remainder stays weakly decreasing.
    """
    if not cols:
        return 1 if not rows else 0
    groups = [(v, len(list(g))) for v, g in itertools.groupby(rows)]
    total = 0
    for takes in itertools.product(*(range(m + 1) for _, m in groups)):
        if sum(takes) != cols[0]:
            continue
        tail = tuple(
            u for (v, m), t in zip(groups, takes) for u in [v] * (m - t) + [v - 1] * t if u
        )
        ways = math.prod(math.comb(m, t) for (_, m), t in zip(groups, takes))
        total += ways * _matrix_count(tail, cols[1:])
    return total


def _bounded_partitions(total, max_part, max_len):
    """Weakly decreasing tuples of positive ints summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(min(max_part, total), 0, -1):
        if total - first <= first * (max_len - 1):
            for tail in _bounded_partitions(total - first, first, max_len - 1):
                yield (first,) + tail


@lru_cache(maxsize=None)
def _e_partition_coeffs(n, exps):
    """Coefficients of prod e_i^exps[i-1] on partition-shaped monomials."""
    rows = tuple(
        sorted((i + 1 for i, e in enumerate(exps) for _ in range(e)), reverse=True)
    )
    out = {}
    for lam in _bounded_partitions(sum(rows), len(rows), n):
        c = _matrix_count(rows, lam)
        if c:
            out[lam] = c
    return out


def _reduce_symmetric(work, n):
    """Leading-term reduction of {partition: coeff} in n variables.

    ``work`` holds a symmetric polynomial's coefficients on its
    partition-shaped monomials and is consumed; the result maps e exponents
    to coefficients.  Each lead is cleared by the e-monomial whose leading
    term it is, and it never comes back.
    """
    out = {}
    while work:
        lead = max(work)
        coeff = work[lead]
        ex = _partition_to_e(lead)
        out[ex] = coeff
        for mono, c in _e_partition_coeffs(n, ex).items():
            v = work.get(mono, 0) - coeff * c
            if v:
                work[mono] = v
            else:
                work.pop(mono, None)
    return out


def _truncated_elem(monomials, k, bounds):
    """Partition-shaped coefficients of T^k in prod (1 + m*T) over the monomials.

    Each exponent vector is packed into one int, nine bits per variable with
    variable 0 in the most significant digit, so that multiplying by a
    monomial is one integer addition.  Digit i starts at 255 - bounds[i], so
    an exponent above its bound sets the digit's top (guard) bit, and one
    AND with the guard bits drops that product: exponents only grow, so no
    product of it could come back within the bounds.  The monomials are 0/1
    vectors, so a kept digit is at most 255 and the next product's at most
    256; no digit carries while every bound is in 0..255.  The packing
    relies on this: the callers' bounds are at most k <= MAX_DEGREE.  Only
    T^k keys that are weakly decreasing are decoded and returned.
    """
    shifts = [9 * i for i in reversed(range(len(bounds)))]
    guard = sum(256 << s for s in shifts)
    start = sum((255 - b) << s for b, s in zip(bounds, shifts))
    coeffs = [{start: 1}] + [{} for _ in range(k)]
    for seen, mono in enumerate(monomials, 1):
        m = sum(e << s for e, s in zip(mono, shifts))
        for t in range(min(seen, k), 0, -1):
            cur = coeffs[t]
            for key, val in coeffs[t - 1].items():
                nk = key + m
                if not nk & guard:
                    cur[nk] = cur.get(nk, 0) + val
    out = {}
    for key, val in coeffs[k].items():
        exps = [((key >> s) & 511) - 255 + b for b, s in zip(bounds, shifts)]
        if all(a >= b for a, b in zip(exps, exps[1:])):
            out[tuple(exps)] = val
    return out


@lru_cache(maxsize=None)
def universal_P(k, n_vars=None):
    """The polynomial expressing lambda^k(x*y) in the lambda^i of the factors.

    Defined by: the coefficient of T^k in prod_{i,j} (1 + x_i y_j T),
    written in elementary symmetric variables of the two alphabets, and
    built as sum_{lam |- k} m_lam(x) e_lam(y).  ``n_vars`` defaults to k,
    which already determines the answer; passing a larger value recomputes
    the table for the stability check.
    """
    if k < 1:
        raise DomainError("universal_P needs k >= 1")
    checked_degree(k, "k")
    n = k if n_vars is None else n_vars
    if n < k:
        raise DomainError("need at least k variables per alphabet")
    return _universal_P_build(k, n)


def _universal_P_build(k, n):
    # The dual Cauchy identity (Macdonald, ch. I (4.2')): the coefficient
    # of T^k is the sum over partitions lam of k of m_lam(x) e_lam(y).  In n
    # variables m_lam vanishes past n parts, and e_lam past a part n.
    terms = {}
    for lam in _bounded_partitions(k, n, n):
        ey = tuple(lam.count(i) for i in range(1, lam[0] + 1))
        for ex, c in _reduce_symmetric({lam: 1}, n).items():
            terms[(ex, ey)] = c
    return EPolynomial(terms)


@lru_cache(maxsize=None)
def universal_P_kj(k, j, n_vars=None):
    """The polynomial expressing lambda^k(lambda^j(x)) in the lambda^i(x).

    Defined by: the coefficient of T^k in
    prod_{i1<...<ij} (1 + x_{i1}...x_{ij} T), written in elementary
    symmetric variables.  ``n_vars`` defaults to k*j.
    """
    if k < 1 or j < 1:
        raise DomainError("universal_P_kj needs k >= 1 and j >= 1")
    checked_degree(k * j, "k*j")
    n = k * j if n_vars is None else n_vars
    if n < k * j:
        raise DomainError("need at least k*j variables")
    return _universal_P_kj_build(k, j, n)


def _universal_P_kj_build(k, j, n):
    monomials = (
        [int(v in subset) for v in range(n)]
        for subset in itertools.combinations(range(n), j)
    )
    # A partition of k*j with no part above k has part i + 1 <= k*j // (i + 1).
    bounds = [min(k, k * j // (i + 1)) for i in range(n)]
    work = {_strip(e): c for e, c in _truncated_elem(monomials, k, bounds).items()}
    return EPolynomial({(ex, ()): c for ex, c in _reduce_symmetric(work, n).items()})
