"""Tests for the universal lambda tables and their elementary-basis reduction."""

import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwlambda import cli, symfun
from gwlambda.errors import DomainError
from gwlambda.fields import field_model
from gwlambda.lambda_rings import GWExtTorusRing
from gwlambda.symfun import EPolynomial, universal_P, universal_P_kj


def elem_values(vals, upto):
    """e_1..e_upto of a concrete tuple, by direct subset enumeration."""
    out = []
    for i in range(1, upto + 1):
        total = 0
        for comb in itertools.combinations(vals, i):
            prod = 1
            for v in comb:
                prod *= v
            total += prod
        out.append(total)
    return out


def truncated_product(monomial_values, k):
    """Coefficients of T^0..T^k in prod (1 + c*T) over integer values c."""
    coeffs = [1] + [0] * k
    for c in monomial_values:
        for t in range(k, 0, -1):
            coeffs[t] += coeffs[t - 1] * c
    return coeffs


# ---------------------------------------------------------------------------
# reduction to the elementary basis, checked on an exact grid


def assert_grid_equal(terms, ep, n, two):
    """``terms`` (a monomial dict) and ``ep`` at e-values agree on {0..D}^w.

    w is the number of variables and D the largest degree in any one of
    them on either side: the largest exponent in ``terms``, and for ``ep``
    the largest sum of e-exponents of one alphabet (each e_i has degree 1
    in x1).  Two polynomials of degree at most D in each variable that agree
    on this grid are equal.
    """
    width = 2 * n if two else n
    degree = max(
        [max(exps) for exps in terms] + [sum(side) for key in ep.terms for side in key],
        default=0,
    )
    for point in itertools.product(range(degree + 1), repeat=width):
        direct = sum(
            c * math.prod(v**e for v, e in zip(point, exps)) for exps, c in terms.items()
        )
        ys = elem_values(point[n:], n) if two else []
        assert ep.evaluate(elem_values(point[:n], n), ys) == direct, point


def test_reduce_power_sum_two():
    terms = {(2, 0): 1, (0, 2): 1}
    got = symfun._elementary_table(terms, 2)
    assert got == EPolynomial({((2,), ()): 1, ((0, 1), ()): -2})
    assert_grid_equal(terms, got, 2, False)


def test_reduce_round_trip_handmade():
    terms = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1,
             (1, 1, 0): 4, (1, 0, 1): 4, (0, 1, 1): 4}
    assert_grid_equal(terms, symfun._elementary_table(terms, 3), 3, False)


def two_alphabet_table(terms, n):
    """Reduce a dict on (x block, y block) exponent vectors, each block of n.

    The terms must be symmetric within each block; the partition-shaped
    keys go through ``symfun._reduce_symmetric_parts`` as pairs.
    """
    work = {
        (symfun._strip(e[:n]), symfun._strip(e[n:])): c
        for e, c in terms.items()
        if partition_shaped(e, (n, n))
    }
    return EPolynomial(symfun._reduce_symmetric_parts(work, n))


def test_reduce_two_alphabets():
    terms = {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1, (0, 1, 1, 0): 1, (0, 1, 0, 1): 1}
    got = two_alphabet_table(terms, 2)
    assert got == EPolynomial({((1,), (1,)): 1})
    assert_grid_equal(terms, got, 2, True)
    px = symmetrize([((2, 0), 1), ((1, 1), 3)])
    py = symmetrize([((2, 0), 1), ((1, 0), -2)])
    terms = {a + b: c * d for a, c in px.items() for b, d in py.items()}
    assert_grid_equal(terms, two_alphabet_table(terms, 2), 2, True)


def symmetrize(orbits):
    """Sum of full permutation orbits of the given exponent tuples."""
    terms = {}
    for exps, coeff in orbits:
        for perm in set(itertools.permutations(exps)):
            terms[perm] = terms.get(perm, 0) + coeff
    return {exps: c for exps, c in terms.items() if c}


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.lists(
        st.tuples(
            st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4),
            st.integers(min_value=-5, max_value=5).filter(bool),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_reduce_round_trip_random(n, raw_orbits):
    terms = symmetrize([(tuple(exps[:n]), coeff) for exps, coeff in raw_orbits])
    assert_grid_equal(terms, symfun._elementary_table(terms, n), n, False)


# ---------------------------------------------------------------------------
# EPolynomial behavior


def test_epolynomial_strips_and_merges_keys():
    a = EPolynomial({((1, 0), ()): 1, ((1,), (0,)): 1, ((0, 1), ()): 0})
    b = EPolynomial({((1,), ()): 2})
    assert a.terms == b.terms == {((1,), ()): 2}
    assert hash(a) == hash(b)


def test_epolynomial_zero_text():
    assert EPolynomial({}).to_text() == "0"


def test_epolynomial_evaluate_matches_text_example():
    p = universal_P(2)
    # ex1=5, ex2=7, ey1=-2, ey2=3: 25*3 + 7*4 - 2*7*3 = 61
    assert p.evaluate([5, 7], [-2, 3]) == 61


def naive_evaluate(poly, xs, ys):
    """Oracle: each term as coefficient times a product of integer powers."""
    total = 0
    for (ex, ey), coeff in poly.terms.items():
        term = coeff
        for vals, exps in ((xs, ex), (ys, ey)):
            for v, e in zip(vals, exps):
                term *= v**e
        total += term
    return total


def epolynomials(alphabets):
    """Random polynomials in ex1..ex3 (and ey1..ey3)."""
    exps = st.lists(st.integers(0, 3), max_size=3).map(tuple)
    key = st.tuples(exps, exps if alphabets == 2 else st.just(()))
    terms = st.dictionaries(key, st.integers(-3, 3), max_size=6)
    return terms.map(EPolynomial)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((1, 2)).flatmap(
        lambda a: st.tuples(
            epolynomials(a),
            st.lists(st.integers(-4, 4), min_size=3, max_size=3),
            st.lists(st.integers(-4, 4), min_size=3, max_size=3) if a == 2 else st.just([]),
        )
    )
)
def test_evaluate_matches_term_by_term_sum(case):
    poly, xs, ys = case
    assert poly.evaluate(xs, ys) == naive_evaluate(poly, xs, ys)


def test_evaluate_table_matches_term_by_term_sum():
    rng = random.Random(5)
    for poly, n, two in ((universal_P(3), 3, True), (universal_P_kj(2, 2), 4, False)):
        for _ in range(5):
            xs = [rng.randint(-3, 3) for _ in range(n)]
            ys = [rng.randint(-3, 3) for _ in range(n)] if two else []
            assert poly.evaluate(xs, ys) == naive_evaluate(poly, xs, ys)


def test_evaluate_empty_polynomial_is_ring_zero():
    empty = EPolynomial({})
    assert empty.evaluate([1, 2]) == 0
    ring = GWExtTorusRing(1, field_model("fq:5"))
    value = empty.evaluate([ring.one, ring.one], one=ring.one)
    assert value == ring.zero
    assert value.ring == ring


class Logged:
    """A symbolic ring value that appends each product, sum and integer
    scaling it takes part in to a shared log, and names its result."""

    __slots__ = ("name", "log")

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def _op(self, op, left, right):
        self.log.append((op, left, right))
        return Logged("(%s%s%s)" % (left, op, right), self.log)

    def __mul__(self, other):
        return self._op("*", self.name, other.name)

    def __add__(self, other):
        return self._op("+", self.name, other.name)

    def __rmul__(self, n):
        return self._op(".", str(n), self.name)


def prefix_evaluate(poly, xs, ys=(), one=1):
    """The on-the-fly evaluation that the plan replaced, kept as the
    reference order: each monomial is built from its longest proper prefix
    the first time a term in sorted order needs it."""
    xs, ys = list(xs), list(ys)
    values = xs + ys
    monomials = {(): one}
    total = None
    for (ex, ey), coeff in sorted(poly.terms.items()):
        if len(ex) > len(xs) or len(ey) > len(ys):
            raise DomainError("not enough values for the e-variables used")
        factors = tuple(i for i, e in enumerate(ex) for _ in range(e)) + tuple(
            len(xs) + i for i, e in enumerate(ey) for _ in range(e)
        )
        for n in range(1, len(factors) + 1):
            key = factors[:n]
            if key not in monomials:
                value = values[key[-1]]
                monomials[key] = value if n == 1 else monomials[key[:-1]] * value
        term = monomials[factors]
        if coeff != 1:
            term = coeff * term
        total = term if total is None else total + term
    return 0 * one if total is None else total


def logged_run(evaluate, poly, nx, ny, one="one"):
    """(operation log, result name) of one evaluation on named values."""
    log = []
    xs = [Logged("x%d" % (i + 1), log) for i in range(nx)]
    ys = [Logged("y%d" % (i + 1), log) for i in range(ny)]
    return log, evaluate(poly, xs, ys, one=Logged(one, log)).name


def assert_same_order(poly, nx, ny):
    for one in ("one", "unit"):
        expected = logged_run(prefix_evaluate, poly, nx, ny, one)
        assert logged_run(EPolynomial.evaluate, poly, nx, ny, one) == expected


@pytest.mark.parametrize("k", range(1, 7))
def test_plan_keeps_the_prefix_evaluation_order_of_P(k):
    # The exact table width, then more values than the table uses; each
    # width twice on the one cached table, with another `one` the second time.
    for extra in (0, 2):
        assert_same_order(universal_P(k), k + extra, k + extra)


@pytest.mark.parametrize(
    "k, j", [(k, j) for k in range(1, 9) for j in range(1, 9) if k * j <= 8]
)
def test_plan_keeps_the_prefix_evaluation_order_of_P_kj(k, j):
    for extra in (0, 3):
        assert_same_order(universal_P_kj(k, j), k * j + extra, 0)


def test_plan_is_built_once_and_holds_no_value():
    # A constant term reads `one`, and an empty table scales it by 0; the
    # plan is built on the first call and kept for every later one.
    poly = EPolynomial({((), ()): 3, ((), (1,)): 1, ((0, 1), ()): -1})
    assert_same_order(poly, 2, 1)
    plan = poly._plan
    assert plan is not None
    assert_same_order(poly, 3, 2)
    assert poly._plan is plan
    empty = EPolynomial({})
    for one in ("one", "unit"):
        expected = ([(".", "0", one)], "(0.%s)" % one)
        assert logged_run(EPolynomial.evaluate, empty, 1, 0, one) == expected


def test_plan_refuses_too_few_values_before_any_operation():
    poly = universal_P_kj(2, 2)
    log = []
    xs = [Logged("x%d" % (i + 1), log) for i in range(3)]
    with pytest.raises(DomainError, match="not enough values"):
        poly.evaluate(xs, one=Logged("one", log))
    assert log == []
    with pytest.raises(DomainError, match="not enough values"):
        universal_P(2).evaluate([1, 2], [1])


# ---------------------------------------------------------------------------
# universal tables: frozen values


def test_universal_P1():
    assert universal_P(1) == EPolynomial({((1,), (1,)): 1})
    assert universal_P(1).to_text() == "ex1*ey1"


def test_universal_P2_exact():
    expected = EPolynomial({((2,), (0, 1)): 1, ((0, 1), (2,)): 1, ((0, 1), (0, 1)): -2})
    assert universal_P(2) == expected
    assert universal_P(2).to_text() == "ex1^2*ey2 + ex2*ey1^2 - 2*ex2*ey2"


def test_universal_P3_specialized_to_rank_two():
    got = universal_P(3).specialize(2)
    assert got == EPolynomial({((1, 1), (1, 1)): 1})


def test_universal_P4_specialized_to_rank_two():
    got = universal_P(4).specialize(2)
    assert got == EPolynomial({((0, 2), (0, 2)): 1})


def test_universal_P_kj_collapses_at_j_one():
    for k in range(1, 5):
        ek = EPolynomial({(((0,) * (k - 1)) + (1,), ()): 1})
        assert universal_P_kj(k, 1) == ek


def test_universal_P_kj_collapses_at_k_one():
    assert universal_P_kj(1, 2) == EPolynomial({((0, 1), ()): 1})
    assert universal_P_kj(1, 3) == EPolynomial({((0, 0, 1), ()): 1})


def test_universal_P22_exact():
    expected = EPolynomial({((1, 0, 1), ()): 1, ((0, 0, 0, 1), ()): -1})
    assert universal_P_kj(2, 2) == expected
    assert universal_P_kj(2, 2).to_text() == "ex1*ex3 - ex4"


def test_universal_argument_errors():
    with pytest.raises(DomainError):
        universal_P(0)
    with pytest.raises(DomainError):
        universal_P_kj(0, 1)
    with pytest.raises(DomainError):
        universal_P_kj(1, 0)
    with pytest.raises(DomainError):
        universal_P(3, 2)
    with pytest.raises(DomainError):
        universal_P_kj(2, 2, 3)


# ---------------------------------------------------------------------------
# universal tables: independent numeric oracles


def test_universal_P_numeric_oracle():
    rng = random.Random(7)
    for k in range(1, 5):
        n = k
        table = universal_P(k)
        for _ in range(5):
            xs = [rng.randint(-3, 3) for _ in range(n)]
            ys = [rng.randint(-3, 3) for _ in range(n)]
            direct = truncated_product(
                [x * y for x in xs for y in ys], k
            )[k]
            assert table.evaluate(elem_values(xs, k), elem_values(ys, k)) == direct


def test_universal_P_kj_numeric_oracle():
    rng = random.Random(11)
    for k in range(1, 5):
        for j in range(1, 4):
            if k * j > 9:
                continue
            n = k * j
            table = universal_P_kj(k, j)
            for _ in range(4):
                xs = [rng.randint(-3, 3) for _ in range(n)]
                prods = []
                for comb in itertools.combinations(xs, j):
                    prod = 1
                    for v in comb:
                        prod *= v
                    prods.append(prod)
                direct = truncated_product(prods, k)[k]
                assert table.evaluate(elem_values(xs, n)) == direct


def test_universal_P_oracle_with_more_variables():
    # Same oracle with one extra variable per alphabet: checks that the
    # table remains valid beyond the generating variable count.
    rng = random.Random(13)
    k, n = 3, 4
    table = universal_P(k)
    for _ in range(5):
        xs = [rng.randint(-2, 2) for _ in range(n)]
        ys = [rng.randint(-2, 2) for _ in range(n)]
        direct = truncated_product([x * y for x in xs for y in ys], k)[k]
        assert table.evaluate(elem_values(xs, k), elem_values(ys, k)) == direct


# ---------------------------------------------------------------------------
# the packed expansion against tuple exponent keys


def tuple_truncated_elem(monomials, k, width):
    """Coefficient dicts of T^0..T^k in prod (1 + m*T), keyed by exponent tuples.

    The brute-force reference for ``symfun._truncated_elem``: every product
    is a tuple built term by term, with no packing and no filtering.
    """
    coeffs = [{(0,) * width: 1}] + [{} for _ in range(k)]
    seen = 0
    for mono in monomials:
        seen += 1
        for t in range(min(seen, k), 0, -1):
            cur = coeffs[t]
            for key, val in coeffs[t - 1].items():
                nk = tuple(a + b for a, b in zip(key, mono))
                cur[nk] = cur.get(nk, 0) + val
    return coeffs


def partition_shaped(exps, blocks):
    start = 0
    for size in blocks:
        block = list(exps[start : start + size])
        if block != sorted(block, reverse=True):
            return False
        start += size
    return True


def subset_monomials(n, j):
    """The 0/1 exponent vectors of the products of j of n variables."""
    return [
        tuple(int(v in subset) for v in range(n))
        for subset in itertools.combinations(range(n), j)
    ]


def assert_expansion_matches(monomials, k):
    # With 0/1 monomials no exponent of T^k exceeds k, so bounds of k prune
    # nothing; part i + 1 of a partition of the total is at most
    # total // (i + 1), the bounds the builder of P_kj uses.
    width, total = len(monomials[0]), k * sum(monomials[0])
    full = tuple_truncated_elem(monomials, k, width)[k]
    expected = {e: c for e, c in full.items() if partition_shaped(e, (width,))}
    for bounds in ([min(k, total // (i + 1)) for i in range(width)], [k] * width):
        assert symfun._truncated_elem(iter(monomials), k, bounds) == expected


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("extra", [0, 1])
def test_packed_expansion_P(k, extra):
    n = k + extra
    monomials = []
    for i in range(n):
        for j in range(n):
            mono = [0] * (2 * n)
            mono[i] = mono[n + j] = 1
            monomials.append(tuple(mono))
    assert_expansion_matches(monomials, k)


@pytest.mark.parametrize(
    "k, j", [(k, j) for k in range(1, 9) for j in range(1, 9) if k * j <= 8]
)
def test_packed_expansion_P_kj(k, j):
    assert_expansion_matches(subset_monomials(k * j, j), k)


def test_packed_expansion_largest_digit_does_not_carry():
    # (1 + xyT)^255: the T^255 coefficient is x^255 y^255, both digits full.
    assert symfun._truncated_elem([(1, 1)] * 255, 255, (255, 255)) == {(255, 255): 1}
    assert symfun._truncated_elem([(1, 0)] * 255, 255, (255, 0)) == {(255, 0): 1}
    # One past its bound sets a digit's guard bit, and the product is dropped.
    assert symfun._truncated_elem([(1, 1)] * 255, 255, (255, 254)) == {}
    assert symfun._truncated_elem([(1, 1)] * 255, 255, (254, 255)) == {}
    assert symfun._truncated_elem([(1, 0)] * 2, 2, (1, 0)) == {}


def brute_force_P_terms(k, n):
    """Coefficients of T^k in prod_{i,j} (1 + x_i y_j T), x block then y block.

    Grouped by rows, the product is prod_i sum_S x_i^|S| y^S T^|S| over the
    subsets S of the y alphabet.  So the coefficient of x^lam, for each
    partition lam of k, is prod_i e_{lam_i}(y), multiplied out here subset
    by subset on exponent tuples.  The other x keys are permutations of
    these and are not needed by the reduction.
    """
    terms = {}
    for lam in partitions(k, n):
        ys = {(0,) * n: 1}
        for part in lam:
            nxt = {}
            for key, c in ys.items():
                for subset in itertools.combinations(range(n), part):
                    nk = tuple(e + (v in subset) for v, e in enumerate(key))
                    nxt[nk] = nxt.get(nk, 0) + c
            ys = nxt
        x = lam + (0,) * (n - len(lam))
        terms.update({x + y: c for y, c in ys.items()})
    return terms


def partitions(total, parts, largest=None):
    """Partitions of ``total`` into at most ``parts`` parts, as tuples."""
    if total == 0:
        yield ()
    elif parts > 0:
        for first in range(min(total, largest or total), 0, -1):
            for tail in partitions(total - first, parts - 1, first):
                yield (first,) + tail


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("extra", [0, 1])
def test_universal_P_matches_brute_force_expansion(k, extra):
    n = k + extra
    assert universal_P(k, n) == two_alphabet_table(brute_force_P_terms(k, n), n)


@pytest.mark.parametrize(
    "k, j", [(k, j) for k in range(1, 11) for j in range(1, 11) if k * j <= 10]
)
def test_pruned_P_kj_equals_unpruned(k, j):
    n = k * j
    unpruned = symfun._truncated_elem(subset_monomials(n, j), k, [k] * n)
    assert universal_P_kj(k, j) == symfun._elementary_table(unpruned, n)


# A table in d < k (resp. d < kj) variables is the full table with every
# e_i, i > d, set to zero: e_1..e_d of d variables are algebraically
# independent and the higher ones vanish (Macdonald, ch. I §2).  So a check
# whose arguments have lambda-degree d may read the narrow table.
@pytest.mark.parametrize("k", range(2, 7))
def test_narrow_P_is_the_specialized_table(k):
    for d in range(1, k):
        assert symfun._universal_P_build(k, d) == universal_P(k).specialize(d), d


@pytest.mark.parametrize(
    "k, j", [(k, j) for k in range(1, 10) for j in range(1, 10) if 2 <= k * j <= 9]
)
def test_narrow_P_kj_is_the_specialized_table(k, j):
    for d in range(1, k * j):
        assert symfun._universal_P_kj_build(k, j, d) == universal_P_kj(k, j).specialize(d), d


def test_digit_overflow_is_refused_before_expanding():
    start = time.perf_counter()
    builds = (
        lambda: universal_P(256),
        lambda: universal_P_kj(256, 2),
        lambda: universal_P(13),
        lambda: universal_P_kj(13, 1),
        lambda: universal_P_kj(4, 4),
    )
    for build in builds:
        with pytest.raises(DomainError, match="tables are built up to degree 12"):
            build()
    assert time.perf_counter() - start < 1.0


def test_poly_k_256_is_a_usage_error(capsys):
    assert cli.main(["poly", "--k", "256"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


# ---------------------------------------------------------------------------
# stability and degrees


def test_stability_small():
    for k in range(1, 4):
        assert universal_P(k) == universal_P(k, k + 1)
    assert universal_P_kj(2, 2) == universal_P_kj(2, 2, 5)
    assert universal_P_kj(3, 2) == universal_P_kj(3, 2, 7)


def weight(exps):
    """Weighted degree of an e-monomial, e_i carrying weight i."""
    return sum((i + 1) * e for i, e in enumerate(exps))


def test_weighted_degrees_P():
    for k in range(1, 5):
        weights = {(weight(ex), weight(ey)) for ex, ey in universal_P(k).terms}
        assert weights == {(k, k)}


def test_weighted_degrees_P_kj():
    for k, j in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)]:
        weights = {(weight(ex), weight(ey)) for ex, ey in universal_P_kj(k, j).terms}
        assert weights == {(k * j, 0)}
