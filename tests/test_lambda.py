"""Tests for the pre-lambda-ring instances and the identity checkers."""

import ast
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwlambda import cli
from gwlambda import lambda_rings as lr
from gwlambda.errors import DomainError, FormatError
from gwlambda.fields import field_model
from gwlambda.forms import GWClass, exterior_power, gw_class
from gwlambda.lambda_rings import (
    DEFAULT_CONSTANTS,
    EXT_SYMBOLS,
    ExtTorusConstants,
    FreeElt,
    FreeLambdaRing,
    GWExtElt,
    GWExtTorusRing,
    GWFieldRing,
    IntegerRing,
    KExtElt,
    KExtTorusRing,
    KTorusElt,
    KTorusRing,
    MAX_LINES,
    MAX_RANK,
    check_lambda1,
    check_lambda2,
    element_record,
    element_str,
    load_constants,
    load_element,
    pair_key,
    parse_basis,
    parse_element,
)
from gwlambda.symfun import EPolynomial, universal_P, universal_P_kj

from form_helpers import diagonal_class, diagonal_form
from test_adams import basis_elements, rings

MODELS = ("qc", "rc", "fq:5", "fq:7")


def ext_ring(spec, r=1, constants=DEFAULT_CONSTANTS):
    return GWExtTorusRing(r, field_model(spec), constants)


# ---------------------------------------------------------------------------
# integers


def test_integer_lambda_is_binomial():
    ints = IntegerRing()
    for n in range(0, 7):
        for k in range(0, 7):
            assert (n * ints.one).lambda_k(k).augmentation() == math.comb(n, k)


def test_integer_lambda_on_negatives():
    ints = IntegerRing()
    assert (-1 * ints.one).lambda_k(2).augmentation() == 1
    assert (-2 * ints.one).lambda_k(3).augmentation() == -4
    # lambda_t(-n) = (1+t)^(-n): coefficient is (-1)^k binom(n+k-1, k)
    for n in range(1, 4):
        for k in range(0, 5):
            expected = (-1) ** k * math.comb(n + k - 1, k)
            assert (-n * ints.one).lambda_k(k).augmentation() == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6))
def test_integer_lambda_t_multiplicative(a, b):
    ints = IntegerRing()
    d = 5
    lhs = ((a + b) * ints.one).lambda_t(d)
    sa, sb = (a * ints.one).lambda_t(d), (b * ints.one).lambda_t(d)
    for k in range(d + 1):
        cauchy = sum(sa[i].augmentation() * sb[k - i].augmentation() for i in range(k + 1))
        assert lhs[k].augmentation() == cauchy


@pytest.mark.parametrize("m", range(-3, 4))
@pytest.mark.parametrize("n", range(-3, 4))
def test_lambda_t_over_z_is_binomial_in_each_line(n, m):
    # lambda_t(n a + m b) = (1 + a t)^n (1 + b t)^m for lines a, b.
    kt = KTorusRing(2)
    x = n * kt.line((1, 0)) + m * kt.line((0, 1))
    d = 5
    series = x.lambda_t(d)
    for k in range(d + 1):
        expected = kt.zero
        for i in range(k + 1):
            expected += _binom(n, i) * _binom(m, k - i) * kt.line((i, k - i))
        assert series[k] == expected


def _binom(n, k):
    """C(n, k) for any integer n: the coefficient of t^k in (1 + t)^n."""
    return math.comb(n, k) if n >= 0 else (-1) ** k * math.comb(k - n - 1, k)


def test_gw_only_methods_fail_on_other_bases():
    kt = KTorusRing(1)
    assert not hasattr(kt.one, "pos") and not hasattr(kt.one, "neg")
    for call in (lambda: kt.diag((1,)), lambda: kt.record(kt.one)):
        with pytest.raises(DomainError, match="GW\\(F\\) only"):
            call()
    gw = GWFieldRing(field_model("rc"))
    assert gw.one.pos == (gw.field.one,) and gw.one.neg == ()


def test_integer_checks_pass():
    ints = IntegerRing()
    assert all(rec.passed for rec in check_lambda1(5 * ints.one, -3 * ints.one, kmax=5))
    assert all(rec.passed for rec in check_lambda2(5 * ints.one, j=2, kmax=2))
    assert all(rec.passed for rec in check_lambda2(-4 * ints.one, j=3, kmax=2))


# ---------------------------------------------------------------------------
# GW of a field


def test_gw_field_lambda2_pairwise_products():
    ring = GWFieldRing(field_model("fq:7"))
    x = ring.diag([1, 2, 3])
    assert x.lambda_k(2) == ring.diag([2, 3, 6])


def test_gw_field_lambda_matches_exterior_power():
    rng = random.Random(21)
    for spec in MODELS:
        f = field_model(spec)
        ring = GWFieldRing(f)
        for _ in range(6):
            dim = rng.randint(1, 4)
            if spec.startswith("fq:"):
                q = int(spec.split(":")[1])
                entries = [f.from_int(rng.randrange(1, q)) for _ in range(dim)]
            else:
                entries = [f.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
                           for _ in range(dim)]
            x = ring.diag(entries)
            form = diagonal_form(f, entries)
            for k in range(0, dim + 1):
                assert diagonal_class(x.lambda_k(k)) == gw_class(exterior_power(form, k))


def test_gw_field_virtual_cancellation():
    ring = GWFieldRing(field_model("fq:5"))
    x = ring.diag([2, 3])
    series = (x - x).lambda_t(4)
    assert series[0] == ring.one
    for c in series[1:]:
        assert c.is_zero()


def test_gw_field_zero_class_with_nonzero_counts():
    # Over F_5, 2<1> - 2<2> is zero in GW(F) although its counts are not:
    # its normal form is that of zero.
    ring = GWFieldRing(field_model("fq:5"))
    zero_class = GWClass.zero(ring.field)
    x = ring.diag([1, 1], [2, 2])
    assert sorted(x.terms.values()) == [-2, 2]
    assert x.is_zero()
    assert diagonal_class(x) == zero_class
    assert x.is_zero() and x == ring.zero
    for y in (ring.diag([1], [2]), ring.diag([1, 1], [2])):
        assert not y.is_zero()
        assert diagonal_class(y) != zero_class
    # As a coefficient of the extended torus, the zero class is dropped.
    er = GWExtTorusRing(1, ring.field)
    assert er.elt({"one": er.coeff_ring.diag([1, 1], [2, 2])}).terms == {}


@pytest.mark.parametrize("spec", ("fq:3", "fq:5", "fq:7"))
def test_twice_one_minus_twice_the_non_residue_is_false(spec):
    # 2<1> = 2<u> in GW(F_q): the element has counts and is still false,
    # and a GW-ext product that forms it as a coefficient drops the term.
    ring = GWFieldRing(field_model(spec))
    u = ring.field.non_residue
    x = ring.diag([1, 1], [u, u])
    assert x.terms and not x
    assert ring.diag([1], [u]) and ring.diag([1, 1], [u])
    er = GWExtTorusRing(1, ring.field)
    y = er.elt({"delta": er.coeff_ring.diag([1], [u])})
    assert y.terms
    assert (y * er.elt({"one": er.coeff_ring.diag([1, 1])})).terms == {}


def test_coefficient_zero_tests_bypass_is_zero(monkeypatch):
    # The benchmark's spans pass times FreeElt.is_zero as an equality, so
    # _reduced and __bool__ must not call it.
    er = ext_ring("fq:5")
    c = er.coeff_ring
    x = er.elt({"one": c.diag([1, 2], [3]), (1,): c.diag([2], [1]), "delta": c.diag([], [2])})
    y = er.elt({(2,): c.diag([1, 3]), "delta": c.diag([1], [2])})
    series, product = x.lambda_t(4), x * y

    def refuse(self):
        raise AssertionError("FreeElt.is_zero called")

    monkeypatch.setattr(lr.FreeElt, "is_zero", refuse)
    assert x.lambda_t(4) == series
    assert x * y == product


def test_binom_general_is_the_falling_factorial_over_k_factorial():
    for n in range(-30, 31):
        for k in range(13):
            falling = math.prod(range(n - k + 1, n + 1))
            assert lr._binom_general(n, k) * math.factorial(k) == falling


def test_torus_rank_cap_comes_before_the_unit_weight(monkeypatch):
    # KTorusRing(r) builds its unit weight (0,) * r; a rank over the cap is
    # refused first, whatever its size.
    def no_call(*args):
        raise AssertionError("the unit weight was built")

    monkeypatch.setattr(type(KTorusRing(1).basis), "unit", no_call)
    for r in (MAX_RANK + 1, 10**9):
        with pytest.raises(DomainError, match="ranks up to %d" % MAX_RANK):
            KTorusRing(r)


def test_gw_field_augmentation_is_rank():
    ring = GWFieldRing(field_model("rc"))
    x = ring.diag([1, 2]) - ring.diag([-1])
    assert x.augmentation() == 1


# ---------------------------------------------------------------------------
# GW(F) coefficients as signed counts, against multiset arithmetic

ORACLE_MODELS = ("qc", "rc", "fq:3", "fq:5", "fq:7")


def unit_entries(spec):
    if spec.startswith("fq:"):
        return st.lists(st.integers(1, int(spec[3:]) - 1), max_size=4)
    return st.lists(
        st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)),
        max_size=4,
    )


def coefficient_pairs():
    """(field, pos1, neg1, pos2, neg2): entries of two formal differences."""
    return st.sampled_from(ORACLE_MODELS).flatmap(
        lambda spec: st.tuples(
            st.just(field_model(spec)), *[unit_entries(spec)] * 4
        )
    )


def multiset_elt(field, pos, neg):
    """Oracle: square-class representatives, common entries cancelled, sorted."""
    p = sorted(field.square_class(a) for a in pos)
    n = sorted(field.square_class(a) for a in neg)
    for v in set(p) & set(n):
        while v in p and v in n:
            p.remove(v)
            n.remove(v)
    return tuple(p), tuple(n)


def multiset_product(field, x, y):
    """Oracle: entrywise products, same signs to pos, mixed signs to neg."""
    (p1, n1), (p2, n2) = x, y

    def prods(us, vs):
        return [field.mul(u, v) for u in us for v in vs]

    return multiset_elt(field, prods(p1, p2) + prods(n1, n2), prods(p1, n2) + prods(n1, p2))


@settings(max_examples=300, deadline=None)
@given(coefficient_pairs())
def test_counts_arithmetic_matches_multisets(case):
    field, pos1, neg1, pos2, neg2 = case
    ring = GWFieldRing(field)
    x, y = ring.diag(pos1, neg1), ring.diag(pos2, neg2)
    ox, oy = multiset_elt(field, pos1, neg1), multiset_elt(field, pos2, neg2)
    assert (x.pos, x.neg) == ox
    assert (y.pos, y.neg) == oy
    for z, want in (
        (x + y, multiset_elt(field, ox[0] + oy[0], ox[1] + oy[1])),
        (x - y, multiset_elt(field, ox[0] + oy[1], ox[1] + oy[0])),
        (-x, (ox[1], ox[0])),
        (x * y, multiset_product(field, ox, oy)),
        (3 * x, multiset_elt(field, ox[0] * 3, ox[1] * 3)),
    ):
        assert (z.pos, z.neg) == want
    assert x.augmentation() == len(ox[0]) - len(ox[1])


def count_vectors(ring):
    """Every element whose signed count per square class lies in -3..3."""
    n = len(ring.field.square_classes)
    return [ring.elt(dict(enumerate(v))) for v in itertools.product(range(-3, 4), repeat=n)]


@pytest.mark.parametrize("spec", ORACLE_MODELS)
def test_gw_field_zero_and_equality_against_diagonal_classes(spec):
    # Over qc and rc no two count vectors share a class, so zero and
    # equality are read off the counts; over fq they compare rank and the
    # parity of the count of <u>.
    ring = GWFieldRing(field_model(spec))
    assert ring.basis.faithful is (spec in ("qc", "rc"))
    elements = count_vectors(ring)
    classes = [diagonal_class(x) for x in elements]
    zero = GWClass.zero(ring.field)
    for x, cx in zip(elements, classes):
        assert x.is_zero() is (cx == zero)
        for y, cy in zip(elements, classes):
            assert (x == y) is (cx == cy)


@pytest.mark.parametrize("spec", ("fq:3", "fq:5"))
def test_fq_counts_compared_as_they_are_fail_the_sweep(spec, monkeypatch, capsys):
    # Too fine a normal form: with the counts themselves over fq, a product
    # whose counts differ from the other side's but whose class is the same
    # reads as a failed identity.
    argv = ["check", "--sweep", "--ring", "gw-ext-torus", "--field", spec, "--r", "1",
            "--bound", "2", "--kmax", "5", "--format", "records"]
    assert cli.main(argv) == 0
    monkeypatch.setattr(lr._SquareClasses, "_normal", lambda self, counts: counts)
    capsys.readouterr()
    assert cli.main(argv) == 1
    failed = [r for r in map(json.loads, capsys.readouterr().out.splitlines()) if not r["pass"]]
    assert failed


@pytest.mark.parametrize("spec", ("fq:3", "fq:5", "fq:7"))
def test_rank_alone_disagrees_with_diagonal_classes(spec, monkeypatch):
    # Too coarse a normal form: the rank alone makes <1> and <u> equal.
    monkeypatch.setattr(lr._SquareClasses, "_normal", lambda self, counts: sum(counts.values()))
    ring = GWFieldRing(field_model(spec))
    elements = count_vectors(ring)
    classes = [diagonal_class(x) for x in elements]
    assert any(
        (x == y) is not (cx == cy)
        for x, cx in zip(elements, classes)
        for y, cy in zip(elements, classes)
    )


def test_lambda_rings_imports_nothing_from_forms():
    # GW(F) equality is a normal form of the counts; GWClass is the tests'
    # oracle and shares no code with it.
    tree = ast.parse(Path(lr.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            assert "forms" not in {part for name in names for part in name.split(".")}


def signed_binomial(n, k):
    """Oracle: C(n, k), with C(-m, k) = (-1)^k C(m+k-1, k) for m > 0."""
    return math.comb(n, k) if n >= 0 else (-1) ** k * math.comb(k - n - 1, k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_augmentation_of_lambda_is_binomial(data):
    # Negative coefficients make lambda_t invert a series.
    spec = data.draw(st.sampled_from(ORACLE_MODELS))
    r = data.draw(st.integers(1, 2))
    ring = ext_ring(spec, r)
    symbols = ring.basis_symbols(1)
    terms = {}
    for basis in data.draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=3, unique=True)):
        pos = data.draw(unit_entries(spec))
        neg = data.draw(unit_entries(spec))
        terms[basis] = ring.coeff_ring.diag(pos, neg)
    x = ring.elt(terms)
    series = x.lambda_t(4)
    for k in range(5):
        assert augmentation(series[k]) == signed_binomial(augmentation(x), k)


# ---------------------------------------------------------------------------
# torus character rings


def test_k_torus_lines_multiply_by_adding_exponents():
    kt = KTorusRing(2)
    a, b = kt.line((1, 0)), kt.line((0, 2))
    assert a * b == kt.line((1, 2))
    assert a.lambda_k(2) == kt.zero


def test_k_torus_lambda_of_line_sum():
    kt = KTorusRing(2)
    x = kt.line((1, 0)) + kt.line((0, 1))
    assert x.lambda_k(2) == kt.line((1, 1))
    assert x.lambda_k(3) == kt.zero


# Wide generic torus elements: sums of m lines with distinct, widely spread
# weights, so e_1..e_m are all nonzero.  The basis sweeps use lines and
# rank-2 pairs, whose lambda^i vanish for i > 2, so they reach almost no
# term of P_k (k >= 3) or of P_kj (k >= 2); these elements reach them all.
WIDE_X = (1, 7, 31, 127, 511)
WIDE_Y = (2, 19, 83, 331, 1301)
WIDE_Z = (1, 5, 23, 97, 401, 1601)


def wide_torus_element(weights):
    kt = KTorusRing(1)
    return sum((kt.line((w,)) for w in weights), kt.zero)


def test_wide_generic_torus_elements_pass_lambda1():
    """lambda^k(x y) = P_k(lambda(x), lambda(y)) for k <= 5, m = 5 lines each."""
    x, y = wide_torus_element(WIDE_X), wide_torus_element(WIDE_Y)
    report = check_lambda1(x, y, kmax=5)
    assert len(report) == 5 and all(rec.passed for rec in report)


@pytest.mark.parametrize("j", range(1, 7))
def test_wide_generic_torus_elements_pass_lambda2(j):
    """lambda^k(lambda^j(z)) = P_kj(lambda(z)) for kj <= 6, m = 6 lines."""
    report = check_lambda2(wide_torus_element(WIDE_Z), j, kmax=6 // j)
    assert len(report) == 6 // j and all(rec.passed for rec in report)


def bumped_tables(poly):
    """Each copy of the table with one coefficient raised by 1, and its key."""
    for key in sorted(poly.terms):
        yield key, EPolynomial({**poly.terms, key: poly.terms[key] + 1})


def test_wide_elements_see_every_table_coefficient():
    """A table with any one coefficient +1 breaks its identity on the wide
    elements: every coefficient of P_2..P_5 and of each P_kj with kj <= 6."""
    x, y, z = map(wide_torus_element, (WIDE_X, WIDE_Y, WIDE_Z))
    one = x.ring.one
    lx, ly, lxy, lz = x.lambda_t(5), y.lambda_t(5), (x * y).lambda_t(5), z.lambda_t(6)
    cases = [
        (universal_P(k), lxy[k], (lx[1 : k + 1], ly[1 : k + 1]), "P_%d" % k)
        for k in range(2, 6)
    ]
    for j in range(1, 7):
        lzj = lz[j].lambda_t(6 // j)
        cases += [
            (universal_P_kj(k, j), lzj[k], (lz[1 : k * j + 1],), "P_%d,%d" % (k, j))
            for k in range(1, 6 // j + 1)
        ]
    seen, unseen = 0, []
    for table, lhs, args, name in cases:
        assert table.evaluate(*args, one=one) == lhs, name
        for key, bumped in bumped_tables(table):
            seen += 1
            if bumped.evaluate(*args, one=one) == lhs:
                unseen.append((name, key))
    assert seen == 52 + 21
    assert unseen == []


# Virtual elements: sums of up to three basis elements of a ring with
# integer coefficients, the first one negative, so their lambda-series go
# through truncated inversion and reach table terms that no basis element
# reaches.  The coefficients stay far below MAX_LINES line series.
RINGS = list(rings())


def virtual_terms(n):
    """Up to three (basis index, coefficient) pairs, the first coefficient negative."""
    index = st.integers(0, n - 1)
    first = st.tuples(index, st.integers(-2, -1))
    rest = st.lists(st.tuples(index, st.integers(-2, 2).filter(bool)), max_size=2)
    return st.builds(lambda t, ts: [t] + ts, first, rest)


@pytest.mark.parametrize("name, ring", RINGS, ids=[name for name, _ in RINGS])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_virtual_elements_pass_both_identities(name, ring, data):
    basis = basis_elements(ring)
    x, y = (
        sum((c * basis[i] for i, c in data.draw(virtual_terms(len(basis)), label=v)), ring.zero)
        for v in "xy"
    )
    kmax = data.draw(st.integers(1, 5), label="kmax")
    j = data.draw(st.integers(1, 2), label="j")
    reports = (check_lambda1(x, y, kmax), check_lambda2(x, j, kmax))
    assert all(rec.passed for report in reports for rec in report)


def test_k_ext_torus_structure():
    ke = KExtTorusRing(1)
    one, delta = ke.one, ke.basis_elt("delta")
    pair1 = ke.basis_elt(pair_key((1,)))
    pair2 = ke.basis_elt(pair_key((2,)))
    assert delta * delta == one
    assert delta * pair1 == pair1
    assert pair1 * pair2 == ke.basis_elt(pair_key((3,))) + pair1
    # squaring hits the zero weight: [e^0] contributes 1 + delta
    assert pair1 * pair1 == pair2 + one + delta
    assert pair1.lambda_k(2) == delta
    assert pair1.lambda_k(3) == ke.zero


# ---------------------------------------------------------------------------
# basis symbols


def test_basis_sym_canonical_orientation():
    assert pair_key((-1, 2)) == (1, -2)
    assert pair_key((0, -3)) == (0, 3)
    assert pair_key((2, 1)) == (2, 1)


def test_basis_sym_rejects_zero():
    with pytest.raises(DomainError):
        pair_key((0, 0))


def test_basis_sym_ranks():
    assert EXT_SYMBOLS.rank("one") == 1
    assert EXT_SYMBOLS.rank("delta") == 1
    assert EXT_SYMBOLS.rank(pair_key((1,))) == 2


def test_parse_basis():
    assert parse_basis("one", 1) == "one"
    assert parse_basis("delta", 2) == "delta"
    assert parse_basis("pair:1,-2", 2) == pair_key((1, -2))
    with pytest.raises(FormatError):
        parse_basis("pair:0", 1)
    with pytest.raises(FormatError):
        parse_basis("pair:1,2", 1)
    with pytest.raises(FormatError):
        parse_basis("banana", 1)


def test_basis_symbols_enumeration():
    er = ext_ring("fq:5")
    names = [er.basis.record(s) for s in er.basis_symbols(2)]
    assert names == ["one", "delta", "pair:1", "pair:2"]
    er2 = ext_ring("fq:5", r=2)
    syms = er2.basis_symbols(1)
    reps = [s for s in syms if isinstance(s, tuple)]
    assert reps == [(0, 1), (1, -1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# GW of the extended torus: structure constants


def test_ext_torus_products():
    for spec in MODELS:
        er = ext_ring(spec)
        one, delta = er.one, er.basis_elt("delta")
        g1 = er.basis_elt(pair_key((1,)))
        g2 = er.basis_elt(pair_key((2,)))
        g3 = er.basis_elt(pair_key((3,)))
        two = er.coeff_ring.diag((er.field.from_int(2),))
        assert delta * delta == one
        assert delta * g1 == g1
        assert g1 * g2 == g3 + g1
        assert g1 * g1 == g2 + er.elt(
            {"one": two, "delta": two}
        )
        assert g1 * er.one == g1


def test_ext_torus_lambda_values():
    er = ext_ring("fq:5")
    g = er.basis_elt(pair_key((1,)))
    delta = er.basis_elt("delta")
    assert g.lambda_k(2) == delta
    assert g.lambda_k(3) == er.zero
    assert g.lambda_k(0) == er.one
    series = g.lambda_t(3)
    assert list(series) == [er.one, g, delta, er.zero]


def test_ext_torus_scaled_pair_lambda2_drops_the_unit():
    # lambda^2(<a>[e^g]) = <a>^2 lambda^2([e^g]) = delta
    for spec in MODELS:
        er = ext_ring(spec)
        f = er.field
        delta = er.basis_elt("delta")
        for a in (2, 3):
            scaled = er.elt(
                {pair_key((1,)): er.coeff_ring.diag((f.from_int(a),))}
            )
            assert scaled.lambda_k(2) == delta


def test_ext_torus_lambda_series_contract():
    er = ext_ring("fq:7")
    one = er.one
    d = er.basis_elt("delta")
    x = one + d
    s = x.lambda_t(2)
    assert s[0] == er.one
    assert s[1] == x
    assert s[2] == one * d


def test_lambda_t_of_rank_one():
    er = ext_ring("fq:5")
    s = er.one.lambda_t(2)
    assert list(s) == [er.one, er.one, er.zero]


# ---------------------------------------------------------------------------
# the identity checks themselves


def test_pair_pair_identity_top_terms():
    # lambda^3 of the rank-4 product lands on the shifted pairs, and
    # lambda^4 on the unit, on both sides of the identity.
    for spec in MODELS:
        er = ext_ring(spec)
        x = er.basis_elt(pair_key((1,)))
        y = er.basis_elt(pair_key((3,)))
        report = check_lambda1(x, y, kmax=4)
        assert all(rec.passed for rec in report)
        by_k = {rec.k: rec for rec in report}
        expected3 = er.basis_elt(pair_key((4,))) + er.basis_elt(
            pair_key((2,))
        )
        assert by_k[3].lhs == expected3
        assert by_k[3].rhs == expected3
        assert by_k[4].lhs == er.one
        assert by_k[4].rhs == er.one


def test_square_root_of_two_collapses_coefficients():
    # over a field containing sqrt(2), <2> = <1>, so the doubled unit
    # coefficients and the squared-pair coefficients agree
    er7 = ext_ring("fq:7")
    f7 = er7.field
    two_two = er7.coeff_ring.diag((f7.from_int(2), f7.from_int(2)))
    one_one = er7.coeff_ring.diag((f7.one, f7.one))
    lhs = er7.elt({"one": one_one, "delta": one_one})
    rhs = er7.elt({"one": two_two, "delta": two_two})
    assert lhs == rhs

    # over F_5 the discriminant still separates <2> from <1>
    er5 = ext_ring("fq:5")
    f5 = er5.field
    two = er5.coeff_ring.diag((f5.from_int(2),))
    one = er5.coeff_ring.diag((f5.one,))
    assert er5.elt({"one": one}) != er5.elt({"one": two})


def test_sweep_rank_one_all_models():
    for spec in MODELS:
        er = ext_ring(spec)
        elements = [er.basis_elt(s) for s in er.basis_symbols(2)]
        for i, x in enumerate(elements):
            for y in elements[i:]:
                assert all(rec.passed for rec in check_lambda1(x, y, kmax=4))
            for j in (1, 2):
                assert all(rec.passed for rec in check_lambda2(x, j=j, kmax=4))


def test_sweep_rank_two_spot():
    er = ext_ring("fq:5", r=2)
    elements = [er.basis_elt(s) for s in er.basis_symbols(1)]
    for i, x in enumerate(elements):
        for y in elements[i:]:
            assert all(rec.passed for rec in check_lambda1(x, y, kmax=3))


def test_check_kmax_defaults():
    er = ext_ring("fq:5")
    x = er.basis_elt(pair_key((1,)))
    report = check_lambda1(x, x)
    assert {rec.k for rec in report} == {1, 2, 3, 4}
    report2 = check_lambda2(x, j=2)
    assert max(rec.k for rec in report2) >= 1


def test_check_table_degree_cap():
    # lambda1 builds P_1..P_kmax and lambda2 P_kj(1..kmax, j); a degree
    # (kmax, resp. kmax*j) above 12 is refused before any series work.
    one = IntegerRing().one
    assert all(rec.passed for rec in check_lambda2(2 * one, j=6, kmax=2))
    huge = 10**6 * one
    for call in (
        lambda: check_lambda1(huge, huge),
        lambda: check_lambda1(one, one, kmax=13),
        lambda: check_lambda2(one, j=13, kmax=1),
        lambda: check_lambda2(huge, j=2),
    ):
        with pytest.raises(DomainError, match="tables are built up to degree 12"):
            call()


def test_line_series_cap():
    # One line series per unit of a coefficient on a rank-2 key, or of a
    # GW(F) count; the series of an element are multiplied in one loop.
    kext = KExtTorusRing(1)
    gwext = ext_ring("fq:5")
    pair = pair_key((1,))
    for n in (MAX_LINES, -MAX_LINES):
        x = kext.basis_elt(pair, n)
        assert x.lambda_t(2)[1] == x
        y = gwext.basis_elt(pair, n * gwext.coeff_ring.one)
        assert y.lambda_t(2)[1] == y
    delta = gwext.basis_elt("delta", gwext.coeff_ring.one)
    for x in (
        kext.basis_elt(pair, MAX_LINES + 1),
        kext.basis_elt(pair, 10**9),
        gwext.basis_elt(pair, MAX_LINES * gwext.coeff_ring.one) - delta,
    ):
        with pytest.raises(DomainError, match="takes at most %d line factors" % MAX_LINES):
            x.lambda_t(2)


def test_line_special_checks():
    # lambda^k(l*x) = l^k lambda^k(x) for a line l
    er = ext_ring("fq:5")
    f = er.field
    x = er.basis_elt(pair_key((1,)))
    line = er.elt({"delta": er.coeff_ring.diag((f.from_int(2),))})
    for l, kmax in ((line, 4), (er.one, 3)):
        lx, llx = x.lambda_t(kmax), (l * x).lambda_t(kmax)
        power = er.one
        for k in range(1, kmax + 1):
            power = power * l
            assert llx[k] == power * lx[k]


def test_check_records_shape():
    er = ext_ring("fq:5")
    x = er.basis_elt(pair_key((1,)))
    report = check_lambda1(x, x, kmax=2)
    rec = report[0].to_record()
    assert set(rec) == {"check", "k", "lhs", "rhs", "pass"}
    assert rec["check"] == "lambda1"
    assert parse_element(rec["lhs"]) == report[0].lhs


# ---------------------------------------------------------------------------
# augmentation, forgetful, hyperbolic


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
    split = gw_ring.coeff_ring.diag((field.one, field.from_int(-1)))
    return gw_ring.elt({b: c * split for b, c in x.terms.items()})


def test_augmentation_values():
    er = ext_ring("fq:5")
    f = er.field
    g = er.basis_elt(pair_key((2,)))
    assert augmentation(g) == 2
    two = er.coeff_ring.diag((f.from_int(2),))
    x = er.elt({"one": two, "delta": two})
    assert augmentation(x) == 2
    assert augmentation(er.one) == 1


def test_augmentation_multiplicative():
    rng = random.Random(22)
    er = ext_ring("fq:7")
    syms = er.basis_symbols(2)
    for _ in range(10):
        x = er.basis_elt(rng.choice(syms)) + er.basis_elt(rng.choice(syms))
        y = er.basis_elt(rng.choice(syms))
        assert augmentation(x * y) == augmentation(x) * augmentation(y)


def test_augmentation_lambda_binomial_on_positive():
    rng = random.Random(23)
    er = ext_ring("fq:5")
    f = er.field
    syms = er.basis_symbols(2)
    for _ in range(8):
        terms = {}
        for s in rng.sample(syms, k=2):
            entries = tuple(f.from_int(rng.randrange(1, 5)) for _ in range(rng.randint(1, 2)))
            terms[s] = er.coeff_ring.diag(entries)
        x = er.elt(terms)
        n = augmentation(x)
        for k in range(0, 5):
            assert augmentation(x.lambda_k(k)) == math.comb(n, k)


def test_forgetful_is_ring_hom_and_lambda_compatible():
    rng = random.Random(24)
    er = ext_ring("fq:7")
    ke = KExtTorusRing(1)
    f = er.field
    syms = er.basis_symbols(2)

    def rand_elt():
        terms = {}
        for s in rng.sample(syms, k=rng.randint(1, 2)):
            pos = tuple(f.from_int(rng.randrange(1, 7)) for _ in range(rng.randint(1, 2)))
            neg = tuple(f.from_int(rng.randrange(1, 7)) for _ in range(rng.randint(0, 1)))
            terms[s] = er.coeff_ring.diag(pos, neg)
        return er.elt(terms)

    for _ in range(8):
        x, y = rand_elt(), rand_elt()
        assert forgetful(x + y) == forgetful(x) + forgetful(y)
        assert forgetful(x * y) == forgetful(x) * forgetful(y)
        for k in (1, 2, 3):
            assert forgetful(x.lambda_k(k)) == forgetful(x).lambda_k(k)
    assert forgetful(er.basis_elt(pair_key((1,)))) == ke.basis_elt(
        pair_key((1,))
    )


def test_hyperbolic_map_behavior():
    er = ext_ring("rc")
    ke = KExtTorusRing(1)
    f = er.field
    split = er.coeff_ring.diag((f.one, f.from_int(-1)))
    assert hyperbolic_map(ke.one, er) == er.elt({"one": split})
    assert hyperbolic_map(ke.basis_elt("delta"), er) == er.elt(
        {"delta": split}
    )
    g = pair_key((2,))
    assert hyperbolic_map(ke.basis_elt(g), er) == er.elt({g: split})
    x = ke.one + ke.basis_elt(g)
    y = ke.basis_elt("delta")
    assert hyperbolic_map(x + y, er) == hyperbolic_map(x, er) + hyperbolic_map(y, er)
    assert forgetful(hyperbolic_map(x, er)) == x + x


def test_map_domain_errors():
    er = ext_ring("fq:5")
    ke = KExtTorusRing(2)
    with pytest.raises(DomainError):
        forgetful(ke.one)
    with pytest.raises(DomainError):
        hyperbolic_map(ke.one, er)


# ---------------------------------------------------------------------------
# structure constants hook


def test_default_constants():
    assert DEFAULT_CONSTANTS == ExtTorusConstants(
        delta_delta="one",
        delta_pair="pair",
        lambda2_pair="delta",
        pair_zero_scale=2,
    )


def test_corrupted_constants_fail_identities(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"lambda2_pair": "one"}))
    constants = load_constants(str(path))
    er = ext_ring("fq:5", constants=constants)
    x = er.basis_elt(pair_key((1,)))
    assert not all(rec.passed for rec in check_lambda1(x, x, kmax=4))


def test_structurally_invalid_constants(tmp_path):
    for bad in (
        {"lambda2_pair": "banana"},
        {"pair_zero_scale": 0},
        {"unknown_key": 1},
        [1, 2, 3],
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(FormatError):
            load_constants(str(path))


# ---------------------------------------------------------------------------
# exchange format


def sample_elements():
    ints = IntegerRing()
    gw = GWFieldRing(field_model("fq:7"))
    kt = KTorusRing(2)
    ke = KExtTorusRing(1)
    er = ext_ring("rc", r=2)
    f = er.field
    coeff = er.coeff_ring.diag((f.one,), (f.from_int(-3),))
    return [
        -7 * ints.one,
        gw.diag([1, 3]) - gw.diag([5]),
        kt.line((1, -2)) + kt.line((0, 1)),
        ke.basis_elt(pair_key((3,))) + ke.one,
        er.elt({pair_key((1, -1)): coeff, "one": er.coeff_ring.diag((f.one,))}),
    ]


def test_element_record_round_trip():
    for x in sample_elements():
        rec = element_record(x)
        assert json.loads(json.dumps(rec)) == rec
        assert parse_element(rec) == x


def test_load_element_round_trip(tmp_path):
    x = sample_elements()[4]
    path = tmp_path / "elt.json"
    path.write_text(json.dumps(element_record(x)))
    assert load_element(str(path)) == x


def test_parse_element_diagnostics():
    with pytest.raises(FormatError, match="ring"):
        parse_element({"terms": []})
    with pytest.raises(FormatError, match="field"):
        parse_element({"ring": "gw-field", "rank_r": None, "terms": []})
    with pytest.raises(FormatError, match="basis"):
        parse_element(
            {
                "ring": "k-ext-torus",
                "rank_r": 1,
                "field": None,
                "terms": [{"coeff": 1}],
            }
        )
    with pytest.raises(FormatError):
        parse_element(
            {
                "ring": "gw-ext-torus",
                "rank_r": 1,
                "field": "fq:5",
                "terms": [{"basis": "pair:0", "coeff": {"pos": ["1"], "neg": []}}],
            }
        )


def test_gw_field_terms_are_on_the_unit():
    # GW(F) is free over Z on the square classes, but its exchange format
    # holds them in the coefficient of one "one" term.
    term = {"coeff": {"pos": ["1"], "neg": []}}
    for basis in ("bogus", "delta", None):
        record = {"ring": "gw-field", "field": "rc", "terms": [dict(term, basis=basis)]}
        with pytest.raises(FormatError, match=r"terms\[0\]\.basis must be 'one'"):
            parse_element(record)
    record = {"ring": "gw-field", "field": "rc", "terms": [dict(term, basis="one")]}
    assert parse_element(record) == GWFieldRing(field_model("rc")).one


def test_element_str_formats():
    er = ext_ring("fq:5")
    g = er.basis_elt(pair_key((1,)))
    assert element_str(g * g) == "<2>*1+ + <2>*d+ + <1>*[e^(2)]+"
    assert element_str(er.zero) == "0"


# ---------------------------------------------------------------------------
# cross-ring misuse


def test_mixed_ring_arithmetic_rejected():
    a = ext_ring("fq:5").one
    b = ext_ring("fq:7").one
    with pytest.raises(DomainError):
        a + b
    with pytest.raises(DomainError):
        a * b
    kt1, kt2 = KTorusRing(1), KTorusRing(2)
    with pytest.raises(DomainError):
        kt1.one + kt2.one


def test_zero_operand_from_another_ring_is_rejected():
    # The fast paths for an operand without terms run after the ring check.
    for x, other in (
        (ext_ring("fq:5").one, ext_ring("fq:7")),
        (KTorusRing(1).line((1,)), KTorusRing(2)),
        (IntegerRing().one, GWFieldRing(field_model("rc"))),
    ):
        for zero in (other.zero, other.elt({})):
            for a, b in ((x, zero), (zero, x), (x.ring.zero, zero), (zero, x.ring.zero)):
                with pytest.raises(DomainError, match="mixed-ring"):
                    a + b
                with pytest.raises(DomainError, match="mixed-ring"):
                    a * b


# ---------------------------------------------------------------------------
# + and * against the generic sum and product


def generic_add(x, y):
    """The sum with no shortcut: merge the terms, then drop zero coefficients."""
    terms = dict(x.terms)
    for b, c in y.terms.items():
        terms[b] = terms[b] + c if b in terms else c
    return x.ring._reduced(terms)


def generic_mul(x, y):
    """The product term by term from ``basis.product``, with no product table."""
    ring, out = x.ring, {}
    for b1, c1 in x.terms.items():
        for b2, c2 in y.terms.items():
            for b, factor in ring.basis.product(ring, b1, b2):
                c = c1 * c2 if factor is None else factor * (c1 * c2)
                out[b] = out[b] + c if b in out else c
    return ring._reduced(out)


def raw(x):
    """The terms of x, with GW(F) coefficients as their counts: equal raw
    terms are equal elements written the same way."""
    return {b: raw(c) if isinstance(c, FreeElt) else c for b, c in x.terms.items()}


def arithmetic_operands(ring):
    """Zero twice (the ring's and a fresh one), and sums of basis elements."""
    if ring.r is None and ring.basis.field is None:
        return [ring.zero, ring.elt({})] + [n * ring.one for n in (-2, 1, 3)]
    if ring.basis.field is not None:
        return [ring.zero, ring.elt({})] + count_vectors(ring)[::5]
    keys = ring.basis_symbols(1)
    basis = [ring.basis_elt(b) for b in keys]
    sums = [a + 2 * b - c for a, b, c in zip(basis, basis[1:], basis[2:])]
    return [ring.zero, ring.elt({})] + basis + sums


FAST_PATH_RINGS = {
    "integers": IntegerRing,
    "gw-field-rc": lambda: GWFieldRing(field_model("rc")),
    "gw-field-fq5": lambda: GWFieldRing(field_model("fq:5")),
    "k-torus-r2": lambda: KTorusRing(2),
    "k-ext-torus": lambda: KExtTorusRing(1),
    "gw-ext-torus-rc-r2": lambda: GWExtTorusRing(2, field_model("rc")),
    "gw-ext-torus-fq5": lambda: GWExtTorusRing(1, field_model("fq:5")),
}


@pytest.mark.parametrize("name", FAST_PATH_RINGS)
def test_sums_and_products_match_the_generic_ones(name):
    # x + 0, 0 + x, x * 0 and 0 * x take the fast paths, and every other
    # product reads the ring's product table.
    ring = FAST_PATH_RINGS[name]()
    elements = arithmetic_operands(ring)
    for x in elements:
        for y in elements:
            for got, want in ((x + y, generic_add(x, y)), (x * y, generic_mul(x, y))):
                assert got.ring is ring
                assert raw(got) == raw(want)
        for zero in elements[:2]:
            assert raw(x + zero) == raw(zero + x) == raw(generic_add(x, zero)) == raw(x)
            assert raw(x * zero) == raw(zero * x) == raw(generic_mul(x, zero)) == {}


@pytest.mark.parametrize("spec", ("rc", "fq:5"))
@pytest.mark.parametrize(
    "constants",
    (DEFAULT_CONSTANTS, ExtTorusConstants(lambda2_pair="one", pair_zero_scale=3)),
    ids=("default", "lambda2-one-scale-3"),
)
def test_product_table_matches_basis_product(spec, constants):
    ring = GWExtTorusRing(2, field_model(spec), constants)
    keys = ring.basis_symbols(2)
    for b1 in keys:
        for b2 in keys:
            x, y = ring.basis_elt(b1), ring.basis_elt(b2)
            assert raw(x * y) == raw(generic_mul(x, y))
    assert set(ring._products) == set(itertools.product(keys, repeat=2))

    def raw_pairs(pairs):
        return [(b, None if f is None else raw(f)) for b, f in pairs]

    for (b1, b2), pairs in ring._products.items():
        assert raw_pairs(pairs) == raw_pairs(ring.basis.product(ring, b1, b2))
    # [e^g][e^g] holds [e^0] = <s>*1 + <s>*d, with the ring's own scale <s>.
    assert ring._products[(1, 0), (1, 0)][1:] == (("one", ring.scale), ("delta", ring.scale))


def test_free_rings_share_one_element_class():
    assert KTorusElt is KExtElt is GWExtElt is FreeElt
    for ring in (KTorusRing(1), KExtTorusRing(1), ext_ring("fq:5")):
        assert type(ring.one) is FreeElt


def test_free_ring_elt_checks_keys_and_coefficients():
    ke, er = KExtTorusRing(1), ext_ring("fq:5")
    with pytest.raises(DomainError, match="basis symbols"):
        ke.elt({(-1,): 1})
    for ring, coeff in (
        (ke, er.coeff_ring.one),
        (er, 1),
        (er, ext_ring("fq:7").coeff_ring.one),
    ):
        with pytest.raises(DomainError, match="coefficient ring"):
            ring.elt({"one": coeff})
