"""Tests for Gram-matrix algebra and Grothendieck-Witt invariants."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwlambda.errors import DomainError, FormatError
from gwlambda.fields import PRIMALITY_BOUND, FinitePrime, _is_prime, field_model
from gwlambda.forms import (
    GWClass,
    GramForm,
    diagonalize,
    exterior_power,
    form_record,
    gw_class,
    hyperbolic,
    hyperbolic_lemma_witness,
    load_form,
    negate,
    parse_form,
    perp_sum,
    sublagrangian_reduce,
    tensor,
)
from gwlambda.lambda_rings import GWFieldRing

from form_helpers import add, diagonal_class, diagonal_form, inv

MODELS = ("qc", "rc", "fq:5", "fq:7")


def rand_unit(field, rng):
    """A random nonzero field element."""
    if field.spec.startswith("fq:"):
        q = int(field.spec.split(":")[1])
        return field.from_int(rng.randrange(1, q))
    return Fraction(rng.choice([x for x in range(-4, 5) if x]), rng.randint(1, 3))


def rand_diagonal(field, rng, dim):
    return diagonal_form(field, [rand_unit(field, rng) for _ in range(dim)])


def matmul(field, a, b):
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    assert m == len(a[0])
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            acc = field.zero
            for k in range(m):
                acc = add(field, acc, field.mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def congruent(form, basis_rows):
    """B^T G B for an integer change of basis, as a new GramForm."""
    field = form.field
    b = [[field.from_int(v) for v in row] for row in basis_rows]
    g = [list(row) for row in form.gram]
    return GramForm(field, matmul(field, transpose(b), matmul(field, g, b)))


def rand_form(field, rng, dim):
    """A random nondegenerate symmetric form, usually not diagonal."""
    base = rand_diagonal(field, rng, dim)
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
        try:
            return congruent(base, rows)
        except DomainError:
            continue


# ---------------------------------------------------------------------------
# construction and validation


def test_gram_must_be_square():
    f = field_model("qc")
    with pytest.raises(DomainError, match="square"):
        GramForm(f, [[f.one, f.zero]])


def test_gram_must_be_symmetric():
    f = field_model("fq:5")
    with pytest.raises(DomainError, match="not symmetric"):
        GramForm(f, [[1, 2], [3, 1]])


def test_gram_must_be_nondegenerate():
    f = field_model("fq:5")
    with pytest.raises(DomainError, match="singular"):
        GramForm(f, [[1, 2], [2, 4]])


def test_diagonal_form_rejects_zero_entry():
    f = field_model("rc")
    with pytest.raises(DomainError):
        diagonal_form(f, [Fraction(1), Fraction(0)])


def test_zero_dimensional_form_allowed():
    f = field_model("rc")
    form = GramForm(f, [])
    assert form.dim == 0


# ---------------------------------------------------------------------------
# field models


def test_field_specs_reject_bad_moduli():
    for spec in ("fq:2", "fq:9", "fq:-3"):
        with pytest.raises(DomainError):
            field_model(spec)
    with pytest.raises(FormatError):
        field_model("zz")


def test_finite_prime_square_classes():
    f7 = field_model("fq:7")
    assert sorted(a for a in range(1, 7) if f7.is_square(a)) == [1, 2, 4]
    assert f7.non_residue == 3
    f5 = field_model("fq:5")
    assert f5.non_residue == 2
    assert not f5.is_square(2)


def test_non_residue_is_smallest_non_square():
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
        f = field_model("fq:%d" % q)
        squares = {a * a % q for a in range(1, q)}
        assert f.non_residue == min(a for a in range(2, q) if a not in squares)


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if trial_division_is_prime(n)
    ]


def test_is_prime_rejects_strong_pseudoprimes():
    # Strong pseudoprimes to the first 11 and the first 12 prime bases.
    assert 149491 * 747451 * 34233211 == 3825123056546413051
    assert not _is_prime(3825123056546413051)
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not _is_prime(318665857834031151167461)
    assert _is_prime(2**61 - 1)
    assert _is_prime(10**18 + 3)


def test_is_prime_refuses_at_the_bound():
    for n in (PRIMALITY_BOUND, PRIMALITY_BOUND + 2, 2**89 - 1):
        with pytest.raises(DomainError, match=str(PRIMALITY_BOUND)):
            _is_prime(n)
    with pytest.raises(DomainError, match=str(PRIMALITY_BOUND)):
        field_model("fq:%d" % (2**89 - 1))


def test_field_models_compare_by_spec():
    assert field_model("fq:5") is field_model("fq:5")
    assert FinitePrime(5) == field_model("fq:5")
    assert hash(FinitePrime(5)) == hash(field_model("fq:5"))
    assert FinitePrime(5) != field_model("fq:7")
    assert field_model("qc") != field_model("rc")


def test_real_closed_square_classes():
    rc = field_model("rc")
    assert rc.square_class(Fraction(9, 4)) == Fraction(1)
    assert rc.square_class(Fraction(-3)) == Fraction(-1)


def test_quadratically_closed_square_classes():
    qc = field_model("qc")
    assert qc.square_class(Fraction(-3)) == Fraction(1)
    assert qc.square_class(Fraction(-3)) == qc.one


def test_square_class_of_zero_rejected():
    for spec in MODELS:
        f = field_model(spec)
        with pytest.raises(DomainError):
            f.square_class(f.zero)


def test_field_parse_round_trip():
    rc = field_model("rc")
    assert rc.parse("-3/2") == Fraction(-3, 2)
    assert rc.to_str(Fraction(-3, 2)) == "-3/2"
    f7 = field_model("fq:7")
    assert f7.parse("12") == 5
    assert f7.parse("1/2") == f7.mul(1, inv(f7, 2))
    assert f7.parse("-3/-5") == f7.mul(4, inv(f7, 2))


def test_fq_parse_names_a_denominator_that_is_zero():
    with pytest.raises(FormatError, match=r"'-2/3'.* fq:3$"):
        field_model("fq:3").parse("-2/3")
    with pytest.raises(FormatError, match=r"'1/14'.* fq:7$"):
        field_model("fq:7").parse("1/14")


# ---------------------------------------------------------------------------
# sums, products, exterior powers


def test_perp_sum_blocks():
    f = field_model("fq:5")
    a = diagonal_form(f, [1])
    b = diagonal_form(f, [1])
    assert perp_sum(a, b).gram == ((1, 0), (0, 1))
    h = hyperbolic(1, f)
    c = perp_sum(h, diagonal_form(f, [3]))
    assert c.dim == 3
    assert c.gram == ((0, 1, 0), (1, 0, 0), (0, 0, 3))


def test_perp_sum_field_mismatch():
    a = diagonal_form(field_model("fq:5"), [1])
    b = diagonal_form(field_model("fq:7"), [1])
    with pytest.raises(DomainError):
        perp_sum(a, b)
    with pytest.raises(DomainError):
        tensor(a, b)


def test_tensor_rank_one():
    f = field_model("fq:7")
    assert tensor(diagonal_form(f, [2]), diagonal_form(f, [3])).gram == ((6,),)


def test_tensor_rank_multiplies():
    rng = random.Random(1)
    f = field_model("rc")
    a, b = rand_form(f, rng, 2), rand_form(f, rng, 3)
    assert tensor(a, b).dim == 6


def test_tensor_hyperbolic_absorbs_units():
    rc = field_model("rc")
    t = tensor(hyperbolic(1, rc), diagonal_form(rc, [Fraction(-1)]))
    assert gw_class(t) == gw_class(hyperbolic(1, rc))


def test_exterior_square_of_hyperbolic_plane():
    for spec in MODELS:
        f = field_model(spec)
        top = exterior_power(hyperbolic(1, f), 2)
        assert top.gram == ((f.from_int(-1),),)


def test_exterior_power_identity_and_unit():
    f = field_model("fq:5")
    a = diagonal_form(f, [2, 3, 4])
    assert exterior_power(a, 1) == a
    assert exterior_power(a, 0).gram == ((f.one,),)


def test_exterior_power_of_diagonal_is_subset_products():
    f = field_model("fq:7")
    entries = [2, 3, 5, 6]
    a = diagonal_form(f, entries)
    for k in range(1, 5):
        got = exterior_power(a, k)
        expected = []
        for comb in itertools.combinations(entries, k):
            prod = f.one
            for v in comb:
                prod = f.mul(prod, v)
            expected.append(prod)
        assert [got.gram[i][i] for i in range(got.dim)] == expected
        off_diagonal = itertools.permutations(range(got.dim), 2)
        assert all(got.gram[i][j] == f.zero for i, j in off_diagonal)


def test_exterior_top_power_is_determinant():
    rng = random.Random(2)
    for spec in MODELS:
        f = field_model(spec)
        for dim in (1, 2, 3):
            a = rand_form(f, rng, dim)
            top = exterior_power(a, dim)
            assert top.gram == ((a.det(),),)


def test_exterior_power_range_errors():
    f = field_model("fq:5")
    a = diagonal_form(f, [1, 2])
    with pytest.raises(DomainError):
        exterior_power(a, 3)
    with pytest.raises(DomainError):
        exterior_power(a, -1)


def test_hyperbolic_gram():
    f = field_model("fq:5")
    assert hyperbolic(1, f).gram == ((0, 1), (1, 0))
    assert hyperbolic(2, f).gram == (
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )
    with pytest.raises(DomainError):
        hyperbolic(0, f)


def test_hyperbolic_class_invariants():
    for spec in MODELS:
        f = field_model(spec)
        for n in (1, 2, 3):
            cls = gw_class(hyperbolic(n, f))
            assert cls.rank == 2 * n
            assert cls.disc == f.one
            if spec == "rc":
                assert cls.signature == 0
    rc = field_model("rc")
    assert gw_class(hyperbolic(2, rc)) == gw_class(
        perp_sum(hyperbolic(1, rc), hyperbolic(1, rc))
    )


# ---------------------------------------------------------------------------
# classes and invariants


def test_class_of_ones_over_f7():
    f7 = field_model("fq:7")
    cls = gw_class(diagonal_form(f7, [1, 1]))
    assert cls.rank == 2
    # signed disc = -1 = 6 mod 7, a non-residue
    assert cls.disc == f7.square_class(6)
    assert cls.disc != f7.one


def test_ones_equals_twos_everywhere():
    for spec in MODELS:
        f = field_model(spec)
        ones = diagonal_form(f, [f.one, f.one])
        twos = diagonal_form(f, [f.from_int(2), f.from_int(2)])
        assert gw_class(ones) == gw_class(twos)


def test_hyperbolic_plane_signature():
    rc = field_model("rc")
    cls = gw_class(hyperbolic(1, rc))
    assert (cls.rank, cls.signature) == (2, 0)


def test_class_sum_and_product_homomorphism():
    rng = random.Random(3)
    for spec in MODELS:
        f = field_model(spec)
        for _ in range(10):
            a = rand_form(f, rng, rng.randint(1, 3))
            b = rand_form(f, rng, rng.randint(1, 3))
            assert gw_class(perp_sum(a, b)) == gw_class(a) + gw_class(b)
            assert gw_class(tensor(a, b)) == gw_class(a) * gw_class(b)


def test_exterior_class_convolution():
    rng = random.Random(4)
    for spec in MODELS:
        f = field_model(spec)
        for _ in range(5):
            a = rand_diagonal(f, rng, rng.randint(1, 2))
            b = rand_diagonal(f, rng, rng.randint(1, 2))
            s = perp_sum(a, b)
            for n in range(s.dim + 1):
                lhs = gw_class(exterior_power(s, n))
                rhs = GWClass.zero(f)
                for i in range(n + 1):
                    if i > a.dim or n - i > b.dim:
                        continue
                    rhs = rhs + gw_class(
                        tensor(exterior_power(a, i), exterior_power(b, n - i))
                    )
                assert lhs == rhs


def test_class_equality_requires_same_field():
    a = gw_class(diagonal_form(field_model("fq:5"), [1]))
    b = gw_class(diagonal_form(field_model("fq:7"), [1]))
    with pytest.raises(DomainError):
        a == b


def test_class_discriminant_is_a_canonical_representative():
    f7 = field_model("fq:7")  # square classes 1 and 3
    assert GWClass(f7, 1, 3).disc == 3
    with pytest.raises(DomainError, match="square_classes"):
        GWClass(f7, 1, 6)


def test_virtual_class_arithmetic():
    f = field_model("rc")
    a = GWClass.of_diagonal(f, [Fraction(1), Fraction(2)])
    b = GWClass.of_diagonal(f, [Fraction(-3)])
    zero = GWClass.zero(f)
    assert a + (-a) == zero
    assert (a - b) + b == a
    assert a * b == b * a
    assert (a + b) * b == a * b + b * b
    neg = -b
    assert neg.rank == -1


@pytest.mark.parametrize("spec", ("qc", "rc", "fq:3", "fq:5", "fq:7"))
def test_equal_classes_hash_equal(spec):
    # Random virtual diagonal classes, each also read from its positive
    # form by gw_class: many pairs are equal with other entries, and every
    # equal pair must hash equal.
    rng = random.Random(9)
    f = field_model(spec)
    classes = []
    for _ in range(30):
        pos = [rand_unit(f, rng) for _ in range(rng.randint(1, 3))]
        neg = [rand_unit(f, rng) for _ in range(rng.randint(0, 2))]
        classes += [GWClass.of_diagonal(f, pos, neg), gw_class(diagonal_form(f, pos))]
    equal = [(a, b) for a, b in itertools.combinations(classes, 2) if a == b]
    assert len(equal) > len(classes)
    for a, b in equal:
        assert hash(a) == hash(b), (a, b)


# ---------------------------------------------------------------------------
# closed-form classes of diagonal forms


def fold_of_diagonal(field, entries):
    """Oracle: the class of <a1,...,an> as a sum of rank-1 classes."""
    out = GWClass.zero(field)
    for a in entries:
        sig = (1 if a > 0 else -1) if field.kind == "rc" else None
        out = out + GWClass(field, 1, field.square_class(a), sig)
    return out


# fq:3 and fq:7 have -1 a non-square, so the sign twist of the signed
# discriminant shows there; fq:5 has -1 a square.
CLOSED_FORM_MODELS = ("qc", "rc", "fq:3", "fq:5", "fq:7")


def units(spec):
    if spec.startswith("fq:"):
        return st.integers(1, int(spec[3:]) - 1)
    return st.builds(
        Fraction,
        st.integers(-9, 9).filter(bool),
        st.integers(1, 9),
    )


def diagonals():
    """(field, entries, minus) with up to seven entries on each side."""
    return st.sampled_from(CLOSED_FORM_MODELS).flatmap(
        lambda spec: st.tuples(
            st.just(field_model(spec)),
            st.lists(units(spec), max_size=7),
            st.lists(units(spec), max_size=7),
        )
    )


def same_invariants(a, b):
    return (a.field, a.rank, a.disc, a.signature) == (b.field, b.rank, b.disc, b.signature)


@settings(max_examples=200, deadline=None)
@given(diagonals())
def test_closed_form_of_diagonal_matches_fold(case):
    field, entries, minus = case
    assert same_invariants(
        GWClass.of_diagonal(field, entries), fold_of_diagonal(field, entries)
    )
    assert same_invariants(
        GWClass.of_diagonal(field, entries, minus),
        fold_of_diagonal(field, entries) - fold_of_diagonal(field, minus),
    )


@settings(max_examples=200, deadline=None)
@given(diagonals())
def test_coefficient_class_matches_fold(case):
    field, entries, minus = case
    x = GWFieldRing(field).diag(entries, minus)
    expected = fold_of_diagonal(field, x.pos) - fold_of_diagonal(field, x.neg)
    assert same_invariants(diagonal_class(x), expected)
    # The canonical multisets carry the class of the input entries.
    assert diagonal_class(x) == fold_of_diagonal(field, entries) - fold_of_diagonal(field, minus)
    assert x.is_zero() == (expected == GWClass.zero(field))


def test_of_diagonal_rejects_zero_entry():
    for spec in CLOSED_FORM_MODELS:
        f = field_model(spec)
        with pytest.raises(DomainError):
            GWClass.of_diagonal(f, [f.one, f.zero])


def test_cancelled_coefficient_can_be_zero():
    # <1,1> and <2,2> are isometric over every odd prime field, although
    # 2 is a non-square mod 3 and mod 5: the multisets do not cancel.
    for spec in ("fq:3", "fq:5"):
        ring = GWFieldRing(field_model(spec))
        x = ring.diag([1, 1]) - ring.diag([2, 2])
        assert x.pos and x.neg
        assert x.is_zero()
        assert x == ring.zero


# ---------------------------------------------------------------------------
# diagonalization


def test_diagonalize_keeps_diagonal_input():
    f = field_model("fq:7")
    assert diagonalize(diagonal_form(f, [2, 5, 6])) == [2, 5, 6]


def test_diagonalize_hyperbolic_plane():
    f = field_model("rc")
    d = diagonalize(hyperbolic(1, f))
    assert len(d) == 2
    assert f.square_class(d[0] * d[1]) == f.square_class(Fraction(-1))


def test_diagonalize_preserves_class():
    rng = random.Random(5)
    for spec in MODELS:
        f = field_model(spec)
        for _ in range(8):
            a = rand_form(f, rng, rng.randint(1, 4))
            d = diagonalize(a)
            assert len(d) == a.dim
            assert gw_class(diagonal_form(f, d)) == gw_class(a)
            # product of the entries stays in the determinant class
            prod = f.one
            for v in d:
                prod = f.mul(prod, v)
            assert f.square_class(prod) == f.square_class(a.det())


# ---------------------------------------------------------------------------
# sub-Lagrangian reduction


def test_reduce_lagrangian_of_hyperbolic_plane():
    f = field_model("fq:5")
    h = hyperbolic(1, f)
    reduced, n = sublagrangian_reduce(h, [[f.one, f.zero]])
    assert (reduced.dim, n) == (0, 1)
    assert gw_class(h) == gw_class(reduced) + gw_class(hyperbolic(1, f))


def test_reduce_isotropic_line_leaves_complement():
    f = field_model("fq:7")
    a = perp_sum(hyperbolic(1, f), diagonal_form(f, [3]))
    reduced, n = sublagrangian_reduce(a, [[f.one, f.zero, f.zero]])
    assert n == 1
    assert reduced.dim == 1
    assert gw_class(reduced) == gw_class(diagonal_form(f, [3]))


def test_reduce_two_dimensional_lagrangian():
    f = field_model("fq:5")
    h2 = hyperbolic(2, f)
    vectors = [
        [f.one, f.zero, f.zero, f.zero],
        [f.zero, f.one, f.zero, f.zero],
    ]
    reduced, n = sublagrangian_reduce(h2, vectors)
    assert (reduced.dim, n) == (0, 2)


def test_reduce_rejects_non_isotropic():
    f = field_model("fq:5")
    a = diagonal_form(f, [1, 1])
    with pytest.raises(DomainError, match="sub-Lagrangian"):
        sublagrangian_reduce(a, [[f.one, f.zero]])


def test_reduce_rejects_dependent_basis():
    f = field_model("fq:5")
    h = hyperbolic(1, f)
    with pytest.raises(DomainError):
        sublagrangian_reduce(h, [[f.one, f.zero], [f.from_int(2), f.zero]])


def test_reduce_rejects_basis_dependent_only_mod_q():
    """(1, 2) and (3, 1) are independent over Z (determinant -5) but not
    over fq:5: a pivot must be nonzero in the field, not merely over Z."""
    f = field_model("fq:5")
    with pytest.raises(DomainError, match="linearly dependent"):
        sublagrangian_reduce(hyperbolic(2, f), [[1, 2, 0, 0], [3, 1, 0, 0]])


def metabolic_form(field, rng, m):
    """Gram [[0, C], [C^T, D]] with C invertible and D symmetric."""
    while True:
        c = [[rand_unit(field, rng) for _ in range(m)] for _ in range(m)]
        d = [[field.zero] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                d[i][j] = d[j][i] = rand_unit(field, rng)
        gram = [[field.zero] * (2 * m) for _ in range(2 * m)]
        for i in range(m):
            for j in range(m):
                gram[i][m + j] = c[i][j]
                gram[m + j][i] = c[i][j]
                gram[m + i][m + j] = d[i][j]
        try:
            return GramForm(field, gram)
        except DomainError:
            continue


def test_metabolic_forms_reduce_to_hyperbolic():
    rng = random.Random(6)
    for spec in MODELS:
        f = field_model(spec)
        for m in (1, 2):
            for _ in range(4):
                a = metabolic_form(f, rng, m)
                assert gw_class(a) == gw_class(hyperbolic(m, f))
                basis = []
                for i in range(m):
                    v = [f.zero] * (2 * m)
                    v[i] = f.one
                    basis.append(v)
                reduced, n = sublagrangian_reduce(a, basis)
                assert (reduced.dim, n) == (0, m)
                for k in range(1, min(4, a.dim) + 1):
                    assert gw_class(exterior_power(a, k)) == gw_class(
                        exterior_power(hyperbolic(m, f), k)
                    )


# ---------------------------------------------------------------------------
# hyperbolic lemma witness


def test_witness_for_unit_line():
    rc = field_model("rc")
    b = hyperbolic_lemma_witness(diagonal_form(rc, [Fraction(1)]))
    assert b == ((Fraction(1), Fraction(1, 2)), (Fraction(1), Fraction(-1, 2)))


def test_witness_verifies_explicitly():
    rng = random.Random(7)
    for spec in MODELS:
        f = field_model(spec)
        for dim in (1, 2, 3):
            a = rand_form(f, rng, dim)
            b = hyperbolic_lemma_witness(a)
            assert len(b) == 2 * dim
            stacked = perp_sum(a, negate(a))
            g = [list(row) for row in stacked.gram]
            rows = [list(r) for r in b]
            got = matmul(f, transpose(rows), matmul(f, g, rows))
            assert tuple(tuple(r) for r in got) == hyperbolic(dim, f).gram


def test_witness_on_hyperbolic_plane():
    f = field_model("fq:7")
    b = hyperbolic_lemma_witness(hyperbolic(1, f))
    assert len(b) == 4


def test_witness_mod_seven_example():
    f = field_model("fq:7")
    b = hyperbolic_lemma_witness(diagonal_form(f, [2, 3]))
    assert len(b) == 4
    # blocks are [[I, G^{-1}/2], [I, -G^{-1}/2]]
    half = inv(f, f.from_int(2))
    assert b[2][0] == f.one and b[3][1] == f.one
    assert b[0][2] == f.mul(half, inv(f, 2))
    assert b[1][3] == f.mul(half, inv(f, 3))


# ---------------------------------------------------------------------------
# exchange format


def test_form_record_round_trip():
    rng = random.Random(8)
    for spec in MODELS:
        f = field_model(spec)
        a = rand_form(f, rng, 3)
        rec = form_record(a)
        assert parse_form(rec) == a
        assert json.loads(json.dumps(rec)) == rec


def test_parse_form_rejects_asymmetric():
    with pytest.raises(DomainError, match="symmetric"):
        parse_form({"field": "fq:5", "gram": [["1", "2"], ["3", "1"]]})


def test_parse_form_rejects_singular():
    with pytest.raises(DomainError, match="singular"):
        parse_form({"field": "fq:5", "gram": [["1", "2"], ["2", "4"]]})


def test_parse_form_rejects_missing_fields():
    with pytest.raises(FormatError, match="field"):
        parse_form({"gram": [["1"]]})
    with pytest.raises(FormatError):
        parse_form({"field": "fq:5", "gram": "nope"})


def test_load_form_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError, match="JSON"):
        load_form(str(path))
