"""The integer matrix kernels of the field models, against oracles that
share no code with them.

The oracles are the earlier implementations: Gaussian elimination with the
model's own field arithmetic for the determinant, symmetric elimination on
the full matrix for ``diagonalize``, and Gauss-Jordan elimination in the
field for ``echelon``.  Sylvester-Franke,
det(Lambda^k G) = det(G)^C(n-1, k-1), is a formula oracle for the
exterior powers.  The hyperbolic witness is checked with this file's own
product B^T (G perp -G) B.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gwlambda import fields
from gwlambda.errors import DomainError
from gwlambda.fields import field_model
from gwlambda.forms import (
    GramForm,
    diagonalize,
    exterior_power,
    gw_class,
    hyperbolic,
    hyperbolic_lemma_witness,
    negate,
    perp_sum,
    sublagrangian_reduce,
    tensor,
)

from form_helpers import add, inv, neg

SPECS = ("qc", "rc", "fq:3", "fq:5", "fq:7", "fq:11")


# ---------------------------------------------------------------------------
# oracles


def oracle_det(field, rows):
    """Determinant by Gaussian elimination with exact field arithmetic."""
    n = len(rows)
    if n == 0:
        return field.one
    if all(field.is_zero(rows[i][j]) for i in range(n) for j in range(n) if i != j):
        det = field.one
        for i in range(n):
            det = field.mul(det, rows[i][i])
        return det
    m = [list(row) for row in rows]
    det = field.one
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not field.is_zero(m[r][col]):
                pivot = r
                break
        if pivot is None:
            return field.zero
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = neg(field, det)
        det = field.mul(det, m[col][col])
        pivot_inv = inv(field, m[col][col])
        for r in range(col + 1, n):
            if field.is_zero(m[r][col]):
                continue
            f = field.mul(m[r][col], pivot_inv)
            for c in range(col, n):
                m[r][c] = add(field, m[r][c], neg(field, field.mul(f, m[col][c])))
    return det


def oracle_diagonalize(field, rows):
    """Symmetric Gaussian elimination on the full matrix."""
    n = len(rows)
    g = [list(row) for row in rows]
    out = []
    for i in range(n):
        if field.is_zero(g[i][i]):
            swap = next(
                (j for j in range(i + 1, n) if not field.is_zero(g[j][j])), None
            )
            if swap is not None:
                for r in range(n):
                    g[r][i], g[r][swap] = g[r][swap], g[r][i]
                g[i], g[swap] = g[swap], g[i]
            else:
                j = next(
                    (j for j in range(i + 1, n) if not field.is_zero(g[i][j])), None
                )
                for r in range(n):
                    g[r][i] = add(field, g[r][i], g[r][j])
                for c in range(n):
                    g[i][c] = add(field, g[i][c], g[j][c])
        pivot = g[i][i]
        pivot_inv = inv(field, pivot)
        for j in range(i + 1, n):
            if field.is_zero(g[i][j]):
                continue
            f = field.mul(g[i][j], pivot_inv)
            for c in range(n):
                g[j][c] = add(field, g[j][c], neg(field, field.mul(f, g[i][c])))
            for r in range(n):
                g[r][j] = add(field, g[r][j], neg(field, field.mul(f, g[r][i])))
        out.append(pivot)
    return out


def oracle_rref(field, rows):
    """Row-reduce in the field; returns (reduced rows, pivot column list)."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if not field.is_zero(m[i][c])), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pivot_inv = inv(field, m[r][c])
        m[r] = [field.mul(pivot_inv, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [add(field, v, neg(field, field.mul(f, w))) for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def oracle_exterior(field, rows, k):
    """The k x k minors on lex-ordered k-subsets, each by oracle_det."""
    subsets = list(itertools.combinations(range(len(rows)), k))
    return tuple(
        tuple(oracle_det(field, [[rows[r][c] for c in cols] for r in idx]) for cols in subsets)
        for idx in subsets
    )


def oracle_class(field, rows):
    """(rank, signed discriminant rep, signature) from the oracles."""
    n = len(rows)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    disc = field.square_class(field.mul(field.from_int(sign), oracle_det(field, rows)))
    signature = None
    if field.kind == "rc":
        signature = sum(1 if p > 0 else -1 for p in oracle_diagonalize(field, rows))
    return n, disc, signature


def field_pow(field, x, e):
    out = field.one
    for _ in range(e):
        out = field.mul(out, x)
    return out


@st.composite
def symmetric(draw, min_dim=0, max_dim=6, spec=None):
    """A field model (``spec``, else drawn) and a random symmetric matrix
    over it, often singular: zero entries are likely, rationals have
    denominators 1 to 3."""
    field = field_model(spec or draw(st.sampled_from(SPECS)))
    n = draw(st.integers(min_dim, max_dim))
    if field.kind == "fq":
        entry = st.integers(0, field.q - 1)
    else:
        entry = st.one_of(
            st.just(Fraction(0)),
            st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
        )
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(entry)
    return field, g


# ---------------------------------------------------------------------------
# forms against the oracles


@settings(max_examples=120, deadline=None)
@given(symmetric())
def test_forms_match_the_elimination_oracle(case):
    field, g = case
    det = oracle_det(field, g)
    if field.is_zero(det):
        with pytest.raises(DomainError, match="singular"):
            GramForm(field, g)
        return
    a = GramForm(field, g)
    assert a.det() == det
    assert diagonalize(a) == oracle_diagonalize(field, g)
    cls = gw_class(a)
    assert (cls.rank, cls.disc, cls.signature) == oracle_class(field, g)
    for k in range(a.dim + 1):
        assert exterior_power(a, k).gram == oracle_exterior(field, g, k)


@settings(max_examples=80, deadline=None)
@given(symmetric(min_dim=1, max_dim=5))
def test_exterior_determinants_follow_sylvester_franke(case):
    field, g = case
    det = oracle_det(field, g)
    assume(not field.is_zero(det))
    a = GramForm(field, g)
    n = a.dim
    for k in range(1, n + 1):
        expected = field_pow(field, det, math.comb(n - 1, k - 1))
        assert exterior_power(a, k).det() == expected


# Constructions make their forms unchecked: each is nondegenerate by a
# determinant formula, which these tests check against oracle_det.


@settings(max_examples=80, deadline=None)
@given(
    symmetric(min_dim=1, max_dim=4).flatmap(
        lambda case: st.tuples(st.just(case), symmetric(1, 4, case[0].spec))
    )
)
def test_built_determinants_are_products_of_the_operands(cases):
    """det(a perp b) = det a det b, det(a tensor b) = det(a)^dim b
    det(b)^dim a and det(-a) = (-1)^dim a det a, so a construction on
    nondegenerate forms is nondegenerate."""
    (field, g), (_, h) = cases
    det_g, det_h = oracle_det(field, g), oracle_det(field, h)
    assume(not field.is_zero(det_g) and not field.is_zero(det_h))
    a, b = GramForm(field, g), GramForm(field, h)
    assert perp_sum(a, b).det() == field.mul(det_g, det_h)
    assert tensor(a, b).det() == field.mul(
        field_pow(field, det_g, b.dim), field_pow(field, det_h, a.dim)
    )
    sign = field.from_int(-1 if a.dim % 2 else 1)
    assert negate(a).det() == field.mul(sign, det_g)


@settings(max_examples=60, deadline=None)
@given(symmetric(min_dim=1, max_dim=4), st.integers(1, 4))
def test_sublagrangian_cores_are_nondegenerate(case, k):
    """The core N-perp/N of a perp -a, N spanned by the first k diagonal
    vectors e_i + e_(n+i), has a nonzero determinant, and with
    hyperbolic(k) it makes up the class of a perp -a."""
    field, g = case
    assume(not field.is_zero(oracle_det(field, g)))
    a = GramForm(field, g)
    n = a.dim
    k = min(k, n)
    whole = perp_sum(a, negate(a))
    vectors = [[int(j % n == i) for j in range(2 * n)] for i in range(k)]
    core, rank = sublagrangian_reduce(whole, vectors)
    assert rank == k and core.dim == 2 * (n - k)
    assert not field.is_zero(oracle_det(field, core.gram))
    assert gw_class(whole) == gw_class(core) + gw_class(hyperbolic(k, field))


@pytest.mark.parametrize("spec", ("qc", "rc", "fq:5"))
def test_built_forms_eliminate_only_when_read(monkeypatch, spec):
    """A constructed form runs sym_minors once, when its class is read,
    and neither its exterior-power operands nor a second read run it."""
    field = field_model(spec)
    a = GramForm(field, [[2, 1, 0], [1, 3, 1], [0, 1, 5]])
    b = GramForm(field, [[1, 2], [2, 1]])
    calls = []
    sym_minors = field.sym_minors
    monkeypatch.setattr(field, "sym_minors", lambda m: calls.append(m) or sym_minors(m))
    built = tensor(exterior_power(a, 2), exterior_power(b, 1))
    assert calls == []
    cls = gw_class(built)
    assert len(calls) == 1 and cls.rank == 6
    assert gw_class(built) == cls and len(calls) == 1


# ---------------------------------------------------------------------------
# int_det on its own


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-(10**12), 10**12), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    st.booleans(),
    st.sampled_from(SPECS),
)
@example(rows=[[1, 2], [3, 1]], singular=False, spec="fq:5")
# Both sides of the size split: cofactors up to 3 x 3, Bareiss above.
@example(rows=[], singular=False, spec="qc")
@example(rows=[[-7]], singular=False, spec="rc")
@example(rows=[[0, 3], [5, 2]], singular=False, spec="qc")
@example(rows=[[0, 2, 1], [3, 0, 4], [1, 5, 0]], singular=False, spec="rc")
@example(
    rows=[[0, 2, 1, 0], [3, 0, 4, 1], [1, 5, 0, 2], [2, 0, 1, 0]], singular=False, spec="qc"
)
@example(rows=[[2, -1, 4], [0, 3, 5], [6, 1, 1]], singular=True, spec="qc")
@example(rows=[[6, 1], [1, 6]], singular=False, spec="fq:5")
@example(rows=[[12, 30, 7], [5, 11, 25], [9, 14, 40]], singular=False, spec="fq:7")
def test_int_det_matches_the_oracle_on_large_entries(rows, singular, spec):
    if singular and len(rows) >= 2:
        # The last row becomes an integer combination of the rows before it.
        rows[-1] = [3 * x - 7 * y for x, y in zip(rows[0], rows[-2])]
    field = field_model(spec)
    element = (lambda v: v % field.q) if field.kind == "fq" else Fraction
    expected = oracle_det(field, [[element(v) for v in row] for row in rows])
    assert field.int_det(rows) == expected
    if singular and len(rows) >= 2:
        assert expected == 0


@pytest.mark.parametrize("spec", SPECS)
def test_lift_and_from_ratio_round_trip(spec):
    field = field_model(spec)
    rows = [[field.parse(t) for t in row] for row in (["1/2", "0"], ["-4/13", "5"])]
    m, d = field.lift(rows)
    assert d > 0 and all(isinstance(v, int) for row in m for v in row)
    assert [[field.from_ratio(v, d) for v in row] for row in m] == rows


@pytest.mark.parametrize("spec", ("qc", "fq:5"))
def test_hyperbolic_forty_is_fast(spec):
    field = field_model(spec)
    start = time.perf_counter()
    h = hyperbolic(40, field)
    assert gw_class(h).rank == 80
    assert time.perf_counter() - start < 2.0


def test_sparse_rows_cost_no_divisions(monkeypatch):
    """Rows with a zero in the pivot column are not rescaled: on hyperbolic
    and diagonal matrices the divisions grow quadratically, not cubically."""
    calls = []

    def counting_divmod(x, d):
        calls.append(d)
        return divmod(x, d)

    monkeypatch.setattr(fields, "divmod", counting_divmod, raising=False)
    field = field_model("qc")
    n = 40
    m, _ = field.lift(hyperbolic(n // 2, field).gram)
    assert abs(field.int_det(m)) == 1
    assert calls == []
    # A plain matrix: a form read from a Gram matrix has at most MAX_FORM_DIM rows.
    entries = [Fraction(i % 5 + 2, i % 3 + 1) for i in range(n)]
    gram = [[entries[i] if i == j else field.zero for j in range(n)] for i in range(n)]
    m, d = field.lift(gram)
    calls.clear()
    assert field.from_ratio(field.int_det(m), d**n) == oracle_det(field, gram)
    assert len(calls) <= n * (n - 1) // 2
    # The symmetric elimination keeps the rule and divides only by a level
    # other than 1: every row it settles or eliminates on these diagonal
    # and hyperbolic matrices is still at level 1.
    calls.clear()
    minors = field.sym_minors(m)
    assert field.from_ratio(minors[-1], d**n) == oracle_det(field, gram)
    assert field.sym_minors(field.lift(hyperbolic(n // 2, field).gram)[0])[-1] in (1, -1)
    assert calls == []


# ---------------------------------------------------------------------------
# sym_minors on its own


def check_sym_minors(field, m, rows):
    """sym_minors(m), m the lifted matrix of rows, against the oracles:
    det, signature and the diagonal entries; singular input is refused.
    An AssertionError from an inexact division fails the test."""
    _, d = field.lift(rows)
    det = oracle_det(field, rows)
    if field.is_zero(det):
        with pytest.raises(DomainError, match="singular"):
            field.sym_minors(m)
        return
    minors = field.sym_minors(m)
    n = len(rows)
    assert len(minors) == n
    assert field.from_ratio(minors[-1] if n else 1, d**n) == det
    diagonal = oracle_diagonalize(field, rows)
    steps = list(zip(minors, [1] + minors))
    assert [field.from_ratio(x, y * d) for x, y in steps] == diagonal
    if field.kind == "rc":
        signs = [1 if (x > 0) == (y > 0) else -1 for x, y in steps]
        assert signs == [1 if p > 0 else -1 for p in diagonal]


@settings(max_examples=150, deadline=None)
@given(symmetric())
def test_sym_minors_match_the_oracles(case):
    field, g = case
    check_sym_minors(field, field.lift(g)[0], g)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(
            st.lists(
                st.one_of(st.just(0), st.integers(-(10**12), 10**12)),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    ),
    st.booleans(),
    st.sampled_from(SPECS),
)
def test_sym_minors_match_the_oracles_on_large_entries(rows, singular, spec):
    """Zero entries are frequent, so both pivot repairs run: the swap with a
    later diagonal entry and the sum of two basis vectors."""
    n = len(rows)
    m = [[rows[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
    if singular and n >= 2:
        # Basis vector n-1 becomes 3 e_0 - 7 e_(n-2): a singular congruence.
        for i in range(n - 1):
            m[i][-1] = m[-1][i] = 3 * m[i][0] - 7 * m[i][-2]
        m[-1][-1] = 9 * m[0][0] - 42 * m[0][-2] + 49 * m[-2][-2]
    field = field_model(spec)
    element = (lambda v: v % field.q) if field.kind == "fq" else Fraction
    check_sym_minors(field, m, [[element(v) for v in row] for row in m])
    if singular and n >= 2:
        assert field.is_zero(oracle_det(field, [[element(v) for v in row] for row in m]))


# ---------------------------------------------------------------------------
# echelon on its own

# 1155 = 3 * 5 * 7 * 11: its multiples are nonzero over Z and zero in every
# finite field of SPECS, so they must never be taken as fq pivots.
LARGE = st.one_of(
    st.just(0),
    st.integers(-9, 9).map(lambda k: 1155 * k),
    st.integers(-(10**12), 10**12),
)


def as_elements(field, rows):
    element = (lambda v: v % field.q) if field.kind == "fq" else Fraction
    return [[element(v) for v in row] for row in rows]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda n: st.integers(0, 6).flatmap(
            lambda k: st.lists(
                st.lists(LARGE, min_size=k, max_size=k), min_size=n, max_size=n
            )
        )
    ),
    st.booleans(),
    st.sampled_from(SPECS),
)
def test_echelon_matches_the_oracle(rows, dependent, spec):
    """The pivots, the rank and the rows read as D times the reduced row
    echelon form in the field all agree with Gauss-Jordan in the field."""
    if dependent and len(rows) >= 2:
        # The last row becomes an integer combination of the rows before it.
        rows[-1] = [3 * x - 7 * y for x, y in zip(rows[0], rows[-2])]
    field = field_model(spec)
    reduced, pivots = oracle_rref(field, as_elements(field, rows))
    got, got_pivots, d = field.echelon(rows)
    assert got_pivots == pivots
    assert len(got) == len(pivots)
    assert all(isinstance(v, int) for row in got for v in row)
    assert not field.is_zero(field.from_int(d))
    assert [[field.from_ratio(v, d) for v in row] for row in got] == reduced


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(LARGE, min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    st.sampled_from(SPECS),
)
def test_echelon_of_m_beside_the_identity_is_the_scaled_inverse(rows, spec):
    """For a square nonsingular M, echelon([M | I]) is D [I | M^-1]: the left
    half is D I over Z, and M times the right half is D I in the field."""
    field = field_model(spec)
    assume(not field.is_zero(oracle_det(field, as_elements(field, rows))))
    n = len(rows)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    got, pivots, d = field.echelon([row + e for row, e in zip(rows, eye)])
    assert pivots == list(range(n))
    assert [row[:n] for row in got] == [[d * v for v in e] for e in eye]
    x = [row[n:] for row in got]
    for i in range(n):
        for j in range(n):
            v = sum(rows[i][k] * x[k][j] for k in range(n)) - d * eye[i][j]
            assert field.is_zero(field.from_int(v))


# ---------------------------------------------------------------------------
# forms built from lifted operands read back as their Gram matrices


@settings(max_examples=80, deadline=None)
@given(
    symmetric(min_dim=1, max_dim=3).flatmap(
        lambda case: st.tuples(st.just(case), symmetric(1, 3, case[0].spec))
    )
)
def test_built_forms_equal_their_gram_matrices(cases):
    """exterior_power, tensor and perp_sum build a form from integer
    matrices and make its Gram matrix on demand: the form equals, hashes
    and prints as the form read from that Gram matrix, and the tensor
    entries are the field products of the Kronecker product."""
    (field, g), (_, h) = cases
    assume(not field.is_zero(oracle_det(field, g)))
    assume(not field.is_zero(oracle_det(field, h)))
    a, b = GramForm(field, g), GramForm(field, h)
    built = [exterior_power(a, k) for k in range(a.dim + 1)]
    built += [tensor(a, b), perp_sum(a, b), tensor(exterior_power(a, a.dim), b)]
    for x in built:
        y = GramForm(field, x.gram)
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    kron = tuple(
        tuple(field.mul(u, v) for u in ra for v in rb) for ra in a.gram for rb in b.gram
    )
    assert tensor(a, b).gram == kron


# ---------------------------------------------------------------------------
# the hyperbolic witness is always reached


def own_congruence(field, a, b):
    """B^T (G perp -G) B in plain Fraction arithmetic, or mod q."""
    n = a.dim
    g = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            g[i][j] = a.gram[i][j]
            g[n + i][n + j] = -a.gram[i][j]
    out = [
        [
            sum(b[k][i] * g[k][l] * b[l][j] for k in range(2 * n) for l in range(2 * n))
            for j in range(2 * n)
        ]
        for i in range(2 * n)
    ]
    if field.kind == "fq":
        out = [[v % field.q for v in row] for row in out]
    return out


@settings(max_examples=100, deadline=None)
@given(symmetric(min_dim=1, max_dim=5))
def test_witness_returns_on_every_nondegenerate_form(case):
    """The AssertionError in hyperbolic_lemma_witness is unreachable: on
    random nondegenerate forms over all four field kinds it returns, and an
    independent product confirms the congruence."""
    field, g = case
    assume(not field.is_zero(oracle_det(field, g)))
    a = GramForm(field, g)
    b = hyperbolic_lemma_witness(a)
    n = a.dim
    target = [[1 if abs(i - j) == n else 0 for j in range(2 * n)] for i in range(2 * n)]
    assert own_congruence(field, a, b) == target
