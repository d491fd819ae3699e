"""Tests for weights, Weyl characters, and the extension classification."""

import itertools
import json
import math
from fractions import Fraction

import pytest

from gwlambda.errors import DomainError, FormatError
from gwlambda.lambda_rings import KExtTorusRing, KTorusRing
from gwlambda.weights import (
    MAX_WEYL_RANK,
    Flavor,
    _dominant_weights,
    _orbit,
    char_record,
    character_mass,
    check_triangularity,
    is_dominant,
    weyl_character,
    weyl_dim,
)

from weight_helpers import (
    benchmark_weights,
    dominance_leq,
    endo_dim,
    fold_restriction,
    minus,
    parse_char,
)

B1, B2, B3 = Flavor("B", 1), Flavor("B", 2), Flavor("B", 3)
D2, D3 = Flavor("D", 2), Flavor("D", 3)


def box(n, radius):
    return itertools.product(range(-radius, radius + 1), repeat=n)


def negate_char(char):
    return {tuple(-v for v in k): m for k, m in char.items()}


# ---------------------------------------------------------------------------
# flavors and orders


def test_flavor_validation():
    Flavor("B", 1)
    Flavor("D", 2)
    with pytest.raises(DomainError):
        Flavor("B", 0)
    with pytest.raises(DomainError):
        Flavor("D", 1)
    with pytest.raises(DomainError):
        Flavor("C", 2)


def test_is_dominant_examples():
    assert is_dominant((2, 1), B2)
    assert not is_dominant((1, 2), B2)
    assert not is_dominant((1, -1), B2)
    assert is_dominant((1, -1), D2)
    assert is_dominant((1, 1), D2)
    assert not is_dominant((1, -2), D2)
    assert is_dominant((0, 0), B2)
    assert is_dominant((0, 0), D2)
    assert is_dominant((0,), B1)


def test_weight_length_checked():
    with pytest.raises(DomainError):
        is_dominant((1, 0), B1)
    with pytest.raises(DomainError):
        dominance_leq((1,), (1, 0), D2)


def test_dominance_examples():
    assert dominance_leq((1, 0), (1, 1), B2)
    assert not dominance_leq((1, 1), (1, 0), B2)
    # D adds the negated-last-coordinate sum: (1,0) has 1-0=1, (1,1) has 0
    assert not dominance_leq((1, 0), (1, 1), D2)
    assert dominance_leq((1, 0), (2, 1), D2)


def test_dominance_is_a_partial_order():
    weights = list(box(2, 2))
    for flavor in (B2, D2):
        for w in weights[:20]:
            assert dominance_leq(w, w, flavor)
        for a, b in itertools.product(weights[:15], repeat=2):
            if dominance_leq(a, b, flavor) and dominance_leq(b, a, flavor):
                if flavor.kind == "D":
                    assert a == b
        # B-antisymmetry only pins the prefix sums; transitivity always holds
        for a, b, c in itertools.product(weights[:8], repeat=3):
            if dominance_leq(a, b, flavor) and dominance_leq(b, c, flavor):
                assert dominance_leq(a, c, flavor)


def test_minus_involution():
    assert minus((2, 1)) == (2, -1)
    assert minus(minus((3, -2))) == (3, -2)
    assert minus((5,)) == (-5,)
    with pytest.raises(DomainError):
        minus(())


# ---------------------------------------------------------------------------
# characters: frozen small cases


def test_character_b1_standard():
    assert weyl_character((1,), B1) == {(-1,): 1, (0,): 1, (1,): 1}


def test_character_b2_vector():
    char = weyl_character((1, 0), B2)
    assert char == {
        (1, 0): 1,
        (-1, 0): 1,
        (0, 1): 1,
        (0, -1): 1,
        (0, 0): 1,
    }
    assert character_mass(char) == 5


def test_character_d2_vector():
    char = weyl_character((1, 0), D2)
    assert char == {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
    assert character_mass(char) == 4


def test_character_trivial_weight():
    assert weyl_character((0, 0), D2) == {(0, 0): 1}
    assert weyl_character((0,), B1) == {(0,): 1}


def test_character_requires_dominant():
    with pytest.raises(DomainError):
        weyl_character((0, 1), B2)
    with pytest.raises(DomainError):
        weyl_character((1, -2), D2)


# ---------------------------------------------------------------------------
# characters: mass oracle and triangularity


def dominant_box(flavor, radius):
    return [w for w in box(flavor.n, radius) if is_dominant(w, flavor)]


def test_mass_equals_dimension_formula():
    for flavor in (B1, B2, D2):
        for w in dominant_box(flavor, 2):
            char = weyl_character(w, flavor)
            assert character_mass(char) == weyl_dim(w, flavor)
            assert all(m > 0 for m in char.values())


def test_triangularity_on_a_box():
    for flavor in (B1, B2, D2):
        for w in dominant_box(flavor, 2):
            assert check_triangularity(w, flavor)


def slicing_dominance_leq(lower, upper, flavor):
    """Oracle: the partial-sum order recomputed by slicing at every index."""
    for t in range(1, flavor.n + 1):
        if sum(lower[:t]) > sum(upper[:t]):
            return False
    if flavor.kind == "D":
        return sum(lower[:-1]) - lower[-1] <= sum(upper[:-1]) - upper[-1]
    return True


def test_dominance_matches_slicing_oracle():
    for flavor in (B1, B2, B3, D2, D3):
        for hw in dominant_box(flavor, 2):
            char = weyl_character(hw, flavor)
            verdicts = [slicing_dominance_leq(mu, hw, flavor) for mu in char]
            assert [dominance_leq(mu, hw, flavor) for mu in char] == verdicts
            assert check_triangularity(hw, flavor) == (char[hw] == 1 and all(verdicts))
        weights = list(box(flavor.n, 1))
        for a, b in itertools.product(weights, repeat=2):
            assert dominance_leq(a, b, flavor) == slicing_dominance_leq(a, b, flavor)


def test_adjoint_dimensions():
    assert weyl_dim((1, 1), B2) == 10
    assert weyl_dim((2,), B1) == 5
    assert weyl_dim((1, 1), D2) == 3
    assert weyl_dim((1, 1, 0), D3) == 15


# ---------------------------------------------------------------------------
# oracle: the Weyl character formula, alternating orbit sums divided exactly


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _alternating_sum(n, v, even_only):
    """Sum of sign(w) e^{w(v)} over signed permutations (evenly signed if asked)."""
    terms = {}
    for perm in itertools.permutations(range(n)):
        ps = _perm_sign(perm)
        for signs in itertools.product((1, -1), repeat=n):
            sp = math.prod(signs)
            if even_only and sp < 0:
                continue
            key = tuple(signs[i] * v[perm[i]] for i in range(n))
            terms[key] = terms.get(key, 0) + ps * sp
    return {k: c for k, c in terms.items() if c}


def _laurent_divide(num, den):
    """Exact division of Laurent polynomials on Z^n, lex leading terms."""
    den_lead = max(den)
    assert den[den_lead] == 1
    rem = dict(num)
    quo = {}
    while rem:
        lead = max(rem)
        shift = tuple(a - b for a, b in zip(lead, den_lead))
        coeff = rem[lead]
        quo[shift] = quo.get(shift, 0) + coeff
        for key, val in den.items():
            nk = tuple(a + b for a, b in zip(key, shift))
            nv = rem.get(nk, 0) - coeff * val
            if nv:
                rem[nk] = nv
            else:
                rem.pop(nk, None)
    return quo


def _doubled_rho(flavor):
    n = flavor.n
    if flavor.kind == "B":
        return tuple(2 * (n - i) - 1 for i in range(n))  # 2n-1, 2n-3, ..., 1
    return tuple(2 * (n - 1 - i) for i in range(n))  # 2n-2, ..., 2, 0


def weyl_formula_character(weight, flavor):
    """The character as A_{weight+rho} / A_rho, on doubled weights."""
    even_only = flavor.kind == "D"
    rho2 = _doubled_rho(flavor)
    shifted = tuple(2 * w + r for w, r in zip(weight, rho2))
    num = _alternating_sum(flavor.n, shifted, even_only)
    den = _alternating_sum(flavor.n, rho2, even_only)
    quo = _laurent_divide(num, den)
    assert all(v % 2 == 0 for key in quo for v in key)
    return {tuple(v // 2 for v in key): m for key, m in quo.items()}


def test_character_matches_weyl_formula_small_ranks():
    for flavor in (B1, B2, B3, D2, D3):
        for w in dominant_box(flavor, 3):
            assert weyl_character(w, flavor) == weyl_formula_character(w, flavor), w


def test_character_matches_weyl_formula_rank_four():
    cases = benchmark_weights(4)
    assert len(cases) == 18
    for w, flavor in cases:
        assert weyl_character(w, flavor) == weyl_formula_character(w, flavor), w


def test_character_matches_weyl_formula_b5():
    b5 = Flavor("B", 5)
    w = (1, 1, 0, 0, 0)
    assert weyl_character(w, b5) == weyl_formula_character(w, b5)


# ---------------------------------------------------------------------------
# oracle: Weyl orbits by applying every group element


def brute_force_orbit(kind, mu):
    """Every signed permutation of ``mu`` (an even number of minus signs for
    D), applied one by one and collected in a set."""
    n = len(mu)
    out = set()
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            if kind == "B" or signs.count(-1) % 2 == 0:
                out.add(tuple(s * mu[i] for s, i in zip(signs, perm)))
    return out


@pytest.mark.parametrize(
    "flavor",
    [B1, B2, B3, Flavor("B", 4), D2, D3, Flavor("D", 4)],
    ids=lambda f: "%s%d" % (f.kind, f.n),
)
def test_orbit_matches_brute_force(flavor):
    # Entries in 0..2 for B; for D the last entry also in -2..-1, and
    # weights with and without a zero entry.
    weights = dominant_box(flavor, 2)
    if flavor.kind == "D":
        assert any(mu[-1] < 0 for mu in weights)
        assert any(0 in mu for mu in weights) and any(0 not in mu for mu in weights)
    for mu in weights:
        orbit = list(_orbit(flavor.kind, mu))
        assert len(orbit) == len(set(orbit)), mu
        assert set(orbit) == brute_force_orbit(flavor.kind, mu), mu


def oracle_dominant(kind, mu):
    """Dominance, without ``weights``: mu_1 >= ... >= mu_n, and mu_n >= 0
    for B, mu_{n-1} >= |mu_n| for D."""
    if any(a < b for a, b in zip(mu, mu[1:])):
        return False
    return mu[-1] >= 0 if kind == "B" else mu[-2] >= abs(mu[-1])


def simple_roots(kind, n):
    """e_i - e_{i+1} for i < n, then e_n for B or e_{n-1} + e_n for D."""
    roots = [tuple(int(k == i) - int(k == i + 1) for k in range(n)) for i in range(n - 1)]
    roots.append(tuple(int(k == n - 1 or (kind == "D" and k == n - 2)) for k in range(n)))
    return roots


def root_coordinates(roots, d):
    """The c with d = sum c_i roots[i], by Gauss-Jordan elimination in Fraction."""
    n = len(d)
    rows = [[Fraction(root[r]) for root in roots] + [Fraction(d[r])] for r in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[col])]
    return [row[-1] for row in rows]


@pytest.mark.parametrize(
    "flavor",
    [Flavor("B", n) for n in range(1, 6)] + [Flavor("D", n) for n in range(2, 6)],
    ids=lambda f: "%s%d" % (f.kind, f.n),
)
def test_dominant_weights_match_a_root_lattice_oracle(flavor):
    # The dominant weights of the box [-w_1, w_1]^n whose difference from
    # the highest weight w is a non-negative integer combination of simple
    # roots; the highest weights have entries 0..2, for D with both signs of
    # a nonzero last entry.
    kind, n = flavor
    roots = simple_roots(kind, n)
    dominant = {
        radius: [mu for mu in box(n, radius) if oracle_dominant(kind, mu)] for radius in range(3)
    }
    if kind == "D":
        assert any(w[-1] < 0 for w in dominant[2])
    for weight in dominant[2]:
        expected = []
        for mu in dominant[weight[0]]:
            coords = root_coordinates(roots, [a - b for a, b in zip(weight, mu)])
            if all(c.denominator == 1 and c >= 0 for c in coords):
                expected.append(mu)
        got = _dominant_weights(flavor, weight)
        assert len(got) == len(set(got)), weight
        assert set(got) == set(expected), weight


# ---------------------------------------------------------------------------
# restriction oracle: exterior powers of the vector representation


@pytest.mark.parametrize(
    "flavor",
    [B1, B2, B3, Flavor("B", 4), D2, D3, Flavor("D", 4)],
    ids=lambda f: "%s%d" % (f.kind, f.n),
)
def test_exterior_powers_of_the_vector_representation(flavor):
    # Lambda^k V = V(1^k) for k <= n (B) and k <= n-1 (D);
    # Lambda^n V = V(1^n) + V(minus(1^n)) for D.
    n = flavor.n
    ring = KTorusRing(n)

    def simple(weight):
        return ring.elt(weyl_character(weight, flavor))

    vector = simple((1,) + (0,) * (n - 1))
    for k in range(1, n + 1):
        top = (1,) * k + (0,) * (n - k)
        expected = simple(top)
        if flavor.kind == "D" and k == n:
            expected = expected + simple(minus(top))
        assert vector.lambda_k(k) == expected, k


# ---------------------------------------------------------------------------
# the two ordering statements, enumerated on a small box


def test_minus_ordering_statement():
    # If both weights are B(n)-dominant and w' B-precedes minus(w),
    # then w' D-precedes w.
    for n in (2, 3):
        bf, df = Flavor("B", n), Flavor("D", n)
        radius = 2 if n == 2 else 1
        for wp in box(n, radius):
            if not is_dominant(wp, bf):
                continue
            for w in box(n, radius):
                if not is_dominant(w, bf):
                    continue
                if dominance_leq(wp, minus(w), bf):
                    assert dominance_leq(wp, w, df)


def test_minus_ordering_instance():
    assert dominance_leq((1, 0), minus((2, 1)), B2)
    assert dominance_leq((1, 0), (2, 1), D2)


def test_dominance_transfer_statement():
    # Last coordinate >= 0: D-dominant iff B-dominant.
    # Last coordinate <= 0: D-dominant iff minus is B-dominant.
    for n in (2, 3):
        bf, df = Flavor("B", n), Flavor("D", n)
        for w in box(n, 2):
            if w[-1] >= 0:
                assert is_dominant(w, df) == is_dominant(w, bf)
            if w[-1] <= 0:
                assert is_dominant(w, df) == is_dominant(minus(w), bf)


# ---------------------------------------------------------------------------
# duality under negation for the D series


def test_d_series_negation_odd_rank():
    # odd rank: negation carries the character onto the minus weight
    for w in ((1, 1, 1), (2, 1, 1), (1, 1, -1)):
        char = weyl_character(w, D3)
        assert negate_char(char) == weyl_character(minus(w), D3)


def test_d_series_negation_even_rank():
    # even rank: every character is negation-invariant, including those
    # with a nonzero last coordinate
    for w in ((1, 1), (1, -1), (2, 1), (1, 0)):
        char = weyl_character(w, D2)
        assert negate_char(char) == char


def test_b_series_negation_invariant():
    for w in dominant_box(B2, 2):
        char = weyl_character(w, B2)
        assert negate_char(char) == char


# ---------------------------------------------------------------------------
# folding into extended-torus orbits


def test_fold_standard_b1():
    pairs, zero = fold_restriction(weyl_character((1,), B1))
    assert pairs == {(1,): 1}
    assert zero == 1


def test_fold_zero_weight_only():
    assert fold_restriction({(0,): 3}) == ({}, 3)
    assert fold_restriction({}) == ({}, 0)


def test_fold_picks_canonical_reps():
    pairs, zero = fold_restriction(weyl_character((1, 1), D2))
    assert pairs == {(1, 1): 1}
    assert zero == 1
    pairs, zero = fold_restriction(weyl_character((1, -1), D2))
    assert pairs == {(1, -1): 1}
    assert zero == 1


def test_fold_rejects_asymmetric():
    with pytest.raises(DomainError, match="not self-dual at torus level"):
        fold_restriction({(1,): 1})
    with pytest.raises(DomainError, match="mismatch"):
        fold_restriction({(1, 0): 2, (-1, 0): 1})


def test_fold_mass_bookkeeping():
    for flavor in (B2, D2):
        for w in dominant_box(flavor, 2):
            char = weyl_character(w, flavor)
            pairs, zero = fold_restriction(char)
            assert 2 * sum(pairs.values()) + zero == character_mass(char)


# ---------------------------------------------------------------------------
# simple modules of the extension


def test_classify_rank_one():
    assert KExtTorusRing(1).basis_symbols(2) == ["one", "delta", (1,), (2,)]


def test_classify_rank_two():
    out = KExtTorusRing(2).basis_symbols(1)
    assert out[:2] == ["one", "delta"]
    assert out[2:] == [(0, 1), (1, -1), (1, 0), (1, 1)]


def test_classify_trivial_box():
    assert KExtTorusRing(1).basis_symbols(0) == ["one", "delta"]


def test_classify_validation():
    with pytest.raises(DomainError):
        KExtTorusRing(0)
    with pytest.raises(DomainError):
        KExtTorusRing(1).basis_symbols(-1)


@pytest.mark.parametrize("r", (1, 2, 3))
def test_box_enumerators_against_counts(r):
    """K(T) lists the (2b+1)^r weights of the box [-b, b]^r in lex order;
    the extended ring lists 1, d and one of g, -g for each nonzero g in it."""
    for bound in range(4):
        torus = KTorusRing(r).basis_symbols(bound)
        assert len(torus) == (2 * bound + 1) ** r == KTorusRing(r).basis.count(r, bound)
        assert all(a < b for a, b in zip(torus, torus[1:]))
        assert all(len(g) == r and max(map(abs, g)) <= bound for g in torus)

        symbols = KExtTorusRing(r).basis_symbols(bound)
        assert len(symbols) == 2 + ((2 * bound + 1) ** r - 1) // 2
        assert len(symbols) == KExtTorusRing(r).basis.count(r, bound)
        assert symbols[:2] == ["one", "delta"]
        pairs = symbols[2:]
        assert all(a < b for a, b in zip(pairs, pairs[1:]))
        for g in itertools.product(range(-bound, bound + 1), repeat=r):
            if any(g):
                neg = tuple(-v for v in g)
                assert (g in pairs) + (neg in pairs) == 1
    for ring in (KTorusRing(r), KExtTorusRing(r)):
        with pytest.raises(DomainError, match="bound"):
            ring.basis_symbols(-1)


def test_endo_dim_table():
    assert endo_dim("free", 2, 1) == 1
    assert endo_dim("fixed-with-lift", 2, 1) == 1
    assert endo_dim("fixed-without-lift", 2, 1) == 2
    assert endo_dim("fixed-without-lift", 3, 2) == 6
    assert endo_dim("free", 3, 2) == 2


def test_endo_dim_validation():
    with pytest.raises(DomainError, match="prime"):
        endo_dim("free", 4, 1)
    with pytest.raises(DomainError):
        endo_dim("free", 2, 0)
    with pytest.raises(DomainError, match="case"):
        endo_dim("split", 2, 1)


# ---------------------------------------------------------------------------
# rank cap


def test_rank_cap_default():
    for kind in ("B", "D"):
        with pytest.raises(DomainError, match="the rank is 9; characters take up to 8"):
            weyl_character((1,) + (0,) * 8, Flavor(kind, 9))


def test_rank_cap_override():
    # Rank 5 needed an environment variable once; every rank up to 8 runs.
    char = weyl_character((1, 0, 0, 0, 0), Flavor("B", 5))
    assert character_mass(char) == 11


def test_characters_at_the_caps():
    # The largest rank (entries 1: box 3^8), the largest first entry, a
    # box just under its cap, and one just over each cap.
    for w, flavor in (
        ((1,) * 8, Flavor("B", 8)),
        ((1,) * 7 + (-1,), Flavor("D", 8)),
        ((20, 20), B2),
        ((1, 1, 0, 0, 0), Flavor("B", 5)),
        ((7, 7, 7), Flavor("D", 3)),
    ):
        assert character_mass(weyl_character(w, flavor)) == weyl_dim(w, flavor), w
    for w, flavor, message in (
        ((21, 0), B2, "the first entry is 21; characters take up to 20"),
        ((11, 0, 0, 0), Flavor("B", 4), "the weight box is 279841; characters take up to 200000"),
        ((0,) * 9, Flavor("B", 9), "the rank is 9; characters take up to 8"),
    ):
        with pytest.raises(DomainError, match=message):
            weyl_character(w, flavor)


def test_exactness_assertions_hold_within_rank_cap_five():
    # Every dominant weight of B1-B5 and D2-D5 with entries 0..2, both signs
    # of a nonzero last entry for D: the exactness assertions of Freudenthal's
    # formula and of weyl_dim are never reached.
    flavors = [Flavor("B", n) for n in range(1, 6)] + [Flavor("D", n) for n in range(2, 6)]
    cases = [(w, flavor) for flavor in flavors for w in dominant_box(flavor, 2)]
    assert len(cases) == 125
    assert_mass_is_dim_and_triangular(cases)


def test_exactness_assertions_hold_up_to_the_rank_cap():
    # B6-B8 and D6-D8 with entries 0..1, both signs of a nonzero last entry
    # for D, up to MAX_WEYL_RANK; B8 at (1, ..., 1) takes about 0.2 s.
    flavors = [Flavor(t, n) for t in "BD" for n in range(6, MAX_WEYL_RANK + 1)]
    cases = [(w, flavor) for flavor in flavors for w in dominant_box(flavor, 1)]
    assert len(cases) == 51
    assert_mass_is_dim_and_triangular(cases)


def assert_mass_is_dim_and_triangular(cases):
    for w, flavor in cases:
        char = weyl_character(w, flavor)
        assert character_mass(char) == weyl_dim(w, flavor), (w, flavor)
        assert check_triangularity(w, flavor), (w, flavor)


# ---------------------------------------------------------------------------
# exchange format


def test_char_record_round_trip():
    char = weyl_character((2, 1), B2)
    rec = char_record(char, 2)
    assert json.loads(json.dumps(rec)) == rec
    assert parse_char(rec) == char


def test_char_record_sorted():
    rec = char_record({(1, 0): 1, (-1, 0): 1}, 2)
    assert rec["terms"] == [
        {"weight": [-1, 0], "mult": 1},
        {"weight": [1, 0], "mult": 1},
    ]


def test_parse_char_merges_and_drops_zeros():
    rec = {
        "n": 1,
        "terms": [
            {"weight": [1], "mult": 2},
            {"weight": [1], "mult": -2},
            {"weight": [0], "mult": 3},
        ],
    }
    assert parse_char(rec) == {(0,): 3}


def test_parse_char_diagnostics():
    with pytest.raises(FormatError, match="object"):
        parse_char([1])
    with pytest.raises(FormatError, match="n must"):
        parse_char({"terms": []})
    with pytest.raises(FormatError, match="terms"):
        parse_char({"n": 1})
    with pytest.raises(FormatError, match="weight"):
        parse_char({"n": 2, "terms": [{"weight": [1], "mult": 1}]})
    with pytest.raises(FormatError, match="mult"):
        parse_char({"n": 1, "terms": [{"weight": [1], "mult": "x"}]})


@pytest.mark.parametrize(
    "record",
    [
        {"n": True, "terms": []},
        {"n": 1, "terms": [{"weight": [True], "mult": 1}]},
        {"n": 1, "terms": [{"weight": [1], "mult": True}]},
    ],
    ids=["n", "weight", "mult"],
)
def test_parse_char_rejects_bool_as_int(record):
    with pytest.raises(FormatError, match="integer"):
        parse_char(record)
