"""Adams operations: a check of specialness that uses no ``symfun`` table.

The Adams operations come from λ alone, by Newton's identity

    ψᵏ = Σ_{i=1}^{k−1} (−1)^{i−1} λⁱ ψ^{k−i} + (−1)^{k−1} k λᵏ.

In a special λ-ring each ψᵏ is a ring map and ψᵏψʲ = ψᵏʲ (Atiyah–Tall,
*Group representations, λ-rings and the J-homomorphism*, Topology 8, 1969;
Yau, *Lambda-Rings*, ch. 3).  For a torsion-free pre-λ-ring the converse
holds too (Wilkerson, Comm. Algebra 10, 1982).  So on Z, K(T), the K-ext
ring, and GW and the GW-ext ring over qc and rc this check is equivalent to
the paper's theorem; GW(F_q) has torsion, so over fq it is only necessary.
It shares ``lambda_t`` and ring arithmetic with the identity sweep, and
nothing of ``symfun``.

Both sides are computed on the Z-basis of each ring (a coefficient line
times a basis key) and on the sums and differences of two basis elements,
for k ≤ 6, and on seeded random virtual elements (sums of two or three basis
elements with coefficients in −3..3) for k ≤ 8.  The corrupted λ² of the rank-2 symbols (``lambda2_pair`` one
or zero) fail it on every field.  ``pair_zero_scale: 1`` passes it on every
field, as it passes the identity sweep: a consistent wrong scale still
defines a λ-ring (``-1`` fails it over rc).  Only the structure constants
computed from forms (ROADMAP item 5) can pin the scale.
"""

import itertools
import random

import pytest

from gwlambda.fields import field_model
from gwlambda.lambda_rings import (
    ExtTorusConstants,
    GWExtTorusRing,
    GWFieldRing,
    IntegerRing,
    KExtTorusRing,
    KTorusRing,
)

FIELDS = ("qc", "rc", "fq:3", "fq:5", "fq:7")
KMAX = 6
BOUND = 1
VIRTUAL_KMAX = 8
VIRTUAL_PAIRS = 4
VIRTUAL_COEFFS = (-3, -2, -1, 1, 2, 3)


def basis_elements(ring):
    """The Z-basis with weight coordinates in [-BOUND, BOUND]: a line of
    the coefficients times a basis key."""
    if ring.tag == "gw-field":
        return [ring.diag([a]) for a in ring.field.square_classes]
    keys = ["one"] if ring.tag == "integers" else ring.basis_symbols(BOUND)
    coeffs = basis_elements(ring.coeff_ring) if ring.tag == "gw-ext-torus" else [1]
    return [ring.basis_elt(b, c) for b in keys for c in coeffs]


def adams(x, kmax=KMAX):
    """[ψ⁰(x), ψ¹(x), …, ψ^kmax(x)] by Newton's identity (ψ⁰ unused)."""
    lam = x.lambda_t(kmax)
    psi = [None]
    for k in range(1, kmax + 1):
        p = (-1) ** (k - 1) * k * lam[k]
        for i in range(1, k):
            p = p + (-1) ** (i - 1) * lam[i] * psi[k - i]
        psi.append(p)
    return psi


def failures(ring):
    """The number of comparisons ψᵏ(xy) = ψᵏ(x)ψᵏ(y) (x a basis element)
    and ψᵏ(ψʲx) = ψᵏʲ(x) (kj ≤ KMAX) that fail."""
    basis = basis_elements(ring)
    elements = basis + [
        z for x, y in itertools.combinations_with_replacement(basis, 2) for z in (x + y, x - y)
    ]
    psi = {id(x): adams(x) for x in elements}
    failed = 0
    for x in basis:
        for y in elements:
            prod = adams(x * y)
            failed += sum(prod[k] != psi[id(x)][k] * psi[id(y)][k] for k in range(1, KMAX + 1))
    for x in elements:
        for j in range(2, KMAX // 2 + 1):
            inner = adams(psi[id(x)][j])
            failed += sum(
                inner[k] != psi[id(x)][k * j] for k in range(2, KMAX // j + 1)
            )
    return failed


def random_virtual(ring, rng):
    """A sum of two or three basis elements, each with a coefficient drawn
    from VIRTUAL_COEFFS."""
    basis = basis_elements(ring)
    terms = (rng.choice(VIRTUAL_COEFFS) * rng.choice(basis) for _ in range(rng.randint(2, 3)))
    return sum(terms, ring.zero)


def virtual_comparisons(ring, seed):
    """The pairs ψᵏ(xy), ψᵏ(x)ψᵏ(y) for k ≤ VIRTUAL_KMAX, then ψᵏ(ψʲz),
    ψᵏʲ(z) for z = x, y and kj ≤ VIRTUAL_KMAX, on VIRTUAL_PAIRS seeded random
    virtual elements x, y; made one at a time, so a check that stops at the
    first failure computes no more."""
    rng, top = random.Random(seed), VIRTUAL_KMAX
    for _ in range(VIRTUAL_PAIRS):
        x, y = random_virtual(ring, rng), random_virtual(ring, rng)
        px, py, pxy = adams(x, top), adams(y, top), adams(x * y, top)
        for k in range(1, top + 1):
            yield pxy[k], px[k] * py[k]
        for pz in (px, py):
            for j in range(2, top // 2 + 1):
                inner = adams(pz[j], top // j)
                for k in range(2, top // j + 1):
                    yield inner[k], pz[k * j]


def rings():
    yield "integers", IntegerRing()
    yield "k-torus", KTorusRing(1)
    yield "k-ext-torus", KExtTorusRing(1)
    for spec in FIELDS:
        yield "gw-field-%s" % spec, GWFieldRing(field_model(spec))
        yield "gw-ext-torus-%s" % spec, GWExtTorusRing(1, field_model(spec))


@pytest.mark.parametrize("name, ring", list(rings()), ids=[name for name, _ in rings()])
def test_adams_operations_are_multiplicative_and_compose(name, ring):
    assert failures(ring) == 0


@pytest.mark.parametrize("spec", FIELDS)
@pytest.mark.parametrize("lambda2_pair", ["one", "zero"])
def test_corrupted_lambda2_fails_adams_check(spec, lambda2_pair):
    constants = ExtTorusConstants(lambda2_pair=lambda2_pair)
    assert failures(GWExtTorusRing(1, field_model(spec), constants)) > 0


@pytest.mark.parametrize("name, ring", list(rings()), ids=[name for name, _ in rings()])
def test_adams_operations_on_virtual_elements_up_to_8(name, ring):
    assert all(lhs == rhs for lhs, rhs in virtual_comparisons(ring, name))


@pytest.mark.parametrize("spec", FIELDS)
@pytest.mark.parametrize("lambda2_pair", ["one", "zero"])
def test_corrupted_lambda2_fails_adams_check_on_virtual_elements(spec, lambda2_pair):
    # The check stops at the first failing pair: past it, the wrong lambda^2
    # inflates psi^4 of some draws beyond MAX_LINES line series.
    ring = GWExtTorusRing(1, field_model(spec), ExtTorusConstants(lambda2_pair=lambda2_pair))
    assert not all(lhs == rhs for lhs, rhs in virtual_comparisons(ring, "gw-ext-torus-" + spec))


def test_adams_of_a_line_is_its_power():
    # On a line L, lambda_t = 1 + L t, so psi^k(L) = L^k: the recursion
    # itself, checked where its answer is known.
    kt = KTorusRing(2)
    line = kt.line((1, -1))
    psi = adams(line)
    for k in range(1, KMAX + 1):
        assert psi[k] == kt.line((k, -k))
