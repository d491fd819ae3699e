"""GW(F) is a special λ-ring: the paper's theorem for the trivial group,
checked on Gram matrices.

For forms a and b over a field F, with λⁱ of a form the class of its i-th
exterior power carrying the induced form,

* λᵏ(a ⊗ b) = P_k(λ¹a, …, λᵏa; λ¹b, …, λᵏb), and
* λᵏ(Λʲa) = P_kj(λ¹a, …, λᵏʲa).

The left sides are classes of exterior powers of ``tensor`` and
``exterior_power`` forms; the right sides evaluate the universal tables on
the classes of the exterior powers of a and b.  Every class is
``GWFieldRing(field).diag(diagonalize(form))``.

Shared with the engine: the normal form of the square-class counts, which
decides equality in GW(F); the square-class product table of
``GWFieldRing``, which forms the products of the evaluation; and
``EPolynomial.evaluate``.  Not shared: the λ-series of
``lambda_rings`` (``lambda_t``, ``_series_mul``, ``_series_inv``) that the
identity sweeps run through.
"""

import itertools
import random
import time

import pytest

from gwlambda.errors import DomainError
from gwlambda.fields import field_model
from gwlambda.forms import GramForm, diagonalize, exterior_power, tensor
from gwlambda.lambda_rings import GWFieldRing
from gwlambda.symfun import universal_P, universal_P_kj

MODELS = ("qc", "rc", "fq:5", "fq:7")
DIMS = (1, 2, 3)
KMAX = 3
FORMS_PER_SHAPE = 2
# Seconds per test; each takes under 0.2 s on a 2-vCPU Xeon.
BUDGET_S = 20.0


def random_form(field, rng, n):
    """A random nondegenerate n-dimensional form with entries m/1 or m/2."""
    while True:
        upper = {
            (i, j): field.from_ratio(rng.randint(-3, 3), rng.choice((1, 2)))
            for i in range(n)
            for j in range(i, n)
        }
        rows = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
        try:
            return GramForm(field, rows)
        except DomainError:  # singular
            continue


def lam(ring, form, k):
    """λᵏ of the class of ``form``: the class of its k-th exterior power."""
    if k > form.dim:
        return ring.zero
    return ring.diag(diagonalize(exterior_power(form, k)))


@pytest.mark.parametrize("spec", MODELS)
def test_lambda_of_a_tensor_product(spec):
    field = field_model(spec)
    ring, rng = GWFieldRing(field), random.Random(spec)
    start = time.monotonic()
    for da, db, _ in itertools.product(DIMS, DIMS, range(FORMS_PER_SHAPE)):
        a, b = random_form(field, rng, da), random_form(field, rng, db)
        xs = [lam(ring, a, i) for i in range(1, KMAX + 1)]
        ys = [lam(ring, b, i) for i in range(1, KMAX + 1)]
        ab = tensor(a, b)
        for k in range(1, KMAX + 1):
            rhs = universal_P(k).evaluate(xs[:k], ys[:k], one=ring.one)
            assert lam(ring, ab, k) == rhs, (a, b, k)
    assert time.monotonic() - start < BUDGET_S


@pytest.mark.parametrize("spec", MODELS)
def test_lambda_of_an_exterior_power(spec):
    field = field_model(spec)
    ring, rng = GWFieldRing(field), random.Random(spec)
    start = time.monotonic()
    for da, _ in itertools.product(DIMS, range(FORMS_PER_SHAPE)):
        a = random_form(field, rng, da)
        xs = [lam(ring, a, i) for i in range(1, KMAX * da + 1)]
        for j in range(1, da + 1):
            inner = exterior_power(a, j)
            for k in range(1, KMAX + 1):
                rhs = universal_P_kj(k, j).evaluate(xs[: k * j], one=ring.one)
                assert lam(ring, inner, k) == rhs, (a, j, k)
    assert time.monotonic() - start < BUDGET_S
