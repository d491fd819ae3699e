"""Acceptance gate: one test per release criterion, each with its runtime
budget, printing a single pass/fail line."""

import itertools
import json
import random
import subprocess
import sys
import time

from gwlambda import lambda_rings as lr
from gwlambda import weights
from gwlambda.fields import field_model
from gwlambda.forms import (
    GramForm,
    GWClass,
    diagonalize,
    exterior_power,
    gw_class,
    hyperbolic,
    hyperbolic_lemma_witness,
    negate,
    perp_sum,
    tensor,
)
from gwlambda.lambda_rings import GWExtTorusRing, GWFieldRing, pair_key
from gwlambda.symfun import EPolynomial, universal_P, universal_P_kj

from form_helpers import diagonal_class, diagonal_form
from weight_helpers import dominance_leq, endo_dim, minus

ALL_MODELS = ("qc", "rc", "fq:5", "fq:7")


def report(num, desc, ok, elapsed=None):
    verdict = "PASS" if ok else "FAIL"
    stamp = "" if elapsed is None else " (%.2fs)" % elapsed
    print("[%s] criterion %d: %s%s" % (verdict, num, desc, stamp))
    assert ok


def rand_units(field, rng, count):
    if field.kind == "fq":
        return [field.from_int(rng.randrange(1, field.q)) for _ in range(count)]
    out = []
    while len(out) < count:
        num = rng.randint(-4, 4)
        if num:
            out.append(field.parse("%d/%d" % (num, rng.randint(1, 3))))
    return out


def congruence(field, gram, basis):
    """basis^T * gram * basis with exact field arithmetic."""
    n = len(gram)
    m = len(basis[0])
    mid = [
        [
            sum_f(field, (field.mul(gram[i][k], basis[k][j]) for k in range(n)))
            for j in range(m)
        ]
        for i in range(n)
    ]
    return tuple(
        tuple(
            sum_f(field, (field.mul(basis[k][i], mid[k][j]) for k in range(n)))
            for j in range(m)
        )
        for i in range(m)
    )


def sum_f(field, items):
    """The sum of field elements: the plain sum, reduced mod q over fq."""
    total = sum(items, field.zero)
    return total % field.q if field.kind == "fq" else total


def test_criterion_1_universal_polynomials():
    t0 = time.monotonic()
    ok = universal_P(2) == EPolynomial(
        {((2, 0), (0, 1)): 1, ((0, 1), (2, 0)): 1, ((0, 1), (0, 1)): -2}
    )
    ok = ok and universal_P(3).specialize(2) == EPolynomial({((1, 1), (1, 1)): 1})
    ok = ok and universal_P(4).specialize(2) == EPolynomial({((0, 2), (0, 2)): 1})
    for k in range(1, 6):
        ok = ok and universal_P(k) == universal_P(k, n_vars=k + 1)
    for k in range(1, 10):
        for j in range(2, 10):
            if k * j > 9:
                continue
            ok = ok and universal_P_kj(k, j) == universal_P_kj(k, j, n_vars=k * j + 1)
    elapsed = time.monotonic() - t0
    report(1, "universal polynomial tables and stability", ok and elapsed < 10, elapsed)


def test_criterion_2_lambda_identity_suite():
    t0 = time.monotonic()
    ok = True
    for r in (1, 2):
        for spec in ALL_MODELS:
            ring = GWExtTorusRing(r, field_model(spec))
            elems = [ring.basis_elt(s) for s in ring.basis_symbols(2)]
            for i, x in enumerate(elems):
                for y in elems[i:]:
                    ok = ok and all(rec.passed for rec in lr.check_lambda1(x, y, 4))
            for x in elems:
                for j in (1, 2):
                    ok = ok and all(rec.passed for rec in lr.check_lambda2(x, j, 4))
    # the two computations quoted in the proof, over every model
    for spec in ALL_MODELS:
        ring = GWExtTorusRing(1, field_model(spec))
        f = ring.field
        x = ring.basis_elt(pair_key((1,)))
        y = ring.basis_elt(pair_key((3,)))
        by_k = {rec.k: rec for rec in lr.check_lambda1(x, y, 4)}
        ok = ok and by_k[4].lhs == ring.one and by_k[4].rhs == ring.one
        g2 = ring.basis_elt(pair_key((2,)))
        e0 = x * x - g2
        pair11 = ring.coeff_ring.diag((f.one, f.one))
        doubled_units = ring.elt(
            {"one": pair11, "delta": pair11}
        )
        ok = ok and e0 + e0 == doubled_units
    elapsed = time.monotonic() - t0
    report(2, "lambda identities on the extended torus", ok and elapsed < 60, elapsed)


def test_criterion_3_forms_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(2024)
    ok = True
    fields = [field_model(s) for s in ("fq:5", "fq:7", "rc")]
    by_field = {f.spec: [] for f in fields}
    for i in range(200):
        field = fields[i % 3]
        by_field[field.spec].append(
            diagonal_form(field, rand_units(field, rng, rng.randint(1, 4)))
        )
    pairs = [p for group in by_field.values() for p in zip(group[0::2], group[1::2])]
    for a, b in pairs:
        total = perp_sum(a, b)
        for n in range(0, min(4, total.dim) + 1):
            conv = GWClass.zero(a.field)
            # indices where either factor exceeds its dimension contribute
            # the zero space
            for i in range(max(0, n - b.dim), min(n, a.dim) + 1):
                conv = conv + gw_class(
                    tensor(exterior_power(a, i), exterior_power(b, n - i))
                )
            ok = ok and gw_class(exterior_power(total, n)) == conv
    for field in fields:
        for _ in range(12):
            m = rng.randint(1, 2)
            metabolic = None
            while metabolic is None:
                c = [rand_units(field, rng, m) for _ in range(m)]
                d = [rand_units(field, rng, m) for _ in range(m)]
                rows = []
                for i in range(m):
                    rows.append([field.zero] * m + c[i])
                for i in range(m):
                    rows.append([c[j][i] for j in range(m)]
                                + [sum_f(field, (d[i][j], d[j][i])) for j in range(m)])
                try:
                    metabolic = GramForm(field, rows)
                except Exception:
                    metabolic = None
            ok = ok and gw_class(metabolic) == gw_class(hyperbolic(m, field))
            ring = GWFieldRing(field)
            as_elt = ring.diag(diagonalize(metabolic))
            for n in range(0, 5):
                lam_class = diagonal_class(as_elt.lambda_k(n))
                if n <= metabolic.dim:
                    ok = ok and lam_class == gw_class(exterior_power(metabolic, n))
                else:
                    ok = ok and lam_class == GWClass.zero(field)
    elapsed = time.monotonic() - t0
    report(3, "exterior powers vs class convolution and metabolic forms",
           ok and elapsed < 30, elapsed)


def test_criterion_4_hyperbolic_witness():
    t0 = time.monotonic()
    rng = random.Random(77)
    ok = True
    for spec in ALL_MODELS:
        field = field_model(spec)
        for _ in range(100):
            a = diagonal_form(field, rand_units(field, rng, rng.randint(1, 3)))
            witness = hyperbolic_lemma_witness(a)
            doubled = perp_sum(a, negate(a))
            got = congruence(field, doubled.gram, witness)
            ok = ok and got == hyperbolic(a.dim, field).gram
    elapsed = time.monotonic() - t0
    report(4, "hyperbolic change-of-basis witness is bit-exact",
           ok and elapsed < 5, elapsed)


def test_criterion_5_square_root_of_two():
    ok = True
    for spec in ALL_MODELS:
        field = field_model(spec)
        ones = diagonal_form(field, [field.one, field.one])
        twos = diagonal_form(field, [field.from_int(2), field.from_int(2)])
        ok = ok and gw_class(ones) == gw_class(twos)
    ring = GWExtTorusRing(1, field_model("fq:7"))
    f = ring.field
    one_c = ring.coeff_ring.diag((f.one,))
    two_c = ring.coeff_ring.diag((f.from_int(2),))
    lhs = ring.elt({"one": two_c, "delta": two_c})
    rhs = ring.elt({"one": one_c, "delta": one_c})
    ok = ok and lhs == rhs
    report(5, "<1,1> = <2,2> and the square-root-of-two collapse", ok)


def test_criterion_6_weights():
    t0 = time.monotonic()
    ok = True
    spot = [
        ((1,), weights.Flavor("B", 1), 3),
        ((1, 0), weights.Flavor("B", 2), 5),
        ((1, 0), weights.Flavor("D", 2), 4),
    ]
    for w, fl, dim in spot:
        ok = ok and weights.character_mass(weights.weyl_character(w, fl)) == dim
    for kind, ranks in (("B", (1, 2, 3)), ("D", (2, 3))):
        for n in ranks:
            fl = weights.Flavor(kind, n)
            for w in itertools.product(range(-3, 4), repeat=n):
                if not weights.is_dominant(w, fl):
                    continue
                char = weights.weyl_character(w, fl)
                ok = ok and weights.character_mass(char) == weights.weyl_dim(w, fl)
                ok = ok and weights.check_triangularity(w, fl)
    for n in (2, 3):
        bf, df = weights.Flavor("B", n), weights.Flavor("D", n)
        box = list(itertools.product(range(-3, 4), repeat=n))
        for w in box:
            if w[-1] >= 0:
                ok = ok and weights.is_dominant(w, df) == weights.is_dominant(w, bf)
            if w[-1] <= 0:
                ok = ok and weights.is_dominant(w, df) == weights.is_dominant(
                    minus(w), bf
                )
        dominant = [w for w in box if weights.is_dominant(w, bf)]
        for wp in dominant:
            for w in dominant:
                if dominance_leq(wp, minus(w), bf):
                    ok = ok and dominance_leq(wp, w, df)
    elapsed = time.monotonic() - t0
    report(6, "character masses, triangularity, and the two ordering lemmas",
           ok and elapsed < 60, elapsed)


def test_criterion_7_appendix_classification():
    # The simples of the extended torus with weights in [-2, 2]: the two
    # lifts of the zero orbit (rank 1) and the induced [e^1], [e^2] (rank 2).
    ring = lr.KExtTorusRing(1)
    simples = ring.basis_symbols(2)
    ok = simples == ["one", "delta", (1,), (2,)]
    ok = ok and [ring.basis_elt(s).augmentation() for s in simples] == [1, 1, 2, 2]
    for p in (2, 3):
        ok = ok and endo_dim("fixed-with-lift", p, 1) == 1
        ok = ok and endo_dim("free", p, 1) == 1
        ok = ok and endo_dim("fixed-without-lift", p, 1) == p
        ok = ok and endo_dim("fixed-without-lift", p, 2) == 2 * p
    report(7, "extension-module classification and endomorphism dimensions", ok)


def test_criterion_8_cli_contract(tmp_path):
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "gwlambda", *argv],
            capture_output=True,
            text=True,
        )

    sweep = (
        "check", "--sweep", "--ring", "gw-ext-torus", "--field", "fq:5",
        "--bound", "1", "--kmax", "3", "--format", "records",
    )
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    ok = run(*sweep, "--out", str(f1)).returncode == 0
    ok = ok and run(*sweep, "--out", str(f2)).returncode == 0
    ok = ok and f1.read_bytes() == f2.read_bytes() and f1.read_bytes()

    ok = ok and run(
        "check", "--ring", "integers", "--x", "5", "--y", "-3", "--kmax", "4"
    ).returncode == 0

    corrupted = tmp_path / "constants.json"
    corrupted.write_text(json.dumps({"lambda2_pair": "one"}))
    ok = ok and run(
        "check", "--sweep", "--ring", "gw-ext-torus", "--field", "fq:5",
        "--bound", "1", "--constants", str(corrupted),
    ).returncode == 1

    malformed = tmp_path / "x.json"
    malformed.write_text("{broken")
    ok = ok and run("check", "--x-file", str(malformed), "--j", "1").returncode == 2

    report(8, "CLI determinism and the exit-code contract", bool(ok))
