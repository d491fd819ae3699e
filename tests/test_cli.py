"""End-to-end tests driving the CLI of this checkout as a subprocess."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from gwlambda import cli, symfun
from gwlambda.fields import field_model
from gwlambda.forms import form_record, hyperbolic
from gwlambda.lambda_rings import (
    MAX_RANK,
    GWExtTorusRing,
    IntegerRing,
    element_record,
    pair_key,
)

from form_helpers import diagonal_form


def run_cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "gwlambda", *argv],
        capture_output=True,
        text=True,
        **kwargs,
    )


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# poly


def test_poly_golden_outputs():
    out = run_cli("poly", "--k", "1")
    assert out.returncode == 0
    assert out.stdout == "ex1*ey1\n"

    out = run_cli("poly", "--k", "2")
    assert out.returncode == 0
    assert out.stdout == "ex1^2*ey2 + ex2*ey1^2 - 2*ex2*ey2\n"

    out = run_cli("poly", "--k", "2", "--j", "2")
    assert out.returncode == 0
    assert out.stdout == "ex1*ex3 - ex4\n"


def test_poly_records_format():
    out = run_cli("poly", "--k", "1", "--format", "records")
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"j": None, "k": 1, "poly": "ex1*ey1"}


def test_poly_bad_index():
    out = run_cli("poly", "--k", "0")
    assert out.returncode == 2
    assert out.stderr.startswith("error:")


def test_unknown_flag_is_usage_error():
    out = run_cli("poly", "--k", "1", "--frobnicate")
    assert out.returncode == 2


# ---------------------------------------------------------------------------
# check


def test_check_inline_integers():
    out = run_cli(
        "check", "--ring", "integers", "--x", "5", "--y", "-3", "--kmax", "5"
    )
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "[PASS] lambda1 k=1 x=5 y=-3"
    assert len([l for l in lines if l.startswith("[PASS]")]) == 5
    assert lines[-1] == "checks: 5 passed, 0 failed"


def test_check_inline_integers_beyond_machine_size(capsys):
    # The largest operand a flag takes; its lambda^2 needs 125 bits.
    n = 2**63 - 1
    code = cli.main(
        ["check", "--ring", "integers", "--x", str(n), "--y", "1", "--kmax", "2",
         "--format", "records"]
    )
    assert code == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["lhs"]["terms"] for r in records] == [
        [{"basis": "one", "coeff": n}],
        [{"basis": "one", "coeff": n * (n - 1) // 2}],
    ]
    assert all(r["pass"] and r["lhs"] == r["rhs"] for r in records)


def test_composition_on_a_large_integer_is_quick():
    # lambda_t(n) is one binomial series, not a product of n series;
    # run_cli raises TimeoutExpired after 5 s.
    out = run_cli(
        "check", "--ring", "integers", "--x", "100000", "--j", "2", "--kmax", "2", timeout=5
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == "checks: 4 passed, 0 failed"


def test_default_kmax_at_nine_is_quick():
    # kmax defaults to 3 * 3, so the check builds P_1..P_9.
    out = run_cli("check", "--ring", "integers", "--x", "3", "--y", "3", timeout=5)
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == "checks: 9 passed, 0 failed"


def test_default_kmax_above_the_table_cap_is_refused_quickly():
    # kmax would default to 1000 * 1000; the check refuses it before any work.
    out = run_cli("check", "--ring", "integers", "--x", "1000", "--y", "1000", timeout=5)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error:")


@pytest.mark.parametrize(
    "flags, degree",
    [
        (
            ("--ring", "gw-ext-torus", "--field", "fq:7", "--kmax", "5", "--jmax", "3"),
            "kmax*jmax is 15",
        ),
        (("--ring", "integers", "--kmax", "7"), "kmax*jmax is 14"),
        (("--ring", "k-torus", "--kmax", "13", "--jmax", "0"), "kmax is 13"),
        (("--ring", "integers", "--kmax", "0"), "kmax must be >= 1"),
    ],
)
def test_oversized_sweep_is_refused_before_any_check(capsys, monkeypatch, flags, degree):
    # The largest table of the sweep (P_kmax, P_kj at kmax*jmax) is refused
    # before any element is enumerated, so no finished check is thrown away.
    def no_call(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "_sweep_elements", no_call)
    for name in ("check_lambda1", "check_lambda2"):
        monkeypatch.setattr(cli.lr, name, no_call)
    code = cli.main(["check", "--sweep", "--format", "records", *flags])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: " + degree)


def test_torus_rank_above_the_cap_is_refused(capsys, tmp_path):
    # Only the rank just over the cap is tried: the refusal comes before
    # any weight of that length is built.
    r = str(MAX_RANK + 1)
    for flags in (("k-torus",), ("k-ext-torus",), ("gw-ext-torus", "--field", "rc")):
        code = cli.main(["check", "--sweep", "--bound", "0", "--r", r, "--ring", *flags])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: torus rank is %s;" % r)
    for tag, field in (("k-torus", None), ("gw-ext-torus", "fq:5")):
        record = {"ring": tag, "rank_r": MAX_RANK + 1, "field": field, "terms": []}
        path = write_json(tmp_path / ("%s.json" % tag), record)
        err = main_usage_error(capsys, "check", "--x-file", path, "--j", "1")
        assert "torus rank is %s;" % r in err


def test_torus_rank_at_the_cap_is_accepted():
    r = str(MAX_RANK)
    out = run_cli("check", "--sweep", "--ring", "k-torus", "--r", r, "--bound", "0", "--kmax", "2")
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == "checks: 6 passed, 0 failed"


def test_check_element_files(tmp_path):
    er = GWExtTorusRing(1, field_model("fq:5"))
    x = er.basis_elt(pair_key((1,)))
    xf = write_json(tmp_path / "x.json", element_record(x))
    yf = write_json(tmp_path / "y.json", element_record(er.one + x))
    out = run_cli("check", "--x-file", xf, "--y-file", yf, "--kmax", "3")
    assert out.returncode == 0
    assert "checks: 3 passed, 0 failed" in out.stdout


def test_check_composition_via_file(tmp_path):
    ints = IntegerRing()
    xf = write_json(tmp_path / "x.json", element_record(4 * ints.one))
    out = run_cli("check", "--x-file", xf, "--j", "2", "--kmax", "2", "--format", "records")
    assert out.returncode == 0
    records = [json.loads(l) for l in out.stdout.splitlines()]
    assert all(r["pass"] for r in records)
    assert {r["check"] for r in records} == {"lambda2"}


def test_check_sweep_records_are_byte_identical(tmp_path):
    argv = (
        "check", "--sweep", "--ring", "gw-ext-torus", "--field", "fq:5",
        "--r", "1", "--bound", "1", "--kmax", "3", "--format", "records",
    )
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli(*argv, "--out", str(f1)).returncode == 0
    assert run_cli(*argv, "--out", str(f2)).returncode == 0
    blob = f1.read_bytes()
    assert blob == f2.read_bytes()
    records = [json.loads(l) for l in blob.decode().splitlines()]
    assert records
    assert all(set(r) == {"check", "k", "lhs", "rhs", "pass"} for r in records)
    assert all(r["pass"] for r in records)


def test_check_sweep_integers_and_k_torus():
    out = run_cli("check", "--sweep", "--ring", "integers", "--bound", "2", "--kmax", "3")
    assert out.returncode == 0
    out = run_cli(
        "check", "--sweep", "--ring", "k-torus", "--r", "2", "--bound", "1",
        "--kmax", "2", "--jmax", "1",
    )
    assert out.returncode == 0


def test_check_corrupted_constants_fail_identities(tmp_path):
    cf = write_json(tmp_path / "constants.json", {"lambda2_pair": "one"})
    out = run_cli(
        "check", "--sweep", "--ring", "gw-ext-torus", "--field", "fq:5",
        "--bound", "1", "--kmax", "4", "--constants", cf,
    )
    assert out.returncode == 1
    assert "[FAIL]" in out.stdout
    assert "0 failed" not in out.stdout.splitlines()[-1]


def test_check_invalid_constants_is_parse_error(tmp_path):
    cf = write_json(tmp_path / "constants.json", {"lambda2_pair": "banana"})
    out = run_cli(
        "check", "--sweep", "--ring", "gw-ext-torus", "--field", "fq:5",
        "--bound", "1", "--constants", cf,
    )
    assert out.returncode == 2
    assert "lambda2_pair" in out.stderr


def test_check_malformed_element_file(tmp_path):
    bad = tmp_path / "x.json"
    bad.write_text("{not json")
    out = run_cli("check", "--x-file", str(bad), "--j", "1")
    assert out.returncode == 2
    assert "error:" in out.stderr

    missing_ring = write_json(tmp_path / "y.json", {"terms": []})
    out = run_cli("check", "--x-file", missing_ring, "--j", "1")
    assert out.returncode == 2
    assert "ring" in out.stderr


def test_check_missing_operands_is_usage_error():
    out = run_cli("check", "--ring", "integers")
    assert out.returncode == 2


def main_usage_error(capsys, *argv):
    """Run main in-process; it must return 2 with one error line, no traceback."""
    code = cli.main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    return err


BAD_ELEMENTS = {
    "neg-is-a-string": {
        "ring": "gw-field",
        "rank_r": None,
        "field": "rc",
        "terms": [{"basis": "one", "coeff": {"pos": ["1"], "neg": "12"}}],
    },
    "coeff-is-true": {
        "ring": "integers",
        "rank_r": None,
        "field": None,
        "terms": [{"basis": "one", "coeff": True}],
    },
    "rank-is-true": {
        "ring": "k-torus",
        "rank_r": True,
        "field": None,
        "terms": [{"basis": "wt:1", "coeff": 1}],
    },
    "term-is-not-an-object": {
        "ring": "k-ext-torus",
        "rank_r": 1,
        "field": None,
        "terms": [1],
    },
    "coeff-is-a-list": {
        "ring": "gw-ext-torus",
        "rank_r": 1,
        "field": "fq:5",
        "terms": [{"basis": "one", "coeff": ["1"]}],
    },
    "gw-field-term-basis": {
        "ring": "gw-field",
        "field": "rc",
        "terms": [{"basis": "bogus", "coeff": {"pos": ["1"], "neg": []}}],
    },
}


@pytest.mark.parametrize("name", sorted(BAD_ELEMENTS))
def test_check_bad_element_record_is_usage_error(capsys, tmp_path, name):
    path = write_json(tmp_path / "x.json", BAD_ELEMENTS[name])
    main_usage_error(capsys, "check", "--x-file", path, "--j", "1")


def test_check_true_constant_is_usage_error(capsys, tmp_path):
    path = write_json(tmp_path / "c.json", {"pair_zero_scale": True})
    main_usage_error(
        capsys, "check", "--sweep", "--ring", "gw-ext-torus", "--field", "rc",
        "--constants", path,
    )


@pytest.mark.parametrize("field, scale", [("fq:5", 5), ("fq:3", -3)])
def test_pair_zero_scale_zero_in_the_field_is_named(capsys, tmp_path, field, scale):
    path = write_json(tmp_path / "c.json", {"pair_zero_scale": scale})
    err = main_usage_error(
        capsys, "check", "--sweep", "--ring", "gw-ext-torus", "--field", field,
        "--constants", path,
    )
    assert err == "error: pair_zero_scale %d is zero in the field %s\n" % (scale, field)
    x = write_json(
        tmp_path / "x.json",
        {"ring": "gw-ext-torus", "rank_r": 1, "field": field, "terms": []},
    )
    err = main_usage_error(capsys, "check", "--x-file", x, "--j", "1", "--constants", path)
    assert "pair_zero_scale" in err and field in err


def test_directory_as_input_or_output_is_usage_error(capsys, tmp_path):
    main_usage_error(capsys, "check", "--x-file", str(tmp_path), "--j", "1")
    main_usage_error(
        capsys, "check", "--ring", "integers", "--x", "2", "--y", "3",
        "--out", str(tmp_path),
    )


def test_seed_flag_is_gone(capsys):
    assert cli.main(["check", "--ring", "integers", "--x", "2", "--seed", "3"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "--seed" in lines[0]


# ---------------------------------------------------------------------------
# forms


@pytest.fixture
def h1_file(tmp_path):
    return write_json(
        tmp_path / "h1.json", form_record(hyperbolic(1, field_model("qc")))
    )


def test_forms_exterior(h1_file):
    out = run_cli("forms", "exterior", "--in", h1_file, "--k", "2")
    assert out.returncode == 0
    assert out.stdout == "[-1]\n"


def test_forms_class_identifies_scaled_forms(tmp_path):
    f5 = field_model("fq:5")
    a = write_json(
        tmp_path / "a.json", form_record(diagonal_form(f5, [f5.from_int(1)] * 2))
    )
    b = write_json(
        tmp_path / "b.json", form_record(diagonal_form(f5, [f5.from_int(2)] * 2))
    )
    out_a = run_cli("forms", "class", "--in", a, "--format", "records")
    out_b = run_cli("forms", "class", "--in", b, "--format", "records")
    assert out_a.returncode == 0 and out_b.returncode == 0
    assert out_a.stdout == out_b.stdout
    rec = json.loads(out_a.stdout)
    assert rec["rank"] == 2


def test_forms_class_human(tmp_path):
    rc = field_model("rc")
    f = write_json(
        tmp_path / "f.json",
        form_record(diagonal_form(rc, [rc.from_int(1), rc.from_int(-2)])),
    )
    out = run_cli("forms", "class", "--in", f)
    assert out.returncode == 0
    assert "rank=2" in out.stdout
    assert "signature=0" in out.stdout


def test_forms_reduce_lagrangian(h1_file):
    out = run_cli("forms", "reduce", "--in", h1_file, "--vectors", "1,0")
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["sublagrangian_rank=1", "[]"]


# A value that starts with "-" must reach --vectors whether it is a separate
# argument or joined by "=": argparse alone reads "-1,0" as an option.
REDUCE_CASES = [
    (1, "-1,0", ["sublagrangian_rank=1", "[]"]),
    (2, "-1,0,0,0", ["sublagrangian_rank=1", "[0, 1]", "[1, 0]"]),
    (2, "-1,0,0,0;0,-1,0,0", ["sublagrangian_rank=2", "[]"]),
]


@pytest.mark.parametrize("rank, vectors, expected", REDUCE_CASES)
def test_forms_reduce_negative_vectors_separate(tmp_path, rank, vectors, expected):
    f = write_json(tmp_path / "h.json", form_record(hyperbolic(rank, field_model("qc"))))
    out = run_cli("forms", "reduce", "--in", f, "--vectors", vectors)
    assert (out.returncode, out.stdout.splitlines()) == (0, expected), out.stderr


@pytest.mark.parametrize("rank, vectors, expected", REDUCE_CASES)
def test_forms_reduce_negative_vectors_joined(tmp_path, rank, vectors, expected):
    f = write_json(tmp_path / "h.json", form_record(hyperbolic(rank, field_model("qc"))))
    out = run_cli("forms", "reduce", "--in", f, "--vectors=" + vectors)
    assert (out.returncode, out.stdout.splitlines()) == (0, expected), out.stderr


def test_forms_hyperbolic_witness(tmp_path):
    qc = field_model("qc")
    f = write_json(tmp_path / "one.json", form_record(diagonal_form(qc, [qc.one])))
    out = run_cli("forms", "hyperbolic-witness", "--in", f)
    assert out.returncode == 0
    assert out.stdout.splitlines() == [
        "verified: true",
        "[1, 1/2]",
        "[1, -1/2]",
    ]


def test_forms_hyperbolic_generator():
    out = run_cli("forms", "hyperbolic", "--n", "1", "--field", "qc")
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["[0, 1]", "[1, 0]"]


def test_forms_rejects_bad_gram(tmp_path):
    f = write_json(
        tmp_path / "bad.json", {"field": "qc", "gram": [["0", "1"], ["2", "0"]]}
    )
    out = run_cli("forms", "class", "--in", f)
    assert out.returncode == 2
    assert "symmetric" in out.stderr

    g = write_json(
        tmp_path / "sing.json", {"field": "qc", "gram": [["1", "0"], ["0", "0"]]}
    )
    out = run_cli("forms", "class", "--in", g)
    assert out.returncode == 2
    assert "singular" in out.stderr


@pytest.mark.parametrize("ring", ["gw-field", "gw-ext-torus"])
@pytest.mark.parametrize("field", [["qc"], None], ids=["field-is-a-list", "field-is-null"])
def test_check_element_field_spec_must_be_a_string(capsys, tmp_path, ring, field):
    # Not read as the spec "['qc']" or "None".
    record = {"ring": ring, "rank_r": 1, "field": field, "terms": []}
    path = write_json(tmp_path / "x.json", record)
    err = main_usage_error(capsys, "check", "--x-file", path, "--j", "1")
    assert "field must be a string" in err


@pytest.mark.parametrize(
    "field", [["qc"], 5], ids=["field-is-a-list", "field-is-a-number"]
)
def test_forms_bad_field_spec_is_usage_error(capsys, tmp_path, field):
    path = write_json(tmp_path / "f.json", {"field": field, "gram": [["1"]]})
    main_usage_error(capsys, "forms", "class", "--in", path)


def test_forms_missing_file():
    out = run_cli("forms", "class", "--in", "/nonexistent/nothing.json")
    assert out.returncode == 2


def test_sweep_over_a_large_prime_field_is_quick():
    # Trial division up to 10^9 took minutes on this modulus; run_cli
    # raises TimeoutExpired after 5 s.
    out = run_cli(
        "check", "--sweep", "--ring", "gw-field", "--field", "fq:1000000000000000003",
        timeout=5,
    )
    assert out.returncode == 0


def test_modulus_beyond_the_primality_bound_is_usage_error(capsys):
    err = main_usage_error(
        capsys, "check", "--sweep", "--ring", "gw-field",
        "--field", "fq:%d" % (2**89 - 1),
    )
    assert "3317044064679887385961981" in err


# ---------------------------------------------------------------------------
# char


def test_char_records_b1():
    out = run_cli("char", "--type", "B", "--n", "1", "--hw", "1", "--format", "records")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert json.loads(lines[0]) == {
        "n": 1,
        "terms": [
            {"weight": [-1], "mult": 1},
            {"weight": [0], "mult": 1},
            {"weight": [1], "mult": 1},
        ],
    }
    assert json.loads(lines[1]) == {"dim": 3, "mass": 3, "triangular": True}


def test_char_human_d2():
    out = run_cli("char", "--type", "D", "--n", "2", "--hw", "1,0")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "dim=4 mass=4 triangular=true"
    assert len(lines) == 5


@pytest.mark.parametrize("fmt, builds", [("human", 0), ("records", 1)])
def test_char_builds_only_the_rendering_it_writes(capsys, monkeypatch, fmt, builds):
    calls = []

    def char_record(char, n):
        calls.append(n)
        return {"n": n}

    monkeypatch.setattr(cli.weights, "char_record", char_record)
    code = cli.main(["char", "--type", "B", "--n", "2", "--hw", "1,1", "--format", fmt])
    out = capsys.readouterr().out.splitlines()
    assert (code, len(calls)) == (0, builds)
    assert out[0] == ('{"n":2}' if builds else "dim=10 mass=10 triangular=true")


def test_char_non_dominant_weight():
    out = run_cli("char", "--type", "B", "--n", "2", "--hw", "0,1")
    assert out.returncode == 2
    assert "dominant" in out.stderr


def test_char_malformed_weight():
    out = run_cli("char", "--type", "B", "--n", "2", "--hw", "1,x")
    assert out.returncode == 2


def test_out_file_redirects_stdout(tmp_path):
    path = tmp_path / "out.txt"
    out = run_cli("poly", "--k", "1", "--out", str(path))
    assert out.returncode == 0
    assert out.stdout == ""
    assert path.read_text() == "ex1*ey1\n"


# ---------------------------------------------------------------------------
# record encoding


def dumps(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


RECORD_RUNS = {
    "poly": ("poly", "--k", "3", "--j", "2"),
    "check": ("check", "--sweep", "--ring", "gw-ext-torus", "--field", "fq:5", "--kmax", "2"),
    "forms": ("forms", "hyperbolic", "--n", "2", "--field", "qc"),
    "char": ("char", "--type", "B", "--n", "2", "--hw", "1,1"),
}
ODD_STRING = 'a "quoted" back\\slash, caf\u00e9 \u2203 \U0001d706'


@pytest.mark.parametrize("encode", ("c-encoder", "fallback"))
def test_json_line_writes_what_json_dumps_writes(capsys, monkeypatch, encode):
    # The one C encoder of cli, and JSONEncoder.encode where the C module
    # is missing, both write each record as json.dumps with sorted keys.
    json_line = cli._json_line
    if encode == "fallback":
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        json_line = cli._json_encoder()
        assert json_line.__func__ is json.JSONEncoder.encode
    for name, argv in RECORD_RUNS.items():
        assert cli.main([*argv, "--format", "records"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines, name
        for line in lines:
            record = json.loads(line)
            assert json_line(record) == dumps(record) == line
    for value in (ODD_STRING, {ODD_STRING: [ODD_STRING, None, True, -1.5]}):
        assert json_line(value) == dumps(value)
    for value in ({"a": object()}, [{1, 2}]):
        with pytest.raises(TypeError) as want:
            dumps(value)
        with pytest.raises(TypeError) as got:
            json_line(value)
        assert str(got.value) == str(want.value)


def test_import_skips_dataclasses_and_inspect():
    # Each process imports the CLI; dataclasses would pull in inspect.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; sys.path.insert(0, %r); import gwlambda.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))" % src
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


# The attributes perfbench/child.py reads after a plain ``import gwlambda``.
BENCH_ATTRIBUTES = (
    "fields.FieldModel",
    "forms.GWClass.zero", "forms.parse_form", "forms.perp_sum", "forms.exterior_power",
    "forms.tensor", "forms.gw_class", "forms.hyperbolic_lemma_witness",
    "forms.GWClass.__add__", "forms.GWClass.__sub__", "forms.GWClass.__neg__",
    "forms.GWClass.__mul__",
    "weights.Flavor", "weights.weyl_character", "weights.character_mass",
    "weights.weyl_dim", "weights.check_triangularity",
    "symfun.universal_P", "symfun.universal_P_kj", "symfun.EPolynomial.evaluate",
    "lambda_rings.check_lambda1", "lambda_rings.check_lambda2",
    "lambda_rings.CheckRecord.to_record", "lambda_rings.element_record",
    "lambda_rings.IntElt", "lambda_rings.GWFieldElt", "lambda_rings.KTorusElt",
    "lambda_rings.KExtElt", "lambda_rings.GWExtElt", "lambda_rings.FreeElt.lambda_t",
    "cli.main",
)

SURFACE_SCRIPT = """
import operator, sys
sys.path.insert(0, %r)
import gwlambda
print(sorted(m for m in sys.modules if m.startswith("gwlambda.")))
print(gwlambda.symfun.universal_P(2).to_text())
try:
    gwlambda.nope
except AttributeError as exc:
    print(exc)
missing = []
for path in %r:
    try:
        operator.attrgetter(path)(gwlambda)
    except AttributeError:
        missing.append(path)
print(missing)
"""


def test_import_loads_only_the_field_form_and_weight_layers():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = SURFACE_SCRIPT % (src, BENCH_ATTRIBUTES)
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    loaded, poly, no_such_name, missing = out.stdout.splitlines()
    assert loaded == str(
        ["gwlambda.errors", "gwlambda.fields", "gwlambda.forms", "gwlambda.weights"]
    )
    assert poly == symfun.universal_P(2).to_text()
    assert no_such_name == "module 'gwlambda' has no attribute 'nope'"
    assert missing == "[]"


def _broken_witness(monkeypatch):
    # The witness's final check reads no entry as zero.
    monkeypatch.setattr(cli.forms_mod, "_is_zero", lambda field, m: False)
    return "hyperbolic witness failed verification"


def _broken_pairing(monkeypatch):
    # Every pairing off by one: the product formula no longer divides.
    monkeypatch.setattr(cli.weights, "_pairing", lambda u, v: 1 + sum(a * b for a, b in zip(u, v)))
    return "dimension formula must produce an integer"


@pytest.mark.parametrize(
    "argv, broken",
    [
        (["forms", "hyperbolic-witness", "--in", "{form}"], _broken_witness),
        (["char", "--type", "B", "--n", "2", "--hw", "1,0"], _broken_pairing),
    ],
    ids=["witness", "dimension"],
)
def test_internal_error_exits_3(capsys, monkeypatch, tmp_path, argv, broken):
    # A failed exactness or verification check is a fault of the program:
    # one "internal error:" line and exit 3, never exit 1 (an identity failed).
    form = write_json(tmp_path / "form.json", {"field": "qc", "gram": [["1", "0"], ["0", "2"]]})
    message = broken(monkeypatch)
    assert cli.main([arg.format(form=form) for arg in argv]) == 3
    assert capsys.readouterr() == ("", "internal error: %s\n" % message)
