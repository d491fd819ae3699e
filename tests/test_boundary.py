"""Fuzzing the input boundary: record parsers and ``cli.main`` on JSON files.

Whatever a record or a file holds, only ``FormatError``/``DomainError`` may
leave a parser, and ``cli.main`` must answer with exit code 0, 1 or 2 and
no traceback; exit 2 comes with one ``error:`` line.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwlambda import cli
from gwlambda.errors import DomainError
from gwlambda.fields import _is_prime
from gwlambda.forms import load_form, parse_form
from gwlambda.lambda_rings import MAX_SWEEP, load_constants, load_element, parse_element

from weight_helpers import parse_char

# Integers stay small where they may size something (a torus rank, a
# field modulus): the boundary is about types and shapes, not about
# resources.
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

FIELD_SPECS = ("qc", "rc", "fq:3", "fq:5", "fq:7", "fq:4", "fq:1", "fq:", "fq:x", "zz")
field_specs = st.sampled_from(FIELD_SPECS) | json_values
entries = st.sampled_from(("1", "2", "-1", "3/2", "0", "1/0", "x", "")) | json_values
gw_coeffs = st.fixed_dictionaries(
    {
        "pos": st.lists(entries, max_size=3) | json_values,
        "neg": st.lists(entries, max_size=3) | json_values,
    }
)
bases = st.sampled_from(
    ("one", "delta", "pair:1", "pair:-1", "pair:0", "pair:1,2", "pair:", "wt:0", "wt:1", "wt:1,0", "wt:")
) | json_values
terms = st.fixed_dictionaries(
    {"basis": bases, "coeff": st.integers(-3, 3) | gw_coeffs | json_values}
)
element_records = st.fixed_dictionaries(
    {
        "ring": st.sampled_from(
            ("integers", "gw-field", "k-torus", "k-ext-torus", "gw-ext-torus", "other")
        )
        | json_values,
        "rank_r": st.integers(-1, 3) | json_values,
        "field": field_specs,
        "terms": st.lists(terms, max_size=3) | json_values,
    }
)
form_records = st.fixed_dictionaries(
    {
        "field": field_specs,
        "gram": st.lists(st.lists(entries, max_size=3), max_size=3) | json_values,
    }
)
char_records = st.fixed_dictionaries(
    {
        "n": st.integers(-1, 3) | json_values,
        "terms": st.lists(
            st.fixed_dictionaries(
                {
                    "weight": st.lists(st.integers(-3, 3) | json_values, max_size=3)
                    | json_values,
                    "mult": st.integers(-3, 3) | json_values,
                }
            ),
            max_size=3,
        )
        | json_values,
    }
)
constants_records = st.dictionaries(
    st.sampled_from(("delta_delta", "delta_pair", "lambda2_pair", "pair_zero_scale", "other")),
    st.sampled_from(("one", "delta", "pair", "zero", 2, -1, 0)) | json_values,
    max_size=4,
)
records = element_records | form_records | char_records | constants_records | json_values


def only_domain_errors(fn, *args):
    try:
        fn(*args)
    except DomainError:
        pass


def write_file(directory, content):
    path = os.path.join(directory, "input.json")
    data = content if isinstance(content, bytes) else json.dumps(content).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return path


@settings(max_examples=300, deadline=None)
@given(element_records | json_values)
def test_parse_element_raises_only_domain_errors(record):
    only_domain_errors(parse_element, record)


@settings(max_examples=200, deadline=None)
@given(form_records | json_values)
def test_parse_form_raises_only_domain_errors(record):
    only_domain_errors(parse_form, record)


@settings(max_examples=200, deadline=None)
@given(char_records | json_values)
def test_parse_char_raises_only_domain_errors(record):
    only_domain_errors(parse_char, record)


@settings(max_examples=200, deadline=None)
@given(constants_records | json_values | st.binary(max_size=20))
def test_load_constants_raises_only_domain_errors(content):
    with tempfile.TemporaryDirectory() as tmp:
        only_domain_errors(load_constants, write_file(tmp, content))


# Each command reads the fuzzed file; --kmax stays small so that a large
# augmentation cannot ask for a large universal table.
COMMANDS = (
    ("check", "--x-file", "{f}", "--j", "1", "--kmax", "2", "--format", "records"),
    ("check", "--x-file", "{f}", "--y-file", "{f}", "--kmax", "2"),
    ("check", "--sweep", "--ring", "gw-ext-torus", "--field", "qc", "--bound", "0",
     "--kmax", "1", "--constants", "{f}"),
    ("forms", "class", "--in", "{f}", "--format", "records"),
    ("forms", "exterior", "--in", "{f}", "--k", "2"),
)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(COMMANDS), records | st.binary(max_size=20))
def test_main_on_a_fuzzed_file_keeps_the_exit_code_contract(command, content):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_file(tmp, content)
        code, err = run_main([arg.format(f=path) for arg in command])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error:")
    assert "Traceback" not in err


# Files that json.load rejects with something other than JSONDecodeError.
BAD_FILES = {
    "not-utf-8": b'{"ring": "\xff"}',
    "too-deep": b"[" * 100000 + b"]" * 100000,
    "too-many-digits": b'{"n": ' + b"7" * 5000 + b"}",
}


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_unreadable_json_is_a_format_error(tmp_path, name):
    path = write_file(str(tmp_path), BAD_FILES[name])
    for load in (load_element, load_form, load_constants):
        with pytest.raises(DomainError, match="invalid JSON"):
            load(path)
    for command in COMMANDS:
        code, err = run_main([arg.format(f=path) for arg in command])
        assert code == 2
        assert err.startswith("error:") and "invalid JSON" in err


def test_negative_jmax_is_bad_input():
    sweep = ["check", "--sweep", "--ring", "k-torus", "--format", "records"]
    code, err = run_main(sweep + ["--jmax", "-1"])
    assert code == 2
    assert err.startswith("error:") and "--jmax" in err
    # 0 is valid and means no composition checks.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(sweep + ["--jmax", "0"]) == 0
    checks = {json.loads(line)["check"] for line in out.getvalue().splitlines()}
    assert checks == {"lambda1"}


# Sweeps just over the element cap, and one that asks for 40,401 weights
# and about 816 million checks.  Each case runs in a child under a time
# limit, so an unrefused sweep fails rather than hangs.
OVERSIZED_SWEEPS = {
    "integers": (("--ring", "integers", "--bound", str(MAX_SWEEP // 2)), MAX_SWEEP + 1),
    "k-torus-r1": (("--ring", "k-torus", "--bound", str(MAX_SWEEP // 2)), MAX_SWEEP + 1),
    "k-ext-torus-r1": (("--ring", "k-ext-torus", "--bound", str(MAX_SWEEP - 1)), MAX_SWEEP + 1),
    "gw-ext-torus-r1": (
        ("--ring", "gw-ext-torus", "--field", "rc", "--bound", str(MAX_SWEEP - 1)),
        MAX_SWEEP + 1,
    ),
    "k-torus-r2-bound100": (
        ("--ring", "k-torus", "--r", "2", "--bound", "100", "--kmax", "1", "--jmax", "0"),
        201**2,
    ),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED_SWEEPS))
def test_sweep_over_the_element_cap_is_refused_at_once(name):
    flags, count = OVERSIZED_SWEEPS[name]
    argv = [sys.executable, "-m", "gwlambda", "check", "--sweep", "--format", "records", *flags]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: the sweep has %d elements; sweeps take up to %d\n" % (
        count,
        MAX_SWEEP,
    )


def test_sweep_at_the_element_cap_runs():
    sweep = ["check", "--sweep", "--ring", "k-ext-torus", "--bound", str(MAX_SWEEP - 2)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(sweep + ["--kmax", "1", "--jmax", "0", "--format", "records"]) == 0
    assert len(out.getvalue().splitlines()) == MAX_SWEEP * (MAX_SWEEP + 1) // 2


# Two operand modes at once, or --j with a sweep: the run would take one
# mode and ignore the other flags.
MIXED_MODES = {
    "files-and-sweep": ("--x-file", "{f}", "--y-file", "{f}", "--sweep", "--ring", "k-torus"),
    "inline-and-file": ("--ring", "integers", "--x", "2", "--x-file", "{missing}"),
    "sweep-and-file": ("--sweep", "--ring", "integers", "--y-file", "{missing}"),
    "sweep-and-j": ("--sweep", "--ring", "integers", "--j", "3"),
}


@pytest.mark.parametrize("name", sorted(MIXED_MODES))
def test_mixed_operand_modes_are_bad_input(tmp_path, name):
    element = {"ring": "k-torus", "rank_r": 1, "terms": [{"basis": "wt:1", "coeff": 1}]}
    path = write_file(str(tmp_path), element)
    missing = str(tmp_path / "missing.json")
    argv = ["check", "--kmax", "2"]
    argv += [arg.format(f=path, missing=missing) for arg in MIXED_MODES[name]]
    code, err = run_main(argv)
    assert code == 2
    assert err.startswith("error:") and "operand" in err


# A flag that the operand mode, the sweep's ring or the forms action does not
# read: each of these runs ignored it and exited 0.  Now the run exits 2 and
# names the flag (the first one, in the order of the command's options).
UNREAD_FLAGS = {
    "inline-and-sweep-flags": (
        ("check", "--ring", "integers", "--x", "2", "--y", "3", "--kmax", "2",
         "--bound", "7", "--r", "5", "--jmax", "9", "--field", "zz"),
        "--field",
    ),
    "inline-and-constants": (
        ("check", "--ring", "integers", "--x", "2", "--constants", "{c}"), "--constants"
    ),
    "file-and-ring-flags": (
        ("check", "--x-file", "{f}", "--ring", "integers", "--r", "3", "--field", "qc",
         "--bound", "4", "--j", "1"),
        "--ring",
    ),
    "file-and-jmax": (("check", "--x-file", "{f}", "--j", "1", "--jmax", "3"), "--jmax"),
    "k-ext-file-and-constants": (
        ("check", "--x-file", "{f}", "--j", "1", "--constants", "{c}"), "--constants"
    ),
    "integers-sweep-and-field": (
        ("check", "--sweep", "--ring", "integers", "--field", "qc", "--r", "3"), "--field"
    ),
    "gw-field-sweep-and-rank": (
        ("check", "--sweep", "--ring", "gw-field", "--field", "qc", "--r", "1"), "--r"
    ),
    # A gw-field sweep lists the square classes, whatever the bound.
    "gw-field-sweep-and-bound": (
        ("check", "--sweep", "--ring", "gw-field", "--field", "qc", "--bound", "7",
         "--kmax", "1", "--jmax", "0"),
        "--bound",
    ),
    "k-ext-sweep-and-constants": (
        ("check", "--sweep", "--ring", "k-ext-torus", "--bound", "1", "--kmax", "2",
         "--constants", "{c}"),
        "--constants",
    ),
    "forms-class-and-k": (("forms", "class", "--in", "{form}", "--k", "3"), "--k"),
    "forms-exterior-and-field": (
        ("forms", "exterior", "--in", "{form}", "--k", "1", "--field", "rc"), "--field"
    ),
    "forms-hyperbolic-and-in": (
        ("forms", "hyperbolic", "--n", "2", "--field", "qc", "--in", "{form}"), "--in"
    ),
}


@pytest.mark.parametrize("name", sorted(UNREAD_FLAGS))
def test_unread_flags_are_bad_input(tmp_path, name):
    element = {"ring": "k-ext-torus", "rank_r": 1, "terms": [{"basis": "pair:1", "coeff": 1}]}
    paths = {
        "f": write_file(str(tmp_path), element),
        "c": str(tmp_path / "constants.json"),
        "form": str(tmp_path / "form.json"),
    }
    with open(paths["c"], "w") as fh:
        json.dump({"lambda2_pair": "one"}, fh)
    with open(paths["form"], "w") as fh:
        json.dump({"field": "qc", "gram": [["1", "0"], ["0", "2"]]}, fh)
    argv, flag = UNREAD_FLAGS[name]
    code, err = run_main([arg.format(**paths) for arg in argv])
    assert code == 2
    assert err.startswith("error:") and err.endswith(" does not read %s\n" % flag)


# Inputs of a few bytes that ask for hours of work or gigabytes: each cap is
# checked before the work it bounds, so the run exits 2 at once, with one
# error line that names the cap and nothing on stdout.
HUGE = {
    "huge-coefficient.json": {
        "ring": "k-ext-torus", "rank_r": 1, "terms": [{"basis": "pair:1", "coeff": 10**9}],
    },
    "form-20.json": {
        "field": "qc",
        "gram": [[str(i + 1) if i == j else "0" for j in range(20)] for i in range(20)],
    },
}

REFUSALS = {
    "poly-k13": (("poly", "--k", "13"), "12"),
    "poly-k60": (("poly", "--k", "60"), "12"),
    "poly-k4-j4": (("poly", "--k", "4", "--j", "4"), "12"),
    "char-top-entry": (("char", "--type", "B", "--n", "4", "--hw", "40,40,40,40"), "20"),
    "char-rank-9": (("char", "--type", "D", "--n", "9", "--hw", "1,0,0,0,0,0,0,0,0"), "8"),
    "check-coefficient": (
        ("check", "--x-file", "huge-coefficient.json", "--j", "1", "--kmax", "2"), "256"
    ),
    "forms-hyperbolic": (("forms", "hyperbolic", "--n", "1000000", "--field", "qc"), "256"),
    "forms-exterior": (("forms", "exterior", "--in", "form-20.json", "--k", "10"), "252"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_oversized_work_is_refused_at_once(tmp_path, name):
    for file, record in HUGE.items():
        (tmp_path / file).write_text(json.dumps(record))
    argv, cap = REFUSALS[name]
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "gwlambda", *argv],
        capture_output=True, text=True, timeout=10, cwd=tmp_path,
    )
    elapsed = time.perf_counter() - start
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert " %s" % cap in out.stderr
    assert elapsed < 1.0


# Numbers read from outside past 2**63, and rational entries in exponent
# notation.  Each of these ran into arithmetic and ended in a traceback
# (exit 1) or did not end: itertools.repeat overflowed a C size, a
# binomial looped 2**63 times, or a message, a record or an entry crossed
# Python's 4,300-digit limit on int-to-str conversion ("1e20000000" first
# spent 21 s expanding).  Forms read from a Gram matrix
# past MAX_FORM_DIM or MAX_FORM_BITS ran for minutes, and a sub-Lagrangian
# basis past MAX_FORM_BITS could print an entry past that limit.  Now each exits 2 at
# once, with one error line that names the flag, field or entry, and nothing
# on stdout.
DIGITS = "9" * 2200


def _dense_gram(n):
    """A seeded symmetric rc Gram matrix of dimension n, entries in -9..9."""
    rng = random.Random(n)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = str(rng.randint(-9, 9))
    return rows


def _prime_denominators(count):
    """``count`` distinct primes of 61 bits."""
    primes, p = [], 2**60 + 1
    while len(primes) < count:
        if _is_prime(p):
            primes.append(p)
        p += 2
    return primes


def _primes_gram():
    """A 10-dimensional rc form whose 55 entries have distinct 61-bit
    prime denominators: its lifted d has about 3,400 bits."""
    primes = iter(_prime_denominators(55))
    rows = [[None] * 10 for _ in range(10)]
    for i in range(10):
        for j in range(i, 10):
            rows[i][j] = rows[j][i] = "1/%d" % next(primes)
    return rows


OUTSIDE_FILES = {
    "ext-2pow63.json": lambda: {
        "ring": "k-ext-torus", "rank_r": 1, "terms": [{"basis": "pair:1", "coeff": 2**63}],
    },
    "torus-digits.json": lambda: {
        "ring": "k-torus", "rank_r": 1, "terms": [{"basis": "wt:1", "coeff": int(DIGITS)}],
    },
    "ext-lines.json": lambda: {
        "ring": "k-ext-torus", "rank_r": 1,
        "terms": [{"basis": "one", "coeff": 2**62}, {"basis": "delta", "coeff": 2**62}],
    },
    "ext-pair.json": lambda: {
        "ring": "k-ext-torus", "rank_r": 1, "terms": [{"basis": "pair:1", "coeff": 1}],
    },
    "gram-1e5000.json": lambda: {"field": "rc", "gram": [["1e5000"]]},
    "gram-1e20000000.json": lambda: {"field": "rc", "gram": [["1e20000000"]]},
    "dense-64.json": lambda: {"field": "rc", "gram": _dense_gram(64)},
    "dense-128.json": lambda: {"field": "rc", "gram": _dense_gram(128)},
    "dense-256.json": lambda: {"field": "rc", "gram": _dense_gram(256)},
    "dense-400.json": lambda: {"field": "rc", "gram": _dense_gram(400)},
    "primes-10.json": lambda: {"field": "rc", "gram": _primes_gram()},
    "hyperbolic-3.json": lambda: {
        "field": "rc", "gram": [["1" if abs(i - j) == 3 else "0" for j in range(6)] for i in range(6)],
    },
}

OUTSIDE = {
    "ext-coefficient-2pow63": (
        ("check", "--x-file", "ext-2pow63.json", "--j", "1", "--kmax", "2"), "terms[0].coeff"
    ),
    "torus-coefficient-product": (
        ("check", "--x-file", "torus-digits.json", "--y-file", "torus-digits.json"),
        "terms[0].coeff",
    ),
    "torus-coefficient-j2": (("check", "--x-file", "torus-digits.json", "--j", "2"), "terms[0].coeff"),
    "torus-coefficient-records": (
        ("check", "--x-file", "torus-digits.json", "--j", "1", "--kmax", "2",
         "--format", "records"),
        "terms[0].coeff",
    ),
    # Each operand is within the bound; their product has 2**63 on [e^1].
    "ext-product-coefficient": (
        ("check", "--x-file", "ext-lines.json", "--y-file", "ext-pair.json", "--kmax", "2"),
        "256 line factors",
    ),
    # C(-3, j) looped j times before math.comb.
    "inline-j": (("check", "--ring", "integers", "--x", "-3", "--j", str(2**63 - 1)), "kmax*j"),
    "sweep-bound": (
        ("check", "--sweep", "--ring", "k-torus", "--r", "3", "--bound", "9" * 2000), "--bound"
    ),
    "inline-product": (("check", "--ring", "integers", "--x", DIGITS, "--y", DIGITS), "--x"),
    "inline-records": (
        ("check", "--ring", "integers", "--x", DIGITS, "--y", "1", "--kmax", "2",
         "--format", "records"),
        "--x",
    ),
    "hw-entry": (("char", "--type", "B", "--n", "2", "--hw", DIGITS + ",0"), "--hw"),
    "gram-1e5000": (("forms", "exterior", "--in", "gram-1e5000.json", "--k", "1"), "'1e5000'"),
    "gram-1e20000000": (
        ("forms", "exterior", "--in", "gram-1e20000000.json", "--k", "1"), "'1e20000000'"
    ),
    "class-128": (("forms", "class", "--in", "dense-128.json"), "dimension 128"),
    "class-256": (("forms", "class", "--in", "dense-256.json"), "dimension 256"),
    "class-400": (("forms", "class", "--in", "dense-400.json"), "dimension 400"),
    "witness-64": (("forms", "hyperbolic-witness", "--in", "dense-64.json"), "dimension 64"),
    "witness-128": (("forms", "hyperbolic-witness", "--in", "dense-128.json"), "dimension 128"),
    "witness-256": (("forms", "hyperbolic-witness", "--in", "dense-256.json"), "dimension 256"),
    "witness-prime-denominators": (
        ("forms", "hyperbolic-witness", "--in", "primes-10.json"), "-bit entries"
    ),
    # An isotropic vector whose reduced form has an entry of 4,403 digits.
    "reduce-vector": (
        ("forms", "reduce", "--in", "hyperbolic-3.json", "--vectors",
         "1/%s,-1,-1,%s,0,1" % (DIGITS, DIGITS)),
        "sub-Lagrangian basis",
    ),
}


@pytest.mark.parametrize("name", sorted(OUTSIDE))
def test_numbers_from_outside_are_refused_at_once(tmp_path, name):
    argv, named = OUTSIDE[name]
    for file, record in OUTSIDE_FILES.items():
        if file in argv:
            (tmp_path / file).write_text(json.dumps(record()))
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "gwlambda", *argv],
        capture_output=True, text=True, timeout=10, cwd=tmp_path,
    )
    elapsed = time.perf_counter() - start
    assert (out.returncode, out.stdout) == (2, "")
    # A flag that argparse refuses is one error: line, as every refusal is.
    lines = out.stderr.splitlines()
    assert [line for line in lines if "error:" in line] == lines[-1:]
    assert named in lines[-1] and "Traceback" not in out.stderr
    assert elapsed < 1.0
