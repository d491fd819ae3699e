"""Fuzzing the input boundary: record parsers and ``cli.main`` on JSON files.

Whatever a record or a file holds, only ``FormatError``/``DomainError`` may
leave a parser, and ``cli.main`` must answer with exit code 0, 1 or 2 and
no traceback; exit 2 comes with one ``error:`` line.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwlambda import cli
from gwlambda.errors import DomainError
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
