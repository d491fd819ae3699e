"""A behaviour corpus: one sha256 of (exit code, stdout, stderr) per fixed argv.

``tests/corpus.json`` maps each argv, joined by single spaces, to the digest
of ``[exit code, stdout, stderr]`` as a JSON list.  The runs cover every
sweep ring over the five model fields, inline checks, element files (virtual
elements, corrupted constants and malformed files among them), ``poly``,
``char`` and every ``forms`` action, runs at and over the work caps, and
command lines refused while parsing.
Each run is ``cli.main`` in this process, in a directory where
``write_inputs`` put the files that the argv name by relative path, so no
digest depends on where the files are.

Beside the digests, every corrupted constants file is swept over every model
field, and the exit code is pinned from the square class of its scale.

A change that alters output regenerates the file in its own commit, and
CHANGES.md lists the argv that changed, as the writer prints them:

    PYTHONPATH=src python tests/test_corpus.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from gwlambda import cli
from gwlambda.fields import field_model
from gwlambda.lambda_rings import ExtTorusConstants, GWExtTorusRing

from test_adams import failures as adams_failures

CORPUS = Path(__file__).with_name("corpus.json")

FIELDS = ("qc", "rc", "fq:3", "fq:5", "fq:7")
FORMATS = ("records", "human")


def _gw(pos=(), neg=()):
    return {"pos": list(pos), "neg": list(neg)}


def _elt(ring, r, field, terms):
    return {
        "ring": ring, "rank_r": r, "field": field,
        "terms": [{"basis": b, "coeff": c} for b, c in terms],
    }


# Element files: an x and a y per ring, every one with a negative term, so
# the lambda-series go through truncated inversion.  The entries 1, 2 and -1
# are nonzero in every model field.
ELEMENTS = {
    "int": (
        _elt("integers", None, None, [("one", 3)]),
        _elt("integers", None, None, [("one", -2)]),
    ),
    "kt": (
        _elt("k-torus", 2, None, [("wt:1,0", 1), ("wt:0,-1", 2), ("wt:0,0", -1)]),
        _elt("k-torus", 2, None, [("wt:1,1", 1), ("wt:-1,0", -1)]),
    ),
    "kext": (
        _elt("k-ext-torus", 1, None, [("pair:1", 1), ("delta", 1), ("one", -1)]),
        _elt("k-ext-torus", 1, None, [("pair:2", 2), ("one", -1)]),
    ),
}
for _field in FIELDS:
    _tag = _field.replace(":", "")
    ELEMENTS["gw-" + _tag] = (
        _elt("gw-field", None, _field, [("one", _gw(["1", "2"], ["-1"]))]),
        _elt("gw-field", None, _field, [("one", _gw(["2", "2"], ["1"]))]),
    )
    ELEMENTS["gwext-" + _tag] = (
        _elt("gw-ext-torus", 1, _field, [
            ("pair:1", _gw(["1"], ["-1"])), ("delta", _gw(["2"])), ("one", _gw([], ["1"])),
        ]),
        _elt("gw-ext-torus", 1, _field, [("pair:2", _gw(["-1", "2"])), ("delta", _gw([], ["1"]))]),
    )

# Structure constants: the true ones written out, and corrupted tables.
CONSTANTS = {
    "true": {"delta_delta": "one", "delta_pair": "pair", "lambda2_pair": "delta",
             "pair_zero_scale": 2},
    "l2-one": {"lambda2_pair": "one"},
    "l2-zero": {"lambda2_pair": "zero"},
    "dd-delta": {"delta_delta": "delta"},
    "scale-1": {"pair_zero_scale": 1},
    "scale-3": {"pair_zero_scale": 3},
    "scale-m1": {"pair_zero_scale": -1},
}

# Gram matrices: two with fractions and zero diagonal entries, each with an
# isotropic basis for ``reduce``, and one diagonal.
FORMS = {
    "zp3": ([["1/2", "0", "3"], ["0", "0", "-2/3"], ["3", "-2/3", "5"]], "0,1,0"),
    "hyp4": (
        [["0", "1/2", "2", "0"], ["1/2", "0", "0", "-3"],
         ["2", "0", "0", "1"], ["0", "-3", "1", "0"]],
        "1,0,0,0;0,0,0,1",
    ),
    "diag5": ([[str(v) if i == j else "0" for j in range(5)] for i, v in
               enumerate((1, 2, -1, 2, 1))], "1,0,1,0,0"),
}

# Files that no parser accepts, and elements that no ring accepts.
BAD_FILES = {
    "bad-json.json": b"{\"ring\": ",
    "bad-utf8.json": b"{\"ring\": \"\xff\"}",
    "bad-list.json": b"[1, 2]",
    "bad-tag.json": json.dumps(_elt("other", None, None, [])).encode(),
    "bad-coeff.json": json.dumps(_elt("integers", None, None, [("one", "3")])).encode(),
    "bad-basis.json": json.dumps(_elt("k-torus", 1, None, [("wt:1,2", 1)])).encode(),
    "bad-rank.json": json.dumps(_elt("k-torus", 9, None, [("wt:1", 1)])).encode(),
    "bad-entry.json": json.dumps(_elt("gw-field", None, "fq:5", [("one", _gw(["5"]))])).encode(),
    "bad-field.json": json.dumps(_elt("gw-field", None, "fq:4", [])).encode(),
    "bad-constants.json": json.dumps({"lambda2_pair": "two"}).encode(),
    "bad-scale.json": json.dumps({"pair_zero_scale": 0}).encode(),
    "bad-form.json": json.dumps({"field": "qc", "gram": [["1", "2"], ["3", "4"]]}).encode(),
    "singular-form.json": json.dumps({"field": "qc", "gram": [["1", "1"], ["1", "1"]]}).encode(),
    "bad-wt.json": json.dumps(_elt("k-torus", 1, None, [("wt:a", 1)])).encode(),
    "bad-wt-rank.json": json.dumps(_elt("k-torus", 2, None, [("wt:1", 1)])).encode(),
    "bad-torus-one.json": json.dumps(_elt("k-torus", 1, None, [("one", 1)])).encode(),
    "bad-pair.json": json.dumps(_elt("k-ext-torus", 1, None, [("pair:x", 1)])).encode(),
    "bad-pair-rank.json": json.dumps(_elt("k-ext-torus", 1, None, [("pair:1,2", 1)])).encode(),
    "bad-gw-entry.json": json.dumps(_elt("gw-field", None, "qc", [("one", _gw(["abc"]))])).encode(),
}

# Inputs of a few bytes that ask for more work than a cap allows.
OVERSIZED = {
    "huge-coefficient.json": _elt("k-ext-torus", 1, None, [("pair:1", 10**9)]),
    "form-20.json": {"field": "qc", "gram": [[str(i + 1) if i == j else "0" for j in range(20)]
                                             for i in range(20)]},
}


# A form of dimension 0, which ``GramForm`` allows, and an entry that no
# residue of the field reads.
EDGE_FORMS = {
    "form-0.json": {"field": "qc", "gram": []},
    "bad-residue.json": {"field": "fq:5", "gram": [["1/x"]]},
}


def write_inputs(directory):
    """Write every file that an argv of ``corpus_argv`` names into ``directory``."""
    directory = Path(directory)
    files = {}
    for name, (x, y) in ELEMENTS.items():
        files["x-%s.json" % name] = json.dumps(x)
        files["y-%s.json" % name] = json.dumps(y)
    for name, constants in CONSTANTS.items():
        files["c-%s.json" % name] = json.dumps(constants)
    for name, (gram, _) in FORMS.items():
        for field in FIELDS[1:] if name == "diag5" else FIELDS:
            files["f-%s-%s.json" % (name, field.replace(":", ""))] = json.dumps(
                {"field": field, "gram": gram}
            )
    for name, record in {**OVERSIZED, **EDGE_FORMS}.items():
        files[name] = json.dumps(record)
    for name, text in files.items():
        (directory / name).write_text(text)
    for name, data in BAD_FILES.items():
        (directory / name).write_bytes(data)


def _sweeps():
    sweep = ("check", "--sweep")
    runs = []
    for fmt in FORMATS:
        for bound in ("0", "1", "2"):
            for kmax, jmax in (("4", "2"), ("6", "1"), ("2", "0")):
                runs.append(sweep + ("--ring", "integers", "--bound", bound,
                                     "--kmax", kmax, "--jmax", jmax, "--format", fmt))
        for field in FIELDS:
            for kmax, jmax in (("4", "2"), ("5", "1")):
                runs.append(sweep + ("--ring", "gw-field", "--field", field,
                                     "--kmax", kmax, "--jmax", jmax, "--format", fmt))
        for ring in ("k-torus", "k-ext-torus"):
            for r in ("1", "2"):
                for bound, kmax, jmax in (("1", "4", "2"), ("2", "3", "1")):
                    runs.append(sweep + ("--ring", ring, "--r", r, "--bound", bound,
                                         "--kmax", kmax, "--jmax", jmax, "--format", fmt))
    for field in FIELDS:
        ext = sweep + ("--ring", "gw-ext-torus", "--field", field)
        for r, bound, kmax, jmax in (("1", "1", "4", "2"), ("1", "2", "5", "1"),
                                     ("2", "1", "3", "2"), ("2", "2", "4", "2")):
            runs.append(ext + ("--r", r, "--bound", bound, "--kmax", kmax, "--jmax", jmax,
                               "--format", "records"))
        runs.append(ext + ("--r", "1", "--bound", "1", "--kmax", "4", "--jmax", "2",
                           "--format", "human"))
        for name in CONSTANTS:
            runs.append(ext + ("--kmax", "3", "--constants", "c-%s.json" % name,
                               "--format", "records"))
        runs.append(ext + ("--kmax", "3", "--constants", "c-l2-one.json", "--format", "human"))
    return runs


def _checks():
    runs = []
    for fmt in FORMATS:
        inline = ("check", "--ring", "integers")
        for operands in (("--x", "5", "--y", "-3", "--j", "2", "--kmax", "3"),
                         ("--x", "0", "--y", "7"),
                         ("--x", "-4", "--y", "-4", "--kmax", "5"),
                         ("--x", "2", "--y", "3"),
                         ("--x", "3", "--j", "3", "--kmax", "3"),
                         ("--x", "100000", "--j", "2", "--kmax", "2")):
            runs.append(inline + operands + ("--format", fmt))
        for name in ELEMENTS:
            x, y = "x-%s.json" % name, "y-%s.json" % name
            runs.append(("check", "--x-file", x, "--y-file", y, "--kmax", "3", "--format", fmt))
            runs.append(("check", "--x-file", x, "--j", "2", "--kmax", "3", "--format", fmt))
        for field in ("rc", "fq5"):
            for constants in ("l2-one", "scale-m1"):
                runs.append(("check", "--x-file", "x-gwext-%s.json" % field,
                             "--y-file", "y-gwext-%s.json" % field, "--j", "2", "--kmax", "3",
                             "--constants", "c-%s.json" % constants, "--format", fmt))
    for name in sorted(BAD_FILES):
        runs.append(("check", "--x-file", name, "--j", "1", "--kmax", "2"))
    runs.append(("check", "--x-file", "missing.json", "--j", "1"))
    runs.append(("check", "--x-file", "x-int.json", "--y-file", "x-kt.json", "--kmax", "2"))
    for name in ("bad-constants.json", "bad-scale.json", "missing.json"):
        runs.append(("check", "--sweep", "--ring", "gw-ext-torus", "--field", "qc",
                     "--kmax", "2", "--constants", name))
    runs.append(("check", "--sweep", "--ring", "gw-ext-torus", "--field", "fq:3",
                 "--kmax", "2", "--constants", "c-scale-3.json"))
    runs.append(("check", "--sweep", "--ring", "gw-field", "--kmax", "2"))
    runs.append(("check", "--ring", "k-torus", "--x", "2"))
    runs += [
        ("check", "--sweep", "--ring", "integers", "--bound", "-1"),
        ("check", "--sweep"),
        ("check", "--x-file", "x-int.json"),
        ("check", "--y-file", "y-int.json"),
        ("check", "--x-file", "x-int.json", "--j", "0"),
    ]
    return runs


def _polys():
    runs = []
    for fmt in FORMATS:
        for k in range(1, 9):
            runs.append(("poly", "--k", str(k), "--format", fmt))
        for k, j in ((1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (1, 9)):
            runs.append(("poly", "--k", str(k), "--j", str(j), "--format", fmt))
    runs += [("poly", "--k", str(k)) for k in (9, 10, 11)]
    runs += [("poly", "--k", "0"), ("poly", "--k", "2", "--j", "0")]
    return runs


def _chars():
    weights = {
        ("B", "1"): ("0", "1", "3", "7"),
        ("B", "2"): ("1,0", "1,1", "2,1", "3,2"),
        ("B", "3"): ("1,0,0", "1,1,1", "2,1,0"),
        ("B", "4"): ("1,0,0,0", "1,1,0,0", "2,1,1,0", "2,2,1,1"),
        ("D", "2"): ("1,0", "1,1", "1,-1", "3,2"),
        ("D", "3"): ("1,0,0", "1,1,-1", "2,1,1", "2,2,-2"),
        ("D", "4"): ("1,0,0,0", "1,1,1,-1", "2,1,1,0", "2,2,1,1"),
    }
    runs = []
    for fmt in FORMATS:
        for (kind, n), hws in weights.items():
            for hw in hws:
                runs.append(("char", "--type", kind, "--n", n, "--hw", hw, "--format", fmt))
    runs += [
        ("char", "--type", "B", "--n", "2", "--hw", "0,1"),
        ("char", "--type", "D", "--n", "3", "--hw", "1,0"),
        ("char", "--type", "D", "--n", "1", "--hw", "1"),
        ("char", "--type", "B", "--n", "2", "--hw", "1,x"),
    ]
    return runs


def _forms():
    runs = []
    for fmt in FORMATS:
        for name, (gram, vectors) in FORMS.items():
            for field in FIELDS[1:] if name == "diag5" else FIELDS:
                path = "f-%s-%s.json" % (name, field.replace(":", ""))
                runs += [("forms", "exterior", "--in", path, "--k", str(k), "--format", fmt)
                         for k in range(len(gram) + 1)]
                runs += [
                    ("forms", "class", "--in", path, "--format", fmt),
                    ("forms", "reduce", "--in", path, "--vectors", vectors, "--format", fmt),
                    ("forms", "hyperbolic-witness", "--in", path, "--format", fmt),
                ]
        for field in FIELDS:
            for n in ("1", "3"):
                runs.append(("forms", "hyperbolic", "--n", n, "--field", field, "--format", fmt))
    for name in ("bad-form.json", "singular-form.json", "bad-json.json", "missing.json"):
        runs.append(("forms", "class", "--in", name))
    runs += [
        ("forms", "exterior", "--in", "f-zp3-qc.json", "--k", "4"),
        ("forms", "reduce", "--in", "f-zp3-qc.json", "--vectors", "1,0,0"),
        ("forms", "hyperbolic", "--n", "0", "--field", "qc"),
        ("forms", "hyperbolic", "--n", "2", "--field", "fq:4"),
        ("forms", "hyperbolic", "--n", "2"),
        ("forms", "class"),
        ("forms", "exterior", "--in", "f-zp3-qc.json"),
        ("forms", "reduce", "--in", "f-zp3-qc.json"),
        ("forms", "reduce", "--in", "f-zp3-qc.json", "--vectors", "0,1"),
        ("forms", "hyperbolic-witness", "--in", "form-0.json"),
        ("forms", "class", "--in", "bad-residue.json"),
        ("forms", "class", "--in", "form-0.json"),
        ("forms", "exterior", "--in", "form-0.json", "--k", "0"),
    ]
    return runs


def _caps():
    """Runs at and over the work caps: each over a cap exits 2 at once."""
    return [
        ("poly", "--k", "12"),
        ("poly", "--k", "4", "--j", "3"),
        ("poly", "--k", "6", "--j", "2"),
        ("poly", "--k", "2", "--j", "6"),
        ("poly", "--k", "13"),
        ("poly", "--k", "60"),
        ("poly", "--k", "4", "--j", "4"),
        ("poly", "--k", "1", "--j", "13"),
        ("check", "--ring", "integers", "--x", "3", "--y", "1", "--kmax", "13"),
        ("check", "--ring", "integers", "--x", "1000", "--y", "1000"),
        ("check", "--sweep", "--ring", "integers", "--kmax", "7"),
        ("check", "--sweep", "--ring", "k-torus", "--kmax", "13", "--jmax", "0"),
        ("check", "--x-file", "huge-coefficient.json", "--j", "1", "--kmax", "2"),
        ("char", "--type", "B", "--n", "5", "--hw", "1,1,0,0,0"),
        ("char", "--type", "D", "--n", "8", "--hw", "1,1,1,1,1,1,1,-1"),
        ("char", "--type", "B", "--n", "2", "--hw", "20,20"),
        ("char", "--type", "B", "--n", "4", "--hw", "40,40,40,40"),
        ("char", "--type", "B", "--n", "2", "--hw", "21,0"),
        ("char", "--type", "B", "--n", "4", "--hw", "11,0,0,0"),
        ("char", "--type", "D", "--n", "9", "--hw", "1,0,0,0,0,0,0,0,0"),
        ("forms", "hyperbolic", "--n", "1000000", "--field", "qc"),
        ("forms", "hyperbolic", "--n", "257", "--field", "fq:5"),
        ("forms", "exterior", "--in", "form-20.json", "--k", "10"),
        ("forms", "exterior", "--in", "form-20.json", "--k", "2"),
    ]


def _refused():
    """Command lines refused while parsing, by argparse, by the integer
    bound or for a flag before the command: each exits 2 with one error
    line."""
    return [
        ("poly", "--k", "1", "--frobnicate"),
        ("check", "--ring", "integers", "--x", "2", "--format", "bogus"),
        ("frob",),
        ("check", "--ring", "integers", "--x", "abc"),
        ("check", "--ring", "integers", "--x", str(2**63)),
        ("--kmax", "9"),
        ("--format", "records", "check", "--sweep", "--ring", "integers"),
    ]


def corpus_argv():
    """Every argv of the corpus, in a fixed order."""
    return _sweeps() + _checks() + _polys() + _chars() + _forms() + _caps() + _refused()


def run(argv):
    """The sha256 of [exit code, stdout, stderr] of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_corpus_digests(tmp_path, monkeypatch):
    expected = json.loads(CORPUS.read_text())
    argvs = [" ".join(argv) for argv in corpus_argv()]
    assert sorted(argvs) == sorted(expected), "corpus.json and corpus_argv() list other runs"
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    changed = [argv for argv in argvs if run(argv.split(" ")) != expected[argv]]
    assert not changed, "output changed for:\n" + "\n".join(changed)


@pytest.mark.parametrize("argv", _refused(), ids=" ".join)
def test_refused_command_lines_exit_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(list(argv)) == 2
    assert out.getvalue() == ""
    assert [line[:6] for line in err.getvalue().splitlines()] == ["error:"]


# The corrupted constants, each swept over every model field.
CORRUPTED = tuple(name for name in CONSTANTS if name != "true")


def scale_class(name, spec):
    """For a corrupted pair_zero_scale, "zero" when it is zero in the field,
    "true" in the square class of 2 (the true scale), "other" otherwise; None
    for the other corruptions."""
    scale = CONSTANTS[name].get("pair_zero_scale")
    if scale is None:
        return None
    field = field_model(spec)
    scale = field.from_int(scale)
    if field.is_zero(scale):
        return "zero"
    return "true" if field.square_class(scale) == field.square_class(field.from_int(2)) else "other"


@pytest.mark.parametrize("spec", FIELDS)
@pytest.mark.parametrize("name", CORRUPTED)
def test_corrupted_constants_sweep_verdicts(tmp_path, name, spec):
    # A corrupted lambda2_pair or delta_delta fails the sweep (1), a scale
    # that is zero in the field is refused (2), and a scale in the class of
    # 2 passes (0).  A scale of another class fails over rc and passes over
    # fq, where a consistent wrong scale still defines a lambda-ring (ROADMAP
    # item 5); over qc every scale is in the class of 2.
    kind = scale_class(name, spec)
    verdict = {None: 1, "zero": 2, "true": 0}.get(kind, 1 if spec == "rc" else 0)
    constants = tmp_path / "c.json"
    constants.write_text(json.dumps(CONSTANTS[name]))
    argv = ["check", "--sweep", "--ring", "gw-ext-torus", "--field", spec, "--r", "1",
            "--bound", "2", "--kmax", "4", "--constants", str(constants)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == verdict
    if kind == "other":
        # The Adams-operation check, which uses no table, agrees.
        ring = GWExtTorusRing(1, field_model(spec), ExtTorusConstants(**CONSTANTS[name]))
        assert (adams_failures(ring) > 0) == (verdict == 1)


def test_scales_of_another_class_are_rc_minus_one_and_five_blind_cells():
    other = [(n, s) for n in CORRUPTED for s in FIELDS if scale_class(n, s) == "other"]
    assert other == [("scale-1", "fq:3"), ("scale-1", "fq:5"), ("scale-3", "fq:7"),
                     ("scale-m1", "rc"), ("scale-m1", "fq:5"), ("scale-m1", "fq:7")]


def main():
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_corpus.py --write")
    argvs = corpus_argv()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            digests = {" ".join(argv): run(argv) for argv in argvs}
        finally:
            os.chdir(cwd)
    old = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    counts = {"added": 0, "changed": 0, "dropped": 0}
    for argv in sorted(old.keys() | digests.keys()):
        if argv not in old:
            status = "added"
        elif argv not in digests:
            status = "dropped"
        elif old[argv] != digests[argv]:
            status = "changed"
        else:
            continue
        counts[status] += 1
        print("%s: %s" % (status, argv))
    CORPUS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    summary = ", ".join("%d %s" % (n, s) for s, n in counts.items())
    print("%d digests written to %s: %s" % (len(digests), CORPUS, summary))


if __name__ == "__main__":
    main()
