"""Command-line interface.

Four commands:

* ``poly``  -- print a universal polynomial table entry;
* ``check`` -- run lambda-identity checks on explicit elements or sweeps;
* ``forms`` -- exterior powers, invariants, sub-Lagrangian reduction, and
  the hyperbolic change-of-basis witness for Gram-matrix files;
* ``char``  -- Weyl characters with mass, dimension oracle, and
  triangularity verdict.

``--format records`` emits line-delimited JSON with sorted keys, so equal
inputs produce byte-identical output; ``human`` is a readable rendering of
the same data.  Exit codes: 0 all checks passed, 1 an identity check
failed, 2 usage or input errors, 3 an internal error.
"""

# The layers come before argparse: compiling lambda_rings sets the peak RSS
# of a CLI process, and argparse loaded first raises that peak by 0.3 MB.
from . import forms as forms_mod
from . import lambda_rings as lr
from . import symfun, weights
from .errors import DomainError, _bounded, _ints
from .fields import field_model

import argparse
import json
import sys


def _json_encoder():
    """The function that writes a record as one JSON line, as json.dumps
    with sorted keys and separators (",", ":") writes it.

    JSONEncoder.encode builds a new C encoder on every call, so the C
    encoder is built once here, with that JSONEncoder's options; records
    are fresh acyclic trees, so it skips the cycle bookkeeping.  Without
    the C module, the function is JSONEncoder.encode.
    """
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
    if json.encoder.c_make_encoder is None:
        return encoder.encode
    chunks = json.encoder.c_make_encoder(
        None, encoder.default, json.encoder.encode_basestring_ascii, None, ":", ",",
        True, False, True,
    )
    return lambda record: "".join(chunks(record, 0))


_json_line = _json_encoder()


# The rings a sweep runs on, each with the flags it reads beside --ring,
# --kmax and --jmax (a gw-field sweep lists every square class, so it has
# no --bound); the forms actions, each with the flags it reads.
_RING_FLAGS = {
    "integers": ("bound",),
    "gw-field": ("field",),
    "k-torus": ("bound", "r"),
    "k-ext-torus": ("bound", "r"),
    "gw-ext-torus": ("bound", "r", "field", "constants"),
}
_FORMS_FLAGS = {
    "exterior": ("infile", "k"),
    "class": ("infile",),
    "reduce": ("infile", "vectors"),
    "hyperbolic-witness": ("infile",),
    "hyperbolic": ("n", "field"),
}


class _Parser(argparse.ArgumentParser):
    """A parser that refuses a bad command line with ``DomainError``, so that
    ``main`` reports it as it reports every other bad input."""

    def error(self, message):
        raise DomainError(message)


def _flag(dest):
    """The flag on the command line of the argparse ``dest``."""
    return "--in" if dest == "infile" else "--" + dest.replace("_", "-")


def _common_flags(sub):
    sub.add_argument(
        "--format",
        choices=("human", "records"),
        default="human",
        help="output style: readable text or line-delimited JSON",
    )
    sub.add_argument("--out", help="write output to this file instead of stdout")


def _poly_flags(poly):
    poly.add_argument("--k", type=int, required=True, help="outer lambda index")
    poly.add_argument("--j", type=int, default=None, help="inner index for the composition table")


def _check_flags(check):
    check.add_argument(
        "--ring",
        choices=tuple(_RING_FLAGS),
        help="ring for sweep mode (element files carry their own ring)",
    )
    check.add_argument("--field", help="field spec qc, rc, or fq:<q>")
    check.add_argument("--r", type=int, help="torus rank (default 1)")
    check.add_argument("--kmax", type=int, default=None, help="largest outer index")
    check.add_argument(
        "--jmax",
        type=int,
        help="largest inner index in sweeps (default 2); 0 means no composition checks",
    )
    check.add_argument("--sweep", action="store_true", help="enumerate basis elements")
    check.add_argument("--bound", type=int, help="coordinate bound for sweeps (default 1)")
    check.add_argument("--x-file", help="element record for the first operand")
    check.add_argument("--y-file", help="element record for the second operand")
    check.add_argument("--x", type=int, help="inline integer operand (ring integers)")
    check.add_argument("--y", type=int, help="inline integer operand (ring integers)")
    check.add_argument(
        "--j", type=int, default=None, help="inner index for a targeted composition check"
    )
    check.add_argument(
        "--constants", help="JSON file overriding the extension structure constants"
    )


def _forms_flags(forms):
    forms.add_argument("action", choices=tuple(_FORMS_FLAGS))
    forms.add_argument("--in", dest="infile", help="form record (JSON)")
    forms.add_argument("--k", type=int, default=None, help="exterior power index")
    forms.add_argument(
        "--vectors", help="sub-Lagrangian basis: rows 'a,b,...' joined by ';'"
    )
    forms.add_argument("--n", type=int, default=None, help="hyperbolic rank")
    forms.add_argument("--field", help="field spec for generated forms")


def _char_flags(char):
    char.add_argument("--type", dest="flavor", choices=("B", "D"), required=True)
    char.add_argument("--n", type=int, required=True, help="rank")
    char.add_argument("--hw", required=True, help="highest weight 'c1,c2,...'")


def build_parser(command):
    """The parser of every command, where only ``command`` declares its
    flags: a run parses the flags of one command, and the others keep their
    name and help."""
    parser = _Parser(
        prog="gwlambda",
        description="Exact lambda-ring computations on forms, characters, and weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, flags, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text)
        if name == command:
            flags(cmd)
            _common_flags(cmd)
    return parser


def _write(args, emit, records, lines):
    """Emit the records as JSON lines, or the human lines, as --format asks."""
    for line in map(_json_line, records) if args.format == "records" else lines:
        emit(line)


def _matrix_lines(rows):
    """Human rendering of a matrix of element strings, one row a line."""
    return ["[%s]" % ", ".join(row) for row in rows]


# ---------------------------------------------------------------------------
# poly


def _cmd_poly(args, emit):
    if args.k < 1:
        raise DomainError("--k must be >= 1")
    if args.j is None:
        poly = symfun.universal_P(args.k)
    else:
        if args.j < 1:
            raise DomainError("--j must be >= 1")
        poly = symfun.universal_P_kj(args.k, args.j)
    text = poly.to_text()
    _write(args, emit, [{"k": args.k, "j": args.j, "poly": text}], [text])
    return 0


# ---------------------------------------------------------------------------
# check


def _refuse_unread(args, what, *read):
    """Exit 2 on a flag given on the command line that this run does not read."""
    for dest, value in vars(args).items():
        given = value is not None and value is not False
        if given and dest not in read + ("command", "action", "format", "out"):
            raise DomainError("%s does not read %s" % (what, _flag(dest)))


def _sweep_elements(args):
    """Deterministic list of (name, element) basis pairs for the ring."""
    ring_tag = args.ring
    bound = 1 if args.bound is None else args.bound
    r = 1 if args.r is None else args.r
    if bound < 0:
        raise DomainError("--bound must be >= 0")
    if ring_tag == "integers":
        lr._checked_sweep(2 * bound + 1)
        ring = lr.IntegerRing()
        return [(str(n), n * ring.one) for n in range(-bound, bound + 1)]
    if ring_tag == "gw-field":
        field = _require_field(args)
        ring = lr.GWFieldRing(field)
        reps = [field.one] + [a for a in field.square_classes if a != field.one]
        return [("<%s>" % field.to_str(a), ring.diag([a])) for a in reps]
    if ring_tag == "k-torus":
        ring = lr.KTorusRing(r)
    elif ring_tag == "k-ext-torus":
        ring = lr.KExtTorusRing(r)
    else:
        ring = lr.GWExtTorusRing(r, _require_field(args), _constants(args))
    # The ring has refused a rank above MAX_RANK, so the count is small to
    # compute; it is refused before any weight is listed.
    lr._checked_sweep(ring.basis.count(r, bound))
    symbols = ring.basis_symbols(bound)
    if ring_tag == "k-torus":
        return [(lr.element_str(x), x) for x in map(ring.line, symbols)]
    return [(ring.basis.record(b), ring.basis_elt(b)) for b in symbols]


def _require_field(args):
    if not args.field:
        raise DomainError("--field is required for this ring")
    return field_model(args.field)


def _constants(args):
    return lr.load_constants(args.constants) if args.constants else lr.DEFAULT_CONSTANTS


def _reports(args):
    """Run the checks of the one operand mode, yielding (report, x name, y name)."""
    inline = args.x is not None or args.y is not None
    if inline + bool(args.x_file or args.y_file) + args.sweep > 1:
        raise DomainError("give one operand mode: --x/--y, --x-file/--y-file or --sweep")
    if args.sweep and args.j is not None:
        raise DomainError("--j is for one operand; a sweep takes --jmax")
    if args.sweep:
        if args.ring is None:
            raise DomainError("--sweep requires --ring")
        flags = ("sweep", "ring", "kmax", "jmax") + _RING_FLAGS[args.ring]
        _refuse_unread(args, "check --sweep --ring " + args.ring, *flags)
        kmax = 4 if args.kmax is None else args.kmax
        jmax = 2 if args.jmax is None else args.jmax
        if jmax < 0:
            raise DomainError("--jmax must be >= 0")
        # Refuse the largest table of the sweep before the first check runs.
        lr._checked_kmax(kmax, kmax, "kmax")
        lr._checked_kmax(kmax, kmax * jmax, "kmax*jmax")
        elements = _sweep_elements(args)
        for i, (nx, x) in enumerate(elements):
            for ny, y in elements[i:]:
                yield lr.check_lambda1(x, y, kmax), nx, ny
        for nx, x in elements:
            for j in range(1, jmax + 1):
                yield lr.check_lambda2(x, j, kmax), nx, None
        return
    if inline:
        _refuse_unread(args, "check --x/--y", "ring", "x", "y", "kmax", "j")
        if args.ring != "integers":
            raise DomainError("inline --x/--y operands are for --ring integers")
        nx, ny = (1 if v is None else v for v in (args.x, args.y))
        x, y = (n * lr.IntegerRing().one for n in (nx, ny))
        nx, ny = str(nx), str(ny)
    elif args.x_file:
        _refuse_unread(args, "check --x-file", "x_file", "y_file", "kmax", "j", "constants")
        constants = _constants(args)
        x = lr.load_element(args.x_file, constants)
        if args.constants and x.ring.tag != "gw-ext-torus":
            raise DomainError("check on a %s element does not read --constants" % x.ring.tag)
        if not args.y_file and args.j is None:
            raise DomainError("give --y-file for products or --j for compositions")
        y = lr.load_element(args.y_file, constants) if args.y_file else None
        nx, ny = args.x_file, args.y_file
    else:
        raise DomainError("give --sweep or an --x-file")
    if y is not None:
        yield lr.check_lambda1(x, y, args.kmax), nx, ny
    if args.j is not None:
        yield lr.check_lambda2(x, args.j, args.kmax), nx, None


def _cmd_check(args, emit):
    passed = {True: 0, False: 0}

    def run():
        for report, nx, ny in _reports(args):
            for rec in report:
                passed[rec.passed] += 1
                yield rec, nx, ny

    def lines(results):
        for rec, nx, ny in results:
            ctx = "x=%s" % nx if ny is None else "x=%s y=%s" % (nx, ny)
            yield "[%s] %s k=%d %s" % ("PASS" if rec.passed else "FAIL", rec.check, rec.k, ctx)
            if not rec.passed:
                yield "       lhs = %s" % lr.element_str(rec.lhs)
                yield "       rhs = %s" % lr.element_str(rec.rhs)
        yield "checks: %d passed, %d failed" % (passed[True], passed[False])

    # _write reads one of the two renderings of the one run, so each check
    # runs as its lines are written and no report outlives them.
    results = run()
    _write(args, emit, (rec.to_record() for rec, _, _ in results), lines(results))
    return 1 if passed[False] else 0


# ---------------------------------------------------------------------------
# forms


def _cmd_forms(args, emit):
    _refuse_unread(args, "forms " + args.action, *_FORMS_FLAGS[args.action])
    if args.action == "hyperbolic":
        if args.n is None or not args.field:
            raise DomainError("hyperbolic needs --n and --field")
        record = forms_mod.form_record(forms_mod.hyperbolic(args.n, field_model(args.field)))
        _write(args, emit, [record], _matrix_lines(record["gram"]))
        return 0

    if not args.infile:
        raise DomainError("--in is required")
    form = forms_mod.load_form(args.infile)
    field = form.field

    if args.action == "exterior":
        if args.k is None:
            raise DomainError("exterior needs --k")
        record = forms_mod.form_record(forms_mod.exterior_power(form, args.k))
        lines = _matrix_lines(record["gram"])
    elif args.action == "class":
        cls = forms_mod.gw_class(form)
        record = {
            "field": field.spec,
            "rank": cls.rank,
            "disc": field.to_str(cls.disc),
            "signature": cls.signature,
        }
        lines = [
            " ".join("%s=%s" % (key, v) for key, v in record.items() if v is not None)
        ]
    elif args.action == "reduce":
        if not args.vectors:
            raise DomainError("reduce needs --vectors")
        vectors = []
        for row in args.vectors.split(";"):
            vectors.append([field.parse(v.strip()) for v in row.split(",")])
        reduced, rank = forms_mod.sublagrangian_reduce(form, vectors)
        record = forms_mod.form_record(reduced)
        record["sublagrangian_rank"] = rank
        lines = ["sublagrangian_rank=%d" % rank] + (_matrix_lines(record["gram"]) or ["[]"])
    else:  # hyperbolic-witness
        witness = forms_mod.hyperbolic_lemma_witness(form)
        record = {
            "field": field.spec,
            "matrix": [[field.to_str(v) for v in row] for row in witness],
            "verified": True,
        }
        lines = ["verified: true"] + _matrix_lines(record["matrix"])
    _write(args, emit, [record], lines)
    return 0


# ---------------------------------------------------------------------------
# char


def _cmd_char(args, emit):
    flavor = weights.Flavor(args.flavor, args.n)
    hw = _ints(args.hw, "--hw")
    char = weights.weyl_character(hw, flavor)
    mass = weights.character_mass(char)
    dim = weights.weyl_dim(hw, flavor)
    triangular = weights.check_triangularity(hw, flavor)

    # _write reads one of the two renderings, so only that one is built.
    def records():
        yield weights.char_record(char, args.n)
        yield {"dim": dim, "mass": mass, "triangular": triangular}

    def lines():
        yield "dim=%d mass=%d triangular=%s" % (dim, mass, str(triangular).lower())
        for weight, mult in sorted(char.items()):
            yield "weight (%s): %d" % (", ".join(str(v) for v in weight), mult)

    _write(args, emit, records(), lines())
    return 0 if mass == dim and triangular else 1


# ---------------------------------------------------------------------------
# entry point


# Each command: its help line, its flag function and its handler.
_COMMANDS = {
    "poly": ("print a universal polynomial", _poly_flags, _cmd_poly),
    "check": ("run lambda-identity checks", _check_flags, _cmd_check),
    "forms": ("operations on Gram-matrix files", _forms_flags, _cmd_forms),
    "char": ("Weyl character of a dominant weight", _char_flags, _cmd_char),
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value such as "-1,0" as an option, so hand it over
    # as "--vectors=-1,0", which it never splits.
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == "--vectors":
            argv[i : i + 2] = ["--vectors=" + argv[i + 1]]
    lines = []
    emit = lines.append
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        # Every integer flag is bounded here, once; a bool (--sweep) is not.
        for dest, value in vars(args).items():
            if type(value) is int:
                _bounded(_flag(dest), value)
        code = _COMMANDS[args.command][2](args, emit)
        text = "\n".join(lines) + ("\n" if lines else "")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (DomainError, OSError) as exc:
        # Bad input, or a file that cannot be read or written (missing, a
        # directory, no permission): a usage error, never a traceback.
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except AssertionError as exc:
        # An exactness or verification check inside the engine failed: a
        # fault of the program, which must not read as a failed identity.
        print("internal error: %s" % exc, file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    raise SystemExit(main())
