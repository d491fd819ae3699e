"""One benchmark child process: imports ``gwlambda`` from this checkout's
``src/`` and runs one workload, optionally traced.

Usage: ``python3 perfbench/child.py SPEC.json`` (``run.py`` writes SPEC).

SPEC keys:

* ``kind``: ``sweep`` (``gwlambda.cli.main(argv)``, records on stdout),
  ``forms``, ``weyl`` or ``forms-control`` (items from the ``input`` file,
  records to the ``output`` file);
* ``setup_only``: stop as soon as the inputs are ready;
* ``mode``: ``plain``, ``spans`` (wrappers record spans at each layer
  boundary) or ``counts`` (wrappers count field-model calls only);
* ``argv``, ``input``, ``output``, ``result``, ``spans``: the sweep's command
  line and the files this child reads and writes;
* ``inject``: ``broken-eq`` replaces ``GWClass.__eq__`` by one that always
  answers True; ``unwrap-exterior`` leaves ``exterior_power`` without its
  span in the spans pass.  Only the benchmark's self-test sets them, to show
  that a broken equality turns into failures and that a layer missing from
  the trace fails the coverage check.

The result file records ``time.monotonic()`` when inputs were ready and
when the work ended; on Linux that clock is shared by all processes, so the
parent can subtract its spawn time.
"""

import json
import operator
import resource
import sys
import time
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main():
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {}
    try:
        return run(spec, result)
    finally:
        with open(spec["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)


def run(spec, result):
    sys.path.insert(0, str(SRC))
    import gwlambda

    if spec["kind"] == "sweep":
        import gwlambda.cli
    where = Path(gwlambda.__file__).resolve()
    if SRC.resolve() not in where.parents:
        print("gwlambda imported from %s, not from %s" % (where, SRC), file=sys.stderr)
        return 2
    result["gwlambda_file"] = gwlambda.__file__
    items = None
    if spec.get("input"):
        with open(spec["input"], "r", encoding="utf-8") as fh:
            items = json.load(fh)
    if spec.get("inject") == "broken-eq":
        gwlambda.forms.GWClass.__eq__ = lambda self, other: True
    tracer = probes = counts = None
    if spec["mode"] == "spans":
        tracer = Tracer()
        dropped = ("forms.exterior",) if spec.get("inject") == "unwrap-exterior" else ()
        probes = install_spans(gwlambda, tracer, dropped)
    elif spec["mode"] == "counts":
        counts = install_counts(gwlambda)
    result["t_ready"] = time.monotonic()
    if spec.get("setup_only"):
        return 0
    begin = time.perf_counter()
    if spec["kind"] == "sweep":
        code = gwlambda.cli.main(spec["argv"])
        records = None
    else:
        code, records = run_items(gwlambda, spec["kind"], items, tracer)
    result["run_s"] = time.perf_counter() - begin
    result["t_end"] = time.monotonic()
    if records is not None:
        with open(spec["output"], "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.dump(spec["spans"])
        result["probes"] = {name: p.summary() for name, p in probes.items()}
    if counts is not None:
        result["counts"] = counts
    return code


# ---------------------------------------------------------------------------
# workloads made of items


def forms_pair(gw, pair, gwclass):
    """Convolution identity of exterior powers for a⊥b, then a's witness.

    ``gwclass`` holds the ``GWClass`` operations the identity uses (zero,
    add, eq), so that the spans pass can time them at this call site.
    """
    fm = gw.forms
    a = fm.parse_form(pair["a"])
    b = fm.parse_form(pair["b"])
    whole = fm.perp_sum(a, b)
    ok, ranks = [], []
    for n in range(a.dim + b.dim + 1):
        lhs = fm.gw_class(fm.exterior_power(whole, n))
        rhs = gwclass["zero"](a.field)
        for i in range(max(0, n - b.dim), min(n, a.dim) + 1):
            part = fm.tensor(fm.exterior_power(a, i), fm.exterior_power(b, n - i))
            rhs = gwclass["add"](rhs, fm.gw_class(part))
        ok.append(gwclass["eq"](lhs, rhs))
        ranks.append(lhs.rank)
    witness = fm.hyperbolic_lemma_witness(a)
    return {
        "ok": ok,
        "ranks": ranks,
        "witness": [[a.field.to_str(v) for v in row] for row in witness],
    }


def forms_control(gw, pair, gwclass):
    """Classes of two forms that must differ."""
    fm = gw.forms
    a = fm.gw_class(fm.parse_form(pair["a"]))
    b = fm.gw_class(fm.parse_form(pair["b"]))
    return {"equal": gwclass["eq"](a, b)}


def weyl_item(gw, item, gwclass):
    wt = gw.weights
    flavor = wt.Flavor(item["type"], item["n"])
    hw = tuple(item["hw"])
    char = wt.weyl_character(hw, flavor)
    return {
        "mass": wt.character_mass(char),
        "dim": wt.weyl_dim(hw, flavor),
        "triangular": wt.check_triangularity(hw, flavor),
    }


ITEM_WORK = {"forms": forms_pair, "forms-control": forms_control, "weyl": weyl_item}
ITEM_SPAN = {"forms": "forms.item", "weyl": "weights.item"}


def run_items(gw, kind, items, tracer):
    work = ITEM_WORK[kind]
    gwclass = {"zero": gw.forms.GWClass.zero, "add": operator.add, "eq": operator.eq}
    if tracer is not None:
        work = tracer.wrap(ITEM_SPAN[kind], work)
        gwclass = {op: tracer.wrap("forms.gwclass", fn) for op, fn in gwclass.items()}
    records = []
    for idx, item in enumerate(items):
        if tracer is not None:
            tracer.item_id = idx
        try:
            rec = work(gw, item, gwclass)
        except Exception as exc:  # an item that raises is a failed item
            rec = {"error": "%s: %s" % (type(exc).__name__, exc)}
        rec["id"] = idx
        records.append(rec)
    return 0, records


# ---------------------------------------------------------------------------
# spans pass


def _patch(owner, attr, wrapper):
    setattr(owner, attr, wrapper(getattr(owner, attr)))


class TableProbe:
    """Builds (first call per key), their time and the peak-RSS rise they cause."""

    def __init__(self):
        self.seen = set()
        self.build_s = 0.0
        self.rss_rise_kb = 0

    def wrap(self, fn):
        def probed(*args, **kwargs):
            key = (fn.__name__, args, tuple(sorted(kwargs.items())))
            if key in self.seen:
                return fn(*args, **kwargs)
            self.seen.add(key)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.build_s += time.perf_counter() - start
            rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss
            self.rss_rise_kb += max(0, rise)
            return out

        return probed

    def summary(self):
        return {"builds": len(self.seen), "build_s": self.build_s, "rss_rise_kb": self.rss_rise_kb}


def _element_key(x):
    if hasattr(x, "n"):
        body = x.n
    elif hasattr(x, "pos"):
        body = (x.pos, x.neg)
    else:
        body = frozenset(
            (b, (c.pos, c.neg) if hasattr(c, "pos") else c) for b, c in x.terms.items()
        )
    return (type(x).__name__, x.ring, body)


class SeriesProbe:
    """Share of ``lambda_t`` calls whose (element, degree) was seen before."""

    def __init__(self):
        self.seen = set()
        self.calls = 0

    def wrap(self, fn):
        def probed(x, d):
            self.calls += 1
            self.seen.add((_element_key(x), d))
            return fn(x, d)

        return probed

    def summary(self):
        return {"calls": self.calls, "distinct": len(self.seen)}


class CheckProbe:
    """Gives each identity-check call its own item id."""

    def __init__(self, tracer):
        self.tracer = tracer

    def wrap(self, fn):
        def probed(*args, **kwargs):
            self.tracer.item_id += 1
            return fn(*args, **kwargs)

        return probed


ELEMENT_CLASSES = ("IntElt", "GWFieldElt", "KTorusElt", "KExtElt", "GWExtElt")
ARITH = ("__add__", "__sub__", "__mul__", "__neg__", "__rmul__")
EQUAL = ("__eq__", "is_zero", "gw_class")


def install_spans(gw, tracer, dropped=()):
    """Wrap the public functions of each layer, except the spans named in
    ``dropped``; return the extra probes."""
    sf, lr, fm, wt = gw.symfun, gw.lambda_rings, gw.forms, gw.weights
    cli = getattr(gw, "cli", None)

    def w(name, fn):
        return fn if name in dropped else tracer.wrap(name, fn)
    table, series, checks = TableProbe(), SeriesProbe(), CheckProbe(tracer)

    for name in ("universal_P", "universal_P_kj"):
        _patch(sf, name, lambda f: table.wrap(w("symfun.table", f)))
    _patch(sf.EPolynomial, "evaluate", lambda f: w("symfun.evaluate", f))

    for name in ("check_lambda1", "check_lambda2"):
        _patch(lr, name, lambda f: checks.wrap(w("lambda_rings.check", f)))
    for cls in (getattr(lr, n) for n in ELEMENT_CLASSES):
        _patch(cls, "lambda_t", lambda f: series.wrap(w("lambda_rings.series", f)))
        for op in ARITH:
            if op in cls.__dict__:
                _patch(cls, op, lambda f: w("lambda_rings.arith", f))
        for op in EQUAL:
            if op in cls.__dict__:
                _patch(cls, op, lambda f: w("lambda_rings.equal", f))
    _patch(lr.CheckRecord, "to_record", lambda f: w("lambda_rings.serialize", f))
    _patch(lr, "element_record", lambda f: w("lambda_rings.serialize", f))

    for name, layer in (
        ("parse_form", "forms.parse"),
        ("exterior_power", "forms.exterior"),
        ("tensor", "forms.tensor"),
        ("gw_class", "forms.gw_class"),
        ("hyperbolic_lemma_witness", "forms.witness"),
    ):
        _patch(fm, name, lambda f, layer=layer: w(layer, f))

    for name, layer in (
        ("weyl_character", "weights.character"),
        ("weyl_dim", "weights.dim"),
        ("check_triangularity", "weights.triangularity"),
    ):
        _patch(wt, name, lambda f, layer=layer: w(layer, f))

    if cli is not None:
        _patch(cli, "main", lambda f: w("cli.main", f))
    return {"table": table, "series": series}


# ---------------------------------------------------------------------------
# counting pass


FIELD_OPS = ("add", "sub", "mul", "inv", "square_class")
GWCLASS_OPS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__eq__")


def install_counts(gw):
    """Count field-model and ``GWClass`` calls (no timing).

    ``GWClass`` is counted here rather than in the spans pass because on
    the sweeps it runs under coefficient equality, where wrapping its
    280 000 calls on ``sweep-rc-r2`` would add more time than it measures.
    """
    counts = {"fields.eq": 0, "fields.ops": 0, "forms.gwclass": 0}

    def counter(key):
        def wrap(fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        return wrap

    base = gw.fields.FieldModel
    for cls in [base] + base.__subclasses__():
        if "__eq__" in cls.__dict__:
            _patch(cls, "__eq__", counter("fields.eq"))
        for op in FIELD_OPS:
            if op in cls.__dict__:
                _patch(cls, op, counter("fields.ops"))
    for op in GWCLASS_OPS:
        _patch(gw.forms.GWClass, op, counter("forms.gwclass"))
    return counts


if __name__ == "__main__":
    sys.exit(main())
