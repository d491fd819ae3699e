#!/usr/bin/env python3
"""Benchmark for gwlambda: end-to-end metrics per workload, and a traced
per-layer split.  Standard library only.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-rc-r2 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Every measurement is a fresh child process (``child.py``) that imports
``gwlambda`` from this checkout's ``src/``.  With ``--trace 0`` children run
back to back until ``--seconds`` have passed; the metrics are medians over
them, with times scaled by a reference loop timed around each child.  With ``--trace 1`` one plain child, one child with span wrappers and
one child with field-model counters give the per-layer metrics.  Negative
controls run before the timed children; if one misbehaves, every item of
the run counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads, the
layer map and the reasons behind them are in ``perfbench/README.md``.
"""

import argparse
import json
import math
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from spans import load_spans, span_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
RUN_BUDGET_S = 170.0
# Between two timed children: set-up-only children, and samples of the
# reference loop.  REFERENCE_S is the reference loop's nominal time; the
# reported times are scaled to a host on which the loop takes that long.
SETUP_PROBES = 2
REFERENCE_SAMPLES = 5
REFERENCE_S = 0.05
COVERAGE_RANGE = (0.9, 1.1)
# Spans around a whole workload item or CLI call.  Their self time is work
# that no layer wrapper covers, so it is left out of trace.coverage.
ROOT_SPANS = ("cli.main", "forms.item", "weights.item")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, span name, statistic); statistic "probe" and "count" are
# filled from the child's probes and counters instead of the spans.
PER_LAYER = (
    ("symfun.table.calls", "count", "symfun.table", "calls"),
    ("symfun.table.builds", "count", None, "probe"),
    ("symfun.table.build_s", "s", None, "probe"),
    ("symfun.table.hit_ratio", "ratio", None, "probe"),
    ("symfun.table.rss_rise_mb", "MB", None, "probe"),
    ("symfun.table.self_s", "s", "symfun.table", "self_s"),
    ("symfun.evaluate.calls", "count", "symfun.evaluate", "calls"),
    ("symfun.evaluate.self_s", "s", "symfun.evaluate", "self_s"),
    ("lambda_rings.check.calls", "count", "lambda_rings.check", "calls"),
    ("lambda_rings.check.self_s", "s", "lambda_rings.check", "self_s"),
    ("lambda_rings.check.p50_ms", "ms", "lambda_rings.check", "p50_ms"),
    ("lambda_rings.check.p90_ms", "ms", "lambda_rings.check", "p90_ms"),
    ("lambda_rings.series.calls", "count", "lambda_rings.series", "calls"),
    ("lambda_rings.series.self_s", "s", "lambda_rings.series", "self_s"),
    ("lambda_rings.series.repeat_ratio", "ratio", None, "probe"),
    ("lambda_rings.arith.calls", "count", "lambda_rings.arith", "calls"),
    ("lambda_rings.arith.self_s", "s", "lambda_rings.arith", "self_s"),
    ("lambda_rings.equal.calls", "count", "lambda_rings.equal", "calls"),
    ("lambda_rings.equal.self_s", "s", "lambda_rings.equal", "self_s"),
    ("lambda_rings.serialize.calls", "count", "lambda_rings.serialize", "calls"),
    ("lambda_rings.serialize.self_s", "s", "lambda_rings.serialize", "self_s"),
    ("forms.gwclass.calls", "count", "forms.gwclass", "count"),
    ("forms.gwclass.self_s", "s", "forms.gwclass", "self_s"),
    ("forms.parse.self_s", "s", "forms.parse", "self_s"),
    ("forms.exterior.calls", "count", "forms.exterior", "calls"),
    ("forms.exterior.self_s", "s", "forms.exterior", "self_s"),
    ("forms.tensor.self_s", "s", "forms.tensor", "self_s"),
    ("forms.gw_class.calls", "count", "forms.gw_class", "calls"),
    ("forms.gw_class.self_s", "s", "forms.gw_class", "self_s"),
    ("forms.witness.calls", "count", "forms.witness", "calls"),
    ("forms.witness.self_s", "s", "forms.witness", "self_s"),
    ("forms.item.self_s", "s", "forms.item", "self_s"),
    ("forms.item.p50_ms", "ms", "forms.item", "p50_ms"),
    ("forms.item.p90_ms", "ms", "forms.item", "p90_ms"),
    ("fields.eq.calls", "count", "fields.eq", "count"),
    ("fields.ops.calls", "count", "fields.ops", "count"),
    ("weights.character.calls", "count", "weights.character", "calls"),
    ("weights.character.self_s", "s", "weights.character", "self_s"),
    ("weights.dim.self_s", "s", "weights.dim", "self_s"),
    ("weights.triangularity.self_s", "s", "weights.triangularity", "self_s"),
    ("weights.item.self_s", "s", "weights.item", "self_s"),
    ("weights.item.p50_ms", "ms", "weights.item", "p50_ms"),
    ("weights.item.p90_ms", "ms", "weights.item", "p90_ms"),
    ("cli.self_s", "s", "cli.main", "self_s"),
    ("cli.output.bytes", "B", None, "output"),
    ("cli.output.lines", "count", None, "output"),
    ("trace.coverage", "ratio", None, "trace"),
    ("trace.overhead_s", "s", None, "trace"),
)


class BenchError(Exception):
    """The benchmark cannot run here (for example, no ``src/gwlambda``)."""


# ---------------------------------------------------------------------------
# exact arithmetic of the benchmark's own, for input generation and checks


def _modulus(spec):
    return int(spec[3:]) if spec.startswith("fq:") else None


def _value(text, q):
    v = Fraction(text)
    if q is None:
        return v
    return v.numerator * pow(v.denominator, -1, q) % q


def _det(rows, q):
    m = [list(r) for r in rows]
    n = len(m)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if (m[r][col] % q if q else m[r][col])), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = pow(m[col][col], -1, q) if q else 1 / Fraction(m[col][col])
        for r in range(col + 1, n):
            f = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
                if q:
                    m[r][c] %= q
    return det % q if q else det


def _matmul(a, b, q):
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    return [[v % q for v in row] for row in out] if q else out


def witness_ok(form, witness):
    """B^T (G ⊥ -G) B equals the hyperbolic Gram [[0, I], [I, 0]]."""
    q = _modulus(form["field"])
    g = [[_value(v, q) for v in row] for row in form["gram"]]
    n = len(g)
    b = [[_value(v, q) for v in row] for row in witness]
    if len(b) != 2 * n or any(len(row) != 2 * n for row in b):
        return False
    src = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            src[i][j] = g[i][j]
            src[n + i][n + j] = -g[i][j]
    bt = [list(col) for col in zip(*b)]
    got = _matmul(_matmul(bt, src, q), b, q)
    want = [[1 if abs(i - j) == n else 0 for j in range(2 * n)] for i in range(2 * n)]
    return got == want


# ---------------------------------------------------------------------------
# workloads


class Sweep:
    """``gwlambda check --sweep --ring gw-ext-torus ... --format records``.

    Fixed enumeration: the seed is ignored.  The record count follows from
    the basis size n = 2 + ((2*bound+1)^r - 1)/2: n(n+1)/2 product checks
    plus 2n composition checks (jmax = 2), each with kmax records.
    """

    kind = "sweep"

    def __init__(self, field, r, bound, kmax, tiny):
        self.full = {"field": field, "r": r, "bound": bound, "kmax": kmax}
        self.tiny = dict(self.full, **tiny)

    @staticmethod
    def argv(p, extra=()):
        return [
            "check", "--sweep", "--ring", "gw-ext-torus", "--field", p["field"],
            "--r", str(p["r"]), "--bound", str(p["bound"]), "--kmax", str(p["kmax"]),
            "--format", "records", *extra,
        ]

    @staticmethod
    def expected(p):
        n = 2 + ((2 * p["bound"] + 1) ** p["r"] - 1) // 2
        return (n * (n + 1) // 2 + 2 * n) * p["kmax"]

    def prepare(self, seed, tiny, workdir):
        p = self.tiny if tiny else self.full
        return {"argv": self.argv(p)}, self.expected(p)

    def verify(self, child, expected):
        """Records with ``pass: true``, when the exit code agrees with them
        (0 if every record passed, 1 if some failed) and there are exactly
        ``expected`` records."""
        records = parse_records(child.stdout_text())
        if len(records) != expected:
            return 0
        good = sum(
            1
            for rec in records
            if rec.get("pass") is True and {"check", "k", "lhs", "rhs"} <= set(rec)
        )
        agrees = child.code == (0 if good == len(records) else 1)
        return good if agrees else 0

    def control(self, bench, seed, tiny):
        """A corrupted lambda^2 constant must exit 1 with failing records."""
        p = dict(self.tiny, field=(self.tiny if tiny else self.full)["field"])
        constants = bench.workdir / "constants.json"
        constants.write_text(json.dumps({"lambda2_pair": "one"}))
        spec = {"kind": "sweep", "argv": self.argv(p, ("--constants", str(constants)))}
        child = bench.spawn("control", spec)
        failing = sum(1 for rec in parse_records(child.stdout_text()) if rec.get("pass") is False)
        if child.code != 1 or failing == 0:
            return ["constants control: exit %s with %d failing records (want exit 1, >0)"
                    % (child.code, failing)]
        return []


class FormsBatch:
    """Random nondegenerate symmetric Gram matrices over four field models.

    The pair schedule (field, dim a, dim b) is fixed; the seed draws the
    entries, so every seed does the same kind and amount of work.
    """

    kind = "forms"
    FIELDS = ("qc", "rc", "fq:5", "fq:7")

    def __init__(self, pairs, dims, tiny_pairs, tiny_dims):
        self.full = (pairs, dims)
        self.tiny = (tiny_pairs, tiny_dims)

    @staticmethod
    def gram(rng, spec, dim):
        q = _modulus(spec)
        while True:
            g = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                for j in range(i, dim):
                    g[i][j] = g[j][i] = rng.randrange(q) if q else rng.randint(-3, 3)
            if _det(g, q):
                return {"field": spec, "gram": [[str(v) for v in row] for row in g]}

    def prepare(self, seed, tiny, workdir):
        count, dims = self.tiny if tiny else self.full
        rng = random.Random(seed)
        pairs = []
        for i in range(count):
            spec = self.FIELDS[i % len(self.FIELDS)]
            da, db = dims[(i // len(self.FIELDS)) % len(dims)]
            pairs.append({"a": self.gram(rng, spec, da), "b": self.gram(rng, spec, db)})
        path = workdir / "forms-input.json"
        path.write_text(json.dumps(pairs))
        self.pairs = pairs
        return {"input": str(path)}, count

    def verify(self, child, expected):
        records = child.records()
        if len(records) != expected:
            return 0
        good = 0
        for idx, rec in enumerate(records):
            if rec.get("id") != idx:
                continue
            pair = self.pairs[idx]
            da, db = len(pair["a"]["gram"]), len(pair["b"]["gram"])
            ranks = [math.comb(da + db, n) for n in range(da + db + 1)]
            if (
                rec.get("ok") == [True] * (da + db + 1)
                and rec.get("ranks") == ranks
                and witness_ok(pair["a"], rec.get("witness", []))
            ):
                good += 1
        return good

    CONTROL_PAIRS = (
        ("qc", [["1"]], [["1", "0"], ["0", "1"]]),
        ("rc", [["1"]], [["-1"]]),
        ("fq:5", [["1"]], [["2"]]),
        ("fq:7", [["1"]], [["3"]]),
    )

    def control(self, bench, seed, tiny):
        """Forms with known different classes must compare unequal."""
        pairs = [
            {"a": {"field": f, "gram": a}, "b": {"field": f, "gram": b}}
            for f, a, b in self.CONTROL_PAIRS
        ]
        path = bench.workdir / "forms-control.json"
        path.write_text(json.dumps(pairs))
        child = bench.spawn("control", {"kind": "forms-control", "input": str(path)})
        verdicts = [rec.get("equal") for rec in child.records()]
        if child.code != 0 or verdicts != [False] * len(pairs):
            return ["forms control: classes known to differ compared as %r" % (verdicts,)]
        return []


class Weyl:
    """B_n and D_n characters for every dominant weight with entries in 0..2
    that sum to at most LEVEL, in an order drawn from the seed."""

    kind = "weyl"
    LEVEL = 4

    def __init__(self, n, tiny_n):
        self.full, self.tiny = n, tiny_n

    def prepare(self, seed, tiny, workdir):
        n = self.tiny if tiny else self.full
        items = []
        for flavor in ("B", "D"):
            for hw in _nonincreasing(n, 2):
                if sum(hw) <= self.LEVEL:
                    items.append({"type": flavor, "n": n, "hw": hw})
        random.Random(seed).shuffle(items)
        path = workdir / "weyl-input.json"
        path.write_text(json.dumps(items))
        return {"input": str(path)}, len(items)

    def verify(self, child, expected):
        records = child.records()
        if len(records) != expected:
            return 0
        good = 0
        for idx, rec in enumerate(records):
            mass, dim = rec.get("mass"), rec.get("dim")
            ok = isinstance(mass, int) and mass >= 1 and mass == dim
            if rec.get("id") == idx and ok and rec.get("triangular") is True:
                good += 1
        return good

    def control(self, bench, seed, tiny):
        return []


def _nonincreasing(n, top):
    if n == 0:
        return [[]]
    return [[h] + rest for h in range(top, -1, -1) for rest in _nonincreasing(n - 1, h)]


WORKLOADS = {
    "sweep-rc-r2": Sweep("rc", r=2, bound=2, kmax=4, tiny={"r": 1, "bound": 2, "kmax": 3}),
    "sweep-fq5-k5": Sweep("fq:5", r=1, bound=2, kmax=5, tiny={"bound": 1, "kmax": 4}),
    "forms-batch": FormsBatch(96, ((3, 3), (2, 3), (3, 2)), 8, ((2, 2), (2, 3))),
    "weyl-b4d4": Weyl(4, tiny_n=2),
}


# ---------------------------------------------------------------------------
# child processes


def parse_records(text):
    """One dict per line of JSON text; a line that is not a JSON object is {}."""
    records = []
    for line in text.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            rec = None
        records.append(rec if isinstance(rec, dict) else {})
    return records


class Child:
    """One finished child: times, peak RSS, exit code and its files."""

    def __init__(self, tag, paths, t_spawn, t_exit, code, maxrss_kb, timed_out):
        self.tag, self.paths = tag, paths
        self.wall_s = t_exit - t_spawn
        self.code = code
        self.peak_rss_mb = maxrss_kb / 1024.0
        self.timed_out = timed_out
        try:
            self.result = json.loads(paths["result"].read_text())
        except (OSError, ValueError):
            self.result = {}
        ready = self.result.get("t_ready")
        self.setup_s = ready - t_spawn if ready is not None else None

    def stdout_text(self):
        return self.paths["stdout"].read_text(encoding="utf-8", errors="replace")

    def records(self):
        """Records of an item workload, from the child's output file."""
        try:
            return parse_records(self.paths["output"].read_text(encoding="utf-8"))
        except OSError:
            return []

    def stderr_tail(self):
        try:
            return self.paths["stderr"].read_text(errors="replace")[-2000:]
        except OSError:
            return ""


def _reap(proc, timeout):
    """Wait for ``proc`` (killing it after ``timeout`` s); return status, rusage."""
    timed_out = False
    pidfd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        if not poller.poll(max(0, int(timeout * 1000))):
            os.kill(proc.pid, signal.SIGKILL)
            timed_out = True
    finally:
        os.close(pidfd)
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage, timed_out


class Bench:
    """Spawns children for one run inside a private work directory."""

    def __init__(self, workdir, deadline, inject):
        self.workdir = workdir
        self.deadline = deadline
        self.inject = inject
        self.count = 0

    def spawn(self, tag, spec, mode="plain", setup_only=False):
        self.count += 1
        base = self.workdir / ("%03d-%s" % (self.count, tag))
        paths = {k: Path("%s.%s" % (base, k)) for k in ("spec", "stdout", "stderr", "result", "output", "spans")}
        spec = dict(spec, mode=mode, setup_only=setup_only, inject=self.inject)
        spec.update({k: str(paths[k]) for k in ("result", "output", "spans")})
        paths["spec"].write_text(json.dumps(spec))
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        with open(paths["stdout"], "wb") as out, open(paths["stderr"], "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(paths["spec"])],
                stdout=out, stderr=err, env=env, cwd=str(ROOT),
            )
            try:
                code, rusage, timed_out = _reap(proc, self.deadline - t_spawn)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            t_exit = time.monotonic()
        return Child(tag, paths, t_spawn, t_exit, code, rusage.ru_maxrss, timed_out)


# ---------------------------------------------------------------------------
# one run


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def verified_items(workload, child, expected):
    """Items of one child that passed every check; a crash fails the rest."""
    if child.code not in (0, 1) or child.timed_out:
        sys.stderr.write("child %s exit %s%s\n%s" % (
            child.tag, child.code, " (timed out)" if child.timed_out else "", child.stderr_tail()))
    return 0 if child.timed_out else workload.verify(child, expected)


def run_workload(name, seed, seconds, trace, tiny, inject):
    if not (ROOT / "src" / "gwlambda" / "__init__.py").is_file():
        raise BenchError("no src/gwlambda under %s: run from a gwlambda checkout" % ROOT)
    workload = WORKLOADS[name]
    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / ("run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        bench = Bench(workdir, started + RUN_BUDGET_S, inject)
        spec, expected = workload.prepare(seed, tiny, workdir)
        spec["kind"] = workload.kind
        bench.spawn("warmup", spec, setup_only=True)
        problems = workload.control(bench, seed, tiny)
        if trace:
            out = traced_run(bench, workload, spec, expected, problems)
        else:
            out = timed_run(bench, workload, spec, expected, seconds, problems)
        out["meta"] = metadata(seed, out.pop("gwlambda_file", None))
        out["meta"].update(workload=name, trace=trace, tiny=tiny, run_s=time.monotonic() - started)
        if trace:
            spans_dir = WORK / "spans"
            spans_dir.mkdir(exist_ok=True)
            for child in out.pop("children"):
                if child.tag == "spans" and child.paths["spans"].exists():
                    shutil.copyfile(child.paths["spans"], spans_dir / ("%s.spans" % name))
        else:
            out.pop("children")
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _tally(workload, children, expected, problems):
    """Attempted and failed items, and the verified count of each child."""
    good = [0 if problems else verified_items(workload, c, expected) for c in children]
    attempted = expected * len(children)
    return attempted, attempted - sum(good), good


def reference_work():
    """A fixed piece of pure-Python work (Fraction, int and dict operations,
    as in gwlambda) that uses nothing of the program under test."""
    acc, table = Fraction(0), {}
    for i in range(1, 20000):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return acc


def reference_sample():
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def timed_run(bench, workload, spec, expected, seconds, problems):
    """Timed children back to back for ``seconds``.

    Before each timed child run a batch of reference-loop samples and the
    set-up probes; one more reference batch ends the run.  The host's speed
    changes by up to 2x from one stretch of tens of seconds to the next, so
    each child's times are divided by the median of the two reference
    batches around it and multiplied by REFERENCE_S.  The metrics are
    medians of these scaled values; the raw medians are kept as well.
    """
    children, probes, batches = [], [], []
    loop_start = time.monotonic()
    while True:
        batches.append([reference_sample() for _ in range(REFERENCE_SAMPLES)])
        probes.append([bench.spawn("setup", spec, setup_only=True) for _ in range(SETUP_PROBES)])
        children.append(bench.spawn("timed", spec))
        now = time.monotonic()
        last = children[-1].wall_s
        if now - loop_start >= seconds or now + 1.5 * last > bench.deadline:
            break
    batches.append([reference_sample() for _ in range(REFERENCE_SAMPLES)])
    attempted, failed, good = _tally(workload, children, expected, problems)
    raw = {"wall_s": [], "setup_s": [], "items_per_s": []}
    scaled = {"wall_s": [], "setup_s": [], "items_per_s": []}
    for i, (child, items) in enumerate(zip(children, good)):
        scale = REFERENCE_S / median(batches[i] + batches[i + 1])
        busy = child.wall_s - (child.setup_s if child.setup_s is not None else 0.0)
        rate = items / busy if busy > 0 else 0.0
        setups = [c.setup_s for c in probes[i] + [child] if c.setup_s is not None]
        for key, values, factor in (
            ("wall_s", [child.wall_s], scale),
            ("setup_s", setups, scale),
            ("items_per_s", [rate], 1.0 / scale),
        ):
            raw[key].extend(values)
            scaled[key].extend(v * factor for v in values)
    metrics = {key: median(values) for key, values in scaled.items()}
    metrics["peak_rss_mb"] = median([c.peak_rss_mb for c in children])
    reference = [t for batch in batches for t in batch]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END},
        "problems": problems,
        "raw": {key: median(values) for key, values in raw.items()},
        "reference_s": median(reference),
        "samples": len(children),
        "setup_samples": len(raw["setup_s"]),
        "wall_values": raw["wall_s"],
        "setup_values": raw["setup_s"],
        "reference_values": reference,
        "gwlambda_file": children[0].result.get("gwlambda_file"),
        "children": children,
    }


def traced_run(bench, workload, spec, expected, problems):
    plain = bench.spawn("plain", spec)
    traced = bench.spawn("spans", spec, mode="spans")
    counted = bench.spawn("counts", spec, mode="counts")
    children = [plain, traced, counted]
    attempted, failed, _ = _tally(workload, children, expected, problems)
    values = layer_values(traced, counted, plain)
    lo, hi = COVERAGE_RANGE
    coverage = values["trace.coverage"]
    if not lo <= coverage <= hi:
        raise BenchError("trace coverage %.3f outside [%.2f, %.2f]" % (coverage, lo, hi))
    units = {m: u for m, u, _, _ in PER_LAYER}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
        "problems": problems,
        "largest_layer": largest_layer(values),
        "gwlambda_file": plain.result.get("gwlambda_file"),
        "children": children,
    }


def layer_values(traced, counted, plain):
    try:
        stats = span_stats(load_spans(traced.paths["spans"]))
    except (OSError, ValueError):
        raise BenchError("traced child wrote no spans (exit %s)\n%s"
                         % (traced.code, traced.stderr_tail())) from None
    probes = traced.result.get("probes", {})
    counts = counted.result.get("counts", {})
    run_s = traced.result.get("run_s") or 0.0
    out_text = traced.stdout_text()
    values = {}
    for metric, _unit, span, stat in PER_LAYER:
        if stat == "count":
            values[metric] = counts.get(span, 0)
        elif stat in ("calls", "self_s"):
            values[metric] = stats.get(span, {}).get(stat, 0)
        elif stat in ("p50_ms", "p90_ms"):
            durations = stats.get(span, {}).get("durations", [])
            values[metric] = 1000.0 * percentile(durations, 50 if stat == "p50_ms" else 90)
    table = probes.get("table", {})
    table_calls = values["symfun.table.calls"]
    values["symfun.table.builds"] = table.get("builds", 0)
    values["symfun.table.build_s"] = table.get("build_s", 0.0)
    values["symfun.table.hit_ratio"] = (
        (table_calls - values["symfun.table.builds"]) / table_calls if table_calls else 0.0
    )
    values["symfun.table.rss_rise_mb"] = table.get("rss_rise_kb", 0) / 1024.0
    series = probes.get("series", {})
    values["lambda_rings.series.repeat_ratio"] = (
        (series["calls"] - series["distinct"]) / series["calls"] if series.get("calls") else 0.0
    )
    is_cli = "cli.main" in stats
    values["cli.output.bytes"] = len(out_text.encode("utf-8")) if is_cli else 0
    values["cli.output.lines"] = out_text.count("\n") if is_cli else 0
    layer_self = sum(s["self_s"] for name, s in stats.items() if name not in ROOT_SPANS)
    values["trace.coverage"] = layer_self / run_s if run_s > 0 else 0.0
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return values


def largest_layer(values):
    selfs = {m[: -len(".self_s")]: v for m, v in values.items() if m.endswith(".self_s")}
    return max(selfs, key=selfs.get)


# ---------------------------------------------------------------------------
# what was measured


def metadata(seed, gwlambda_file):
    return {
        "seed": seed,
        "gwlambda_file": gwlambda_file,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_git_state(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_state():
    """Commit and dirty flag when the checkout is a git work tree of its own."""
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return {"git_sha": None, "git_dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, env=env, timeout=30
        )

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    if head.returncode != 0 or status.returncode != 0:
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": head.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


# ---------------------------------------------------------------------------
# entry point


def summary_line(name, out, trace):
    m = {k: v["value"] for k, v in out["metrics"].items()}
    frac = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    if trace:
        return "%s: traced; largest self-time layer %s; coverage %.3f; overhead %.2f s; fail_frac=%.4g" % (
            name, out["largest_layer"], m["trace.coverage"], m["trace.overhead_s"], frac)
    raw = out["raw"]
    return ("%s: wall_s=%.4f s setup_s=%.4f s items_per_s=%.2f 1/s peak_rss_mb=%.1f MB "
            "fail_frac=%.4g (%d runs, %d set-up samples; raw wall_s=%.4f setup_s=%.4f "
            "items_per_s=%.2f at reference %.4f s)" % (
                name, m["wall_s"], m["setup_s"], m["items_per_s"], m["peak_rss_mb"], frac,
                out["samples"], out["setup_samples"], raw["wall_s"], raw["setup_s"],
                raw["items_per_s"], out["reference_s"]))


def save(name, seed, trace, out):
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / ("%s-seed%d-trace%d.json" % (name, seed, trace))
    path.write_text(json.dumps(out, indent=1, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--inject", choices=("broken-eq", "unwrap-exterior"), help="fault injection, for the self-test")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            out = run_workload(name, args.seed, args.seconds, args.trace, args.tiny, args.inject)
            save(name, args.seed, args.trace, out)
            for problem in out["problems"]:
                print("%s: negative control failed: %s" % (name, problem), file=sys.stderr)
            print(summary_line(name, out, args.trace))
            print(json.dumps({"meta": out["meta"]}, sort_keys=True))
            final["correct"] = final["correct"] and out["correct"]
            final["attempted"] += out["attempted"]
            final["failed"] += out["failed"]
            prefix = "" if len(names) == 1 else name + "/"
            for metric, value in out["metrics"].items():
                final["metrics"][prefix + metric] = value
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
