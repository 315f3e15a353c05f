"""Output checks for every benchmark request.

Each check returns a list of problems (empty when the output is right) and
a dict of facts that the cross-mode check compares between a float
request and its rational twin.

Rational-mode outputs are checked against an independent exact oracle: the
benchmark knows every piecewise-linear model as an exact knot list, so it
recomputes the variation function, image measures, the continuity modulus
and the expected CLI text with its own arithmetic and compares with ``==``
(or byte for byte where bvkit prints 15-digit decimals).  Float-mode
outputs are compared with their rational twin within the model's stated
tolerance.  Certificates are checked by re-reading every ledger entry of
the written trace and the 5*eps / 9*eps / 2*eps budgets.  ``corpus``
outputs are checked against reference sha256 digests.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction

from workloads import FLOAT_TOL, ModelSpec

LUSIN_THRESHOLD = Fraction(1, 2)


def sig15(value) -> str:
    return "%.15g" % float(value)


@dataclass
class Result:
    """What one request produced: exit code, captured stdout, the files it
    wrote (relative name -> bytes) and, for library calls, the value."""

    rc: int | None
    stdout: str = ""
    files: dict = field(default_factory=dict)
    value: object = None
    error: str | None = None
    seconds: float = 0.0


# ---------------------------------------------------------------------------
# exact piecewise-linear oracle
# ---------------------------------------------------------------------------


class ExactPL:
    """F, p = V_a^x(F) and n = p - F of a piecewise-linear model, exactly."""

    def __init__(self, knots):
        self.xs = [Fraction(x) for x, _ in knots]
        self.ys = [Fraction(y) for _, y in knots]
        self.a, self.b = self.xs[0], self.xs[-1]
        prefix = [Fraction(0)]
        for y0, y1 in zip(self.ys, self.ys[1:]):
            prefix.append(prefix[-1] + abs(y1 - y0))
        self.prefix = prefix

    @property
    def variation(self) -> Fraction:
        return self.prefix[-1]

    def _piece(self, x) -> int:
        i = bisect_right(self.xs, x) - 1
        return min(max(i, 0), len(self.xs) - 2)

    def value(self, x) -> Fraction:
        i = self._piece(x)
        x0, x1, y0, y1 = self.xs[i], self.xs[i + 1], self.ys[i], self.ys[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def p(self, x) -> Fraction:
        i = self._piece(x)
        return self.prefix[i] + abs(self.value(x) - self.ys[i])

    def n(self, x) -> Fraction:
        return self.p(x) - self.value(x)

    def segment_count(self) -> int:
        """Maximal runs of rising / falling / flat pieces."""
        runs = 0
        last = None
        for y0, y1 in zip(self.ys, self.ys[1:]):
            d = (y1 > y0) - (y1 < y0)
            if d != last:
                runs += 1
                last = d
        return runs

    def image_measure(self, components) -> Fraction:
        """Lebesgue measure of F(union of closed [lo, hi])."""
        spans = []
        for lo, hi in components:
            lo, hi = max(lo, self.a), min(hi, self.b)
            if lo > hi:
                continue
            i = self._piece(lo)
            while i < len(self.xs) - 1 and self.xs[i] <= hi:
                s_lo, s_hi = max(lo, self.xs[i]), min(hi, self.xs[i + 1])
                if s_lo <= s_hi:
                    u, v = self.value(s_lo), self.value(s_hi)
                    spans.append((min(u, v), max(u, v)))
                i += 1
        spans.sort()
        total = Fraction(0)
        cur_lo = cur_hi = None
        for lo, hi in spans:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        if cur_hi is not None:
            total += cur_hi - cur_lo
        return total

    def omega(self, delta) -> Fraction:
        """Largest total swing over disjoint sets of total length <= delta:
        fill the steepest pieces first (fractional knapsack)."""
        items = sorted(((abs(y1 - y0) / (x1 - x0), x1 - x0)
                        for x0, x1, y0, y1 in zip(self.xs, self.xs[1:],
                                                  self.ys, self.ys[1:])
                        if y1 != y0), reverse=True)
        total, left = Fraction(0), Fraction(delta)
        for slope, width in items:
            if left <= 0:
                break
            take = min(width, left)
            total += slope * take
            left -= take
        return total

    def verification_grid(self, n: int) -> list:
        step = (self.b - self.a) / (n - 1)
        return sorted(set([self.a + i * step for i in range(n)] + self.xs))


def cantor_level_components(j: int, a, b) -> list:
    comps = [(Fraction(0), Fraction(1))]
    for _ in range(j):
        comps = [c for lo, hi in comps
                 for c in ((lo, lo + (hi - lo) / 3), (hi - (hi - lo) / 3, hi))]
    span = b - a
    return [(a + lo * span, a + hi * span) for lo, hi in comps]


def shrinking_components(j: int, a, b, count: int) -> list:
    w = (b - a) / count
    r = Fraction(1, 2 ** j)
    return [(a + i * w, a + i * w + r * w) for i in range(count)]


def lusin_verdict(images) -> str:
    if all(img >= LUSIN_THRESHOLD for img in images):
        return "fails"
    if images[-1] == 0 or (images[-1] < LUSIN_THRESHOLD
                           and 2 * images[-1] <= images[0]):
        return "passes_at_resolution"
    return "inconclusive"


def ac_verdict(omegas) -> str:
    if omegas[0] >= Fraction(1, 2):
        return "not_ac"
    if omegas[-1] == 0 or 2 * omegas[0] <= omegas[-1]:
        return "ac_at_resolution"
    return "inconclusive"


# ---------------------------------------------------------------------------
# per-operation checks
# ---------------------------------------------------------------------------


class Oracle:
    """Checks results for one workload; exact oracles are built lazily and
    kept, since they depend only on the generated models."""

    def __init__(self, workload, corpus_digests=None):
        self.workload = workload
        self.corpus_digests = corpus_digests
        self._exact = {}

    def exact(self, key) -> ExactPL:
        if key not in self._exact:
            self._exact[key] = ExactPL(self.workload.models[key].knots)
        return self._exact[key]

    def check(self, req, result: Result, twin_facts=None):
        if result.error is not None:
            return [f"raised {result.error}"], {}
        if result.rc != 0:
            return [f"exit code {result.rc}"], {}
        spec = self.workload.models.get(req.model)
        check = getattr(self, "_" + req.op.replace("-", "_"))
        problems, facts = check(req, result, spec)
        if req.arithmetic is not None:
            if twin_facts is None:
                problems.append(f"no rational twin result for {req.twin}")
            else:
                problems += compare_twins(facts, twin_facts, _tol(spec))
        return problems, facts

    # -- corpus ------------------------------------------------------------

    def _corpus_report(self, req, result, spec):
        problems = []
        if "all_agree: True" not in result.stdout.splitlines():
            problems.append("corpus table does not agree")
        want = self.corpus_digests
        got = {name: hashlib.sha256(data).hexdigest()
               for name, data in result.files.items()}
        if set(got) != set(want):
            problems.append(f"file set differs: missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}")
        for name in sorted(set(got) & set(want)):
            if got[name] != want[name]:
                problems.append(f"{name}: sha256 differs from the reference")
        return problems, {}

    # -- cantor workload -------------------------------------------------

    def _decompose(self, req, result, spec):
        problems = []
        p_text = result.files.get("p.csv", b"").decode()
        n_text = result.files.get("n.csv", b"").decode()
        facts = {"p": _csv_map(p_text), "n": _csv_map(n_text)}
        if req.arithmetic is None:
            ex = self.exact(spec.key)
            grid = ex.verification_grid(_decompose_grid(req))
            want_p = "x,value\n" + "".join(f"{sig15(x)},{sig15(ex.p(x))}\n" for x in grid)
            want_n = "x,value\n" + "".join(f"{sig15(x)},{sig15(ex.n(x))}\n" for x in grid)
            if p_text != want_p:
                problems.append("p.csv differs from the exact variation function")
            if n_text != want_n:
                problems.append("n.csv differs from the exact p - F")
            last_p = p_text.rstrip("\n").rsplit("\n", 1)[-1].split(",")[-1]
            if last_p != sig15(ex.variation):
                problems.append(f"p(b) = {last_p} is not V = {ex.variation}")
            if spec.cantor_level is not None:
                if any(v != "0" for v in _csv_column(n_text)):
                    problems.append("n is not identically 0 on a Cantor iterate")
        else:
            for part, data in (("p", facts["p"]), ("n", facts["n"])):
                if not data:
                    problems.append(f"{part}.csv is empty")
        return problems, facts

    def _variation(self, req, result, spec):
        problems = []
        m = re.fullmatch(r"variation from (\S+) to (\S+): (\S+) \(converged=True, "
                         r"partition size (\d+)\)\n", result.stdout)
        if m is None:
            return [f"unexpected output {result.stdout!r}"], {}
        value = m.group(3)
        facts = {"V": Fraction(value)}
        if req.arithmetic is None:
            ex = self.exact(spec.key)
            want = (f"variation from {ex.a} to {ex.b}: {ex.variation} "
                    f"(converged=True, partition size {ex.segment_count() + 1})\n")
            if result.stdout != want:
                problems.append(f"got {result.stdout!r}, want {want!r}")
            if spec.cantor_level is not None and Fraction(value) != 1:
                problems.append(f"Cantor variation {value} != 1")
        return problems, facts

    def _lusin(self, req, result, spec):
        problems = []
        lines = result.stdout.splitlines()
        rows = []
        for line in lines[:-1]:
            m = re.fullmatch(r"level (\d+): set measure (\S+), image measure (\S+)", line)
            if m is None:
                return [f"unexpected line {line!r}"], {}
            rows.append((int(m.group(1)), float(m.group(2)), float(m.group(3))))
        verdict = lines[-1].removeprefix("verdict: ") if lines else ""
        facts = {"verdict": verdict, "rows": rows}
        if spec.cantor_level is not None and verdict != "fails":
            problems.append(f"Lusin verdict {verdict!r} on a Cantor iterate")
        if req.arithmetic is None:
            ex = self.exact(spec.key)
            levels = int(req.argv[req.argv.index("--levels") + 1])
            want_lines, images = [], []
            for j in range(1, levels + 1):
                comps = cantor_level_components(j, ex.a, ex.b)
                mu = sum(hi - lo for lo, hi in comps)
                img = ex.image_measure(comps)
                images.append(img)
                want_lines.append(f"level {j}: set measure {sig15(mu)}, "
                                  f"image measure {sig15(img)}")
            want_lines.append(f"verdict: {lusin_verdict(images)}")
            if lines != want_lines:
                problems.append("lusin output differs from the exact image measures")
        return problems, facts

    def _ac(self, req, result, spec):
        problems = []
        lines = result.stdout.splitlines()
        rows = []
        for line in lines[:-1]:
            m = re.fullmatch(r"delta (\S+): omega (\S+)", line)
            if m is None:
                return [f"unexpected line {line!r}"], {}
            rows.append((float(m.group(1)), float(m.group(2))))
        verdict = lines[-1].removeprefix("verdict: ") if lines else ""
        facts = {"verdict": verdict, "rows": rows}
        if spec.cantor_level is not None and verdict != "not_ac":
            problems.append(f"modulus verdict {verdict!r} on a Cantor iterate")
        if req.arithmetic is None:
            ex = self.exact(spec.key)
            deltas = sorted(Fraction(t) for t in
                            req.argv[req.argv.index("--deltas") + 1].split(","))
            omegas = [ex.omega(d) for d in deltas]
            want = [f"delta {sig15(d)}: omega {sig15(w)}" for d, w in zip(deltas, omegas)]
            want.append(f"verdict: {ac_verdict(omegas)}")
            if lines != want:
                problems.append("ac output differs from the exact modulus")
        return problems, facts

    def _uniform_approx(self, req, result, spec):
        problems = []
        approx = result.value
        pf = approx.p_function
        facts = {"V": pf.total}
        if req.arithmetic is None:
            ex = self.exact(spec.key)
            eps = req.call["eps"]
            if pf.total != ex.variation:
                problems.append(f"p(b) = {pf.total} != V = {ex.variation}")
            grid = ex.verification_grid(257)
            bad = [x for x in grid if pf(x) != ex.p(x)]
            if bad:
                problems.append(f"p differs from the exact variation function at "
                                f"{len(bad)} grid points, first {bad[0]}")
            if spec.cantor_level is not None and any(pf(x) != ex.value(x) for x in grid):
                problems.append("p - F is not identically 0 on a Cantor iterate")
            for x in grid[::8]:
                gap = ex.p(x) - approx.evaluate(x)
                if not 0 <= gap < eps:
                    problems.append(f"approximant defect {gap} at {x} outside [0, eps)")
                    break
        return problems, facts

    def _propagation(self, req, result, spec):
        problems = []
        report = result.value
        # the cover sums depend on the cells, and float segmentation may
        # merge knots that rational mode keeps apart (float cantor_6 has
        # 117 monotone segments, rational 127), so only mode-invariant
        # quantities are compared across modes
        rows = [(r.level, r.feasible, r.ok, r.set_measure, r.image_measure)
                for r in report.rows]
        facts = {"rows": rows}
        if not report.all_ok or not report.any_feasible:
            problems.append(f"propagation all_ok={report.all_ok}, "
                            f"any_feasible={report.any_feasible}")
        for row in report.rows:
            if row.feasible and not (row.max_p_sum < 5 * row.epsilon
                                     and row.max_n_sum < 9 * row.epsilon):
                problems.append(f"eps {row.epsilon}: budget exceeded")
        if req.arithmetic is None and spec.knots is not None:
            ex = self.exact(spec.key)
            count = req.call["count"]
            for eps, row in zip(req.call["eps"], report.rows):
                level = img = mu = None
                for j in range(1, 41):
                    comps = shrinking_components(j, ex.a, ex.b, count)
                    mu_j = sum(hi - lo for lo, hi in comps)
                    img_j = ex.image_measure(comps)
                    if 2 * img_j < eps and 2 * mu_j < eps:
                        level, img, mu = j, img_j, mu_j
                        break
                if (row.level, row.set_measure, row.image_measure) != (level, mu, img):
                    problems.append(f"eps {eps}: level {row.level} with measures "
                                    f"{row.set_measure}, {row.image_measure}; "
                                    f"want {level}, {mu}, {img}")
        return problems, facts

    # -- certify workload ------------------------------------------------

    def _certify(self, req, result, spec):
        problems, facts = [], {}
        trace = _load_trace(result, problems)
        if trace is None:
            return problems, facts
        eps = _number(trace["epsilon"])
        tol = _tol(spec)
        exact = req.arithmetic is None and spec.doc["arithmetic"] == "rational"
        for cell in trace["cells"]:
            terms = sum(1 + len(cp["components"]) for cp in cell["cover"])
            grace = 0 if exact else 10 * tol * max(1, terms)
            problems += _ledger_problems(cell["ledger"], grace, f"cell {cell['index']}")
        max_p, max_n = _number(trace["max_p_sum"]), _number(trace["max_n_sum"])
        if not max_p < 5 * eps:
            problems.append(f"max p-cover {max_p} not below 5*eps")
        if not max_n < 9 * eps:
            problems.append(f"max n-cover {max_n} not below 9*eps")
        if f"variation certificate: {len(trace['cells'])} cells," not in result.stdout:
            problems.append("stdout cell count differs from the trace")
        # float twins are the dyadic sawtooths, whose cells are the same in
        # both modes, so the cover sums are comparable
        facts = {"cells": len(trace["cells"]), "max_p": max_p, "max_n": max_n}
        return problems, facts

    def _certify_shift(self, req, result, spec):
        problems = []
        trace = _load_trace(result, problems)
        if trace is None:
            return problems, {}
        eps = _number(trace["epsilon"])
        exact = req.arithmetic is None and spec.doc["arithmetic"] == "rational"
        problems += _ledger_problems(trace["ledger"], 0 if exact else 10 * _tol(spec),
                                     "shift")
        bound = _number(trace["shift_bound"])
        if not bound < 2 * eps:
            problems.append(f"shift bound {bound} not below 2*eps")
        return problems, {"bound": bound}


def _decompose_grid(req) -> int:
    return int(req.argv[req.argv.index("--grid") + 1])


def _csv_map(text) -> dict:
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return {x: float(v) for x, v in rows}


def _csv_column(text) -> list:
    return [line.split(",")[1] for line in text.splitlines()[1:]]


def _number(value):
    return Fraction(value) if isinstance(value, str) else value


def _load_trace(result, problems):
    try:
        return json.loads(result.files["trace.json"])
    except (KeyError, ValueError) as exc:
        problems.append(f"unreadable certificate trace: {exc}")
        return None


def _ledger_problems(entries, grace, context) -> list:
    """Every strict entry must hold exactly (this is ``trace.ok``); every
    non-strict one within the grace the certificate itself allows."""
    out = []
    for e in entries:
        lhs, rhs = _number(e["lhs"]), _number(e["rhs"])
        holds = lhs < rhs if e["strict"] else lhs <= rhs + grace
        if not holds:
            out.append(f"{context}: ledger entry {e['name']} fails: {lhs} vs {rhs}")
    return out


def _tol(spec: ModelSpec) -> float:
    return float(spec.doc.get("tol", FLOAT_TOL)) if spec is not None else FLOAT_TOL


def _close(a, b, tol) -> bool:
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


def compare_twins(facts: dict, twin: dict, tol: float) -> list:
    """Float facts against the rational twin's, within the model's tolerance.

    Numbers compare within ``tol`` relative to max(1, |exact|); verdicts,
    levels and counts compare exactly; CSV columns compare at every x the
    two grids share, and must share the domain endpoints.
    """
    problems = []
    for key, want in twin.items():
        got = facts.get(key)
        if isinstance(want, dict):  # CSV column: x string -> value
            common = set(got) & set(want)
            ends = {min(want, key=float), max(want, key=float)}
            if not ends <= common:
                problems.append(f"{key}: float grid misses the domain endpoints")
            off = [x for x in common if not _close(got[x], want[x], tol)]
            if off:
                problems.append(f"{key}: {len(off)} values beyond tolerance, e.g. "
                                f"x={off[0]}: {got[off[0]]} vs {want[off[0]]}")
        elif isinstance(want, list):
            if len(got) != len(want):
                problems.append(f"{key}: {len(got)} rows vs {len(want)}")
                continue
            for g_row, w_row in zip(got, want):
                for g, w in zip(g_row, w_row):
                    if isinstance(w, (bool, str)) or w is None or isinstance(w, int):
                        same = g == w
                    else:
                        same = _close(g, w, tol)
                    if not same:
                        problems.append(f"{key}: {g_row} vs {w_row}")
                        break
        elif isinstance(want, str) or isinstance(want, int):
            if got != want:
                problems.append(f"{key}: {got!r} vs {want!r}")
        elif not _close(got, want, tol):
            problems.append(f"{key}: {got} vs {want} beyond tolerance {tol}")
    return problems


# ---------------------------------------------------------------------------
# self-check: corrupted outputs must be caught
# ---------------------------------------------------------------------------


class _ShiftedP:
    def __init__(self, pf, delta):
        self.pf, self.delta, self.total = pf, delta, pf.total + delta

    def __call__(self, x):
        return self.pf(x) + self.delta


class _CorruptApprox:
    def __init__(self, approx, delta):
        self.p_function = _ShiftedP(approx.p_function, delta)
        self.evaluate = approx.evaluate


def _flip_digit(data: bytes) -> bytes:
    """Change the last digit in the bytes (7 -> 8, any other -> 7)."""
    for i in range(len(data) - 1, -1, -1):
        if 48 <= data[i] <= 57:
            new = b"8" if data[i] == ord("7") else b"7"
            return data[:i] + new + data[i + 1:]
    return data + b"7"


def corrupt(req, result: Result) -> Result:
    """A copy of the result with one output value damaged."""
    if req.op == "corpus-report":
        name = sorted(n for n in result.files if n.endswith(".csv"))[0]
        return replace(result, files=dict(result.files, **{
            name: _flip_digit(result.files[name])}))
    if req.op == "decompose":
        head, last = result.files["p.csv"].decode().rstrip("\n").rsplit("\n", 1)
        x, v = last.split(",")
        text = f"{head}\n{x},{sig15(float(v) + 1)}\n"
        return replace(result, files=dict(result.files, **{"p.csv": text.encode()}))
    if req.op in ("certify", "certify-shift"):
        trace = json.loads(result.files["trace.json"])
        ledger = trace["cells"][0]["ledger"] if req.op == "certify" else trace["ledger"]
        strict = next(e for e in ledger if e["strict"])
        strict["lhs"] = strict["rhs"]
        files = dict(result.files, **{"trace.json": json.dumps(trace).encode()})
        return replace(result, files=files)
    if req.op == "uniform_approx":
        delta = Fraction(1, 2 ** 40) if req.arithmetic is None else 1e-6
        return replace(result, value=_CorruptApprox(result.value, delta))
    if req.op == "propagation":
        rows = tuple(replace(r, max_p_sum=5 * r.epsilon) for r in result.value.rows)
        return replace(result, value=replace(result.value, rows=rows))
    if req.op == "variation":
        m = re.search(r": (\S+) \(", result.stdout)
        bumped = str(Fraction(m.group(1)) + 1)
        return replace(result, stdout=result.stdout.replace(m.group(0), f": {bumped} ("))
    head, _, verdict = result.stdout.rstrip("\n").rpartition("verdict: ")
    other = "inconclusive" if verdict != "inconclusive" else "fails"
    return replace(result, stdout=f"{head}verdict: {other}\n")
