"""bvkit benchmark: closed-loop workloads with checked outputs.

Run from the repository root::

    python3 bench/run.py --workload cantor --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Workloads (see ``workloads.py`` for why each exists): ``corpus``,
``cantor`` and ``certify``.  Each is a closed loop: one client, one
process, one thread, each request starting when the previous one returns.
Requests go through ``bvkit.cli.main`` argument lists, or a library call
where the CLI has no command, and every request loads its model fresh
from its spec file, because ``FunctionModel.cached`` memoizes segments and
the Jordan decomposition per instance.

``--trace 0`` runs whole passes over the request list for about
``--seconds`` (at least two passes) and reports the end-to-end metrics:

* ``setup_s``: interpreter start to first request ready (``import
  bvkit`` with numpy, then writing the generated inputs), the median of
  seven fresh interpreters;
* ``pass_s``: median over passes of the summed request wall times;
* ``peak_rss_mb``: ``ru_maxrss`` of this process at the end of the run.

The summary lines above the result also give ``request_s.p50`` (median
request wall time, with its sample count), ``request_s.p90`` where at
least ten requests lie beyond it, and ``fail_ratio``: failed / attempted
requests, where a request fails if it raises, exits non-zero or fails its
output check (``oracle.py``), including the cross-mode check of a float
request against its rational twin.  These three are not in the result's
metrics: ``fail_ratio`` is 0 when all is well (``failed`` and ``correct``
carry it), ``corpus`` has too few requests for a tail, and the median of
a mix of 44 request kinds jumps between kinds from run to run.

``--trace 1`` runs one untraced pass, then one pass with the span tracer
installed (``tracer.py``), then a Cantor scaling sweep, and reports the
per-layer metrics named in BENCHMARK.json.  Spans are written to
``.bench_runs/<workload>-seed<seed>-spans.csv``; every run writes a record
with the host context to ``.bench_runs/``.

Every run also corrupts one output of each request kind of its last pass
and requires the oracle to reject it; if it does not, the run is not
correct.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import os

# pin BLAS threads before numpy can be imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
SETUP_PROBES = 7
MIN_PASSES = 2
CALIBRATION_LOOP = 2_000_000
SWEEP_LEVELS = (5, 6, 7, 8, 9)
SWEEP_EPS = Fraction(1, 16)
CORPUS_ENTRIES = ("identity", "neg_slope", "square", "cubic", "zigzag", "mixed",
                  "xsin_trunc", "x2sin_trunc", "cantor_2", "cantor_4",
                  "cantor_6", "cantor_8")

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the benchmark's own modules, next to this file)
from oracle import Oracle, Result, corrupt  # noqa: E402
from tracer import Tracer  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (for example, no bvkit sources)."""


def import_bvkit():
    """Import bvkit from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "bvkit" / "__init__.py").is_file():
        raise BenchError(f"no bvkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bvkit
    import bvkit.cli  # noqa: F401  (not imported by the package itself)

    if Path(bvkit.__file__).resolve().parent != (SRC / "bvkit").resolve():
        raise BenchError(f"imported bvkit from {bvkit.__file__}, not {SRC}")
    return bvkit


def prepare(workload_name: str, seed: int, indir: Path):
    """Set-up as timed by ``setup_s``: import bvkit, generate the inputs."""
    import_bvkit()
    workload = workloads.build(workload_name, seed)
    workload.write_inputs(str(indir))
    return workload


# ---------------------------------------------------------------------------
# host context and calibration
# ---------------------------------------------------------------------------


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop, to expose host speed drift."""
    t0 = perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i
    return perf_counter() - t0


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def host_context() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "bvkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------


def measure_setup(workload_name: str, seed: int, workdir: Path) -> list:
    """Interpreter start to first request ready, in fresh interpreters."""
    samples = []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"setup-{k}"
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             str(probe_dir), "--workload", workload_name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT))
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


def _library_call(req, indir: Path):
    """Load the model fresh from its spec file, then call the library."""
    specio = sys.modules["bvkit.specio"]
    with open(indir / f"{req.model}.json", "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if req.arithmetic is not None:
        doc["arithmetic"] = req.arithmetic
    model = specio.model_from_dict(doc)
    num = float if model.arithmetic == "float" else Fraction
    if req.op == "uniform_approx":
        return sys.modules["bvkit.variation"].uniform_approx(model, num(req.call["eps"]))
    family = sys.modules["bvkit.measure"].shrinking_family(
        (model.a, model.b), count=req.call["count"])
    return sys.modules["bvkit.certificate"].lusin_propagation_check(
        model, family, [num(e) for e in req.call["eps"]])


def execute(req, indir: Path, outdir: Path, tracer=None, request_id: int = 0):
    """Run one request; only the bvkit call itself is timed (and traced)."""
    outdir.mkdir(parents=True)
    buf = io.StringIO()
    result = Result(rc=None)
    if tracer is not None:
        tracer.request_id = request_id
        tracer.enabled = True
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if req.argv is not None:
                argv = [a.replace("{in}", str(indir)).replace("{out}", str(outdir))
                        for a in req.argv]
                result.rc = sys.modules["bvkit.cli"].main(argv)
            else:
                result.value = _library_call(req, indir)
                result.rc = 0
    except (Exception, SystemExit):  # a failed request is counted, not fatal
        result.error = traceback.format_exc(limit=3)
    finally:
        result.seconds = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
    result.stdout = buf.getvalue()
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            rel = path.relative_to(outdir).as_posix()
            result.files[rel.removeprefix("report/")] = path.read_bytes()
    shutil.rmtree(outdir)
    return result


class Runner:
    """Runs passes over one workload's request list and checks outputs."""

    def __init__(self, workload, indir: Path, workdir: Path, oracle):
        self.workload = workload
        self.indir = indir
        self.workdir = workdir
        self.oracle = oracle
        self.next_id = 0
        self.attempted = 0
        self.failures: list = []
        self.last_pass: list = []
        self.last_facts: dict = {}
        self.request_times: dict = {}

    def run_pass(self, tracer=None) -> list:
        facts = {}
        done = []
        for req in self.workload.requests:
            rid = self.next_id
            self.next_id += 1
            result = execute(req, self.indir, self.workdir / f"req-{rid}", tracer, rid)
            problems, facts[req.key] = self.oracle.check(
                req, result, facts.get(req.twin) if req.twin else None)
            self.attempted += 1
            self.request_times.setdefault(req.key, []).append(result.seconds)
            if problems:
                self.failures.append({"request": req.key, "problems": problems[:5]})
            done.append((req, result))
        self.last_pass, self.last_facts = done, facts
        return [result.seconds for _, result in done]

    def self_check(self) -> dict:
        """Corrupt one output of each request kind; each must be rejected."""
        seen = set()
        caught, missed = 0, []
        for req, result in self.last_pass:
            kind = (req.op, req.arithmetic)
            if kind in seen:
                continue
            seen.add(kind)
            twin = self.last_facts.get(req.twin) if req.twin else None
            problems, _ = self.oracle.check(req, corrupt(req, result), twin)
            if problems:
                caught += 1
            else:
                missed.append(req.key)
        return {"caught": caught, "missed": missed}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def cantor_sweep() -> tuple:
    """Jordan, Lusin probe and propagation check on Cantor levels 5-9, each
    on a model loaded fresh, untraced; returns times and any problems."""
    specio = sys.modules["bvkit.specio"]
    measure = sys.modules["bvkit.measure"]
    variation = sys.modules["bvkit.variation"]
    certificate = sys.modules["bvkit.certificate"]
    times, problems = {}, []
    for level in SWEEP_LEVELS:
        doc = workloads.cantor_model(level).doc

        def jordan(model):
            d = variation.jordan_decomposition(model)
            return d.p.evaluate(model.b) == 1 and d.n.evaluate(model.b) == 0

        def probe(model):
            report = measure.lusin_probe(model, measure.cantor_family((0, 1)), level)
            return report.verdict == "fails"

        def propagation(model):
            report = certificate.lusin_propagation_check(
                model, measure.shrinking_family((0, 1)), [SWEEP_EPS])
            return report.all_ok and report.any_feasible

        for layer, call in (("jordan", jordan), ("lusin_probe", probe),
                            ("propagation", propagation)):
            model = specio.model_from_dict(doc)
            t0 = perf_counter()
            ok = call(model)
            times[(layer, level)] = perf_counter() - t0
            if not ok:
                problems.append(f"sweep {layer} level {level}: wrong result")
    return times, problems


def layer_metrics(tracer, s: dict, traced_pass_s: float, untraced_pass_s: float,
                  sweep_times: dict) -> dict:
    """Per-layer metrics from the traced pass (``s`` is its span summary)
    and the sweep."""
    names = s["names"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def secs(name):
        return names.get(name, {}).get("s", 0.0)

    counts = tracer.counts
    grid_points = counts.get("density.grid_points", 0)
    per_point = tracer.count_under("measure.image_set", "density.bv_density")
    m = {
        "model.evaluate_calls": (calls("model.evaluate"), "count"),
        "model.segments_s": (secs("model.build_segments"), "s"),
        "model.cache_lookups": (counts.get("model.cache_lookups", 0), "count"),
        "model.cache_builds": (counts.get("model.cache_builds", 0), "count"),
        "model.preimage_calls": (calls("model.preimage"), "count"),
        "model.preimage_s": (secs("model.preimage"), "s"),
        "model.level_points_calls": (calls("model.level_points"), "count"),
        "model.bisect_calls": (calls("model.bisect_solve"), "count"),
        "model.bisect_evals": (counts.get("model.bisect_evals", 0), "count"),
        "model.bisect_maxiter_exits": (counts.get("model.bisect_maxiter_exits", 0), "count"),
        "variation.jordan_calls": (calls("variation.jordan_decomposition"), "count"),
        "variation.jordan_s": (secs("variation.jordan_decomposition"), "s"),
        "variation.total_variation_s": (secs("variation.total_variation"), "s"),
        "variation.uniform_approx_s": (secs("variation.uniform_approx"), "s"),
        "intervals.sets_built": (calls("intervals.IntervalSet"), "count"),
        "intervals.set_build_s": (secs("intervals.IntervalSet"), "s"),
        "measure.image_set_calls": (calls("measure.image_set"), "count"),
        "measure.image_set_s": (secs("measure.image_set"), "s"),
        "measure.lusin_probe_s": (secs("measure.lusin_probe"), "s"),
        "density.bv_density_s": (secs("density.bv_density"), "s"),
        "density.monotone_density_calls": (calls("density.monotone_density"), "count"),
        "density.grid_points": (grid_points, "count"),
        "density.image_sets_per_point": (per_point / grid_points if grid_points else 0.0, "1"),
        "density.reconstruction_s": (secs("density.reconstruction_error"), "s"),
        "density.ac_modulus_s": (secs("density.ac_modulus"), "s"),
        "certificate.variation_certificate_s": (secs("certificate.variation_certificate"), "s"),
        "certificate.shift_certificate_s": (secs("certificate.shift_certificate"), "s"),
        "certificate.propagation_s": (secs("certificate.lusin_propagation_check"), "s"),
        "certificate.cells": (counts.get("certificate.cells", 0), "count"),
        "certificate.cover_pieces": (counts.get("certificate.cover_pieces", 0), "count"),
        "certificate.ledger_entries": (counts.get("certificate.ledger_entries", 0), "count"),
    }
    for entry in CORPUS_ENTRIES:
        m[f"corpus.entry_s.{entry}"] = (s["labels"].get(entry, 0.0), "s")
    m.update({
        "plots.write_report_s": (secs("plots.write_report"), "s"),
        "plots.bytes_written": (counts.get("plots.bytes_written", 0), "count"),
        "specio.load_s": (secs("specio.model_from_dict") + secs("specio.load_intervals"), "s"),
        "specio.dump_s": (secs("specio.dump_json") + secs("specio.jsonable"), "s"),
        "cli.self_s": (names.get("cli.main", {}).get("self_s", 0.0), "s"),
    })
    # intervals and specio have no child spans, so their self time is
    # already set_build_s and load_s + dump_s
    for layer, self_s in s["layer_self_s"].items():
        if layer not in ("cli", "intervals", "specio"):
            m[f"{layer}.self_s"] = (self_s, "s")
    m["trace.spans"] = (s["spans"], "count")
    m["trace.overhead_ratio"] = (traced_pass_s / untraced_pass_s, "1")
    for layer in ("jordan", "lusin_probe", "propagation"):
        for level in SWEEP_LEVELS:
            m[f"sweep.{layer}_s.L{level}"] = (sweep_times[(layer, level)], "s")
            if level - 1 in SWEEP_LEVELS:
                m[f"sweep.{layer}_ratio.L{level}"] = (
                    sweep_times[(layer, level)] / sweep_times[(layer, level - 1)], "1")
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def percentile_summary(samples: list) -> dict:
    out = {"count": len(samples), "p50": statistics.median(samples)}
    if len(samples) >= 2:
        p90 = statistics.quantiles(samples, n=10)[-1]
        beyond = sum(1 for x in samples if x > p90)
        if beyond >= 10:
            out.update(p90=p90, beyond_p90=beyond)
    return out


def run_workload(args) -> int:
    if not (SRC / "bvkit" / "__init__.py").is_file():
        raise BenchError(f"no bvkit sources under {SRC}")
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(OUT / f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        calibration_before = calibrate()
        indir = workdir / "inputs"
        workload = prepare(args.workload, args.seed, indir)
        host = host_context()
        digests = None
        if args.workload == "corpus":
            digests = json.loads((HERE / "corpus_digests.json").read_text())["files"]
        runner = Runner(workload, indir, workdir, Oracle(workload, digests))
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "host": host, "requests_per_pass": len(workload.requests)}
        if args.trace:
            metrics = traced_run(runner, args, record)
        else:
            metrics = timed_run(runner, args, record)
        record["self_check"] = runner.self_check()
        record["calibration_s"] = {"before": calibration_before, "after": calibrate(),
                                   "loop_iterations": CALIBRATION_LOOP}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(runner.failures)
    correct = failed == 0 and not record["self_check"]["missed"]
    record.update(attempted=runner.attempted, failed=failed, correct=correct,
                  failures=runner.failures[:20],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print_summary(record)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


def timed_run(runner, args, record) -> dict:
    setup = measure_setup(args.workload, args.seed, runner.workdir)
    pass_s, request_s = [], []
    t0 = perf_counter()
    # start another pass only if it should end within half a pass of the
    # limit, so a run lasts about --seconds however long a pass takes
    while (len(pass_s) < MIN_PASSES
           or perf_counter() - t0 < args.seconds - pass_s[-1] / 2):
        times = runner.run_pass()
        pass_s.append(sum(times))
        request_s.extend(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    requests = percentile_summary(request_s)
    record.update(setup_s_samples=setup, pass_s_samples=pass_s, request_s=requests,
                  request_times=runner.request_times,
                  fail_ratio=len(runner.failures) / runner.attempted,
                  wall_s=perf_counter() - t0)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(pass_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def traced_run(runner, args, record) -> dict:
    untraced = sum(runner.run_pass())
    tracer = Tracer()
    tracer.install()
    try:
        traced = sum(runner.run_pass(tracer))
    finally:
        tracer.uninstall()
    warm = [rid for rid, cold in tracer.first_lookup_cold.items() if not cold]
    if warm:
        runner.failures.append({"request": f"ids {warm[:5]}",
                                "problems": ["request started with a warm model cache"]})
    sweep_times, sweep_problems = cantor_sweep()
    runner.attempted += 3 * len(SWEEP_LEVELS)
    for problem in sweep_problems:
        runner.failures.append({"request": "sweep", "problems": [problem]})
    summary = tracer.summary()
    metrics = layer_metrics(tracer, summary, traced, untraced, sweep_times)
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.csv"
    tracer.write(str(spans))
    record.update(untraced_pass_s=untraced, traced_pass_s=traced, spans_file=spans.name,
                  trace_summary=summary["names"])
    return metrics


def print_summary(record) -> None:
    host = record["host"]
    cal = record["calibration_s"]
    print(f"host: python {host['python']}, numpy {host['numpy']}, cpu {host['cpu']}, "
          f"nproc {host['nproc']}, revision {host['git_revision'] or 'unknown'}, "
          f"source sha256 {host['source_sha256'][:12]}")
    print(f"calibration loop: {cal['before']:.4f} s before, {cal['after']:.4f} s after")
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} requests attempted, {record['failed']} failed, "
          f"self-check caught {record['self_check']['caught']} corrupted outputs"
          + (f", missed {record['self_check']['missed']}"
             if record["self_check"]["missed"] else ""))
    for failure in record["failures"][:5]:
        print(f"  FAILED {failure['request']}: {failure['problems'][0][:200]}")
    if not record["trace"]:
        rq = record["request_s"]
        notes = {
            "setup_s": f"median of {len(record['setup_s_samples'])} fresh interpreters",
            "pass_s": f"median of {len(record['pass_s_samples'])} passes of "
                      f"{record['requests_per_pass']} requests",
        }
        for name, m in record["metrics"].items():
            print(f"  {name:<16} {m['value']:>12.6g} {m['unit']:<4} {notes.get(name, '')}")
        print(f"  {'request_s.p50':<16} {rq['p50']:>12.6g} s    {rq['count']} samples")
        if "p90" in rq:
            print(f"  {'request_s.p90':<16} {rq['p90']:>12.6g} s    "
                  f"{rq['count']} samples, {rq['beyond_p90']} beyond")
        else:
            print(f"  {'request_s.p90':<16} {'-':>12} s    not reported: "
                  f"fewer than 10 of {rq['count']} samples beyond it")
        print(f"  {'fail_ratio':<16} {record['fail_ratio']:>12.6g} 1    "
              f"{record['failed']} / {record['attempted']}")
    else:
        print(f"  traced pass {record['traced_pass_s']:.3f} s, untraced pass "
              f"{record['untraced_pass_s']:.3f} s, spans in .bench_runs/{record['spans_file']}")


def run_all(args) -> int:
    """Run every workload in its own interpreter and relay the summaries."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=str(ROOT))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="corpus, cantor, certify, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe is not None:
            prepare(args.workload, args.seed, Path(args.setup_probe))
            print(time.monotonic())
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
