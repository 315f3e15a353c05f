"""The one-pass JSON writer against the reference rendering.

``dump_json`` must write exactly what ``json.dump(jsonable(v), fh,
indent=2, sort_keys=True)`` plus a newline writes, for every value the
toolkit hands it and for the values Hypothesis builds around them.
"""

import importlib.util
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvkit import specio
from bvkit._num import as_number
from bvkit.certificate import shift_certificate, variation_certificate
from bvkit.cli import main
from bvkit.corpus import CorpusConfig, run_corpus
from bvkit.intervals import Interval, IntervalSet
from bvkit.measure import cantor_family, lusin_probe, shrinking_family
from bvkit.specio import dump_json, jsonable, load_intervals, load_model

from support import corpus_by_name

F = Fraction
BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def reference(value) -> str:
    buf = io.StringIO()
    json.dump(jsonable(value), buf, indent=2, sort_keys=True)
    return buf.getvalue() + "\n"


def written(value, tmp_path) -> str:
    path = tmp_path / "out.json"
    dump_json(value, path)
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def str_keys_only(value) -> bool:
    """Whether every dict inside value has str keys only."""
    if isinstance(value, dict):
        return (all(type(k) is str for k in value)
                and all(str_keys_only(v) for v in value.values()))
    if isinstance(value, (list, tuple)):
        return all(str_keys_only(v) for v in value)
    if hasattr(value, "__dataclass_fields__") and not isinstance(value, Interval):
        return all(str_keys_only(getattr(value, n)) for n in value.__dataclass_fields__)
    return True


# -- Hypothesis values --------------------------------------------------------


@dataclass(frozen=True)
class Record:
    # fields out of sorted order, as the toolkit's dataclasses declare them
    zeta: object
    alpha: object
    mid: object = None


@dataclass
class Wide:
    name: object
    b: object
    a: object


class Real(float):
    """A float subclass: json writes it through ``float.__repr__``."""

    def __repr__(self):
        return "Real(...)"


huge_ints = st.integers(min_value=-(10 ** 400), max_value=10 ** 400)
fractions = st.builds(F, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308])
ends = st.integers(-50, 50) | fractions | st.floats(-1e6, 1e6) | st.just(-0.0)
texts = st.text(max_size=12) | st.sampled_from(["", "é", "日本", "a\"b\\c\n\t", "\x00\x7f", "\U0001f600"])
intervals = st.builds(Interval, ends, ends, st.booleans(), st.booleans())
interval_sets = st.lists(intervals, max_size=5).map(IntervalSet)
scalars = (st.none() | st.booleans() | huge_ints | floats | texts | fractions
           | intervals | interval_sets | floats.map(Real))


def containers(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(texts | st.integers(-3, 3), children, max_size=4)
            | st.builds(Record, children, children, children)
            | st.builds(Wide, children, children, children))


values = st.recursive(scalars, containers, max_leaves=30)


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("writer")


class TestWriterMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(value=values)
    def test_hypothesis_values(self, value, outdir):
        assert written(value, outdir) == reference(value)

    @pytest.mark.parametrize("value", [
        [], {}, (), "", 0, -0.0, math.nan, math.inf, -math.inf, True, None,
        10 ** 300, -(10 ** 300), F(-7, 3), F(8), "ünïcödé ☃", {"": []},
        Interval(F(1, 3), 1.5, True, False), IntervalSet(), Record([], {}),
        {"b": {}, "a": [[], [{}]], "c": ()}, [Real(0.1), Real(math.nan)],
        {1: "one", "1": "uno", None: 0, 2.5: 1},
    ], ids=repr)
    def test_edge_values(self, value, tmp_path):
        assert written(value, tmp_path) == reference(value)

    @pytest.mark.parametrize("value", [
        object(), {1, 2}, b"bytes", 1j, [0, [object()]], {"k": {"k": {2}}},
        Record(zeta=1, alpha=frozenset()),
    ], ids=["object", "set", "bytes", "complex", "nested", "dict", "field"])
    def test_unwritable_values_raise_type_error(self, value, tmp_path):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            reference(value)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            dump_json(value, tmp_path / "out.json")

    def test_int_past_the_digit_limit_raises_as_json_does(self, tmp_path):
        big = 10 ** 5000
        with pytest.raises(ValueError):
            reference(big)
        with pytest.raises(ValueError):
            dump_json([big], tmp_path / "out.json")


def _bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_traces(tmp_path_factory):
    """The certificate traces of the bench's certify workload at seed 3:
    variation and shift, rational and float, 16 to 64 components."""
    workload = _bench_workloads().build("certify", 3)
    indir = tmp_path_factory.mktemp("certify")
    workload.write_inputs(str(indir))
    traces = []
    for req in workload.requests:
        if not (req.argv and "--trace" in req.argv):
            continue
        argv = [a.replace("{in}", str(indir)) for a in req.argv]
        arithmetic = argv[argv.index("--arithmetic") + 1] if "--arithmetic" in argv else None
        model = load_model(argv[argv.index("certify") + 1], arithmetic)
        nullset = load_intervals(argv[argv.index("--nullset") + 1], model.arithmetic)
        eps = as_number(argv[argv.index("--eps") + 1], model.arithmetic)
        certify = shift_certificate if "--shift" in argv else variation_certificate
        traces.append(certify(model, nullset, eps))
    return traces


class TestToolkitDocuments:
    def test_bench_traces(self, bench_traces, tmp_path):
        assert len(bench_traces) == 8
        assert {type(t).__name__ for t in bench_traces} == {"CertificateTrace",
                                                             "ShiftTrace"}
        lines = []
        for trace in bench_traces:
            text = written(trace, tmp_path)
            assert text == reference(trace)
            lines.append(text.count("\n"))
        # each line holds a chunk at least, so every trace goes out in
        # more than one batch, and the largest in several
        assert min(lines) > specio._BATCH and max(lines) > 8 * specio._BATCH

    def test_lusin_report_and_corpus_payload(self, tmp_path):
        by_name = corpus_by_name()
        model = by_name["cantor_2"].model
        for family in (cantor_family((model.a, model.b)),
                       shrinking_family((0.0, 1.0), count=3)):
            report = lusin_probe(model, family, 6)
            assert written(report, tmp_path) == reference(report)
        table = run_corpus([by_name[n] for n in ("identity", "cantor_2", "square")],
                           CorpusConfig(grid_points=128))
        payload = table.payload()
        assert written(payload, tmp_path) == reference(payload)

    def test_documents_reaching_the_writer_have_str_keys(self, bench_traces):
        # dump_json renders a key as str(k), as jsonable did; every dict the
        # toolkit writes has str keys already, so no key is renamed
        by_name = corpus_by_name()
        table = run_corpus([by_name["zigzag"]], CorpusConfig(grid_points=128))
        report = lusin_probe(by_name["zigzag"].model, cantor_family(), 4)
        for doc in bench_traces + [table.payload(), report]:
            assert str_keys_only(doc)

    def test_cli_files_are_canonical(self, tmp_path, capsys):
        # what the CLI writes reads back to the same text through json
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"arithmetic": "rational", "pieces": [
            {"kind": "linear", "domain": ["0", "1/2"], "params": {"slope": "2", "intercept": "0"}},
            {"kind": "constant", "domain": ["1/2", "3/4"], "params": {"value": "1"}},
            {"kind": "linear", "domain": ["3/4", "1"],
             "params": {"slope": "-2", "intercept": "5/2"}}]}))
        nullset = tmp_path / "ns.json"
        nullset.write_text(json.dumps({"components": [
            {"lo": "1/8", "hi": "9/64"}, {"lo": "5/8", "hi": "41/64"}]}))
        outputs = []
        for k, argv in enumerate([
                ["certify", spec, "--nullset", nullset, "--eps", "1/8", "--trace"],
                ["--arithmetic", "float", "certify", spec, "--nullset", nullset,
                 "--eps", "1/8", "--trace"],
                ["lusin", spec, "--levels", "5", "--report"],
                ["recover", spec, "--grid", "64", "--report"]]):
            out = tmp_path / f"out{k}.json"
            assert main([str(a) for a in argv] + [str(out)]) == 0
            outputs.append(out.read_text(encoding="utf-8"))
        capsys.readouterr()
        for text in outputs:
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
