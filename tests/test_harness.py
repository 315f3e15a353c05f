import ast
import importlib
import json
import os
import re
import subprocess
import sys
import types
from dataclasses import replace
from fractions import Fraction

import pytest

from bvkit._num import FLOAT, as_number, uniform_grid
from bvkit.cli import main
from bvkit.corpus import (
    CorpusConfig,
    CorpusEntry,
    build_oscillation,
    default_corpus,
    run_corpus,
)
from bvkit.errors import BVKitError, SpecFormatError
from bvkit.intervals import IntervalSet
from bvkit.measure import shrinking_family
from bvkit.model import (
    FunctionModel,
    LinearPiece,
    PolynomialPiece,
    build_cantor_iterate,
    build_identity,
    piecewise_linear,
)
from bvkit.plots import SAMPLES, _float_values, emit_plots, write_report
from bvkit.specio import (
    intervals_from_dict,
    intervals_to_dict,
    load_model,
    model_from_dict,
)
from bvkit.variation import jordan_decomposition, total_variation

from support import corpus_by_name, model_to_dict, piece_params

F = Fraction

FAST = CorpusConfig(grid_points=192)


@pytest.fixture(scope="module")
def small_corpus():
    by_name = corpus_by_name()
    return [by_name[n] for n in ("identity", "zigzag", "cantor_2", "square")]


@pytest.fixture(scope="module")
def small_table(small_corpus):
    return run_corpus(small_corpus, FAST)


class TestCorpus:
    def test_default_composition(self):
        names = {e.name for e in default_corpus()}
        assert {"identity", "neg_slope", "square", "cubic", "zigzag", "mixed",
                "xsin_trunc", "x2sin_trunc", "cantor_2", "cantor_4",
                "cantor_6", "cantor_8"} == names

    def test_flags_respect_equivalence(self):
        for entry in default_corpus():
            t = entry.truth
            assert t["ac"] == (t["continuous"] and t["bv"] and t["lusin"])

    def test_small_run_agrees(self, small_table):
        assert small_table.all_agree
        by_name = {row.name: row for row in small_table.rows}
        assert by_name["cantor_2"].measured == {
            "continuous": True, "bv": True, "lusin": False, "ac": False}
        assert by_name["zigzag"].variation == 4

    def test_rows_sorted_by_name(self, small_table):
        names = [row.name for row in small_table.rows]
        assert names == sorted(names)

    def test_empty_corpus(self):
        table = run_corpus([], FAST)
        assert table.all_agree
        assert table.rows == []

    def test_wrong_flag_detected(self):
        zz = corpus_by_name()["zigzag"]
        # claim the sawtooth misses absolute continuity (and, to keep the
        # entry internally consistent, the null-image property too)
        lying = replace(zz, truth={"continuous": True, "bv": True,
                                   "lusin": False, "ac": False})
        table = run_corpus([lying], FAST)
        assert not table.all_agree
        assert any("lusin" in m for m in table.rows[0].mismatches)

    def test_inconsistent_flags_rejected(self):
        zz = corpus_by_name()["zigzag"]
        with pytest.raises(BVKitError):
            replace(zz, truth={"continuous": True, "bv": True,
                               "lusin": True, "ac": False})

    def test_entry_crash_isolated(self):
        broken = CorpusEntry(
            "broken", build_identity(),
            {"continuous": True, "bv": True, "lusin": True, "ac": True},
            shrinking_family((0, 1)), 8,
            (F(-1),),  # invalid modulus schedule
        )
        table = run_corpus([broken, corpus_by_name()["identity"]], FAST)
        assert not table.all_agree
        by_name = {row.name: row for row in table.rows}
        assert by_name["broken"].error
        assert by_name["identity"].agree

    def test_payload_serializes(self, small_table):
        payload = small_table.payload()
        text = json.dumps(payload, sort_keys=True)
        assert '"all_agree": true' in text
        row = payload["rows"][0]
        assert set(row) >= {"name", "truth", "measured", "variation",
                            "agreement", "lusin_rows", "modulus_rows"}


class TestReportsAndPlots:
    def test_report_and_plots_deterministic(self, small_table, tmp_path):
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        files1 = write_report(small_table, out1)
        files2 = write_report(small_table, out2)
        assert [os.path.basename(f) for f in sorted(files1)] == \
            [os.path.basename(f) for f in sorted(files2)]
        for f1, f2 in zip(sorted(files1), sorted(files2)):
            with open(f1, "rb") as a, open(f2, "rb") as b:
                assert a.read() == b.read()

    def test_expected_artifacts(self, small_table, tmp_path):
        files = emit_plots(small_table, tmp_path)
        names = {os.path.basename(f) for f in files}
        for stem in ("identity", "zigzag", "cantor_2", "square"):
            assert f"{stem}_curves.svg" in names
            assert f"{stem}_curves.csv" in names
            assert f"{stem}_density.csv" in names
            assert f"{stem}_modulus.svg" in names

    def test_svg_is_wellformed_xml(self, small_table, tmp_path):
        import xml.etree.ElementTree as ET
        files = emit_plots(small_table, tmp_path)
        svg = next(f for f in files if f.endswith("zigzag_curves.svg"))
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")

    def test_csv_precision(self, small_table, tmp_path):
        files = emit_plots(small_table, tmp_path)
        csv = next(f for f in files if f.endswith("square_curves.csv"))
        with open(csv) as fh:
            header = fh.readline().strip().split(",")
            assert header == ["x", "F", "p", "n"]
            row = fh.readline().strip().split(",")
            assert len(row) == 4


    def test_discontinuous_row_writes_f_only_curves(self, small_table, tmp_path):
        # Jordan decomposition refuses a jump; the curves fall back to F
        jump = FunctionModel([LinearPiece(0, F(1, 2), 1, 0),
                              LinearPiece(F(1, 2), 1, 1, 1)], name="jump")
        row = small_table.rows[0]
        row = replace(row, name="jump", entry=replace(row.entry, model=jump),
                      density=None, modulus=None)
        files = emit_plots(replace(small_table, rows=[row]), tmp_path)
        assert sorted(os.path.basename(f) for f in files) == [
            "jump_curves.csv", "jump_curves.svg"]
        with open(tmp_path / "jump_curves.csv") as fh:
            assert fh.readline().strip() == "x,F"
            assert len(fh.readline().strip().split(",")) == 2

    @pytest.mark.parametrize("model", [e.model for e in default_corpus()]
                             + [build_cantor_iterate(level) for level in (1, 3, 9)],
                             ids=[e.name for e in default_corpus()]
                             + ["cantor_1", "cantor_3", "cantor_9"])
    def test_curve_floats_match_the_fraction_route(self, model):
        # pair-walk floats are float(v) of the evaluated values, bit for bit
        xs = uniform_grid(model.a, model.b, SAMPLES, exact=False)
        models = [model]
        if model.continuity_flag:
            decomposition = jordan_decomposition(model)
            models += [decomposition.p, decomposition.n]
        for m in models:
            want = [float(v).hex() for v in m.evaluate_many(xs)]
            assert [v.hex() for v in _float_values(m, xs)] == want

    def test_unexpected_errors_surface(self, small_table, tmp_path, monkeypatch):
        def broken(model, *args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr("bvkit.plots.jordan_decomposition", broken)
        with pytest.raises(RuntimeError):
            emit_plots(small_table, tmp_path)


class TestSpecIO:
    def test_model_round_trip_rational(self, zigzag):
        doc = model_to_dict(zigzag)
        again = model_from_dict(doc)
        for x in zigzag.verification_grid(64):
            assert again.evaluate(x) == zigzag.evaluate(x)

    def test_model_round_trip_float(self, square01, xsin):
        for model in (square01, xsin):
            again = model_from_dict(model_to_dict(model))
            for x in model.verification_grid(64):
                assert again.evaluate(x) == model.evaluate(x)

    def test_cantor_kind_round_trip(self):
        doc = {"domain": ["0", "1"], "arithmetic": "rational",
               "pieces": [{"kind": "cantor_iterate", "domain": ["0", "1"],
                           "params": {"level": 2}}]}
        model = model_from_dict(doc)
        assert model.evaluate(F(1, 2)) == F(1, 2)
        assert model_to_dict(model)["pieces"][0]["kind"] == "cantor_iterate"

    def test_wrapper_pieces_are_refused(self):
        # the spec reader's x_sin_family entry holds no mirror or affine
        # part, so writing one would make a spec that reads back as another
        model = build_oscillation(1)
        for wrapped, part in [(model.reflect(), "mirrors"),
                              (jordan_decomposition(model).p, "affine")]:
            piece = wrapped.pieces[0]
            assert piece.kind == "x_sin_family" and piece_params(piece)[part]
            message = (f"cannot write an x_sin_family piece with mirrors or an "
                       f"affine part on [{piece.lo}, {piece.hi}]")
            with pytest.raises(SpecFormatError, match=f"^{re.escape(message)}$"):
                model_to_dict(wrapped)

    def test_rational_strings(self, zigzag):
        doc = model_to_dict(zigzag)
        assert doc["pieces"][0]["params"]["slope"] == "4"
        assert doc["pieces"][1]["params"]["intercept"] == "2"

    @pytest.mark.parametrize("entry", default_corpus(), ids=lambda e: e.name)
    def test_written_specs_reload(self, entry):
        # model_to_dict writes the domain, which the reload checks
        model = entry.model
        doc = json.loads(json.dumps(model_to_dict(model)))
        again = model_from_dict(doc)
        assert (again.a, again.b) == (model.a, model.b)
        grid = model.verification_grid(16)
        assert again.evaluate_many(grid) == model.evaluate_many(grid)
        if model.exact:
            twin = model_from_dict(dict(doc, arithmetic="float"))
            assert (twin.a, twin.b) == (model.a, model.b)

    def test_domain_must_span_the_pieces(self):
        piece = {"kind": "linear", "domain": ["0", "1"],
                 "params": {"slope": "1", "intercept": "0"}}
        assert model_from_dict({"pieces": [piece]}).b == 1
        assert model_from_dict({"domain": ["0", "1"], "pieces": [piece]}).b == 1
        assert model_from_dict({"domain": [0, 1.0], "arithmetic": "float",
                                "pieces": [piece]}).b == 1
        for domain in (["0", "2"], ["1/2", "1"], ["0"], ["0", "1", "2"]):
            with pytest.raises(SpecFormatError, match="^spec domain"):
                model_from_dict({"domain": domain, "pieces": [piece]})
        with pytest.raises(SpecFormatError, match="^malformed spec domain"):
            model_from_dict({"domain": 5, "pieces": [piece]})

    def test_bad_kind_rejected(self):
        with pytest.raises(SpecFormatError):
            model_from_dict({"domain": [0, 1], "pieces": [
                {"kind": "exp", "domain": [0, 1], "params": {}}]})

    def test_load_model_arithmetic_override(self, tmp_path, zigzag):
        path = tmp_path / "zigzag.json"
        path.write_text(json.dumps(model_to_dict(zigzag)))
        assert load_model(path).arithmetic == "rational"
        twin = load_model(path, arithmetic="float")
        assert twin.arithmetic == "float"
        assert twin.evaluate(0.375) == 0.5

    @pytest.mark.parametrize("flags", [{}, {"lo_open": False, "hi_open": True},
                                       {"lo_open": True, "hi_open": False}])
    def test_interval_flags_read_as_json_booleans(self, flags):
        doc = {"components": [dict({"lo": "1/4", "hi": "1/2"}, **flags)]}
        [comp] = intervals_from_dict(doc)
        assert (comp.lo_open, comp.hi_open) == (flags.get("lo_open", False),
                                                flags.get("hi_open", False))

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_interval_flags_of_other_types_refused(self, flag):
        for name in ("lo_open", "hi_open"):
            doc = {"components": [{"lo": "1/4", "hi": "1/2", name: flag}]}
            with pytest.raises(SpecFormatError, match=f"^{name} must be true or false"):
                intervals_from_dict(doc)

    @pytest.mark.parametrize("arithmetic", ["rational", "float"])
    def test_interval_with_lo_above_hi_refused(self, arithmetic):
        doc = {"components": [{"lo": "0", "hi": "1/8"}, {"lo": "1/2", "hi": "1/4"}]}
        with pytest.raises(SpecFormatError, match="lo 1/2 above hi 1/4|lo 0.5 above hi 0.25"):
            intervals_from_dict(doc, arithmetic)
        point = {"components": [{"lo": "1/2", "hi": "1/2"}]}
        assert intervals_from_dict(point, arithmetic).measure == 0

    def test_float_mode_refuses_a_bool_as_rational_mode_does(self):
        for arithmetic in ("rational", FLOAT):
            for value in (True, False):
                with pytest.raises(SpecFormatError, match="not a rational value"):
                    as_number(value, arithmetic)

    @pytest.mark.parametrize("level", [2.7, True, False, float("inf"), float("nan")])
    def test_cantor_level_must_be_an_int(self, level):
        with pytest.raises(SpecFormatError):
            model_from_dict(json.loads(_cantor_doc(level)))

    @pytest.mark.parametrize("level", [3, 3.0, "3"])
    def test_integral_cantor_levels_still_load(self, level):
        [piece] = model_from_dict(json.loads(_cantor_doc(level))).pieces
        assert type(piece.level) is int and piece.level == 3

    @pytest.mark.parametrize("exponent", ["nan", "inf", "-inf", float("inf")])
    def test_xsin_exponent_must_be_finite(self, exponent):
        with pytest.raises(SpecFormatError, match="exponent must be finite"):
            model_from_dict(json.loads(_xsin_doc(exponent)))

    def test_xsin_exponent_must_not_be_a_bool(self):
        # float(True) is 1.0; the piece refuses the bool itself
        with pytest.raises(SpecFormatError,
                           match="^x_sin_family exponent must be a number; got True$"):
            model_from_dict(json.loads(_xsin_doc(True)))

    @pytest.mark.parametrize("exponent", ["1.5", 2, "0"])
    def test_finite_xsin_exponents_still_load(self, exponent):
        [piece] = model_from_dict(json.loads(_xsin_doc(exponent))).pieces
        assert piece.exponent == float(exponent)

    def test_intervals_round_trip(self):
        E = IntervalSet.from_pairs([(F(0), F(1, 3)), (F(1, 2), F(3, 4))],
                                   hi_open=True)
        doc = intervals_to_dict(E)
        assert intervals_from_dict(doc) == E


def _cantor_doc(level) -> str:
    return json.dumps({"pieces": [{"kind": "cantor_iterate", "domain": ["0", "1"],
                                   "params": {"level": level}}]})


def _xsin_doc(exponent) -> str:
    return json.dumps({"arithmetic": "float", "pieces": [{
        "kind": "x_sin_family", "domain": ["1/10", "1"],
        "params": {"exponent": exponent}}]})


class TestCLI:
    @pytest.fixture()
    def zigzag_spec(self, tmp_path, zigzag):
        path = tmp_path / "zigzag.json"
        path.write_text(json.dumps(model_to_dict(zigzag)))
        return str(path)

    @pytest.fixture()
    def nullset_file(self, tmp_path):
        path = tmp_path / "nullset.json"
        path.write_text(json.dumps(intervals_to_dict(
            IntervalSet.closed(F(0), F(1, 1000)))))
        return str(path)

    def test_variation(self, zigzag_spec, capsys):
        assert main(["variation", zigzag_spec, "--at", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "variation from 0 to 1/2: 2" in out

    @pytest.mark.parametrize("at", ["2", "3/2"])
    def test_variation_at_a_point_outside_the_domain(self, zigzag_spec, at, capsys):
        assert main(["variation", zigzag_spec, "--at", at]) == 2
        assert capsys.readouterr().err == f"error: {at} outside [0, 1]\n"

    def test_decompose(self, zigzag_spec, tmp_path, capsys):
        p_csv = str(tmp_path / "p.csv")
        n_csv = str(tmp_path / "n.csv")
        assert main(["decompose", zigzag_spec, "--emit", p_csv, n_csv,
                     "--grid", "16"]) == 0
        with open(p_csv) as fh:
            assert fh.readline().strip() == "x,value"
            assert fh.readline().startswith("0,0")

    def test_lusin(self, zigzag_spec, tmp_path, capsys):
        report = str(tmp_path / "lusin.json")
        assert main(["lusin", zigzag_spec, "--family", "shrinking",
                     "--levels", "5", "--report", report]) == 0
        assert "verdict: passes_at_resolution" in capsys.readouterr().out
        assert json.load(open(report))["verdict"] == "passes_at_resolution"

    def test_certify_variation(self, zigzag_spec, nullset_file, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        assert main(["certify", zigzag_spec, "--nullset", nullset_file,
                     "--eps", "1/100", "--trace", trace]) == 0
        assert "variation certificate" in capsys.readouterr().out
        payload = json.load(open(trace))
        assert payload["base_partition"] == ["0", "1/4", "1/2", "3/4", "1"]

    def test_certify_shift_prints_its_ledger(self, tmp_path, capsys):
        # G = F + x: the plateau [1/2, 3/4] holds [5/8, 41/64], whose image
        # under G = 1 + x has measure 1/64
        spec = tmp_path / "mono.json"
        spec.write_text(json.dumps(model_to_dict(piecewise_linear(
            [(0, 0), (F(1, 2), 1), (F(3, 4), 1), (1, F(3, 2))]))))
        nullset = tmp_path / "ns.json"
        nullset.write_text(json.dumps(intervals_to_dict(IntervalSet.from_pairs(
            [(F(1, 8), F(9, 64)), (F(5, 8), F(41, 64)), (F(7, 8), F(57, 64))]))))
        assert main(["certify", str(spec), "--nullset", str(nullset), "--eps", "1/8",
                     "--shift"]) == 0
        assert capsys.readouterr().out == (
            "shift certificate: plateau part 0.015625, remainder bound 0.140625 "
            "< 2*eps = 0.25\n")

    def test_a_negative_point_binds_to_at(self, tmp_path, capsys):
        spec = tmp_path / "abs.json"
        spec.write_text(json.dumps(model_to_dict(piecewise_linear([(-1, 1), (0, 0), (1, 1)]))))
        assert main(["variation", str(spec), "--at", "-1/2"]) == 0
        assert capsys.readouterr().out == (
            "variation from -1 to -1/2: 1/2 (converged=True, partition size 2)\n")

    def test_certify_shift_needs_monotone(self, zigzag_spec, nullset_file,
                                          capsys):
        code = main(["certify", zigzag_spec, "--nullset", nullset_file,
                     "--eps", "1/100", "--shift"])
        assert code == 2
        assert "non-decreasing" in capsys.readouterr().err

    def test_recover_and_ac(self, tmp_path, square01, capsys):
        spec = tmp_path / "square.json"
        spec.write_text(json.dumps(model_to_dict(square01)))
        report = str(tmp_path / "recon.json")
        assert main(["recover", str(spec), "--grid", "256",
                     "--report", report]) == 0
        payload = json.load(open(report))
        assert payload["sup_error"] <= 2 * payload["window"] * 2
        assert main(["ac", str(spec), "--deltas", "1/2,1/8,1/64"]) == 0
        assert "verdict: ac_at_resolution" in capsys.readouterr().out

    def test_corpus_report_exit_codes(self, tmp_path, capsys, monkeypatch):
        # a tampered corpus must fail the run (exit 1), the true one passes
        import bvkit.corpus as corpus_mod

        by_name = corpus_by_name()
        tiny = [by_name["identity"], by_name["zigzag"]]
        monkeypatch.setattr(corpus_mod, "default_corpus", lambda: list(tiny))
        out = str(tmp_path / "ok")
        assert main(["corpus-report", "--outdir", out, "--grid", "128"]) == 0
        assert os.path.exists(os.path.join(out, "report.json"))

        lying = [replace(by_name["zigzag"],
                         truth={"continuous": True, "bv": True,
                                "lusin": False, "ac": False})]
        monkeypatch.setattr(corpus_mod, "default_corpus", lambda: list(lying))
        out2 = str(tmp_path / "bad")
        assert main(["corpus-report", "--outdir", out2, "--grid", "128"]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_arithmetic_override(self, tmp_path, zigzag, capsys):
        spec = tmp_path / "zz.json"
        spec.write_text(json.dumps(model_to_dict(zigzag)))
        assert main(["--arithmetic", "float", "variation", str(spec)]) == 0
        assert "4" in capsys.readouterr().out

    def test_tol_tunes_the_refinement(self, tmp_path, capsys):
        # x^3 sin(1/x) on [0, 1] has no finite segmentation, so variation
        # refines until a round gains at most --tol
        doc = {"arithmetic": "float", "pieces": [
            {"kind": "x_sin_family", "domain": [0, 1], "params": {"exponent": 3}}]}
        spec = tmp_path / "xsin3.json"
        spec.write_text(json.dumps(doc))
        estimate = total_variation(model_from_dict(doc), tol=1e-3)
        assert main(["--tol", "1e-3", "variation", str(spec)]) == 0
        assert capsys.readouterr().out == (
            f"variation from 0.0 to 1.0: {estimate.lower} (converged=True, "
            f"partition size {len(estimate.achieving_partition)})\n")

    @pytest.mark.parametrize("argv", [
        ["--arithmetic", "float", "ac", "{spec}", "--deltas", "abc"],
        ["--arithmetic", "float", "variation", "{spec}", "--at", "abc"],
        ["--arithmetic", "float", "certify", "{spec}", "--nullset", "{nullset}",
         "--eps", "abc"],
        ["--arithmetic", "float", "recover", "{spec}", "--h", "1/0"],
        ["--arithmetic", "float", "variation", "{bad_spec}"],
        ["lusin", "{spec}", "--threshold", "abc"],
        ["decompose", "{spec}", "--emit", "{out}/p.csv", "{out}/n.csv",
         "--grid", "1"],
        ["recover", "{spec}", "--grid", "0"],
        ["variation", "{bad_tol}"],
        ["variation", "{truncated}"],
        ["variation", "{out}/missing.json"],
        ["variation", "{no_domain}"],
        ["variation", "{cantor_level}"],
        ["variation", "{no_slope}"],
        ["variation", "{string_piece}"],
        ["certify", "{spec}", "--nullset", "{no_hi}", "--eps", "1/10"],
        ["variation", "{wide_domain}"],
        ["--arithmetic", "float", "ac", "{spec}", "--deltas", "1e-1,1e400"],
        ["--arithmetic", "float", "variation", "{spec}", "--at", "1e400"],
        ["--arithmetic", "float", "certify", "{spec}", "--nullset", "{nullset}",
         "--eps", "1e400"],
        ["--arithmetic", "float", "recover", "{spec}", "--h", "1e400"],
        ["--arithmetic", "float", "variation", "{huge_slope}"],
        ["--arithmetic", "float", "variation", "{inf_slope}"],
        ["--arithmetic", "float", "variation", "{inf_domain}"],
        ["--arithmetic", "float", "certify", "{spec}", "--nullset", "{huge_hi}",
         "--eps", "1/10"],
        ["--arithmetic", "float", "variation", "{inf_tol}"],
        ["--arithmetic", "float", "variation", "{nan_tol}"],
        ["--arithmetic", "float", "variation", "{negative_tol}"],
        ["certify", "{spec}", "--nullset", "{string_flag}", "--eps", "1/10"],
        ["certify", "{spec}", "--nullset", "{int_flag}", "--eps", "1/10"],
        ["certify", "{spec}", "--nullset", "{reversed}", "--eps", "1/10"],
        ["--arithmetic", "float", "variation", "{bool_slope}"],
        ["variation", "{fractional_level}"],
        ["variation", "{bool_level}"],
        ["--arithmetic", "float", "variation", "{nan_exponent}"],
        ["--arithmetic", "float", "variation", "{inf_exponent}"],
        ["--arithmetic", "float", "variation", "{bool_exponent}"],
        ["variation", "{spec}", "--at", "-1/2"],
        ["ac", "{spec}", "--deltas", "-1/2"],
        ["certify", "{spec}", "--nullset", "{nullset}", "--eps", "-1/8"],
        ["recover", "{spec}", "--h", "-1/8"],
        ["lusin", "{spec}", "--threshold", "-1/2"],
    ], ids=["float-deltas", "float-at", "float-eps", "float-h", "float-spec",
            "threshold", "decompose-grid", "recover-grid", "spec-tol",
            "spec-truncated", "spec-missing", "piece-domain", "cantor-level",
            "linear-slope", "piece-string", "interval-hi", "spec-domain",
            "huge-deltas", "huge-at", "huge-eps", "huge-h", "huge-slope-string",
            "json-inf-slope", "json-inf-domain", "huge-interval-hi",
            "spec-tol-inf", "spec-tol-nan", "spec-tol-negative",
            "interval-flag-string", "interval-flag-int", "interval-reversed",
            "float-bool-slope", "cantor-level-fraction", "cantor-level-bool",
            "xsin-exponent-nan", "xsin-exponent-inf", "xsin-exponent-bool",
            "negative-at", "negative-deltas", "negative-eps", "negative-h",
            "negative-threshold"])
    def test_malformed_input_is_an_error(self, argv, zigzag_spec, nullset_file,
                                         tmp_path, capsys):
        text = (tmp_path / "zigzag.json").read_text()

        def edited(edit):
            doc = json.loads(text)
            edit(doc)
            return json.dumps(doc)

        files = {
            "bad_spec": edited(lambda d: d["pieces"][0]["params"].update(slope="abc")),
            "bad_tol": edited(lambda d: d.update(tol="abc")),
            "truncated": text[:len(text) // 2],
            "no_domain": edited(lambda d: d["pieces"][0].pop("domain")),
            "cantor_level": json.dumps({"pieces": [{
                "kind": "cantor_iterate", "domain": ["0", "1"],
                "params": {"level": "x"}}]}),
            "no_slope": edited(lambda d: d["pieces"][0]["params"].pop("slope")),
            "string_piece": edited(lambda d: d["pieces"].__setitem__(0, "linear")),
            "no_hi": json.dumps({"components": [{"lo": "0"}]}),
            "wide_domain": json.dumps({"domain": ["0", "2"], "pieces": [{
                "kind": "linear", "domain": ["0", "1"],
                "params": {"slope": "1", "intercept": "0"}}]}),
            # past the float range, as a string and as JSON numbers
            "huge_slope": edited(lambda d: d["pieces"][0]["params"].update(slope="1e400")),
            "inf_slope": edited(lambda d: d["pieces"][0]["params"].update(
                slope="SLOPE")).replace('"SLOPE"', "1e400"),
            "inf_domain": json.dumps({"pieces": [{
                "kind": "linear", "domain": ["0", "END"],
                "params": {"slope": "1", "intercept": "0"}}]}).replace('"END"', "1e999"),
            "huge_hi": json.dumps({"components": [{"lo": "0", "hi": "1e400"}]}),
            "inf_tol": edited(lambda d: d.update(tol="1e400")),
            "nan_tol": edited(lambda d: d.update(tol="nan")),
            "negative_tol": edited(lambda d: d.update(tol=-1e-9)),
            # a flag that is not a JSON boolean, and a component with lo > hi,
            # each of which loaded as some other set
            "string_flag": json.dumps({"components": [
                {"lo": "0", "hi": "1/1000", "lo_open": "false"}]}),
            "int_flag": json.dumps({"components": [
                {"lo": "0", "hi": "1/1000", "hi_open": 0}]}),
            "reversed": json.dumps({"components": [{"lo": "1/2", "hi": "1/4"}]}),
            "bool_slope": edited(lambda d: d["pieces"][0]["params"].update(slope=True)),
            "fractional_level": _cantor_doc(2.7),
            "bool_level": _cantor_doc(True),
            "nan_exponent": _xsin_doc("nan"),
            "inf_exponent": _xsin_doc("inf"),
            "bool_exponent": _xsin_doc(True),
        }
        paths = {}
        for name, body in files.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(body)
        argv = [a.format(spec=zigzag_spec, nullset=nullset_file, out=tmp_path,
                         **paths) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--tol", "inf", "variation", "{spec}"],
        ["--tol=-1e-3", "variation", "{spec}"],
        ["variation", "{spec}", "--tol", "nan"],
        ["variation", "{spec}", "--tol", "1e400"],
        ["--tol", "-1e-3", "variation", "{spec}"],
        ["variation", "{spec}", "--tol", "-1e-3"],
    ], ids=["global-inf", "global-negative", "variation-nan", "variation-huge",
            "global-negative-exponent", "variation-negative"])
    def test_tol_option_must_be_finite_and_non_negative(self, argv, zigzag_spec,
                                                       capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([a.format(spec=zigzag_spec) for a in argv])
        assert exit_info.value.code == 2
        assert "argument --tol: must be finite and non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["1e400", "inf", "-inf", "nan", -1.0],
                             ids=["huge", "inf", "minus-inf", "nan", "negative"])
    def test_float_spec_tol_must_be_finite_and_non_negative(self, tol, tmp_path,
                                                            capsys):
        # x on [0, 1] then x + 5 on [1, 2]: an infinite tol passed the jump
        doc = {"arithmetic": "float", "tol": tol, "pieces": [
            {"kind": "linear", "domain": ["0", "1"], "params": {"slope": "1", "intercept": "0"}},
            {"kind": "linear", "domain": ["1", "2"], "params": {"slope": "1", "intercept": "5"}}]}
        with pytest.raises(SpecFormatError, match="tol must be finite and non-negative"):
            model_from_dict(doc)
        spec = tmp_path / "jump.json"
        spec.write_text(json.dumps(doc))
        assert main(["decompose", str(spec), "--emit", str(tmp_path / "p.csv"),
                     str(tmp_path / "n.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: tol must be finite")
        # a rational spec does not read its tol; zero is a tolerance
        assert model_from_dict(dict(doc, arithmetic="rational")).continuity_flag is False
        assert model_from_dict(dict(doc, tol=0)).continuity_flag is False

    def test_decompose_takes_no_tol(self, zigzag_spec, tmp_path, capsys):
        # nothing in the Jordan decomposition reads a tolerance
        with pytest.raises(SystemExit) as exit_info:
            main(["decompose", zigzag_spec, "--tol", "1e-3", "--emit",
                  str(tmp_path / "p.csv"), str(tmp_path / "n.csv")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_float_numbers_parse_as_before(self):
        for text in ("1/3", "0.1", "1e-3", " -7/8 ", "2"):
            assert as_number(text, FLOAT).hex() == float(Fraction(text)).hex()

    @pytest.mark.parametrize("value", ["1e400", "-1e400", "9" * 400 + "/7", 10 ** 400,
                                       float("inf"), float("-inf"), float("nan")],
                             ids=["exponent", "negative", "quotient", "int", "inf",
                                  "minus-inf", "nan"])
    def test_float_numbers_past_the_range_refused(self, value):
        with pytest.raises(SpecFormatError, match="not a finite float"):
            as_number(value, FLOAT)

    def test_rational_numbers_past_the_float_range_parse(self):
        assert as_number("1e400", "rational") == 10 ** 400
        assert as_number(1.7976931348623157e308, FLOAT) == 1.7976931348623157e308


class TestPackageSurface:
    def test_measure_is_the_module(self):
        import bvkit
        import bvkit.measure as measure_mod
        assert isinstance(measure_mod, types.ModuleType)
        assert bvkit.measure is measure_mod is sys.modules["bvkit.measure"]
        assert measure_mod.measure(IntervalSet.closed(0, F(1, 2))) == F(1, 2)

    def test_benchmark_tracer_targets_resolve(self):
        # the traced benchmark wraps these by name; a rename fails here
        # rather than only in a traced run
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        targets = next(ast.literal_eval(node.value) for node in tree.body
                       if isinstance(node, ast.Assign)
                       and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
        assert targets
        for module, attr in targets + (("bvkit.model", "FunctionModel.cached"),
                                       ("bvkit.model", "bisect_solve")):
            owner = importlib.import_module(module)
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{module}.{attr}"

    def test_importing_bvkit_does_not_load_numpy(self):
        # nothing in bvkit uses numpy, finding a polynomial's criticals included
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = ("import sys, bvkit, bvkit.cli; "
                "from bvkit.model import FunctionModel, PolynomialPiece; "
                "cubic = FunctionModel([PolynomialPiece(-1, 1, [0, -1, 0, 1])]); "
                "print(cubic.monotone_segments().knots()); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True)
        knots = FunctionModel([PolynomialPiece(-1, 1, [0, -1, 0, 1])]).monotone_segments().knots()
        assert len(knots) == 4
        assert done.stdout.split("\n")[:2] == [repr(knots), "[]"]

    @pytest.mark.parametrize("entry", default_corpus(), ids=lambda e: e.name)
    def test_curve_abscissae_match_the_old_sampler(self, entry):
        a, b = float(entry.model.a), float(entry.model.b)
        step = (b - a) / (SAMPLES - 1)
        old = [a + i * step for i in range(SAMPLES - 1)] + [b]
        new = uniform_grid(entry.model.a, entry.model.b, SAMPLES, exact=False)
        assert [x.hex() for x in new] == [x.hex() for x in old]
