import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvkit.certificate import (
    FLAT_CELL,
    MID,
    MINUS,
    ORDERED_CELL,
    PLUS,
    lusin_propagation_check,
    shift_certificate,
    variation_certificate,
)
from bvkit.errors import PreconditionError, SpecFormatError
from bvkit.intervals import Interval, IntervalSet
from bvkit.measure import cantor_family, measure, shrinking_family
from bvkit.model import (
    build_cantor_iterate,
    build_identity,
    piecewise_linear,
)
from bvkit.specio import jsonable, model_from_dict

from support import family_pieces, model_to_dict

F = Fraction


class TestShiftCertificate:
    def test_identity_linear_scaling(self, identity):
        N = IntervalSet.closed(0, F(1, 1000))
        trace = shift_certificate(identity, N, F(1, 100))
        # G = 2x doubles the length of the off-plateau part
        assert trace.g_n2_measure == F(2, 1000)
        assert trace.shift_bound < F(2, 100)
        assert trace.n1.is_empty
        assert trace.ok

    def test_plateau_only_set_translates(self):
        c3 = build_cantor_iterate(3)
        lo = F(1, 3) + F(1, 100)
        N = IntervalSet.closed(lo, lo + F(1, 1000))
        trace = shift_certificate(c3, N, F(1, 100))
        assert trace.n2.is_empty
        assert trace.n1 == N
        assert trace.g_n1_measure == F(1, 1000)
        assert trace.shift_bound == 0
        assert trace.ok

    @pytest.mark.parametrize("arithmetic", ["rational", "float"])
    def test_empty_off_plateau_part_is_the_mode_zero(self, arithmetic):
        # a ramp to 1/2, then a plateau holding all of N = {5/8}
        model = piecewise_linear([(0, 0), (F(1, 2), F(1, 2)), (1, F(1, 2))])
        eps, point = F(1, 100), F(5, 8)
        if arithmetic == "float":
            model = model_from_dict(dict(model_to_dict(model), arithmetic="float"))
            eps, point = float(eps), float(point)
        trace = shift_certificate(model, IntervalSet.closed(point, point), eps)
        assert trace.n2.is_empty and trace.ok
        doc = jsonable(trace)
        for key in ("g_n2_measure", "shift_bound"):
            value = getattr(trace, key)
            assert value == 0 and type(value) is type(model.zero)
            assert doc[key] == ("0" if model.exact else 0.0)
            assert type(doc[key]) is type(doc["g_n1_measure"])

    def test_rational_model_reads_float_inputs_exactly(self):
        ramp = piecewise_linear([(0, 0), (F(1, 2), F(1, 2)), (1, F(1, 2))])
        pairs = [(0.1, 0.1001), (0.6, 0.6001)]
        got = shift_certificate(ramp, IntervalSet.from_pairs(pairs), 0.01)
        exact = IntervalSet.from_pairs([(F(lo), F(hi)) for lo, hi in pairs])
        want = shift_certificate(ramp, exact, F(0.01))
        assert type(got.shift_bound) is Fraction
        assert jsonable(got) == jsonable(want)

    def test_square_image_lengths(self, square01):
        trace = shift_certificate(square01, IntervalSet.closed(0, 0.001), 0.01)
        # lambda(G(N)) = 1e-3 + 1e-6 exactly for G = x^2 + x on [0, 1e-3]
        assert abs(trace.g_n2_measure - 0.001001) < 1e-12
        assert trace.shift_bound < 0.02
        assert trace.ok

    def test_straddling_set_splits_and_closes(self):
        c2 = build_cantor_iterate(2)
        N = shrinking_family((0, 1), count=3).level(5)
        eps = F(1, 10)
        trace = shift_certificate(c2, N, eps)
        assert not trace.n1.is_empty and not trace.n2.is_empty
        assert trace.n1.union(trace.n2) == N
        assert trace.g_n1_measure == measure(trace.n1)
        assert trace.shift_bound < 2 * eps
        # trimmed components stay clear of boundary plateaus: images disjoint
        for left, right in zip(trace.images, trace.images[1:]):
            assert left.intersect(right).is_empty
        assert trace.ok

    def test_cover_measures_within_budget(self):
        c2 = build_cantor_iterate(2)
        N = shrinking_family((0, 1), count=2).level(6)
        eps = F(1, 20)
        trace = shift_certificate(c2, N, eps)
        assert measure(trace.image_cover) < eps
        assert measure(trace.set_cover) < eps
        assert sum(c.length for c in trace.trimmed) < eps

    def test_requires_nondecreasing(self, zigzag):
        with pytest.raises(PreconditionError):
            shift_certificate(zigzag, IntervalSet.closed(0, F(1, 100)), F(1, 10))

    def test_requires_small_set(self, identity):
        with pytest.raises(PreconditionError):
            shift_certificate(identity, IntervalSet.closed(0, F(1, 2)), F(1, 10))

    def test_family_probe_gate(self):
        c4 = build_cantor_iterate(4)
        N = IntervalSet.closed(0, F(1, 1000))
        with pytest.raises(PreconditionError):
            shift_certificate(c4, N, F(1, 100), family=cantor_family(),
                              probe_levels=4)
        # the same call without the failing family succeeds
        assert shift_certificate(c4, N, F(1, 100)).ok

    def test_ledger_serializes(self, identity):
        trace = shift_certificate(identity, IntervalSet.closed(0, F(1, 1000)),
                                  F(1, 100))
        payload = jsonable(trace)
        text = json.dumps(payload, sort_keys=True)
        assert "shift_cover_budget" in text


class TestVariationCertificate:
    def test_square_single_cell(self, square01):
        eps = 2e-6
        trace = variation_certificate(square01, IntervalSet.closed(0, 0.001), eps)
        assert len(trace.cells) == 1
        cell = trace.cells[0]
        assert cell.case == ORDERED_CELL
        # p = F on a rising cell: the cover pullback stays within the budget
        assert cell.p_sum < 5 * eps
        assert cell.p_image <= cell.p_sum
        assert trace.ok

    def test_zigzag_active_cell_only(self, zigzag):
        eps = F(1, 100)
        trace = variation_certificate(zigzag, IntervalSet.closed(0, F(1, 1000)),
                                      eps)
        assert len(trace.cells) == 4
        active = [c for c in trace.cells if not c.n_i.is_empty]
        assert [c.index for c in active] == [0]
        cell = active[0]
        # slope 4 turns the covered image straight into p-length
        assert cell.p_sum < 5 * eps
        assert cell.p_sum > F(4, 1000)
        assert trace.max_p_sum == cell.p_sum
        assert trace.max_n_sum < 9 * eps

    def test_constant_model_all_zero(self):
        flat = piecewise_linear([(0, 0), (1, 0)])
        trace = variation_certificate(flat, IntervalSet.closed(F(1, 4), F(1, 3)),
                                      F(1, 100))
        cell = trace.cells[0]
        assert cell.case == FLAT_CELL
        assert cell.p_sum == 0 and cell.n_sum == 0 and cell.f_sum == 0
        assert trace.ok

    def test_flat_cell_in_mixed_model(self):
        from bvkit.corpus import build_mixed
        mixed = build_mixed()
        # target the plateau [1, 5/4]
        N = IntervalSet.closed(F(9, 8), F(9, 8) + F(1, 500))
        eps = 1e-2
        trace = variation_certificate(mixed, N, eps)
        flat_cells = [c for c in trace.cells if c.case == FLAT_CELL]
        assert flat_cells
        active_flat = [c for c in flat_cells if not c.n_i.is_empty]
        assert active_flat and active_flat[0].p_sum < 2 * eps
        assert trace.ok

    def test_cell_infrastructure(self, zigzag):
        eps = F(1, 20)
        trace = variation_certificate(
            zigzag, IntervalSet.closed(F(1, 10), F(1, 10) + F(1, 200)), eps)
        for cell in trace.cells:
            # Q partition is strictly increasing and spans the cell
            assert list(cell.q_partition) == sorted(set(cell.q_partition))
            assert cell.q_partition[0] == cell.lo
            assert cell.q_partition[-1] == cell.hi
            for piece in cell.cover:
                for comp in piece.components:
                    assert comp.lo_open and comp.hi_open
                    assert cell.lo < comp.lo < comp.hi < cell.hi
            # components of distinct cover pieces are pairwise disjoint
            comps = [c for piece in cell.cover for c in piece.components]
            for a, b in zip(comps, comps[1:]):
                assert IntervalSet((a,)).intersect(IntervalSet((b,))).is_empty

    def test_endpoint_values_never_inside_cover(self, zigzag):
        trace = variation_certificate(zigzag,
                                      IntervalSet.closed(F(15, 64), F(17, 64)),
                                      F(1, 10))
        for cell in trace.cells:
            for piece in cell.cover:
                assert not piece.interval.contains(cell.f_lo) or \
                    piece.interval.lo == cell.f_lo or piece.interval.hi == cell.f_lo
                assert not piece.interval.contains(cell.f_hi) or \
                    piece.interval.lo == cell.f_hi or piece.interval.hi == cell.f_hi

    def test_perturbed_partition_exercises_families(self, zigzag):
        # shifting the knots makes cells non-monotone, so covers spill over
        # the endpoint bands and the anchor machinery engages
        delta = F(1, 64)
        base = (F(0), F(1, 4) - delta, F(1, 2) - delta, F(3, 4) - delta, F(1))
        eps = F(1, 2)
        N = IntervalSet.closed(F(15, 64), F(17, 64))
        trace = variation_certificate(zigzag, N, eps, base_partition=base)
        assert trace.ok
        bands = {band for cell in trace.cells for band in
                 (piece.band for piece in cell.cover if piece.components)}
        assert MID in bands
        beyond = [cell for cell in trace.cells if cell.family_traces]
        assert beyond, "expected at least one beyond-band family"
        for cell in beyond:
            for ft in cell.family_traces:
                assert ft.side in (PLUS, MINUS)
                assert list(ft.r1) == sorted(set(ft.r1))
                assert set(ft.r1) <= set(ft.r2)
                # the refinement gain bounds the family swing sum
                family_sum = cell.plus_sum if ft.side == PLUS else cell.minus_sum
                assert family_sum <= ft.refinement_gain
                assert ft.refinement_gain < eps
        for cell in trace.cells:
            assert cell.plus_sum < eps
            assert cell.minus_sum < eps
            assert cell.mid_sum < 2 * eps
            assert cell.f_sum < 4 * eps
            assert cell.p_sum < 5 * eps
            if cell.anchors:
                s1 = list(cell.s1)
                assert s1 == sorted(set(s1))
                assert set(s1) <= set(cell.s2)

    def test_anchor_blocks_contain_all_component_endpoints(self, zigzag):
        # the auxiliary partitions only refine correctly if no pullback
        # endpoint falls in a gap between anchor blocks; exercise both
        # cell orientations via a perturbed partition and its reflection
        delta = F(1, 64)
        base = (F(0), F(1, 4) - delta, F(1, 2) - delta, F(3, 4) - delta, F(1))
        nullset = IntervalSet.from_pairs(
            [(F(15, 64), F(17, 64)), (F(31, 64), F(33, 64))])
        eps = F(1, 2)
        reflected = zigzag.reflect()
        base_m = tuple(sorted(1 - x for x in base))
        runs = [
            (zigzag, variation_certificate(zigzag, nullset, eps,
                                           base_partition=base)),
            (reflected, variation_certificate(reflected, nullset.affine(-1, 1),
                                              eps, base_partition=base_m)),
        ]
        orientations = set()
        for model, trace in runs:
            for cell in trace.cells:
                if not cell.anchors:
                    continue
                orientations.add(cell.f_hi > cell.f_lo)
                blocks = IntervalSet(
                    Interval(min(a.alpha, a.beta), max(a.alpha, a.beta))
                    for a in cell.anchors)
                for a in cell.anchors:
                    assert model.evaluate(a.alpha) == a.c
                    assert model.evaluate(a.beta) == a.d
                for piece in family_pieces(cell, MID):
                    for comp in piece.components:
                        assert blocks.contains(comp.lo), (cell.index, comp)
                        assert blocks.contains(comp.hi), (cell.index, comp)
                # the refined partition is the coarse one plus the endpoints
                assert set(cell.s1) <= set(cell.s2)
        assert orientations == {True, False}

    def test_partition_must_nearly_achieve(self, zigzag):
        with pytest.raises(PreconditionError):
            variation_certificate(zigzag, IntervalSet.closed(0, F(1, 1000)),
                                  F(1, 10), base_partition=(0, 1))

    def test_image_must_leave_slack(self, zigzag):
        with pytest.raises(PreconditionError):
            variation_certificate(zigzag, IntervalSet.closed(0, F(1, 8)),
                                  F(1, 10))

    def test_strict_entries_have_real_margin(self, square01):
        # float-mode ledgers must clear their budgets by far more than noise
        trace = variation_certificate(square01, IntervalSet.closed(0, 0.001),
                                      2e-6)
        for cell in trace.cells:
            for entry in cell.ledger:
                if entry.strict:
                    assert entry.margin >= 10 * square01.tol

    def test_trace_serializes(self, zigzag):
        trace = variation_certificate(zigzag, IntervalSet.closed(0, F(1, 1000)),
                                      F(1, 100))
        text = json.dumps(jsonable(trace), sort_keys=True)
        assert "p_cover_budget" in text and "base_partition" in text

    def test_float_sawtooth_off_dyadic_knots(self):
        # 16 teeth with knots at multiples of 1/78: the float twin's adjacent
        # pieces round shared knots apart, so a cover endpoint taken from
        # evaluate can miss every piece's value range by an ulp
        knots = [(0, 0), (4, 12), (6, 0), (7, 1), (11, 0), (15, 4), (16, 0),
                 (20, 8), (22, 0), (24, 6), (28, 0), (32, 12), (36, 0),
                 (40, 8), (42, 0), (46, 8), (47, 0), (48, 3), (49, 0),
                 (51, 6), (52, 0), (54, 6), (56, 0), (57, 2), (58, 0),
                 (59, 1), (60, 0), (61, 3), (65, 0), (69, 4), (71, 0),
                 (73, 2), (75, 0)]
        exact = piecewise_linear([(F(x, 78), F(y, 78)) for x, y in knots])
        twin = model_from_dict(dict(model_to_dict(exact), arithmetic="float"))
        nullset = shrinking_family((exact.a, exact.b), count=64).level(9)
        twin_set = IntervalSet(Interval(float(c.lo), float(c.hi)) for c in nullset)
        eps = F(1, 64)
        want = variation_certificate(exact, nullset, eps)
        got = variation_certificate(twin, twin_set, float(eps))
        assert want.ok and got.ok
        assert abs(got.max_p_sum - want.max_p_sum) < 1e-12
        assert abs(got.max_n_sum - want.max_n_sum) < 1e-12

    def test_rational_model_reads_float_inputs_exactly(self, zigzag):
        # the anchor swings are exact; a cover summed from a float N and a
        # float eps fell below them by an ulp-scale amount and failed
        # 'anchor_swings_vs_mid_cover'
        pairs = [(0.1, 0.1001), (0.6, 0.6001)]
        got = variation_certificate(zigzag, IntervalSet.from_pairs(pairs), 0.01)
        exact = IntervalSet.from_pairs([(F(lo), F(hi)) for lo, hi in pairs])
        want = variation_certificate(zigzag, exact, F(0.01))
        assert got.ok and got.epsilon == F(0.01)
        assert jsonable(got) == jsonable(want)




@pytest.mark.parametrize("certify", [shift_certificate, variation_certificate])
@pytest.mark.parametrize("epsilon", [0, -F(1, 8), 0.0, math.inf, math.nan])
def test_epsilon_must_be_positive_and_finite(identity, certify, epsilon):
    with pytest.raises(SpecFormatError, match="epsilon must be positive and finite"):
        certify(identity, IntervalSet.closed(0, F(1, 1000)), epsilon)


class TestMirrorSymmetry:
    def choose_set(self, model):
        # a set hugging an interior knot so the cover pokes past a band edge
        knots = model.knots()
        if len(knots) > 2:
            k = knots[len(knots) // 2]
            lo = k - (model.b - model.a) / 50
        else:
            # knot-free interiors need a thinner sliver to leave cover slack
            k = model.b
            lo = k - (model.b - model.a) / 500
        return IntervalSet.closed(lo, k)

    def mirror_pair(self, model, eps):
        N = self.choose_set(model)
        trace = variation_certificate(model, N, eps)
        reflected = model.reflect()
        n_mirror = N.affine(-1, model.a + model.b)
        trace_m = variation_certificate(reflected, n_mirror, eps)
        return trace, trace_m

    @staticmethod
    def band_intervals(cell, band):
        return sorted((p.interval.lo, p.interval.hi) for p in cell.cover
                      if p.band == band)

    def test_zigzag_swaps_families_exactly(self, zigzag):
        trace, trace_m = self.mirror_pair(zigzag, F(1, 10))
        cells_m = list(trace_m.cells)[::-1]
        saw_family = False
        for a, b in zip(trace.cells, cells_m):
            assert self.band_intervals(a, PLUS) == self.band_intervals(b, MINUS)
            assert self.band_intervals(a, MINUS) == self.band_intervals(b, PLUS)
            assert self.band_intervals(a, MID) == self.band_intervals(b, MID)
            assert a.plus_sum == b.minus_sum
            assert a.minus_sum == b.plus_sum
            assert a.mid_sum == b.mid_sum
            assert a.p_sum == b.p_sum and a.f_sum == b.f_sum
            saw_family = saw_family or any(
                p.band in (PLUS, MINUS) for p in a.cover)
        assert saw_family
        assert trace.max_p_sum == trace_m.max_p_sum

    def test_exact_corpus_budgets_survive_reflection(self):
        for model in (build_identity(), build_cantor_iterate(3)):
            eps = F(1, 20)
            trace, trace_m = self.mirror_pair(model, eps)
            assert trace.ok and trace_m.ok
            assert trace.max_p_sum == trace_m.max_p_sum
            assert trace_m.max_n_sum < 9 * eps

    def test_float_model_swaps_within_noise(self, square01):
        eps = 1e-2
        trace, trace_m = self.mirror_pair(square01, eps)
        cells_m = list(trace_m.cells)[::-1]
        for a, b in zip(trace.cells, cells_m):
            assert abs(a.plus_sum - b.minus_sum) < 1e-9
            assert abs(a.minus_sum - b.plus_sum) < 1e-9
            assert abs(a.p_sum - b.p_sum) < 1e-9
        assert trace.ok and trace_m.ok


class TestPropagation:
    def test_cubic_with_scaled_cantor_family(self, cubic):
        report = lusin_propagation_check(cubic, cantor_family((-1, 1)),
                                         [2e-1, 1e-1])
        assert report.any_feasible
        assert report.all_ok
        for row in report.rows:
            if row.feasible:
                assert row.max_p_sum < 5 * row.epsilon
                assert row.max_n_sum < 9 * row.epsilon

    def test_identity_trivial(self, identity):
        report = lusin_propagation_check(identity,
                                         shrinking_family((0, 1), count=2),
                                         [F(1, 10), F(1, 100)])
        assert report.all_ok and report.any_feasible

    def test_zigzag_scaling(self, zigzag):
        report = lusin_propagation_check(zigzag, shrinking_family((0, 1)),
                                         [F(1, 10), F(1, 50)])
        assert report.all_ok
        for row in report.rows:
            if row.feasible:
                # p stretches the set by the uniform slope, plus cover slack
                assert row.max_p_sum >= 4 * row.set_measure

    def test_component_budget_marks_infeasible(self, cubic):
        report = lusin_propagation_check(cubic, cantor_family((-1, 1)),
                                         [1e-6], max_components=64)
        assert not report.rows[0].feasible

    def test_failing_model_rejected(self):
        c4 = build_cantor_iterate(4)
        with pytest.raises(PreconditionError):
            lusin_propagation_check(c4, cantor_family(), [F(1, 10)],
                                    probe_levels=4)


@st.composite
def random_linear_models(draw, monotone=False):
    """Piecewise-linear model on [0, 1] with random rational knot values.

    Repeated values make constant pieces, so plateaus, reversals and
    value collisions all occur.
    """
    count = draw(st.integers(3, 7))
    ys = [draw(st.integers(-8, 8)) for _ in range(count)]
    if monotone:
        ys = sorted(ys)
    knots = [(F(i, count - 1), F(y, 4)) for i, y in enumerate(ys)]
    return piecewise_linear(knots, name="random")


class TestRandomizedCertificates:
    @given(random_linear_models(), st.integers(0, 993))
    @settings(max_examples=40, deadline=None)
    def test_variation_ledger_closes_on_random_models(self, model, pos):
        # any sliver with a feasible image must close every budget exactly
        lo = F(pos, 1000)
        nullset = IntervalSet.closed(lo, lo + F(1, 1000))
        eps = F(1, 4)
        trace = variation_certificate(model, nullset, eps)
        assert trace.ok
        for cell in trace.cells:
            assert cell.p_sum < 5 * eps
            assert cell.n_sum < 9 * eps
            assert cell.p_image <= cell.p_sum
            assert cell.n_image <= cell.n_sum

    @given(random_linear_models(), st.integers(0, 993))
    @settings(max_examples=25, deadline=None)
    def test_mirror_swap_on_random_models(self, model, pos):
        lo = F(pos, 1000)
        nullset = IntervalSet.closed(lo, lo + F(1, 1000))
        eps = F(1, 4)
        trace = variation_certificate(model, nullset, eps)
        reflected = model.reflect()
        trace_m = variation_certificate(reflected, nullset.affine(-1, 1), eps)
        cells_m = list(trace_m.cells)[::-1]
        assert len(trace.cells) == len(cells_m)
        for a, b in zip(trace.cells, cells_m):
            assert a.plus_sum == b.minus_sum
            assert a.minus_sum == b.plus_sum
            assert a.mid_sum == b.mid_sum
            assert a.p_sum == b.p_sum
            assert a.f_sum == b.f_sum
        assert trace.max_p_sum == trace_m.max_p_sum

    @given(random_linear_models(monotone=True), st.integers(0, 197))
    @settings(max_examples=30, deadline=None)
    def test_shift_ledger_closes_on_random_monotone_models(self, model, pos):
        lo = F(pos, 200)
        nullset = IntervalSet.closed(lo, lo + F(1, 500))
        eps = F(1, 4)
        trace = shift_certificate(model, nullset, eps)
        assert trace.ok
        assert trace.shift_bound < 2 * eps
        assert trace.g_n1_measure <= measure(trace.n1)
        assert trace.g_n2_measure <= trace.shift_bound
