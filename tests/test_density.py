import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvkit.corpus import default_corpus
from bvkit.density import (
    AC_AT_RESOLUTION,
    NOT_AC,
    DensityGrid,
    ac_modulus,
    bv_density,
    density_grid,
    integrate,
    monotone_density,
    reconstruction_error,
    shifted_monotone_density,
)
from bvkit.errors import PreconditionError, SpecFormatError
from bvkit.intervals import IntervalSet
from bvkit.measure import image_measure
from bvkit.model import (
    ConstantPiece,
    FunctionModel,
    LinearPiece,
    build_cantor_iterate,
    build_zigzag,
    piecewise_linear,
)
from bvkit.specio import model_from_dict
from bvkit.variation import jordan_decomposition

from support import model_to_dict

F = Fraction


class TestMonotoneDensity:
    def test_identity_unit_density(self, identity):
        d = monotone_density(identity, grid=[F(i, 8) for i in range(9)],
                             h=F(1, 64))
        assert set(d.values) == {F(1)}

    def test_square_forward_window(self, square01):
        # ((x+h)^2 - x^2)/h = 2x + h exactly at x = 1/2
        h = 2.0 ** -10
        d = monotone_density(square01, grid=[0.5], h=h)
        assert d.values[0] == 1 + h

    def test_cantor_plateau_interior_vanishes(self, cantor2):
        d = monotone_density(cantor2, grid=[F(1, 2)], h=F(1, 100))
        assert d.values[0] == 0

    def test_left_window_at_right_edge(self, identity):
        d = monotone_density(identity, grid=[F(1)], h=F(1, 32))
        assert d.values[0] == 1

    def test_requires_nondecreasing(self, zigzag):
        with pytest.raises(PreconditionError):
            monotone_density(zigzag, grid=[F(1, 2)], h=F(1, 64))

    def test_explicit_grid_needs_window(self, identity):
        with pytest.raises(SpecFormatError):
            monotone_density(identity, grid=[F(1, 2)])

    def test_int_valued_model_gives_fractions(self):
        # int / int would round to a float
        model = FunctionModel([LinearPiece(0, 1, 1, 0)])
        values = monotone_density(model, [0], 1).values
        assert values == (F(1),) and type(values[0]) is Fraction
        values = monotone_density(model, [0, 1], 1).values
        assert values == (F(1), F(1)) and all(type(v) is Fraction for v in values)

    @pytest.mark.parametrize("recover", [monotone_density, shifted_monotone_density,
                                         bv_density])
    @pytest.mark.parametrize("arithmetic", ["rational", "float"])
    def test_an_empty_grid_is_refused(self, recover, arithmetic, identity):
        model = identity if arithmetic == "rational" else model_from_dict(
            {**model_to_dict(identity), "arithmetic": "float"})
        with pytest.raises(SpecFormatError, match="^the density grid is empty$"):
            recover(model, [], F(1, 64))


class TestShiftedDensity:
    def test_identity(self, identity):
        d = shifted_monotone_density(identity, grid=[F(1, 3)], h=F(1, 64))
        assert d.values[0] == 1

    def test_constant_zero(self):
        flat = piecewise_linear([(0, 0), (1, 0)])
        d = shifted_monotone_density(flat, grid=[F(1, 4), F(1, 2)], h=F(1, 64))
        assert set(d.values) == {F(0)}

    def test_square_matches_direct(self, square01):
        h = 2.0 ** -10
        d = shifted_monotone_density(square01, grid=[0.5], h=h)
        assert abs(d.values[0] - (1 + h)) < 1e-12

    def test_cross_check_rejects_a_stray_shift(self, identity, monkeypatch):
        # a companion G = F + 2x recovers a density one too high; the
        # comparison with the direct quotient must catch it
        shift = FunctionModel.shift_add_identity
        monkeypatch.setattr(FunctionModel, "shift_add_identity",
                            lambda model: shift(shift(model)))
        with pytest.raises(PreconditionError, match="strays from direct"):
            shifted_monotone_density(identity, grid=[F(1, 3)], h=F(1, 64))


def _image_measure_windows(model, grid, h):
    """The long route: (image measure, width) of each window, with the
    window rules of ``monotone_density``."""
    out = []
    for x in grid:
        if x == model.b:
            lo = max(model.b - h, model.a)
            out.append((image_measure(model, IntervalSet.closed(lo, model.b)), h))
        else:
            hi = min(x + h, model.b)
            out.append((image_measure(model, IntervalSet.closed(x, hi)), hi - x))
    return out


def _float_twin(model):
    return model_from_dict(dict(model_to_dict(model), arithmetic="float"))


def _oracle_mismatches(model, tolerance):
    """Windows where the endpoint-difference quotient of p, n, p + x or
    n + x strays from the image-measure quotient by more than tolerance
    times the window width (a tolerance on the measure).  The subsampled
    grid keeps a clipped forward window and the left window at b."""
    grid, h = density_grid(model, 256)
    sub = sorted(set(grid[::5]) | {model.b - h / 2, model.b})
    parts = jordan_decomposition(model)
    bad = []
    for part in (parts.p, parts.n):
        for g in (part, part.shift_add_identity()):
            got = monotone_density(g, sub, h).values
            want = _image_measure_windows(g, sub, h)
            bad += [(g.name, x, q, m / w) for x, q, (m, w) in zip(sub, got, want)
                    if abs(q - m / w) > tolerance / w]
    return bad


class TestEndpointDifferenceOracle:
    """Density recovery takes G(v) - G(u) for the image measure of [u, v];
    the general image-set route is the oracle."""

    @pytest.mark.parametrize("entry", default_corpus(), ids=lambda e: e.name)
    def test_corpus_as_built_matches_exactly(self, entry):
        assert _oracle_mismatches(entry.model, 0) == []

    @pytest.mark.parametrize(
        "entry", [e for e in default_corpus() if e.model.exact],
        ids=lambda e: e.name)
    def test_float_twins_match_within_tolerance(self, entry):
        twin = _float_twin(entry.model)
        assert _oracle_mismatches(twin, 10 * twin.tol) == []


class TestBVDensity:
    def test_decreasing_reference(self):
        neg = piecewise_linear([(0, 0), (1, -1)])
        d = bv_density(neg, grid=[F(1, 4), F(3, 4)], h=F(1, 64))
        assert set(d.values) == {F(-1)}

    def test_zigzag_local_slopes(self, zigzag):
        d = bv_density(zigzag, grid=[F(3, 8), F(1, 8)], h=F(1, 64))
        assert d.values[0] == -4
        assert d.values[1] == 4

    def test_identity(self, identity):
        d = bv_density(identity, grid=[F(2, 7)], h=F(1, 64))
        assert d.values[0] == 1

    def test_cubic_approximates_derivative(self, cubic):
        d = bv_density(cubic, grid=[0.5], h=2.0 ** -12)
        assert abs(d.values[0] - 0.75) < 1e-2

    def test_int_bounds_give_an_exact_default_window(self):
        # (b - a) / (n - 1) / 4 on int bounds was a float window, and the
        # shift route then refused a quotient 3.0 against 3.0000000000000004
        model = FunctionModel([LinearPiece(0, 2, 3, 1), LinearPiece(2, 5, -1, 9),
                               ConstantPiece(5, 8, 4)])
        grid, h = density_grid(model, 192)
        assert type(h) is Fraction and h == F(8, 191 * 4)
        assert all(type(x) in (int, Fraction) for x in grid)
        d = bv_density(model, grid, h)
        assert all(type(v) is Fraction for v in d.values)
        slopes = dict(zip(grid, d.values))
        # forward windows from the knots 0, 2 and 5
        assert (slopes[0], slopes[2], slopes[5]) == (3, -1, 0)
        assert bv_density(model).window == F(8, 4095 * 4)

    def test_float_default_window_is_unchanged(self):
        model = FunctionModel([LinearPiece(0.0, 2.0, 3.0, 1.0)], arithmetic="float")
        assert density_grid(model, 192)[1].hex() == (2.0 / 191 / 4).hex()


class TestIntegrate:
    def test_unit_density(self):
        grid = tuple(F(i, 10) for i in range(11))
        d = DensityGrid(grid, tuple(F(1) for _ in grid), F(1, 40), "monotone_density")
        assert integrate(d, F(7, 10)) == F(7, 10)
        assert integrate(d, F(3, 4)) == F(3, 4)  # partial cell interpolates

    def test_linear_density_exact(self):
        grid = tuple(F(i, 16) for i in range(17))
        d = DensityGrid(grid, tuple(2 * x for x in grid), F(1, 64), "bv_difference")
        assert integrate(d, 1) == 1

    def test_zero_density(self):
        grid = tuple(F(i, 4) for i in range(5))
        d = DensityGrid(grid, tuple(F(0) for _ in grid), F(1, 16), "monotone_density")
        assert integrate(d, F(2, 3)) == 0

    def test_outside_span_rejected(self):
        d = DensityGrid((F(0), F(1)), (F(1), F(1)), F(1, 4), "monotone_density")
        with pytest.raises(SpecFormatError):
            integrate(d, 2)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_nan_and_infinities_are_outside_the_span(self, zigzag, x):
        # NaN fails every comparison, so a test of "below or above" let it
        # through to the whole integral
        density = bv_density(zigzag, *density_grid(zigzag, 16))
        with pytest.raises(SpecFormatError, match="outside the density grid span"):
            integrate(density, x)


class TestReconstruction:
    def test_identity_exact(self, identity):
        d = bv_density(identity, grid=[F(i, 16) for i in range(17)], h=F(1, 64))
        report = reconstruction_error(identity, d)
        assert report.sup_error == 0

    def test_square_window_bias_bound(self, square01):
        grid, h = density_grid(square01, 4096, h=2.0 ** -10)
        d = bv_density(square01, grid, 2.0 ** -10)
        report = reconstruction_error(square01, d)
        assert report.sup_error <= 2.0 ** -9

    def test_first_order_convergence(self, square01, zigzag):
        for model in (square01, zigzag):
            grid, h = density_grid(model, 2048)
            err = reconstruction_error(model, bv_density(model, grid, h)).sup_error
            grid2, h2 = density_grid(model, 2048, h=h / 2)
            err2 = reconstruction_error(model, bv_density(model, grid2, h2)).sup_error
            assert 0.4 * float(err) <= float(err2) <= 0.6 * float(err)

    def test_cantor8_aligned_grid_bound(self):
        c8 = build_cantor_iterate(8)
        grid, h = density_grid(c8, 1024)
        report = reconstruction_error(c8, bv_density(c8, grid, h))
        assert report.sup_error <= F(1, 128)

    def test_cantor_mass_concentrates_as_level_grows(self):
        # at a fixed window the measure of the dead zone of the recovered
        # density grows with the iterate level: the limit object keeps
        # F(1) - F(0) out of reach of any fixed-resolution density.
        # prediction: sum over plateaus of max(0, len - h), e.g. 5/9 - 3h
        # at level 2
        h = F(1, 4096)
        zero_measures = []
        integrals = []
        for level in (2, 4, 6):
            ck = build_cantor_iterate(level)
            grid, _ = density_grid(ck, 512, h=h)
            d = bv_density(ck, grid, h)
            zero_measures.append(sum(
                x1 - x0
                for (x0, v0), (x1, v1) in zip(zip(d.grid, d.values),
                                              zip(d.grid[1:], d.values[1:]))
                if v0 == 0 and v1 == 0))
            integrals.append(integrate(d, 1))
        assert zero_measures == sorted(zero_measures)
        assert zero_measures[0] == F(5, 9) - 3 * h
        assert zero_measures[-1] > F(8, 10)
        # while the mass concentrates, the finite-level integral stays ~1
        for total in integrals:
            assert abs(total - 1) < F(1, 10)


class TestModulus:
    def test_identity_exact(self, identity):
        report = ac_modulus(identity, [F(1, 2) ** j for j in range(1, 9)])
        for j in range(1, 9):
            assert report.omega(F(1, 2) ** j) == F(1, 2) ** j
        assert report.verdict == AC_AT_RESOLUTION

    def test_omega_of_a_delta_not_sampled(self, zigzag):
        report = ac_modulus(zigzag, [F(1, 2), F(1, 8)])
        assert report.omega(F(1, 8)) == F(1, 2)
        with pytest.raises(KeyError) as err:
            report.omega(F(1, 4))
        assert err.value.args == (F(1, 4),)

    def test_zigzag_exact_four_delta(self, zigzag):
        deltas = [F(1), F(1, 2), F(1, 8), F(1, 64)]
        report = ac_modulus(zigzag, deltas)
        for delta in deltas:
            assert report.omega(delta) == 4 * delta
        assert report.verdict == AC_AT_RESOLUTION

    def test_cantor_pins_at_one(self):
        for level in (2, 4, 6):
            ck = build_cantor_iterate(level)
            deltas = [F(2, 3) ** j for j in range(1, level + 1)]
            report = ac_modulus(ck, deltas)
            assert report.omega(F(2, 3) ** level) == 1
            assert report.verdict == NOT_AC

    def test_rational_model_reads_float_deltas_exactly(self, zigzag):
        report = ac_modulus(zigzag, [0.1])
        (delta, omega, chosen), = report.samples
        assert type(delta) is F and delta == F(0.1)
        assert type(omega) is F and omega == 4 * F(0.1)
        assert all(type(end) is F for comp in chosen for end in (comp.lo, comp.hi))
        assert report.omega(0.1) == omega

    def test_float_model_keeps_float_deltas(self, zigzag):
        twin = model_from_dict(dict(model_to_dict(zigzag), arithmetic="float"))
        (delta, omega, _), = ac_modulus(twin, [0.1]).samples
        assert type(delta) is float and type(omega) is float

    @pytest.mark.parametrize("deltas", [
        [F(1, 2), math.nan], [math.nan, F(1, 2)], [F(1, 4), math.inf],
        [math.inf, F(1, 4)], [F(1, 2), 0], [-1, F(1, 2)], []])
    def test_deltas_must_be_positive_and_finite_in_any_order(self, zigzag, deltas):
        with pytest.raises(SpecFormatError, match="positive and finite"):
            ac_modulus(zigzag, deltas)

    def test_collections_are_feasible(self, zigzag):
        report = ac_modulus(zigzag, [F(1, 4)])
        delta, omega, chosen = report.samples[0]
        assert chosen.measure <= delta
        total = 0
        for comp in chosen:
            total += abs(zigzag.evaluate(comp.hi) - zigzag.evaluate(comp.lo))
        assert total == omega

    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(1, 16)),
                    min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_random_collections_never_beat_omega(self, raw):
        # oracle: omega is the sup over feasible collections, so every
        # explicit disjoint collection must come in at or below it
        zz = build_zigzag()
        spans = []
        cursor = F(0)
        for start, width in sorted(raw):
            lo = max(cursor, F(start, 256))
            hi = lo + F(width, 16 * 256)
            if hi > 1:
                break
            spans.append((lo, hi))
            cursor = hi
        if not spans:
            return
        delta = sum(hi - lo for lo, hi in spans)
        total = sum(abs(zz.evaluate(hi) - zz.evaluate(lo)) for lo, hi in spans)
        report = ac_modulus(zz, [delta])
        assert total <= report.omega(delta)

    def test_omega_monotone(self, square01):
        report = ac_modulus(square01, [0.5 ** j for j in range(1, 9)])
        values = [w for _, w, _ in report.samples]
        assert values == sorted(values)

    def test_curved_profile_is_lower_bound(self, square01):
        # analytic optimum on [0, 1] places the budget at the steep end:
        # omega(delta) = 1 - (1 - delta)^2; the sliced greedy stays below
        report = ac_modulus(square01, [0.25])
        exact = 1 - (1 - 0.25) ** 2
        got = report.omega(0.25)
        assert got <= exact + 1e-12
        assert got >= exact - 0.01
