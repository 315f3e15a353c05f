from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvkit.errors import PreconditionError, SpecFormatError
from bvkit.intervals import IntervalSet
from bvkit.measure import (
    FAILS,
    INCONCLUSIVE,
    PASSES,
    NullSetFamily,
    cantor_family,
    cover_image,
    image_measure,
    image_set,
    inflate,
    lusin_probe,
    measure,
    shrinking_family,
    split_cover_at,
)
from bvkit.model import (
    build_cantor_iterate,
    build_zigzag,
    piecewise_linear,
)

F = Fraction


class TestMeasure:
    def test_empty(self):
        assert measure(IntervalSet.empty()) == 0

    def test_two_thirds(self):
        E = IntervalSet.from_pairs([(0, F(1, 3)), (F(2, 3), 1)])
        assert measure(E) == F(2, 3)

    def test_cantor_levels(self):
        fam = cantor_family()
        for j in range(1, 9):
            level = fam.level(j)
            assert len(level) == 2 ** j
            assert measure(level) == F(2, 3) ** j


class TestImageMeasure:
    def test_identity_preserves(self, identity):
        E = IntervalSet.from_pairs([(F(1, 8), F(1, 4)), (F(1, 2), F(3, 4))])
        assert image_measure(identity, E) == measure(E)

    def test_square_overlapping_branches(self, square_sym):
        # [-1, 0] maps onto [0, 1]; [0, 1/2] onto [0, 1/4]: union is [0, 1]
        assert image_measure(square_sym, IntervalSet.closed(-1, 0.5)) == 1.0

    def test_cantor_image_tiles_everything(self):
        # each rising stretch of c_k maps its support onto a dyadic block
        for k in (1, 2, 4):
            ck = build_cantor_iterate(k)
            assert image_measure(ck, cantor_family().level(k)) == 1

    def test_monotone_piece_image_is_endpoint_gap(self, zigzag):
        for lo, hi in ((F(0), F(1, 8)), (F(1, 4), F(3, 8)), (F(1, 2), F(5, 8))):
            E = IntervalSet.closed(lo, hi)
            want = abs(zigzag.evaluate(hi) - zigzag.evaluate(lo))
            assert image_measure(zigzag, E) == want

    def test_image_oracle_by_sampling(self, zigzag):
        # oracle: image of a dense sample sits inside the computed image set
        E = IntervalSet.from_pairs([(F(1, 16), F(5, 16)), (F(9, 16), F(10, 16))])
        img = image_set(zigzag, E)
        for comp in E:
            for i in range(65):
                x = comp.lo + (comp.hi - comp.lo) * F(i, 64)
                assert img.contains(zigzag.evaluate(x))

    @given(st.integers(0, 15), st.integers(1, 8), st.integers(0, 15),
           st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_subadditivity(self, a_num, a_len, b_num, b_len):
        zz = build_zigzag()
        E1 = IntervalSet.closed(F(a_num, 16), F(a_num, 16) + F(a_len, 16 * 8))
        E2 = IntervalSet.closed(F(b_num, 16), F(b_num, 16) + F(b_len, 16 * 8))
        lhs = image_measure(zz, E1.union(E2))
        assert lhs <= image_measure(zz, E1) + image_measure(zz, E2)

    def test_additivity_for_nondecreasing_models(self, cantor2, square01):
        # disjoint intervals under a non-decreasing map share image mass
        # only at endpoints, so the induced measure is finitely additive
        for model in (cantor2, square01):
            E1 = IntervalSet.closed(F(1, 16), F(3, 16))
            E2 = IntervalSet.closed(F(5, 16), F(9, 16))
            whole = image_measure(model, E1.union(E2))
            assert whole == image_measure(model, E1) + image_measure(model, E2)

    def test_plateau_translation_under_shift(self, cantor2):
        # on a plateau the shifted model translates: lengths survive exactly
        g = cantor2.shift_add_identity()
        plateau = IntervalSet.closed(F(4, 9), F(5, 9))
        E = IntervalSet.closed(F(39, 90), F(44, 90))
        inside = E.intersect(plateau)
        assert image_measure(g, inside) == measure(inside)

    def test_shift_bound_on_components(self, cantor2):
        # images under F + x grow by at most the domain plus image lengths
        g = cantor2.shift_add_identity()
        for lo, hi in ((F(1, 9), F(5, 9)), (F(0), F(1, 3)), (F(2, 9), F(7, 9))):
            E = IntervalSet.closed(lo, hi)
            lhs = image_measure(g, E)
            assert lhs <= measure(E) + image_measure(cantor2, E)


class TestCoverImage:
    def test_identity_worked_example(self, identity):
        cover = cover_image(identity, IntervalSet.closed(0, F(1, 2)), F(1, 100))
        assert len(cover) == 1
        piece = cover.components[0]
        assert (piece.lo, piece.hi) == (F(-1, 400), F(201, 400))
        assert piece.lo_open and piece.hi_open
        assert measure(cover) == F(101, 200)  # 0.505

    def test_cantor_cover_within_budget(self, cantor2):
        cover = cover_image(cantor2, cantor_family().level(2), F(1, 10))
        assert cover.covers(IntervalSet.closed(0, 1))
        assert 1 < measure(cover) < F(11, 10)

    def test_point_image_gets_small_open_cover(self):
        flat = piecewise_linear([(0, 0), (1, 0)])
        cover = cover_image(flat, IntervalSet.closed(F(1, 4), F(3, 4)), F(1, 100))
        assert len(cover) == 1
        assert cover.contains(0)
        assert measure(cover) < F(1, 100)

    def test_cover_contains_exact_image(self, zigzag):
        E = IntervalSet.from_pairs([(F(1, 16), F(2, 16)), (F(11, 16), F(12, 16))])
        cover = cover_image(zigzag, E, F(1, 50))
        img = image_set(zigzag, E)
        assert cover.covers(img)
        assert measure(cover) < measure(img) + F(1, 50)
        for left, right in zip(cover.components, cover.components[1:]):
            assert left.intersect(right).empty

    def test_positive_slack_required(self, identity):
        with pytest.raises(SpecFormatError):
            inflate(IntervalSet.closed(0, 1), 0)


class TestSplitCover:
    def test_split_excludes_points_keeps_measure(self):
        cover = IntervalSet.open(0, 1)
        split = split_cover_at(cover, [F(1, 3), F(2, 3)])
        assert len(split) == 3
        assert measure(split) == 1
        assert not split.contains(F(1, 3))
        assert not split.contains(F(2, 3))

    def test_split_ignores_outside_points(self):
        cover = IntervalSet.open(0, 1)
        assert split_cover_at(cover, [5]) == cover


class TestFamilies:
    def test_shrinking_left_anchor(self):
        fam = shrinking_family((0, 1))
        assert fam.level(3) == IntervalSet.closed(0, F(1, 8))
        assert fam.component_count(3) == 1

    def test_shrinking_multi_slot(self):
        fam = shrinking_family((0, 1), count=3)
        level = fam.level(2)
        assert len(level) == 3
        assert measure(level) == F(1, 4)

    def test_measures_strictly_decreasing(self):
        for fam in (cantor_family(), shrinking_family((0, 2), count=2)):
            values = [measure(fam.level(j)) for j in range(1, 7)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_unknown_kind_refused(self):
        with pytest.raises(SpecFormatError, match="^unknown family kind 'sparse'$"):
            NullSetFamily("sparse", (0, 1))

    def test_custom_levels(self):
        fam = NullSetFamily("custom", (0, 1), levels=(
            IntervalSet.closed(0, F(1, 2)), IntervalSet.closed(0, F(1, 8))))
        assert measure(fam.level(2)) == F(1, 8)
        with pytest.raises(SpecFormatError):
            fam.level(3)

    def test_bad_rate_rejected(self):
        with pytest.raises(SpecFormatError):
            shrinking_family((0, 1), rate=2)

    @pytest.mark.parametrize("count", [2.5, 2.0, "3", F(3), 0, -1, True, False])
    def test_count_must_be_an_int_of_at_least_one(self, count):
        with pytest.raises(SpecFormatError, match="count must be an int >= 1"):
            shrinking_family((0, 1), count=count).level(1)


class TestLusinProbe:
    def test_needs_a_level(self, zigzag):
        with pytest.raises(SpecFormatError, match="^max_level must be >= 1$"):
            lusin_probe(zigzag, cantor_family(), 0)

    def test_cantor_diagonal_fails_exactly(self):
        # the iterate maps its own middle-thirds stage onto everything
        for j in (2, 5, 8):
            cj = build_cantor_iterate(j)
            report = lusin_probe(cj, cantor_family(), j)
            assert report.verdict == FAILS
            for level, mu, img in report.levels:
                assert mu == F(2, 3) ** level
                assert img == 1

    def test_square_shrinking_passes_exactly(self, square01):
        report = lusin_probe(square01, shrinking_family((0, 1)), 8)
        assert report.verdict == PASSES
        for level, mu, img in report.levels:
            assert mu == F(1, 2) ** level
            assert img == F(1, 4) ** level

    def test_identity_passes(self, identity):
        report = lusin_probe(identity, shrinking_family((0, 1), count=2), 6)
        assert report.verdict == PASSES
        for _, mu, img in report.levels:
            assert img == mu

    def test_inconclusive_when_decay_invisible(self, identity):
        # a custom family shrinking too slowly to halve within the window
        levels = tuple(IntervalSet.closed(0, F(400 - j, 1000))
                       for j in range(1, 4))
        fam = NullSetFamily("custom", (0, 1), levels=levels)
        report = lusin_probe(identity, fam, 3)
        assert report.verdict == INCONCLUSIVE

    def test_family_must_shrink(self, identity):
        fam = NullSetFamily("custom", (0, 1), levels=(
            IntervalSet.closed(0, F(1, 4)), IntervalSet.closed(0, F(1, 4))))
        with pytest.raises(PreconditionError):
            lusin_probe(identity, fam, 2)
