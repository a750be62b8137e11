"""Tests for RFIDSystem — coverage, feasibility and the weight oracle.

Includes the paper's Figure 2 example verbatim: fewer readers can serve
more tags, the key non-monotonicity of the weight function.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.model import RFIDSystem, Reader, Tag, build_system
from tests.conftest import system_strategy


class TestConstruction:
    def test_id_mismatch_reader(self):
        readers = [Reader(id=1, x=0, y=0, interference_radius=2, interrogation_radius=1)]
        with pytest.raises(ValueError, match="reader at index 0"):
            RFIDSystem(readers, [])

    def test_id_mismatch_tag(self):
        readers = [Reader(id=0, x=0, y=0, interference_radius=2, interrogation_radius=1)]
        tags = [Tag(id=5, x=0, y=0)]
        with pytest.raises(ValueError, match="tag at index 0"):
            RFIDSystem(readers, tags)

    def test_empty_system(self):
        s = RFIDSystem([], [])
        assert s.num_readers == 0 and s.num_tags == 0
        assert s.weight([]) == 0
        assert s.is_feasible([])

    def test_build_system_radii_shape(self):
        with pytest.raises(ValueError):
            build_system(np.zeros((2, 2)), np.array([1.0]), np.array([1.0, 1.0]), np.empty((0, 2)))

    def test_accessors(self, line_system):
        assert line_system.num_readers == 3
        assert line_system.num_tags == 4
        assert line_system.reader(0).id == 0
        assert line_system.tag(3).id == 3
        assert line_system.reader_positions.shape == (3, 2)
        assert line_system.interference_radii.shape == (3,)


def _arrays(n=4, m=9, seed=0):
    rng = np.random.default_rng(seed)
    R = rng.uniform(2.0, 5.0, n)
    return (
        rng.uniform(0, 20, (n, 2)),
        R,
        R * rng.uniform(0.3, 1.0, n),
        rng.uniform(0, 20, (m, 2)),
    )


class TestArrayConstruction:
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.nan, "interference_radius must be finite"),
            (np.inf, "interference_radius must be finite"),
            (-np.inf, "interference_radius must be finite"),
            (0.0, "interference_radius must be > 0"),
            (-1.0, "interference_radius must be > 0"),
        ],
    )
    def test_rejects_bad_interference_radius(self, bad, message):
        rpos, R, gamma, tpos = _arrays()
        R[2] = bad
        with pytest.raises(ValueError, match=message):
            build_system(rpos, R, gamma, tpos)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.nan, "interrogation_radius must be finite"),
            (np.inf, "interrogation_radius must be finite"),
            (0.0, "interrogation_radius must be > 0"),
            (-1.0, "interrogation_radius must be > 0"),
        ],
    )
    def test_rejects_bad_interrogation_radius(self, bad, message):
        rpos, R, gamma, tpos = _arrays()
        gamma[1] = bad
        with pytest.raises(ValueError, match=message):
            build_system(rpos, R, gamma, tpos)

    def test_messages_match_reader(self):
        rpos, R, gamma, tpos = _arrays()
        R[1], gamma[1] = 2.0, 2.0 + 1e-9
        R[3] = -1.0  # a later offender must not mask the first one
        with pytest.raises(ValueError) as from_arrays:
            build_system(rpos, R, gamma, tpos)
        with pytest.raises(ValueError) as from_entity:
            Reader(id=1, x=0.0, y=0.0, interference_radius=2.0,
                   interrogation_radius=2.0 + 1e-9)
        assert str(from_arrays.value) == str(from_entity.value)
        assert "must not exceed interference radius" in str(from_arrays.value)

    def test_gamma_tolerance(self):
        rpos, R, gamma, tpos = _arrays()
        gamma[0] = R[0] + 5e-13
        assert build_system(rpos, R, gamma, tpos).num_readers == 4
        gamma[0] = R[0] + 2e-12
        with pytest.raises(ValueError, match="must not exceed"):
            build_system(rpos, R, gamma, tpos)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_entity_and_array_paths_agree(self, seed):
        rpos, R, gamma, tpos = _arrays(n=7, m=40, seed=seed)
        readers = [
            Reader(id=i, x=float(x), y=float(y), interference_radius=float(R[i]),
                   interrogation_radius=float(gamma[i]))
            for i, (x, y) in enumerate(rpos)
        ]
        tags = [Tag(id=t, x=float(x), y=float(y)) for t, (x, y) in enumerate(tpos)]
        a = RFIDSystem(readers, tags)
        b = build_system(rpos, R, gamma, tpos)
        for name in ("coverage", "in_interference_range", "conflict"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.readers == readers and b.readers == readers
        assert a.tags == tags and b.tags == tags

    def test_entity_views_index_like_lists(self, line_system):
        assert line_system.reader(-1) == line_system.readers[2]
        assert line_system.reader(-1).id == 2
        assert line_system.tag(-4).id == 0
        for bad in (3, -4):
            with pytest.raises(IndexError):
                line_system.reader(bad)
        with pytest.raises(IndexError):
            line_system.tag(4)

    def test_system_does_not_alias_inputs(self):
        rpos, R, gamma, tpos = _arrays()
        system = build_system(rpos, R, gamma, tpos)
        before = system.coverage.copy()
        rpos += 100.0
        tpos[:] = 0.0
        assert system.reader(0).x != rpos[0, 0]
        np.testing.assert_array_equal(system.coverage, before)

    def test_builds_no_entities(self, monkeypatch):
        """The array path must not materialise a Reader or Tag per entity."""
        built = {"reader": 0, "tag": 0}
        reader_init, tag_init = Reader.__post_init__, Tag.__post_init__

        def count(kind, init):
            def wrapped(self):
                built[kind] += 1
                init(self)
            return wrapped

        monkeypatch.setattr(Reader, "__post_init__", count("reader", reader_init))
        monkeypatch.setattr(Tag, "__post_init__", count("tag", tag_init))
        system = build_system(*_arrays(n=50, m=1200))
        assert system.num_readers == 50 and system.num_tags == 1200
        assert built == {"reader": 0, "tag": 0}
        system.reader(0), system.tag(0)
        assert built == {"reader": 1, "tag": 1}


class TestCoverage:
    def test_incidence(self, line_system):
        cov = line_system.coverage
        assert cov.shape == (4, 3)
        assert cov[0, 0] and not cov[0, 1] and not cov[0, 2]
        assert cov[1, 1] and not cov[1, 0]
        assert cov[2, 2]
        assert not cov[3].any()  # stranded tag

    def test_covered_by_any(self, line_system):
        np.testing.assert_array_equal(
            line_system.covered_by_any(), [True, True, True, False]
        )


class TestFeasibility:
    def test_conflicting_pair(self, line_system):
        assert not line_system.independent(0, 1)
        assert line_system.independent(0, 2)
        assert not line_system.is_feasible([0, 1])
        assert line_system.is_feasible([0, 2])
        assert line_system.is_feasible([1, 2])

    def test_singletons_and_empty_feasible(self, line_system):
        assert line_system.is_feasible([])
        for i in range(3):
            assert line_system.is_feasible([i])

    def test_independent_self_raises(self, line_system):
        with pytest.raises(ValueError):
            line_system.independent(1, 1)

    def test_duplicates_collapse(self, line_system):
        assert line_system.is_feasible([2, 2])


class TestOperationalReaders:
    def test_rtc_pair_both_suffer(self, line_system):
        # A and B are inside each other's disks: both non-operational
        np.testing.assert_array_equal(
            line_system.operational_readers([0, 1]), []
        )

    def test_far_reader_unaffected(self, line_system):
        np.testing.assert_array_equal(
            line_system.operational_readers([0, 1, 2]), [2]
        )

    def test_feasible_set_all_operational(self, line_system):
        np.testing.assert_array_equal(
            line_system.operational_readers([0, 2]), [0, 2]
        )


class TestWeight:
    def test_singletons(self, line_system):
        assert line_system.weight([0]) == 1
        assert line_system.weight([1]) == 1
        assert line_system.weight([2]) == 1

    def test_feasible_pair_adds(self, line_system):
        assert line_system.weight([0, 2]) == 2

    def test_rtc_pair_reads_nothing(self, line_system):
        assert line_system.weight([0, 1]) == 0

    def test_rtc_pair_with_outsider(self, line_system):
        assert line_system.weight([0, 1, 2]) == 1

    def test_unread_mask_respected(self, line_system):
        unread = np.array([False, True, True, True])
        assert line_system.weight([0, 2], unread) == 1
        got = line_system.well_covered_tags([0, 2], unread)
        np.testing.assert_array_equal(got, [2])

    def test_unread_mask_shape_checked(self, line_system):
        with pytest.raises(ValueError):
            line_system.weight([0], np.array([True]))

    def test_out_of_range_reader(self, line_system):
        with pytest.raises(IndexError):
            line_system.weight([7])

    def test_exclusive_coverage_counts(self, figure2_system):
        counts = figure2_system.exclusive_coverage_counts([0, 1, 2])
        # A exclusively covers tag1; B tag5; C tag4
        np.testing.assert_array_equal(counts, [1, 1, 1])


class TestFigure2:
    """The paper's Figure 2: scheduling fewer readers reads more tags."""

    def test_all_three_pairwise_independent(self, figure2_system):
        assert figure2_system.is_feasible([0, 1, 2])

    def test_full_set_weight_is_3(self, figure2_system):
        assert figure2_system.weight([0, 1, 2]) == 3

    def test_dropping_b_raises_weight_to_4(self, figure2_system):
        assert figure2_system.weight([0, 2]) == 4

    def test_overlap_tags_blocked_by_rrc(self, figure2_system):
        well = figure2_system.well_covered_tags([0, 1, 2])
        np.testing.assert_array_equal(well, [0, 3, 4])  # tags 1, 4, 5 (0-based)

    def test_weight_not_monotone(self, figure2_system):
        # the defining property: w(X ∪ {B}) < w(X)
        assert figure2_system.weight([0, 1, 2]) < figure2_system.weight([0, 2])


class TestWeightProperties:
    @given(system=system_strategy())
    @settings(max_examples=40, deadline=None)
    def test_weight_bounds(self, system):
        n = system.num_readers
        active = list(range(0, n, 2))
        w = system.weight(active)
        assert 0 <= w <= system.num_tags

    @given(system=system_strategy())
    @settings(max_examples=40, deadline=None)
    def test_weight_of_empty_is_zero(self, system):
        assert system.weight([]) == 0

    @given(system=system_strategy(max_readers=8))
    @settings(max_examples=40, deadline=None)
    def test_subadditivity_for_feasible_union(self, system):
        """w(X1 ∪ X2) ≤ w(X1) + w(X2) — the non-additivity direction the
        paper's Section IV calls out."""
        n = system.num_readers
        x1 = [i for i in range(n) if i % 2 == 0]
        x2 = [i for i in range(n) if i % 2 == 1]
        union = sorted(set(x1) | set(x2))
        if system.is_feasible(union):
            assert system.weight(union) <= system.weight(x1) + system.weight(x2)

    @given(system=system_strategy(max_readers=8))
    @settings(max_examples=40, deadline=None)
    def test_well_covered_owner_covers_tag(self, system):
        active = list(range(system.num_readers))
        for t in system.well_covered_tags(active):
            assert system.coverage[t, active].sum() == 1
