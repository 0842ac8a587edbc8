import numpy as np
import pytest
from hypothesis import given, strategies as st

from echobake.errors import InputError
from echobake.perception import (DEFAULT_JND, DETECTION_FIT_RANGE_M, Cluster,
                                 ClusterMap, JndConstants, PathSample,
                                 cluster_csv_text, cluster_path,
                                 detection_probability_er, jnd_er, jnd_lr)


def make_samples(mus):
    return [PathSample(i, (float(i), 0.0, 0.0), float(m))
            for i, m in enumerate(mus)]


class TestDetectionLine:
    def test_fifty_percent_point_inside_fit_range(self):
        p = detection_probability_er(2.06)
        assert 0.50 <= p.probability <= 0.52
        assert not p.extrapolated

    def test_at_reference_room(self):
        p = detection_probability_er(2.0)
        assert p.probability == pytest.approx(3.89 * 2.0 - 7.5)
        assert not p.extrapolated

    def test_clamped_low_and_flagged(self):
        p = detection_probability_er(1.9)
        assert p.probability == 0.0
        assert p.extrapolated

    def test_clamped_high_and_flagged(self):
        p = detection_probability_er(2.3)
        assert p.probability == 1.0
        assert p.extrapolated

    def test_fit_range_boundaries_not_extrapolated(self):
        lo, hi = DETECTION_FIT_RANGE_M
        assert (lo, hi) == (2.0, 2.17)
        assert not detection_probability_er(lo).extrapolated
        assert not detection_probability_er(hi).extrapolated
        assert detection_probability_er(hi + 1e-6).extrapolated

    @given(st.floats(0.1, 10.0))
    def test_probability_always_in_unit_interval(self, mu):
        assert 0.0 <= detection_probability_er(mu).probability <= 1.0


class TestJndThresholds:
    def test_er_at_reference_is_exact(self):
        assert jnd_er(2.0) == 0.06

    def test_lr_at_reference(self):
        got = jnd_lr(2.0)
        assert got == 0.06 - 0.04
        assert got == pytest.approx(0.02, abs=1e-15)

    def test_lr_scales_linearly(self):
        assert jnd_lr(4.0) == pytest.approx(0.04, abs=1e-15)
        assert jnd_er(4.0) == pytest.approx(0.12, abs=1e-15)

    def test_er_is_three_percent_lr_is_one_percent(self):
        for mu in (0.7, 1.0, 3.3, 8.0):
            assert jnd_er(mu) / mu == pytest.approx(0.03, rel=1e-12)
            assert jnd_lr(mu) / mu == pytest.approx(0.01, rel=1e-12)

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(InputError):
            jnd_er(0.0)
        with pytest.raises(InputError):
            jnd_lr(-1.0)

    @given(st.floats(0.01, 100.0), st.floats(0.001, 0.029))
    def test_lr_tightens_with_offset(self, mu, offset):
        custom = JndConstants(lr_offset=offset)
        assert jnd_lr(mu, custom) < jnd_er(mu, custom)
        assert jnd_lr(mu, custom) == pytest.approx(
            jnd_er(mu) - offset * mu, rel=1e-12)


class TestJndConstantsConsistency:
    def test_defaults_are_self_consistent(self):
        c = DEFAULT_JND
        fifty = (0.5 - c.intercept) / c.slope_per_m - c.mu_ref_m
        assert 0.055 <= fifty <= 0.065
        assert abs(c.jnd_er_abs_m - fifty) <= 0.005

    def test_inconsistent_slope_rejected(self):
        with pytest.raises(InputError, match="50%"):
            JndConstants(slope_per_m=2.0)

    def test_inconsistent_abs_threshold_rejected(self):
        with pytest.raises(InputError, match="disagrees"):
            JndConstants(jnd_er_abs_m=0.07)


class TestClusterPath:
    def test_worked_example(self):
        cmap = cluster_path(make_samples([2.00, 2.01, 2.02, 2.10]))
        assert cmap.n_clusters == 2
        a, b = cmap.clusters
        assert (a.start, a.stop) == (0, 3)
        assert (b.start, b.stop) == (3, 4)
        assert a.mu_ref == 2.00
        assert a.mu_mean == pytest.approx((2.00 + 2.01 + 2.02) / 3)
        assert b.mu_ref == 2.10

    def test_constant_sequence_single_cluster(self):
        cmap = cluster_path(make_samples([3.3] * 12))
        assert cmap.n_clusters == 1
        assert cmap.clusters[0].size == 12

    def test_each_sample_alone_when_far_apart(self):
        cmap = cluster_path(make_samples([1.0, 2.0, 4.0, 8.0]))
        assert cmap.n_clusters == 4

    def test_boundary_sample_starts_new_reference(self):
        # 2.021 is outside 2.000's one-percent band but 2.040 is inside
        # 2.021's, so the second cluster spans both.
        cmap = cluster_path(make_samples([2.000, 2.021, 2.040]))
        assert cmap.n_clusters == 2
        assert cmap.clusters[1].mu_ref == 2.021
        assert cmap.clusters[1].size == 2

    def test_absolute_mode_ignores_local_scale(self):
        mus = [10.0, 10.05]
        relative = cluster_path(make_samples(mus), mode="relative")
        absolute = cluster_path(make_samples(mus), mode="absolute")
        assert relative.n_clusters == 1
        assert absolute.n_clusters == 2
        assert absolute.clusters[0].jnd_threshold_m == jnd_lr(2.0)

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            cluster_path([])

    def test_noncontiguous_indices_rejected(self):
        bad = [PathSample(0, (0.0, 0.0, 0.0), 2.0),
               PathSample(2, (1.0, 0.0, 0.0), 2.0)]
        with pytest.raises(InputError, match="contiguous"):
            cluster_path(bad)

    def test_unknown_modes_rejected(self):
        samples = make_samples([2.0, 2.0])
        with pytest.raises(InputError):
            cluster_path(samples, mode="auto")

    @given(st.lists(st.floats(0.5, 10.0), min_size=1, max_size=60))
    def test_partition_and_threshold_property(self, mus):
        samples = make_samples(mus)
        cmap = cluster_path(samples)
        assert cmap.n_samples == len(mus)
        expected = 0
        for c in cmap.clusters:
            assert c.start == expected
            expected = c.stop
            for i in range(c.start, c.stop):
                rel = abs(samples[i].mu - c.mu_ref) / c.mu_ref
                assert rel <= 0.01 + 1e-12
        assert expected == len(mus)

    @given(st.lists(st.floats(0.5, 10.0), min_size=1, max_size=40))
    def test_cluster_of_agrees_with_membership(self, mus):
        cmap = cluster_path(make_samples(mus))
        for cid, c in enumerate(cmap.clusters):
            for i in range(c.start, c.stop):
                assert cmap.cluster_of(i) == cid


class TestClusterMap:
    def _cluster(self, start, stop):
        return Cluster(start, stop, 2.0, 2.0, 0.02)

    def test_gap_rejected(self):
        with pytest.raises(InputError, match="partition"):
            ClusterMap((self._cluster(0, 2), self._cluster(3, 4)), 4)

    def test_overlap_rejected(self):
        with pytest.raises(InputError, match="partition"):
            ClusterMap((self._cluster(0, 3), self._cluster(2, 4)), 4)

    def test_wrong_total_rejected(self):
        with pytest.raises(InputError, match="cover"):
            ClusterMap((self._cluster(0, 2),), 5)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            ClusterMap((), 0)

    def test_cluster_of_out_of_range(self):
        cmap = ClusterMap((self._cluster(0, 2),), 2)
        with pytest.raises(InputError):
            cmap.cluster_of(2)
        with pytest.raises(InputError):
            cmap.cluster_of(-1)

    def test_dominant_prefers_size_then_path_order(self):
        cmap = cluster_path(make_samples(
            [2.0] * 5 + [3.0] * 2 + [4.0] * 5 + [5.0] * 3 + [6.0]))
        # Sizes 5, 2, 5, 3, 1: the two fives win, then the three.
        assert cmap.dominant(3) == (0, 2, 3)
        assert cmap.dominant(1) == (0,)
        assert cmap.dominant(99) == tuple(range(cmap.n_clusters))


class TestPathSample:
    def test_rejects_nonpositive_mu(self):
        with pytest.raises(InputError, match="positive"):
            PathSample(0, (0.0, 0.0, 0.0), 0.0)



def test_cluster_csv_round_trip():
    samples = make_samples([2.00, 2.01, 2.10])
    cmap = cluster_path(samples)
    text = cluster_csv_text(samples, cmap)
    lines = text.strip().split("\n")
    assert lines[0] == "sample_index,x,y,z,mu,cluster_id"
    assert len(lines) == 4
    idx, x, y, z, mu, cid = lines[3].split(",")
    assert (int(idx), float(mu), int(cid)) == (2, 2.10, 1)


def test_cluster_csv_requires_matching_map():
    samples = make_samples([2.0, 2.0])
    cmap = cluster_path(samples[:1])
    with pytest.raises(InputError):
        cluster_csv_text(samples, cmap)
