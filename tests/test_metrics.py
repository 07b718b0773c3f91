"""Metric values against direct-summation oracles and closed forms."""

import json
import math

import numpy as np
import pytest

from hqinet.metrics import (METRIC_KEYS, MI_BINS, PSNR_CAP_DB, _joint_histogram,
                            format_table, l1_error, metrics_report,
                            mutual_information, nmse, psnr)

from _oracles import l1_naive, mi_naive, nmse_naive, psnr_naive


def img(shape, seed):
    return np.random.default_rng(seed).uniform(size=shape)


class TestOracleEquivalence:
    def test_l1(self):
        x, y = img((8, 8), 0), img((8, 8), 1)
        got, want = l1_error(x, y), l1_naive(x, y)
        assert abs(got - want) / want < 1e-10

    def test_nmse(self):
        x, y = img((8, 8), 2), img((8, 8), 3)
        got, want = nmse(x, y), nmse_naive(x, y)
        assert abs(got - want) / want < 1e-10

    def test_psnr(self):
        x, y = img((8, 8), 4), img((8, 8), 5)
        got = psnr(x, y)
        want = psnr_naive(x, y)
        assert abs(got - want) / abs(want) < 1e-10

    def test_mi(self):
        x, y = img((8, 8), 6), img((8, 8), 7)
        got = mutual_information(x, y)
        want = mi_naive(x, y, bins=64)
        assert abs(got - want) / want < 1e-10


class TestClosedForms:
    def test_l1_constant_offset(self):
        x = img((16, 16), 8)
        assert l1_error(x, x + 0.125) == pytest.approx(0.125, abs=1e-12)

    def test_nmse_scaling(self):
        # pred = (1+e) ref gives exactly e^2
        r = img((16, 16), 9) + 0.5
        assert nmse(1.1 * r, r) == pytest.approx(0.01, rel=1e-10)

    def test_psnr_constant_error(self):
        # constant offset c against the reference's maximum: 20 log10(max / c)
        r = img((16, 16), 11)
        c = 0.01
        assert psnr(r + c, r) == pytest.approx(20.0 * math.log10(r.max() / c),
                                               abs=1e-10)

    def test_psnr_identical_is_capped(self):
        x = img((8, 8), 10)
        assert psnr(x, x) == PSNR_CAP_DB
        # a tiny error that would read above the cap reads the cap
        assert psnr(x + 1e-9, x) == PSNR_CAP_DB
        assert psnr(x + 1e-3, x) < PSNR_CAP_DB

    @pytest.mark.parametrize("nan_in", ["pred", "ref"])
    def test_psnr_nan_is_not_capped(self, nan_in):
        # min(cap, nan) is the cap; a NaN must reach the report's guard.
        x = np.ones((8, 8))
        y = x.copy()
        y[2, 3] = np.nan
        assert math.isnan(psnr(y, x) if nan_in == "pred" else psnr(x, y))

    def test_mi_identical_images_equals_histogram_entropy(self):
        x = img((32, 32), 15)
        got = mutual_information(x, x)
        counts, _ = np.histogram(np.clip(x, 0, 1), bins=MI_BINS, range=(0.0, 1.0))
        pr = counts / counts.sum()
        pr = pr[pr > 0]
        entropy = float(-(pr * np.log(pr)).sum())
        assert got == pytest.approx(entropy, abs=1e-12)

    def test_mi_independent_images_near_zero(self):
        # independent draws: MI estimate is pure binning bias,
        # approximately (bins-1)^2 / (2N)
        n = 256 * 256
        x = img((n,), 16)
        y = img((n,), 17)
        got = mutual_information(x, y)
        bias = (MI_BINS - 1) ** 2 / (2.0 * n)
        assert got < 5 * bias

    def test_mi_nonnegative_and_symmetric(self):
        x, y = img((16, 16), 18), img((16, 16), 19)
        a = mutual_information(x, y)
        assert a >= 0.0
        assert a == pytest.approx(mutual_information(y, x), abs=1e-12)

    def test_mi_monotone_under_noise(self):
        rng = np.random.default_rng(20)
        x = img((64, 64), 21)
        small = np.clip(x + 0.02 * rng.normal(size=x.shape), 0, 1)
        large = np.clip(x + 0.3 * rng.normal(size=x.shape), 0, 1)
        assert mutual_information(x, small) > mutual_information(x, large)


def _histogram2d(p, r):
    """np.histogram2d's counts over [0, 1]², after the clipping MI applies."""
    p = np.clip(np.ravel(p), 0.0, 1.0)
    r = np.clip(np.ravel(r), 0.0, 1.0)
    return np.histogram2d(p, r, bins=MI_BINS, range=[[0.0, 1.0], [0.0, 1.0]])[0]


class TestMiBinning:
    """The joint histogram equals np.histogram2d's count for count."""

    EDGES = np.linspace(0.0, 1.0, MI_BINS + 1)

    def test_random_images(self):
        for seed in range(5):
            x, y = img((64, 64), 20 + seed), img((64, 64), 30 + seed)
            assert np.array_equal(_joint_histogram(x, y), _histogram2d(x, y))

    def test_edges_and_their_neighbours(self):
        below = np.nextafter(self.EDGES, -np.inf)
        above = np.nextafter(self.EDGES, np.inf)
        values = np.concatenate([self.EDGES, below, above, [0.0, 1.0]])
        rng = np.random.default_rng(40)
        for _ in range(5):
            x, y = rng.permutation(values), rng.permutation(values)
            assert np.array_equal(_joint_histogram(x, y), _histogram2d(x, y))
        # each edge opens its bin; the one below it is in the bin before
        ids = np.arange(MI_BINS)
        counts = _joint_histogram(self.EDGES[:-1], self.EDGES[:-1])
        assert np.array_equal(np.flatnonzero(counts), ids * MI_BINS + ids)
        counts = _joint_histogram(below[1:], below[1:])
        assert np.array_equal(np.flatnonzero(counts), ids * MI_BINS + ids)
        # 1.0 is in the last bin
        assert _joint_histogram(np.ones(1), np.ones(1))[-1, -1] == 1

    def test_values_outside_the_window_are_clipped(self):
        x = np.array([-5.0, -1e-300, -0.0, 1.0 + 1e-15, 7.0, np.inf, -np.inf, 0.5])
        y = np.array([2.0, 0.25, -np.inf, -3.0, np.inf, 0.75, 1.5, -0.5])
        joint = _joint_histogram(x, y)
        assert np.array_equal(joint, _histogram2d(x, y))
        assert joint.sum() == x.size

    def test_nan_pixels_are_dropped(self):
        x, y = img((16, 16), 50), img((16, 16), 51)
        x[0, :3] = np.nan
        y[5, 5] = np.nan
        joint = _joint_histogram(x, y)
        assert np.array_equal(joint, _histogram2d(x, y))
        assert joint.sum() == x.size - 4
        assert np.isfinite(mutual_information(x, y))


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            l1_error(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_nmse_zero_reference(self):
        with pytest.raises(ValueError):
            nmse(np.ones((2, 2)), np.zeros((2, 2)))

    def test_psnr_bad_peak(self):
        x = img((4, 4), 22)
        with pytest.raises(ValueError):
            psnr(x, np.zeros((4, 4)))  # default peak = ref.max() = 0


class TestReport:
    def test_mean_and_std_hand_computed(self):
        refs = [img((8, 8), 24), img((8, 8), 25), img((8, 8), 26)]
        preds = [np.clip(r + 0.05 * img((8, 8), 30 + i), 0, 1)
                 for i, r in enumerate(refs)]
        rep = metrics_report(preds, refs)
        assert rep["n"] == 3
        for key in METRIC_KEYS:
            vals = rep["per_image"][key]
            assert rep[key]["mean"] == pytest.approx(float(np.mean(vals)))
            assert rep[key]["std"] == pytest.approx(float(np.std(vals, ddof=1)))
        assert rep["per_image"]["l1"][0] == pytest.approx(
            l1_error(preds[0], refs[0]))

    def test_single_pair_std_zero(self):
        rep = metrics_report([img((8, 8), 27)], [img((8, 8), 28)])
        assert rep["n"] == 1
        assert all(rep[k]["std"] == 0.0 for k in METRIC_KEYS)

    def test_json_dict_fields(self):
        d = metrics_report([img((8, 8), 29)], [img((8, 8), 31)])
        assert set(d) == {"n", "per_image", *METRIC_KEYS}
        assert d["n"] == 1
        for key in ("l1", "nmse", "psnr_db", "mi"):
            assert set(d[key]) == {"mean", "std"}
        assert set(d["per_image"]) == set(METRIC_KEYS)
        assert json.loads(json.dumps(d)) == d

    def test_errors(self):
        with pytest.raises(ValueError):
            metrics_report([], [])
        with pytest.raises(ValueError):
            metrics_report([img((4, 4), 32)], [])

    def test_format_table(self):
        refs = [img((8, 8), 33), img((8, 8), 34)]
        preds = [np.clip(r + 0.1, 0, 1) for r in refs]
        rep = metrics_report(preds, refs)
        text = format_table([("Low-dose", rep), ("Model", rep)])
        lines = text.splitlines()
        assert lines[0].split() == ["L1", "error", "NMSE", "PSNR", "[dB]", "MI"]
        assert lines[1].startswith("Low-dose")
        assert lines[2].startswith("Model")
        assert "+/-" in lines[1]
        # four metric cells per data row
        assert lines[1].count("+/-") == 4
