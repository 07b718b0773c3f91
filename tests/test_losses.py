"""Objective function identities, oracle equivalence, and gradients."""

import numpy as np
import pytest

from hqinet import tensor as T
from hqinet.tensor import Tensor
from hqinet.losses import LossWeights, SsimParams, l1_loss, loss_terms, ssim, ssim_loss
from hqinet.runconfig import RunConfig

from _gradcheck import check
from _oracles import gaussian_window_naive, ssim_naive, ssim_windowed_naive


def img(shape, seed, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape)


class TestParams:
    def test_weight_defaults(self):
        w = LossWeights()
        assert w.alpha == 0.85 and w.beta == 0.15

    def test_weight_validation_and_round_trip(self):
        with pytest.raises(ValueError):
            LossWeights(alpha=-0.1)
        w = LossWeights(0.7, 0.3)
        assert RunConfig.from_dict(RunConfig(loss_weights=w).to_dict()).loss_weights == w

    def test_ssim_param_defaults(self):
        p = SsimParams()
        assert p.window_size == 11 and p.window_sigma == 1.5
        assert p.c1 == pytest.approx(1e-4)
        assert p.c2 == pytest.approx(9e-4)

    def test_ssim_param_stability_constants_scale_with_range(self):
        p = SsimParams(data_range=255.0)
        assert p.c1 == pytest.approx((0.01 * 255.0) ** 2)
        assert p.c2 == pytest.approx((0.03 * 255.0) ** 2)

    def test_ssim_param_validation(self):
        with pytest.raises(ValueError):
            SsimParams(window_size=10)
        with pytest.raises(ValueError):
            SsimParams(data_range=0.0)
        with pytest.raises(ValueError):
            SsimParams(c1=0.0)

    def test_ssim_param_round_trip(self):
        p = SsimParams(window_size=7, window_sigma=2.0)
        assert RunConfig.from_dict(RunConfig(ssim=p).to_dict()).ssim == p


class TestIdentities:
    def test_l1_of_identical_images_is_zero(self):
        x = img((16, 16), 0)
        assert float(l1_loss(x, x).data) == 0.0

    def test_ssim_of_identical_images_is_one(self):
        x = img((1, 1, 16, 16), 1)
        assert float(ssim(x, x).data) == pytest.approx(1.0, abs=1e-12)

    def test_combined_loss_of_identical_images_is_zero(self):
        x = img((16, 16), 2)
        assert float(loss_terms(x, x)[0].data) == pytest.approx(0.0, abs=1e-12)

    def test_composition(self):
        # total must equal alpha * L1 + beta * (1 - SSIM) assembled from the
        # standalone pieces
        x, y = img((1, 1, 16, 16), 3), img((1, 1, 16, 16), 4)
        for a, b in ((0.85, 0.15), (0.5, 0.5), (1.0, 0.0)):
            w = LossWeights(a, b)
            total = float(loss_terms(x, y, w)[0].data)
            want = (a * float(l1_loss(Tensor(x), Tensor(y)).data)
                    + b * (1.0 - float(ssim(x, y).data)))
            assert total == pytest.approx(want, abs=1e-12)

    def test_loss_terms_consistent_with_parts(self):
        x, y = img((1, 1, 16, 16), 5), img((1, 1, 16, 16), 6)
        total, l1, sl = loss_terms(x, y)
        assert float(total.data) == pytest.approx(
            0.85 * float(l1.data) + 0.15 * float(sl.data), abs=1e-12)
        assert float(sl.data) == pytest.approx(
            1.0 - float(ssim(x, y).data), abs=1e-12)

    def test_constant_offset_closed_form(self):
        # shifting an image by c: L1 = c exactly; SSIM keeps unit structure
        # term and loses only luminance: (2 mu (mu+c) + c1) over
        # (mu^2 + (mu+c)^2 + c1) per window
        x = np.full((1, 1, 16, 16), 0.4)
        c = 0.2
        y = x + c
        assert float(l1_loss(x, y).data) == pytest.approx(c, abs=1e-12)
        mu = 0.4
        p = SsimParams()
        want = (2 * mu * (mu + c) + p.c1) / (mu * mu + (mu + c) ** 2 + p.c1)
        assert float(ssim(x, y).data) == pytest.approx(want, abs=1e-9)

    def test_ssim_symmetry(self):
        x, y = img((1, 1, 16, 16), 7), img((1, 1, 16, 16), 8)
        assert float(ssim(x, y).data) == pytest.approx(
            float(ssim(y, x).data), abs=1e-12)

    def test_ssim_bounded(self):
        x = img((1, 1, 16, 16), 9)
        for seed in range(5):
            y = img((1, 1, 16, 16), 10 + seed)
            s = float(ssim(x, y).data)
            assert -1.0 <= s <= 1.0
        inv = 1.0 - x  # anticorrelated pair pushes toward the lower range
        assert float(ssim(x, inv).data) < float(ssim(x, x).data)

    def test_ssim_loss_range_and_degenerate_weights(self):
        x, y = img((16, 16), 15), img((16, 16), 16)
        sl = float(ssim_loss(x, y).data)
        assert 0.0 <= sl <= 2.0
        only_l1 = float(loss_terms(x, y, LossWeights(1.0, 0.0))[0].data)
        assert only_l1 == pytest.approx(float(l1_loss(x, y).data), abs=1e-12)
        only_ssim = float(loss_terms(x, y, LossWeights(0.0, 1.0))[0].data)
        assert only_ssim == pytest.approx(sl, abs=1e-12)


class TestOracleEquivalence:
    def test_gaussian_window_matches_naive(self):
        from hqinet.losses import _window_rows
        rows = _window_rows(16, 11, 1.5, np.float64)
        row = rows[0, :11]
        assert np.abs(np.outer(row, row) - gaussian_window_naive(11, 1.5)).max() < 1e-12
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        # every row is the same window, shifted by one column
        for r in range(rows.shape[0]):
            assert np.array_equal(rows[r, r:r + 11], row)
            assert not rows[r, :r].any() and not rows[r, r + 11:].any()

    @pytest.mark.parametrize("sigma", [1.5, 0.0])
    def test_ssim_matches_windowed_naive(self, sigma):
        x, y = img((8, 8), 17), img((8, 8), 18)
        p = SsimParams(window_size=5, window_sigma=sigma)
        got = float(ssim(x, y, p).data)
        if sigma > 0:
            win = gaussian_window_naive(5, sigma)
        else:
            win = np.full((5, 5), 1.0 / 25.0)
        want = ssim_windowed_naive(x, y, win, p.c1, p.c2)
        assert abs(got - want) / abs(want) < 1e-10

    @pytest.mark.parametrize("sigma", [1.5, 0.0])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-10)])
    def test_non_square_matches_windowed_naive(self, sigma, dtype, tol):
        x, y = img((9, 14), 30), img((9, 14), 31)
        p = SsimParams(window_size=5, window_sigma=sigma)
        got = ssim(x.astype(dtype), y.astype(dtype), p).data
        if sigma > 0:
            win = gaussian_window_naive(5, sigma)
        else:
            win = np.full((5, 5), 1.0 / 25.0)
        want = ssim_windowed_naive(x, y, win, p.c1, p.c2)
        assert got.dtype == dtype
        assert abs(float(got) - want) / abs(want) < tol

    def test_uniform_full_window_equals_global_statistics(self):
        # one uniform window covering the image reduces the local form to
        # the single global mean/variance/covariance expression
        x, y = img((9, 9), 19), img((9, 9), 20)
        p = SsimParams(window_size=9, window_sigma=0.0)
        got = float(ssim(x, y, p).data)
        mx, my = x.mean(), y.mean()
        vx, vy = x.var(), y.var()
        cov = ((x - mx) * (y - my)).mean()
        want = ((2 * mx * my + p.c1) * (2 * cov + p.c2)
                / ((mx * mx + my * my + p.c1) * (vx + vy + p.c2)))
        assert abs(got - want) / abs(want) < 1e-10

    def test_multichannel_batch_matches_per_image_mean(self):
        xs = img((2, 2, 8, 8), 21)
        ys = img((2, 2, 8, 8), 22)
        p = SsimParams(window_size=5)
        got = float(ssim(xs, ys, p).data)
        per = [float(ssim(xs[n, c], ys[n, c], p).data)
               for n in range(2) for c in range(2)]
        assert got == pytest.approx(np.mean(per), abs=1e-12)


class TestSsimOp:
    """``ssim`` against the composition of tensor ops it replaced."""

    @pytest.mark.parametrize("shape", [(2, 3, 16, 16), (16, 16), (2, 1, 12, 19), (13, 9)])
    @pytest.mark.parametrize("sigma", [1.5, 0.0])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_composition(self, shape, sigma, dtype, tol):
        x, y = img(shape, 40).astype(dtype), img(shape, 41).astype(dtype)
        p = SsimParams(window_size=7, window_sigma=sigma)
        results = []
        for fn in (ssim, ssim_naive):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, y)]
            s = fn(*leaves, p)
            s.backward()
            results.append([s.data] + [t.grad for t in leaves])
        (s, gx, gy), (s_want, gx_want, gy_want) = results
        assert s.dtype == dtype and s.shape == () and s == s_want  # bit-equal
        for got, want in ((gx, gx_want), (gy, gy_want)):
            assert got.dtype == dtype and got.shape == shape
            assert np.abs(got - want).max() <= tol * np.abs(want).max()

    def test_one_input_requires_grad(self):
        x, y = img((1, 1, 8, 8), 42), img((1, 1, 8, 8), 43)
        p = SsimParams(window_size=5)
        both = [Tensor(a, requires_grad=True) for a in (x, y)]
        ssim(*both, p).backward()
        for i in range(2):
            leaves = [Tensor(a, requires_grad=j == i) for j, a in enumerate((x, y))]
            ssim(*leaves, p).backward()
            assert np.array_equal(leaves[i].grad, both[i].grad)
            assert leaves[1 - i].grad is None

    def test_one_graph_node(self):
        x = Tensor(img((16, 16), 44), requires_grad=True)
        y = Tensor(img((16, 16), 45))
        assert ssim(x, y)._parents == (x, y)  # no reshape for 2-d input either
        with T.no_grad():
            assert ssim(x, y)._backward is None


class TestGradients:
    def test_l1_gradcheck(self):
        x = Tensor(img((1, 1, 6, 6), 23), requires_grad=True)
        y = Tensor(img((1, 1, 6, 6), 24))
        # keep entries away from the |.| kink
        bad = np.abs(x.data - y.data) < 1e-3
        x.data[bad] += 0.01
        check(lambda: l1_loss(x, y), [x])

    def test_ssim_gradcheck(self):
        x = Tensor(img((1, 1, 8, 8), 25), requires_grad=True)
        y = Tensor(img((1, 1, 8, 8), 26), requires_grad=True)
        p = SsimParams(window_size=5)
        check(lambda: ssim(x, y, p), [x, y])

    def test_combined_gradcheck_both_inputs(self):
        x = Tensor(img((1, 1, 8, 8), 27), requires_grad=True)
        y = Tensor(img((1, 1, 8, 8), 28), requires_grad=True)
        bad = np.abs(x.data - y.data) < 1e-3
        x.data[bad] += 0.01
        p = SsimParams(window_size=5)
        check(lambda: loss_terms(x, y, LossWeights(), p)[0], [x, y])

    def test_gradient_descends_toward_reference(self):
        rng = np.random.default_rng(29)
        y = Tensor(rng.uniform(size=(1, 1, 16, 16)))
        x = Tensor(rng.uniform(size=(1, 1, 16, 16)), requires_grad=True)
        losses = []
        for _ in range(60):
            x.grad = None
            loss = loss_terms(x, y)[0]
            loss.backward()
            losses.append(float(loss.data))
            # mean-reduced L1 makes per-pixel gradients O(alpha / n_pixels),
            # so the step must be large on this 256-pixel image
            x.data = x.data - 4.0 * x.grad
        assert losses[-1] < 0.1 * losses[0]


class TestShapeGuards:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            l1_loss(np.zeros((4, 4)), np.zeros((5, 5)))
        with pytest.raises(ValueError):
            ssim(np.zeros((8, 8)), np.zeros((8, 9)))

    def test_window_larger_than_image(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))  # default window 11 > 8

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((2, 8, 8)), np.zeros((2, 8, 8)))
