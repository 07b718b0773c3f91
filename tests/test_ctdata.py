"""Synthetic CT pipeline: phantoms, projection, dose noise, reconstruction,
triplet assembly, and the on-disk volume format."""

import errno
import math
import multiprocessing
import os

import numpy as np
import pytest

from hqinet.ctsim import (OPTICAL_DEPTHS, apply_low_dose, fbp,
                          generate_phantom_volume, radon, render_ellipses)
from hqinet.ctsim import _ramlak_kernel, _view_angles
from hqinet.dataset import (SliceTriplet, SyntheticSpec, build_triplets,
                            generate_dataset, generate_patient_pair,
                            load_triplets, load_volume_pairs, random_crop,
                            stack_batch)
from hqinet.errors import ConfigError, DataError
from hqinet.metrics import nmse, psnr
from hqinet import dataset, volume_io
from hqinet.runconfig import DataConfig, RunConfig
from hqinet.volume_io import (VolumeDtypeError, VolumeMagicError,
                              VolumeShapeError, VolumeTruncatedError,
                              VolumeVersionError, manifest_path, read_manifest,
                              read_volume, write_volume)
from _oracles import fbp_naive, radon_naive

FAST_SPEC = SyntheticSpec(n_train=1, n_test=1, n_slices=3, size=32,
                          n_views=24, n_detectors=47)


def cos2_bump(size, radius_frac=0.43):
    """Compactly supported, smooth, rotationally symmetric test object."""
    half = (size - 1) / 2.0
    ys, xs = np.mgrid[0:size, 0:size]
    r = np.hypot(xs - half, ys - half)
    rr = np.minimum(r / (radius_frac * size), 1.0)
    return np.where(rr < 1.0, np.cos(0.5 * np.pi * rr) ** 2, 0.0)


class TestPhantoms:
    def test_deterministic_by_seed(self):
        a = generate_phantom_volume(0, 3, 64)
        b = generate_phantom_volume(0, 3, 64)
        c = generate_phantom_volume(1, 3, 64)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.image, pb.image)
        assert not np.array_equal(a[0].image, c[0].image)

    def test_shape_range_and_count(self):
        vol = generate_phantom_volume(2, 5, 48)
        assert len(vol) == 5
        for ph in vol:
            assert ph.image.shape == (48, 48)
            assert ph.image.min() >= 0.0 and ph.image.max() <= 1.0
            assert ph.image.max() > 0.0

    def test_body_outline_covers_large_fraction(self):
        ph = generate_phantom_volume(3, 1, 128)[0]
        assert (ph.image > 0).mean() > 0.3

    def test_adjacent_slices_more_correlated_than_distant(self):
        vol = generate_phantom_volume(4, 8, 64)
        def corr(a, b):
            return np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert corr(vol[0].image, vol[1].image) > corr(vol[0].image, vol[7].image)

    def test_render_empty_and_clip(self):
        assert np.array_equal(render_ellipses(16, []), np.zeros((16, 16)))
        stacked = render_ellipses(32, [(0, 0, 0.5, 0.5, 0.0, 0.8),
                                       (0, 0, 0.5, 0.5, 0.0, 0.8)])
        assert stacked.max() == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_phantom_volume(0, 3, 16)
        with pytest.raises(ValueError):
            generate_phantom_volume(0, 0, 64)


class TestRadon:
    def test_zero_image(self):
        s = radon(np.zeros((1, 32, 32)), 8, 47)
        assert np.all(s == 0.0)
        assert s.shape == (1, 8, 47)

    def test_angles_cover_half_turn(self):
        want = np.arange(6) * math.pi / 6
        assert np.allclose(_view_angles(6), want)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(size=(32, 32))
        b = rng.uniform(size=(32, 32))
        sa, sb, sab = radon(np.stack([a, b, 2.0 * a + 3.0 * b]), 12, 47)
        rel = np.abs(sab - (2.0 * sa + 3.0 * sb)).max() / np.abs(sab).max()
        assert rel < 1e-10

    def test_mass_conservation_per_view(self):
        # detectors cover the full object, so every view integrates to the
        # image mass (line integrals x unit detector spacing)
        ph = generate_phantom_volume(3, 1, 128)[0].image
        s = radon(ph[None], 16, 185)[0]
        mass = ph.sum()
        assert np.abs(s.sum(axis=1) - mass).max() / mass < 1e-3

    def test_rotational_symmetry_of_radial_object(self):
        # a rotationally symmetric object projects identically at every
        # angle; grid anisotropy of the bilinear interpolant decays as h^2,
        # which needs a fine grid to pass a 1e-6 relative gate
        s = radon(cos2_bump(1536)[None], 8, 185)[0]
        peak = s.max()
        dev = np.abs(s - s[0][None, :]).max()
        assert dev / peak < 1e-6

    def test_centered_object_peaks_at_central_detector(self):
        s = radon(cos2_bump(128)[None], 8, 47)[0]
        assert np.all(s.argmax(axis=1) == 23)

    def test_validation(self):
        for bad in (np.zeros((16, 16)), np.zeros((3, 16, 24)),
                    np.zeros((2, 3, 16, 16)), np.zeros((0, 16, 16))):
            with pytest.raises(ValueError):
                radon(bad, 4, 31)
        with pytest.raises(ValueError):
            radon(np.zeros((1, 16, 16)), 0, 31)
        with pytest.raises(ValueError):
            radon(np.zeros((1, 16, 16)), 4, 0)
        for bad in (np.nan, np.inf, -np.inf):
            stack = np.zeros((2, 16, 16))
            stack[1, 5, 9] = bad
            with pytest.raises(ValueError):
                radon(stack, 4, 31)

    def test_stack_returns_one_sinogram_per_slice(self):
        sinos = radon(np.zeros((3, 16, 16)), 4, 31)
        assert sinos.shape == (3, 4, 31) and sinos.dtype == np.float64


class TestLowDose:
    def _sino(self, seed=6, size=64):
        ph = generate_phantom_volume(seed, 1, size)[0].image
        return radon(ph[None], 16, 95)[0]

    def test_deterministic_by_seed(self):
        s = self._sino()
        a = apply_low_dose(s, 1e4, 7)
        b = apply_low_dose(s, 1e4, 7)
        c = apply_low_dose(s, 1e4, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == s.shape and a.dtype == np.float64

    def test_huge_dose_is_nearly_noiseless(self):
        s = self._sino()
        noisy = apply_low_dose(s, 1e12, 9)
        rel = np.abs(noisy - s).max() / s.max()
        assert rel < 1e-3

    def test_noise_grows_as_dose_falls(self):
        s = self._sino()
        errs = [np.mean((apply_low_dose(s, i0, 10) - s) ** 2)
                for i0 in (1e3, 1e4, 1e5, 1e6)]
        assert errs == sorted(errs, reverse=True)

    def test_transmission_is_unbiased(self):
        # E[counts] = i0 exp(-mu p) exactly, so Monte-Carlo mean
        # transmission must sit within a few standard errors
        s = np.array([[0.0, 1.0, 2.0, 4.0],
                      [3.0, 0.5, 1.5, 2.5]])
        i0 = 1e4
        mu = OPTICAL_DEPTHS / s.max()
        t_true = np.exp(-mu * s)
        n_runs = 1000
        acc = np.zeros_like(s)
        for seed in range(n_runs):
            acc += np.exp(-mu * apply_low_dose(s, i0, seed))
        t_mc = acc / n_runs
        se = np.sqrt(t_true * i0) / i0 / math.sqrt(n_runs)
        assert np.all(np.abs(t_mc - t_true) < 4.0 * se)

    def test_zero_sinogram_stays_near_zero(self):
        noisy = apply_low_dose(np.zeros((4, 8)), 1e6, 11)
        assert np.abs(noisy).max() < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            apply_low_dose(self._sino(), 0.0, 0)
        with pytest.raises(ValueError):
            apply_low_dose(np.zeros((2, 4, 8)), 1e4, 0)


class TestRampFilter:
    def test_discrete_taps(self):
        # classic discrete ramp at unit spacing: center 1/4, odd offsets
        # -1/(pi n)^2, even offsets zero
        kern = _ramlak_kernel(5)
        offsets = np.arange(-4, 5)
        for off, tap in zip(offsets, kern):
            if off == 0:
                assert tap == pytest.approx(0.25, abs=1e-15)
            elif off % 2 == 1 or off % 2 == -1:
                assert tap == pytest.approx(-1.0 / (math.pi * off) ** 2, abs=1e-15)
            else:
                assert tap == 0.0


class TestFBP:
    def test_zero_sinogram(self):
        assert np.array_equal(fbp(np.zeros((1, 8, 47)), 32), np.zeros((1, 32, 32)))

    def test_roundtrip_quality(self):
        ph = generate_phantom_volume(3, 1, 128)[0].image
        rec = fbp(radon(ph[None], 180, 185), 128)[0]
        assert psnr(rec, ph, peak=1.0) >= 25.0

    def test_quality_improves_with_views(self):
        ph = generate_phantom_volume(3, 1, 128)[0].image
        vals = [psnr(fbp(radon(ph[None], nv, 185), 128)[0], ph, peak=1.0)
                for nv in (30, 60, 90, 180)]
        assert vals == sorted(vals)

    def test_quality_improves_with_dose(self):
        ph = generate_phantom_volume(3, 1, 128)[0].image
        sino = radon(ph[None], 180, 185)[0]
        vals = [nmse(fbp(apply_low_dose(sino, i0, 0)[None], 128)[0], ph)
                for i0 in (1e3, 1e4, 1e5, 1e6)]
        assert vals == sorted(vals, reverse=True)

    def test_output_clamped(self):
        ph = generate_phantom_volume(12, 1, 64)[0].image
        rec = fbp(apply_low_dose(radon(ph[None], 24, 95)[0], 1e3, 1)[None], 64)
        assert rec.min() >= 0.0 and rec.max() <= 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            fbp(np.zeros((2, 4, 9)), 0)
        for bad in (np.zeros((4, 9)), np.zeros((0, 4, 9)), np.zeros((1, 0, 9)),
                    np.zeros((1, 4, 0)), np.zeros((1, 1, 4, 9))):
            with pytest.raises(ValueError):
                fbp(bad, 8)

    def test_returns_stack(self):
        assert fbp(np.zeros((3, 4, 9)), 8).shape == (3, 8, 8)
        assert fbp(np.zeros((1, 4, 9)), 8).shape == (1, 8, 8)


class TestStackedAgainstOracle:
    """The stacked projector and backprojector reproduce the per-slice
    oracles bit for bit: same arithmetic, same order, geometry shared."""

    @staticmethod
    def same_bits(a, b):
        # array_equal, and the bit patterns too, so the signs of zeros match
        a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
        return np.array_equal(a, b) and np.array_equal(a.view(np.uint64), b.view(np.uint64))

    # coverage scales the detector count: at 0.75 the detector row is
    # narrower than the image diagonal, so rays and backprojected pixels
    # fall off its ends. A stack of one slice is the former single image.
    @pytest.mark.parametrize("n_slices", [1, 2, 3])
    @pytest.mark.parametrize("coverage", [0.75, 1.0])
    @pytest.mark.parametrize("n_views", [1, 7, 24])
    @pytest.mark.parametrize("size", [32, 33, 40])
    def test_radon_and_fbp_bit_identical(self, size, n_views, coverage, n_slices):
        rng = np.random.default_rng([size, n_views, n_slices])
        # signed values: zero signs and clamping must match too
        stack = rng.uniform(-0.25, 1.0, size=(n_slices, size, size))
        n_det = int(1.5 * size * coverage) | 1
        sinos = radon(stack, n_views, n_det)
        for got, img in zip(sinos, stack):
            assert self.same_bits(got, radon_naive(img, n_views, n_det))

        noisy = np.stack([apply_low_dose(s, 1e3, k) for k, s in enumerate(sinos)])
        for out_size in (size, size + 5):
            recon = fbp(noisy, out_size)
            for got, sino in zip(recon, noisy):
                assert self.same_bits(got, fbp_naive(sino, out_size))

    def assert_radon_matches(self, stack, n_views, n_det):
        sinos = radon(stack, n_views, n_det)
        for got, img in zip(sinos, stack):
            assert self.same_bits(got, radon_naive(img, n_views, n_det))

    # radon gathers only the taps whose cell touches the stack's support
    # box; these stacks put that box in every corner, along every edge,
    # off the centre, nowhere, and on a negative border.
    @pytest.mark.parametrize("coverage", [0.75, 1.0])
    @pytest.mark.parametrize("n_views", [1, 7, 24])
    @pytest.mark.parametrize("size", [32, 33, 40])
    def test_radon_single_pixel_support(self, size, n_views, coverage):
        n_det = int(1.5 * size * coverage) | 1
        for y in (0, size // 2, size - 1):
            for x in (0, size // 2, size - 1):
                stack = np.zeros((1, size, size))
                stack[0, y, x] = 0.7
                self.assert_radon_matches(stack, n_views, n_det)

    @pytest.mark.parametrize("coverage", [0.75, 1.0])
    @pytest.mark.parametrize("n_views", [1, 7, 24])
    @pytest.mark.parametrize("size", [32, 33, 40])
    def test_radon_off_centre_boxes_and_negative_zeros(self, size, n_views, coverage):
        rng = np.random.default_rng([size, n_views, 2])
        n_det = int(1.5 * size * coverage) | 1
        stack = np.zeros((3, size, size))
        for box in (stack[0, 2:9, size // 2:size - 3], stack[1, size - 6:size - 1, 4:11]):
            box[...] = rng.uniform(0.0, 1.0, size=box.shape)
        self.assert_radon_matches(stack[:2], n_views, n_det)
        # a -0.0 pixel is support: it widens the box and sets a sign bit
        stack[2, 1, 1] = stack[2, size - 3, size // 3] = -0.0
        self.assert_radon_matches(stack, n_views, n_det)
        self.assert_radon_matches(stack[2:], n_views, n_det)

    @pytest.mark.parametrize("n_views", [1, 7, 24])
    @pytest.mark.parametrize("size", [32, 33, 40])
    def test_radon_all_zero_stack(self, size, n_views):
        self.assert_radon_matches(np.zeros((2, size, size)), n_views, int(1.5 * size) | 1)

    # Taps outside the padded frame read clipped border pixels times 0, so
    # with a negative border their terms are -0; radon skips them, and a
    # row that sums to zero must still come out with the oracle's sign.
    @pytest.mark.parametrize("n_views", [1, 7, 24])
    @pytest.mark.parametrize("size", [32, 33, 40])
    def test_radon_negative_border_ring(self, size, n_views):
        rng = np.random.default_rng([size, n_views, 3])
        stack = rng.uniform(0.0, 1.0, size=(2, size, size))
        stack[:, 1:-1, 1:-1] *= 0.5
        stack[:, [0, -1], :] *= -1.0
        stack[:, :, [0, -1]] = -np.abs(stack[:, :, [0, -1]])
        self.assert_radon_matches(stack, n_views, int(1.5 * size) | 1)

    def test_radon_default_geometry_phantom(self):
        spec = SyntheticSpec()
        image = generate_phantom_volume([1, 0], 1, spec.size)[0].image
        self.assert_radon_matches(image[None], spec.n_views, spec.n_detectors)


class TestTriplets:
    def _volumes(self, n):
        rng = np.random.default_rng(13)
        low = rng.uniform(size=(n, 8, 8)).astype(np.float32)
        full = rng.uniform(size=(n, 8, 8)).astype(np.float32)
        return low, full

    def test_counts(self):
        low, full = self._volumes(3)
        assert len(build_triplets(low, full)) == 1
        low, full = self._volumes(10)
        assert len(build_triplets(low, full)) == 8

    def test_channel_alignment(self):
        low, full = self._volumes(5)
        trips = build_triplets(low, full, patient_id="p042")
        t = trips[1]  # interior slice 2
        assert t.slice_index == 2
        assert t.patient_id == "p042"
        assert np.array_equal(t.input, low[1:4])
        assert np.array_equal(t.target, full[2:3])
        assert t.input.dtype == np.float32 and t.target.dtype == np.float32

    def test_geometry_errors(self):
        low, full = self._volumes(4)
        with pytest.raises(ValueError):
            build_triplets(low, full[:, :4, :])
        low2, full2 = self._volumes(2)
        with pytest.raises(ValueError):
            build_triplets(low2, full2)

    def test_random_crop(self):
        low, full = self._volumes(3)
        t = build_triplets(low, full)[0]
        rng = np.random.default_rng(14)
        c = random_crop(t, 4, rng)
        assert c.input.shape == (3, 4, 4) and c.target.shape == (1, 4, 4)
        # input and target windows must be the same region
        found = False
        for top in range(5):
            for left in range(5):
                if np.array_equal(c.input, t.input[:, top:top + 4, left:left + 4]):
                    assert np.array_equal(
                        c.target, t.target[:, top:top + 4, left:left + 4])
                    found = True
        assert found
        with pytest.raises(ValueError):
            random_crop(t, 9, rng)

    def test_stack_batch(self):
        low, full = self._volumes(4)
        trips = build_triplets(low, full)
        x, y = stack_batch(trips)
        assert x.shape == (2, 3, 8, 8) and y.shape == (2, 1, 8, 8)
        assert x.dtype == np.float32 and y.dtype == np.float32


class TestSyntheticSpec:
    def test_defaults(self):
        spec = SyntheticSpec()
        assert (spec.n_train, spec.n_test) == (8, 2)
        assert (spec.size, spec.n_views, spec.n_detectors) == (128, 180, 185)
        assert (spec.low_i0, spec.full_i0) == (1e4, 1e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_train=0)
        with pytest.raises(ValueError):
            SyntheticSpec(n_slices=2)
        with pytest.raises(ValueError):
            SyntheticSpec(low_i0=0.0)
        for bad in (dict(size=31), dict(n_views=0), dict(n_detectors=0),
                    dict(n_ellipses_range=(5, 2)), dict(n_ellipses_range=(0, 3)),
                    dict(n_ellipses_range=(4,))):
            with pytest.raises(ValueError):
                SyntheticSpec(**bad)
        assert SyntheticSpec(size=32, n_ellipses_range=(3, 3)).n_ellipses_range == (3, 3)

    def test_dict_round_trip(self):
        spec = SyntheticSpec(n_train=2, size=32)
        cfg = RunConfig(data=DataConfig(synthetic=spec))
        assert RunConfig.from_dict(cfg.to_dict()).data.synthetic == spec
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"data": {"synthetic": {"n_train": 2, "bogus": 1}}})


class TestPatientPair:
    def test_shapes_dtype_normalization(self):
        low, full, norm = generate_patient_pair(FAST_SPEC, seed=0, patient_index=0)
        assert low.shape == (3, 32, 32) and full.shape == (3, 32, 32)
        assert low.dtype == np.float32 and full.dtype == np.float32
        assert norm > 0
        # shared full-volume-max scale puts the full volume's peak at one
        assert full.max() == pytest.approx(1.0, abs=1e-6)

    def test_deterministic_and_patient_independent(self):
        a = generate_patient_pair(FAST_SPEC, seed=0, patient_index=0)
        b = generate_patient_pair(FAST_SPEC, seed=0, patient_index=0)
        c = generate_patient_pair(FAST_SPEC, seed=0, patient_index=1)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    def test_matches_oracle_composition(self):
        spec = SyntheticSpec(n_train=1, n_test=1, n_slices=4, size=40,
                             n_views=17, n_detectors=61)
        seed, pidx = 3, 1
        phantoms = generate_phantom_volume([seed, pidx], spec.n_slices, spec.size,
                                           spec.n_ellipses_range)
        low = np.empty((spec.n_slices, spec.size, spec.size))
        full = np.empty_like(low)
        for si, ph in enumerate(phantoms):
            sino = radon_naive(ph.image, spec.n_views, spec.n_detectors)
            low[si] = fbp_naive(apply_low_dose(sino, spec.low_i0, [seed, pidx, si, 0]),
                                spec.size)
            full[si] = fbp_naive(apply_low_dose(sino, spec.full_i0, [seed, pidx, si, 1]),
                                 spec.size)
        norm = float(full.max())
        low /= norm
        full /= norm
        got_low, got_full, got_norm = generate_patient_pair(spec, seed, pidx)
        assert got_norm == norm
        assert np.array_equal(got_low, low.astype(np.float32))
        assert np.array_equal(got_full, full.astype(np.float32))

    def test_low_dose_is_noisier(self):
        low, full, _ = generate_patient_pair(FAST_SPEC, seed=2, patient_index=0)
        # both reconstruct the same anatomy; the low-dose one sits farther
        # from the full-dose one than dose-level noise alone would allow
        assert nmse(low, full) > 1e-4


class TestDatasetOnDisk:
    def test_generate_load_round_trip(self, tmp_path):
        root = tmp_path / "data"
        written = generate_dataset(str(root), FAST_SPEC, seed=0)
        assert written == [("train", "p000"), ("test", "p001")]
        pairs = load_volume_pairs(str(root), "train")
        assert len(pairs) == 1
        pid, low, full, manifest = pairs[0]
        assert pid == "p000"
        assert low.shape == (3, 32, 32)
        assert manifest["dose"] == "low"
        assert manifest["i0"] == FAST_SPEC.low_i0
        assert manifest["normalization"] == "full-volume-max"
        trips = load_triplets(str(root), "test")
        assert len(trips) == 1
        assert trips[0].patient_id == "p001"

    def test_refuses_nonempty_dir_without_force(self, tmp_path):
        root = tmp_path / "data"
        root.mkdir()
        (root / "stale.txt").write_text("x")
        with pytest.raises(DataError):
            generate_dataset(str(root), FAST_SPEC, seed=0)
        generate_dataset(str(root), FAST_SPEC, seed=0, force=True)
        assert load_volume_pairs(str(root), "train")

    def test_force_drops_stale_volumes(self, tmp_path):
        root = tmp_path / "data"
        generate_dataset(str(root), SyntheticSpec(n_train=2, n_test=1, n_slices=3,
                                                  size=32, n_views=4, n_detectors=47),
                         seed=0)
        (root / "notes.txt").write_text("kept")
        (root / "train" / "notes.txt").write_text("kept")
        written = generate_dataset(str(root), FAST_SPEC, seed=0, force=True)
        assert written == [("train", "p000"), ("test", "p001")]
        train_ids = {pid for pid, *_ in load_volume_pairs(str(root), "train")}
        test_ids = {pid for pid, *_ in load_volume_pairs(str(root), "test")}
        assert train_ids == {"p000"} and test_ids == {"p001"}
        assert sorted(os.listdir(root / "train")) == [
            "notes.txt", "p000_full.hqiv", "p000_full.json",
            "p000_low.hqiv", "p000_low.json"]
        assert sorted(os.listdir(root / "test")) == [
            "p001_full.hqiv", "p001_full.json", "p001_low.hqiv", "p001_low.json"]
        assert (root / "notes.txt").read_text() == "kept"

    def test_force_drops_leftover_temp_files(self, tmp_path):
        root = tmp_path / "data"
        generate_dataset(str(root), FAST_SPEC, seed=0)
        for name in ("p007_low.hqiv.tmp", "p007_full.json.tmp", "notes.tmp"):
            (root / "train" / name).write_text("x")
        generate_dataset(str(root), FAST_SPEC, seed=0, force=True)
        assert sorted(os.listdir(root / "train")) == [
            "notes.tmp", "p000_full.hqiv", "p000_full.json",
            "p000_low.hqiv", "p000_low.json"]

    def test_pooled_dataset_matches_in_process_patients(self, tmp_path):
        # More patients than CPUs, so workers take several patients each.
        spec = SyntheticSpec(n_train=3, n_test=2, n_slices=3, size=32,
                             n_views=24, n_detectors=47)
        root = tmp_path / "data"
        written = generate_dataset(str(root), spec, seed=5)
        assert written == [("train", "p000"), ("train", "p001"), ("train", "p002"),
                           ("test", "p003"), ("test", "p004")]
        for pidx, (split, pid) in enumerate(written):
            low, full, norm = generate_patient_pair(spec, 5, pidx)
            common = {"patient_id": pid, "n_views": 24, "seed": 5,
                      "normalization": "full-volume-max", "norm_max": norm}
            for dose, vol, i0 in (("low", low, spec.low_i0), ("full", full, spec.full_i0)):
                path = str(root / split / f"{pid}_{dose}.hqiv")
                assert np.array_equal(read_volume(path), vol)
                assert read_manifest(path) == {**common, "dose": dose, "i0": i0}
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_a_data_error(self, tmp_path, monkeypatch):
        real = dataset.generate_patient_pair

        def dies_on_patient_one(spec, seed, patient_index):
            if patient_index == 1:
                os._exit(1)  # as an OOM kill or a segfault ends a worker
            return real(spec, seed, patient_index)

        monkeypatch.setattr(dataset, "generate_patient_pair", dies_on_patient_one)
        spec = SyntheticSpec(n_train=3, n_test=1, n_slices=3, size=32,
                             n_views=24, n_detectors=47)
        with pytest.raises(DataError, match=r"worker process died before patient p00\d"):
            generate_dataset(str(tmp_path / "data"), spec, seed=0)
        assert multiprocessing.active_children() == []

    def test_worker_exception_keeps_its_type(self, tmp_path, monkeypatch):
        real = dataset.generate_patient_pair

        def fails_on_patient_one(spec, seed, patient_index):
            if patient_index == 1:
                raise ValueError("bad patient")
            return real(spec, seed, patient_index)

        monkeypatch.setattr(dataset, "generate_patient_pair", fails_on_patient_one)
        spec = SyntheticSpec(n_train=3, n_test=1, n_slices=3, size=32,
                             n_views=24, n_detectors=47)
        root = tmp_path / "data"
        with pytest.raises(ValueError, match="bad patient"):
            generate_dataset(str(root), spec, seed=0)
        assert multiprocessing.active_children() == []
        # patients are written in order, so only the one before the failure is on disk
        assert sorted(os.listdir(root / "train")) == [
            "p000_full.hqiv", "p000_full.json", "p000_low.hqiv", "p000_low.json"]

    def test_load_errors(self, tmp_path):
        with pytest.raises(DataError):
            load_volume_pairs(str(tmp_path / "nope"), "train")
        root = tmp_path / "data"
        generate_dataset(str(root), FAST_SPEC, seed=0)
        os.remove(root / "train" / "p000_full.hqiv")
        with pytest.raises(DataError):
            load_volume_pairs(str(root), "train")
        (root / "test" / "p001_low.hqiv").unlink()
        with pytest.raises(DataError):
            load_volume_pairs(str(root), "test")


class TestVolumeFormat:
    def _vol(self, seed=15):
        return np.random.default_rng(seed).uniform(
            size=(2, 4, 5)).astype(np.float32)

    def test_round_trip_bit_exact(self, tmp_path):
        path = str(tmp_path / "v.hqiv")
        vol = self._vol()
        write_volume(path, vol)
        back = read_volume(path)
        assert back.dtype == np.float32
        assert back.shape == (2, 4, 5)
        assert np.array_equal(back.view(np.uint32), vol.view(np.uint32))

    @pytest.mark.parametrize("write", [
        lambda path, vol: write_volume(path, vol),
        lambda path, vol: volume_io.write_manifest(path, {"values": vol.tolist()}),
    ], ids=["volume", "manifest"])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, write):
        class FullDisk:
            """A file whose first write lands and whose next one fails."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.f.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(volume_io, "open",
                            lambda *a, **k: FullDisk(open(*a, **k)), raising=False)
        path = str(tmp_path / "v.hqiv")
        with pytest.raises(OSError, match="No space"):
            write(path, self._vol())
        assert os.listdir(tmp_path) == []

    def test_special_values_survive(self, tmp_path):
        path = str(tmp_path / "v.hqiv")
        vol = np.array([[[0.0, -0.0], [np.inf, -np.inf]],
                        [[np.nan, 1e-45], [3.4e38, 1.0]]], dtype=np.float32)
        write_volume(path, vol)
        back = read_volume(path)
        assert np.array_equal(back.view(np.uint32), vol.view(np.uint32))

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "v.hqiv")
        write_volume(path, self._vol())
        with open(path, "rb") as f:
            raw = f.read()
        assert raw[:4] == b"HQIV"
        assert int.from_bytes(raw[4:6], "little") == volume_io.FORMAT_VERSION
        assert int.from_bytes(raw[6:8], "little") == 0  # float32 LE code
        assert int.from_bytes(raw[8:12], "little") == 2
        assert int.from_bytes(raw[12:16], "little") == 4
        assert int.from_bytes(raw[16:20], "little") == 5
        assert len(raw) == 20 + 2 * 4 * 5 * 4

    def test_manifest_round_trip(self, tmp_path):
        path = str(tmp_path / "v.hqiv")
        manifest = {"patient_id": "p000", "dose": "low", "i0": 1e4}
        write_volume(path, self._vol(), manifest=manifest)
        assert manifest_path(path) == str(tmp_path / "v.json")
        assert read_manifest(path) == manifest

    def _corrupt(self, tmp_path, mutate):
        path = str(tmp_path / "v.hqiv")
        write_volume(path, self._vol())
        with open(path, "rb") as f:
            raw = bytearray(f.read())
        raw = mutate(raw)
        with open(path, "wb") as f:
            f.write(raw)
        return path

    def test_bad_magic(self, tmp_path):
        def mut(raw):
            raw[:4] = b"XXXX"
            return raw
        with pytest.raises(VolumeMagicError):
            read_volume(self._corrupt(tmp_path, mut))

    def test_bad_version(self, tmp_path):
        def mut(raw):
            raw[4:6] = (99).to_bytes(2, "little")
            return raw
        with pytest.raises(VolumeVersionError):
            read_volume(self._corrupt(tmp_path, mut))

    def test_bad_dtype_code(self, tmp_path):
        def mut(raw):
            raw[6:8] = (7).to_bytes(2, "little")
            return raw
        with pytest.raises(VolumeDtypeError):
            read_volume(self._corrupt(tmp_path, mut))

    def test_truncated_payload(self, tmp_path):
        with pytest.raises(VolumeTruncatedError):
            read_volume(self._corrupt(tmp_path, lambda raw: raw[:-8]))

    def test_truncated_header(self, tmp_path):
        with pytest.raises(VolumeTruncatedError):
            read_volume(self._corrupt(tmp_path, lambda raw: raw[:10]))

    def test_shape_payload_mismatch(self, tmp_path):
        # extra trailing bytes: header no longer accounts for the payload
        with pytest.raises(VolumeShapeError):
            read_volume(self._corrupt(tmp_path, lambda raw: raw + b"\x00" * 4))

    def test_write_rejects_non_3d(self, tmp_path):
        with pytest.raises(ValueError):
            write_volume(str(tmp_path / "v.hqiv"), np.zeros((4, 4)))
