"""Synthetic CT pipeline: phantoms, projection, dose noise, reconstruction,
triplet assembly, and the on-disk volume format."""

import math
import os

import numpy as np
import pytest

from hqinet.ctsim import (OPTICAL_DEPTHS, Sinogram, apply_low_dose, fbp,
                          generate_phantom_volume, radon, render_ellipses)
from hqinet.ctsim import _ramlak_kernel
from hqinet.dataset import (SliceTriplet, SyntheticSpec, build_triplets,
                            generate_dataset, generate_patient_pair,
                            load_triplets, load_volume_pairs, random_crop,
                            stack_batch)
from hqinet.errors import ConfigError, DataError
from hqinet.metrics import nmse, psnr
from hqinet import volume_io
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


class TestSinogram:
    def test_validation(self):
        with pytest.raises(ValueError):
            Sinogram(data=np.zeros((3,)), view_angles=np.zeros(3))
        with pytest.raises(ValueError):
            Sinogram(data=np.zeros((3, 5)), view_angles=np.zeros(2))
        with pytest.raises(ValueError):
            Sinogram(data=np.full((2, 3), np.nan), view_angles=np.zeros(2))
        with pytest.raises(ValueError):
            Sinogram(data=np.zeros((2, 3)), view_angles=np.zeros(2), i0=0.0)

    def test_properties(self):
        s = Sinogram(data=np.zeros((4, 7)), view_angles=np.zeros(4))
        assert s.n_views == 4 and s.n_detectors == 7
        assert s.i0 == math.inf


class TestRadon:
    def test_zero_image(self):
        s = radon(np.zeros((32, 32)), 8, 47)
        assert np.all(s.data == 0.0)
        assert s.data.shape == (8, 47)

    def test_angles_cover_half_turn(self):
        s = radon(np.zeros((32, 32)), 6, 7)
        want = np.arange(6) * math.pi / 6
        assert np.allclose(s.view_angles, want)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(size=(32, 32))
        b = rng.uniform(size=(32, 32))
        sa = radon(a, 12, 47).data
        sb = radon(b, 12, 47).data
        sab = radon(2.0 * a + 3.0 * b, 12, 47).data
        rel = np.abs(sab - (2.0 * sa + 3.0 * sb)).max() / np.abs(sab).max()
        assert rel < 1e-10

    def test_mass_conservation_per_view(self):
        # detectors cover the full object, so every view integrates to the
        # image mass (line integrals x unit detector spacing)
        ph = generate_phantom_volume(3, 1, 128)[0].image
        s = radon(ph, 16, 185)
        mass = ph.sum()
        assert np.abs(s.data.sum(axis=1) - mass).max() / mass < 1e-3

    def test_rotational_symmetry_of_radial_object(self):
        # a rotationally symmetric object projects identically at every
        # angle; grid anisotropy of the bilinear interpolant decays as h^2,
        # which needs a fine grid to pass a 1e-6 relative gate
        b = cos2_bump(1536)
        s = radon(b, 8, 185)
        peak = s.data.max()
        dev = np.abs(s.data - s.data[0][None, :]).max()
        assert dev / peak < 1e-6

    def test_centered_object_peaks_at_central_detector(self):
        s = radon(cos2_bump(128), 8, 47)
        assert np.all(s.data.argmax(axis=1) == 23)

    def test_validation(self):
        with pytest.raises(ValueError):
            radon(np.zeros((16, 24)), 4, 31)
        with pytest.raises(ValueError):
            radon(np.zeros((3, 16, 24)), 4, 31)
        with pytest.raises(ValueError):
            radon(np.zeros((2, 3, 16, 16)), 4, 31)
        with pytest.raises(ValueError):
            radon(np.zeros((0, 16, 16)), 4, 31)
        with pytest.raises(ValueError):
            radon(np.zeros((16, 16)), 0, 31)

    def test_stack_returns_one_sinogram_per_slice(self):
        sinos = radon(np.zeros((3, 16, 16)), 4, 31)
        assert len(sinos) == 3
        assert all(isinstance(s, Sinogram) and s.data.shape == (4, 31) for s in sinos)
        assert isinstance(radon(np.zeros((1, 16, 16)), 4, 31), list)


class TestLowDose:
    def _sino(self, seed=6, size=64):
        ph = generate_phantom_volume(seed, 1, size)[0].image
        return radon(ph, 16, 95)

    def test_deterministic_by_seed(self):
        s = self._sino()
        a = apply_low_dose(s, 1e4, 7)
        b = apply_low_dose(s, 1e4, 7)
        c = apply_low_dose(s, 1e4, 8)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        assert a.i0 == 1e4

    def test_huge_dose_is_nearly_noiseless(self):
        s = self._sino()
        noisy = apply_low_dose(s, 1e12, 9)
        rel = np.abs(noisy.data - s.data).max() / s.data.max()
        assert rel < 1e-3

    def test_noise_grows_as_dose_falls(self):
        s = self._sino()
        errs = [np.mean((apply_low_dose(s, i0, 10).data - s.data) ** 2)
                for i0 in (1e3, 1e4, 1e5, 1e6)]
        assert errs == sorted(errs, reverse=True)

    def test_transmission_is_unbiased(self):
        # E[counts] = i0 exp(-mu p) exactly, so Monte-Carlo mean
        # transmission must sit within a few standard errors
        s = Sinogram(data=np.array([[0.0, 1.0, 2.0, 4.0],
                                    [3.0, 0.5, 1.5, 2.5]]),
                     view_angles=np.zeros(2))
        i0 = 1e4
        mu = OPTICAL_DEPTHS / s.data.max()
        t_true = np.exp(-mu * s.data)
        n_runs = 1000
        acc = np.zeros_like(s.data)
        for seed in range(n_runs):
            acc += np.exp(-mu * apply_low_dose(s, i0, seed).data)
        t_mc = acc / n_runs
        se = np.sqrt(t_true * i0) / i0 / math.sqrt(n_runs)
        assert np.all(np.abs(t_mc - t_true) < 4.0 * se)

    def test_zero_sinogram_stays_near_zero(self):
        s = Sinogram(data=np.zeros((4, 8)), view_angles=np.zeros(4))
        noisy = apply_low_dose(s, 1e6, 11)
        assert np.abs(noisy.data).max() < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            apply_low_dose(self._sino(), 0.0, 0)


class TestRampFilter:
    def test_discrete_taps(self):
        # classic discrete ramp: center 1/(4 d^2), odd offsets -1/(pi n d)^2,
        # even offsets zero
        d = 2.0
        kern = _ramlak_kernel(5, d)
        offsets = np.arange(-4, 5)
        for off, tap in zip(offsets, kern):
            if off == 0:
                assert tap == pytest.approx(1.0 / (4.0 * d * d), abs=1e-15)
            elif off % 2 == 1 or off % 2 == -1:
                assert tap == pytest.approx(-1.0 / (math.pi * off * d) ** 2,
                                            abs=1e-15)
            else:
                assert tap == 0.0


class TestFBP:
    def test_zero_sinogram(self):
        s = Sinogram(data=np.zeros((8, 47)), view_angles=np.arange(8) * math.pi / 8)
        assert np.array_equal(fbp(s, 32), np.zeros((32, 32)))

    def test_roundtrip_quality(self):
        ph = generate_phantom_volume(3, 1, 128)[0].image
        rec = fbp(radon(ph, 180, 185), 128)
        assert psnr(rec, ph, peak=1.0) >= 25.0

    def test_quality_improves_with_views(self):
        ph = generate_phantom_volume(3, 1, 128)[0].image
        vals = [psnr(fbp(radon(ph, nv, 185), 128), ph, peak=1.0)
                for nv in (30, 60, 90, 180)]
        assert vals == sorted(vals)

    def test_quality_improves_with_dose(self):
        ph = generate_phantom_volume(3, 1, 128)[0].image
        sino = radon(ph, 180, 185)
        vals = [nmse(fbp(apply_low_dose(sino, i0, 0), 128), ph)
                for i0 in (1e3, 1e4, 1e5, 1e6)]
        assert vals == sorted(vals, reverse=True)

    def test_output_clamped(self):
        ph = generate_phantom_volume(12, 1, 64)[0].image
        rec = fbp(apply_low_dose(radon(ph, 24, 95), 1e3, 1), 64)
        assert rec.min() >= 0.0 and rec.max() <= 1.5

    def test_validation(self):
        s = Sinogram(data=np.zeros((4, 9)), view_angles=np.zeros(4))
        with pytest.raises(ValueError):
            fbp(s, 0)
        with pytest.raises(ValueError):
            fbp([s, s], 0)
        with pytest.raises(ValueError):
            fbp([], 8)
        mismatched = [
            Sinogram(data=np.zeros((4, 11)), view_angles=np.zeros(4)),
            Sinogram(data=np.zeros((5, 9)), view_angles=np.zeros(5)),
            Sinogram(data=np.zeros((4, 9)), view_angles=np.arange(4.0)),
            Sinogram(data=np.zeros((4, 9)), view_angles=np.zeros(4),
                     detector_spacing=0.5),
        ]
        for other in mismatched:
            with pytest.raises(ValueError):
                fbp([s, other], 8)

    def test_list_returns_stack(self):
        s = Sinogram(data=np.zeros((4, 9)), view_angles=np.zeros(4))
        assert fbp([s, s, s], 8).shape == (3, 8, 8)
        assert fbp([s], 8).shape == (1, 8, 8)
        assert fbp(s, 8).shape == (8, 8)


class TestStackedAgainstOracle:
    """The stacked projector and backprojector reproduce the per-slice
    oracles bit for bit: same arithmetic, same order, geometry shared."""

    @staticmethod
    def same_bits(a, b):
        # array_equal, and the bit patterns too, so the signs of zeros match
        a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
        return np.array_equal(a, b) and np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("oversample", [1, 2, 3])
    @pytest.mark.parametrize("spacing", [0.75, 1.0])
    @pytest.mark.parametrize("n_views", [1, 7, 24])
    @pytest.mark.parametrize("size", [32, 33, 40])
    def test_radon_and_fbp_bit_identical(self, size, n_views, spacing, oversample):
        rng = np.random.default_rng([size, n_views, oversample])
        # signed values: zero signs and clamping must match too
        stack = rng.uniform(-0.25, 1.0, size=(3, size, size))
        n_det = int(1.5 * size) | 1
        sinos = radon(stack, n_views, n_det, spacing, oversample)
        refs = [radon_naive(img, n_views, n_det, spacing, oversample) for img in stack]
        for got, ref in zip(sinos, refs):
            assert self.same_bits(got.data, ref.data)
            assert np.array_equal(got.view_angles, ref.view_angles)
            assert got.detector_spacing == ref.detector_spacing
        single = radon(stack[1], n_views, n_det, spacing, oversample)
        assert self.same_bits(single.data, refs[1].data)

        noisy = [apply_low_dose(s, 1e3, k) for k, s in enumerate(sinos)]
        for out_size in (size, size + 5):
            recon = fbp(noisy, out_size)
            for got, sino in zip(recon, noisy):
                assert self.same_bits(got, fbp_naive(sino, out_size))
            assert self.same_bits(fbp(noisy[2], out_size), fbp_naive(noisy[2], out_size))


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
