"""Audio front end: log-mel chain, filterbank, trainable encoder."""

import numpy as np
import pytest

from rcfvis.audiodsp import (
    FMAX_HZ,
    FMIN_HZ,
    HOP,
    N_FFT,
    N_MELS,
    SILENCE_FLOOR,
    WINDOW,
    AudioEncoder,
    hann_periodic,
    hz_to_mel,
    log_mel,
    mel_filterbank,
    mel_to_hz,
)
from rcfvis.errors import ArgumentError
from rcfvis.nn import module_rng
from rcfvis.tensor import Tensor, grad_check


def test_window_hop_constants():
    assert WINDOW == 400  # 25 ms at 16 kHz
    assert HOP == 160  # 10 ms at 16 kHz


class TestLogMel:
    def test_silence_floor_exact(self):
        spec = log_mel(np.zeros(1600))
        assert spec.shape == (10, N_MELS)
        assert np.abs(spec - SILENCE_FLOOR).max() < 1e-12

    def test_periodic_hann_endpoints(self):
        w = hann_periodic(WINDOW)
        assert w[0] == 0.0
        assert w[200] == pytest.approx(1.0, abs=1e-15)

    def test_frame_count_is_ceil_len_over_hop(self, rng):
        for n in (159, 160, 161, 4000, 2000):
            spec = log_mel(rng.standard_normal(n))
            assert spec.shape[0] == -(-n // HOP)

    def test_sine_at_filter_centers_peaks_in_right_bin(self):
        centers = mel_to_hz(np.linspace(hz_to_mel(FMIN_HZ), hz_to_mel(FMAX_HZ), N_MELS + 2))[1:-1]
        t = np.arange(3200) / 16000.0
        for m in (5, 15, 30, 45, 60):
            wave = 0.3 * np.sin(2 * np.pi * centers[m] * t)
            spec = log_mel(wave)
            # interior frame, away from boundary padding
            assert int(np.argmax(spec[5])) == m

    def test_translation_covariance_one_hop(self, rng):
        wave = rng.standard_normal(3200)
        a = log_mel(wave)
        b = log_mel(wave[HOP:])
        # interior rows of the shifted signal equal the original shifted by one
        assert np.abs(a[4:12] - b[3:11]).max() < 1e-9

    def test_values_bounded_below_by_floor(self, rng):
        spec = log_mel(rng.standard_normal(2000) * 0.1)
        assert spec.min() >= SILENCE_FLOOR - 1e-12


class TestFilterbank:
    def test_matches_brute_force_evaluation(self):
        fb = mel_filterbank()
        # independent oracle: explicit per-(filter, bin) triangle evaluation
        lo, hi = hz_to_mel(125.0), hz_to_mel(7500.0)
        mel_points = np.linspace(lo, hi, N_MELS + 2)
        for m in range(0, N_MELS, 7):
            left, center, right = mel_to_hz(mel_points[m]), mel_to_hz(mel_points[m + 1]), mel_to_hz(mel_points[m + 2])
            for k in range(0, N_FFT // 2 + 1, 13):
                f = k * 16000.0 / N_FFT
                if left < f <= center:
                    want = (f - left) / (center - left)
                elif center < f < right:
                    want = (right - f) / (right - center)
                else:
                    want = 0.0
                assert fb[m, k] == pytest.approx(want, abs=1e-12)

    def test_filters_nonnegative_unimodal_ordered_overlapping(self):
        fb = mel_filterbank()
        assert fb.min() >= 0.0
        prev_peak = -1
        for m in range(N_MELS):
            row = fb[m]
            peak = int(np.argmax(row))
            assert peak > prev_peak  # supports ordered by center frequency
            prev_peak = peak
            rising = row[: peak + 1]
            falling = row[peak:]
            sup = np.flatnonzero(row > 0)
            assert np.all(np.diff(rising[rising > 0]) > -1e-12)
            assert np.all(np.diff(falling[falling > 0]) < 1e-12)
            if m + 1 < N_MELS:
                assert np.logical_and(row > 0, fb[m + 1] > 0).any()  # adjacency overlap

    def test_htk_scale_invertible(self):
        freqs = np.array([125.0, 440.0, 1000.0, 7500.0])
        assert np.allclose(mel_to_hz(hz_to_mel(freqs)), freqs, rtol=1e-12)


class TestAudioEncoder:
    def test_zero_final_linear_zero_feature(self, rng):
        enc = AudioEncoder("enc", 16, module_rng(0, "enc"))
        enc.proj.w.data[:] = 0.0
        out = enc(Tensor(rng.standard_normal((13, N_MELS))))
        assert np.allclose(out.data, 0.0)
        assert out.shape == (16,)

    def test_identical_windows_identical_features(self, rng):
        enc = AudioEncoder("enc", 32, module_rng(1, "enc"))
        window = rng.standard_normal((13, N_MELS))
        a = enc(Tensor(window.copy()))
        b = enc(Tensor(window.copy()))
        assert np.array_equal(a.data, b.data)

    def test_gradient_through_encoder(self, rng):
        enc = AudioEncoder("enc", 8, module_rng(2, "enc"))
        x = Tensor(rng.standard_normal((5, N_MELS)) * 0.3)

        def f(t):
            y = enc(t)
            return (y * y).sum()

        assert grad_check(f, x) < 1e-5

    def test_rejects_bad_window(self):
        enc = AudioEncoder("enc", 8, module_rng(3, "enc"))
        with pytest.raises(ArgumentError):
            enc(Tensor(np.zeros((0, N_MELS))))
