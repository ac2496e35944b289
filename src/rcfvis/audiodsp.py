"""Audio front end: log-mel spectrograms and a trainable encoder.

The chain takes a 16 kHz mono waveform -> STFT magnitudes (25 ms periodic
Hann window, 10 ms hop, FFT 512) -> 64 triangular HTK-mel filters over
125-7500 Hz -> log(mel + 0.01).  The pretrained front end it replaces is out
of scope; a small trainable conv encoder maps each video frame's spectrogram
window to a fixed-size feature vector.
"""

from __future__ import annotations

import numpy as np

from .config import SAMPLE_RATE
from .errors import ArgumentError
from .nn import Conv2dLayer, Linear, Module
from .tensor import Tensor

WINDOW_MS = 25
HOP_MS = 10
WINDOW = SAMPLE_RATE * WINDOW_MS // 1000
HOP = SAMPLE_RATE * HOP_MS // 1000
assert WINDOW == 400 and HOP == 160
N_FFT = 512
N_MELS = 64
FMIN_HZ = 125.0
FMAX_HZ = 7500.0
LOG_OFFSET = 0.01
SILENCE_FLOOR = float(np.log(LOG_OFFSET))


def hann_periodic(n: int) -> np.ndarray:
    """Periodic Hann window: w[0] = 0, w[n/2] = 1."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """64 triangular filters (N_MELS x N_FFT//2+1), HTK scale, unnormalized."""
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(FMIN_HZ), hz_to_mel(FMAX_HZ), N_MELS + 2))
    bin_hz = np.arange(N_FFT // 2 + 1) * (SAMPLE_RATE / N_FFT)
    fb = np.zeros((N_MELS, bin_hz.size))
    for m in range(N_MELS):
        left, center, right = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bin_hz - left) / (center - left)
        falling = (right - bin_hz) / (right - center)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


FILTERBANK = mel_filterbank()
WINDOW_FN = hann_periodic(WINDOW)


def log_mel(wave: np.ndarray) -> np.ndarray:
    """Stabilized (frames, 64) log-mel spectrogram of a 16 kHz mono waveform.

    The signal is zero-padded by window/2 on both ends so the frame count is
    ceil(len / hop); frame t starts at t*hop in the padded signal.
    """
    wave = np.asarray(wave, dtype=np.float64)
    if wave.ndim != 1 or wave.size == 0:
        raise ArgumentError("log_mel expects a non-empty 1-D waveform")
    n = wave.shape[0]
    n_frames = -(-n // HOP)
    padded = np.concatenate([np.zeros(WINDOW // 2), wave, np.zeros(WINDOW // 2)])
    idx = np.arange(WINDOW)[None, :] + HOP * np.arange(n_frames)[:, None]
    frames = padded[idx] * WINDOW_FN
    mags = np.abs(np.fft.rfft(frames, n=N_FFT, axis=1))
    mel = mags @ FILTERBANK.T
    return np.log(mel + LOG_OFFSET)


class AudioEncoder(Module):
    """Two conv layers + global average pool + linear over one frame's window."""

    def __init__(self, name: str, out_dim: int, rng: np.random.Generator):
        super().__init__(name)
        self.conv1 = self.child(Conv2dLayer("conv1", 1, 8, 3, rng, stride=1, pad=1))
        self.conv2 = self.child(Conv2dLayer("conv2", 8, 16, 3, rng, stride=1, pad=1))
        self.proj = self.child(Linear("proj", 16, out_dim, rng))

    def __call__(self, x: Tensor) -> Tensor:
        """Feature row (1, out_dim) of one (frames, mels) log-mel window."""
        if x.ndim != 2 or x.shape[0] < 1:
            raise ArgumentError("audio encoder expects a (frames, mels) window")
        h = x.reshape(1, x.shape[0], x.shape[1])
        h = self.conv1(h, relu=True)
        h = self.conv2(h, relu=True)
        pooled = h.mean(axis=(1, 2)).reshape(1, -1)
        return self.proj(pooled)
