"""Online video instance segmentation on synthetic audio-visual clips.

Token-compressed context fusion, instance-query decoding with dynamic
convolution masks, Hungarian set supervision, order-preserving identity
tracking, and the supporting numeric stack (tape autodiff, AdamW, log-mel
audio front end).
"""

import os

# Single-threaded BLAS keeps training bit-reproducible.  Must happen before
# the first numpy import; harmless if numpy is already loaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .tensor import Tensor, grad_check  # noqa: E402
from .optim import OptimState, adamw_step, poly_lr  # noqa: E402

__all__ = [
    "Tensor",
    "grad_check",
    "OptimState",
    "adamw_step",
    "poly_lr",
    "__version__",
]
