import os
import tracemalloc

# single-threaded BLAS before numpy loads anywhere: keeps runs bit-reproducible
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from rcfvis.container import read_blocks, read_manifest  # noqa: E402


def read_container(path):
    """A whole container: (meta, {name: array}), with the checks of
    `read_manifest` and `read_blocks`."""
    meta, entries = read_manifest(path)
    return meta, read_blocks(path, entries)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _traced(call):
    tracemalloc.start()
    try:
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


@pytest.fixture
def traced():
    """`traced(call)` runs `call()` under tracemalloc and returns `(result,
    retained, peak)`: what the call returned, the bytes it allocated that
    are still held once it returns, and the most it held at once."""
    return _traced
