"""Versioned on-disk container: `manifest.json` + `tensors.bin`.

The manifest is UTF-8 JSON describing named blocks; `tensors.bin` holds the
raw block bytes back to back, all multi-byte values little-endian.  Clips,
checkpoints and prediction dumps all reuse this layer.  Binary masks are
stored run-length encoded: a sequence of (value, run-length) pairs of
unsigned 32-bit integers.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import FormatError

FORMAT_NAME = "rcfvis-container"
FORMAT_VERSION = 1

MANIFEST_FILE = "manifest.json"
TENSORS_FILE = "tensors.bin"

_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8"), "<u4": np.dtype("<u4"), "<u1": np.dtype("<u1")}


def rle_encode_planes(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length encode each row of a (P, N) stack of binary planes.

    Returns `(words, offsets)`: plane p's words, its pair count and then its
    (value, run) pairs, are `words[offsets[p] : offsets[p + 1]]`, back to back
    in plane order.  Run starts come from one pass over the flattened stack,
    with each plane's first element forced to start a run.
    """
    planes = np.asarray(planes)
    n_planes, size = planes.shape
    stride = max(size, 1)  # planes of no elements have no runs
    flat = planes.reshape(-1)
    is_start = np.empty(flat.size, dtype=bool)
    is_start[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=is_start[1:])
    is_start[::stride] = True
    starts = np.flatnonzero(is_start)
    plane = starts // stride
    pairs = np.bincount(plane, minlength=n_planes)
    offsets = np.zeros(n_planes + 1, dtype=np.int64)
    np.cumsum(1 + 2 * pairs, out=offsets[1:])
    words = np.empty(offsets[-1], dtype="<u4")
    words[offsets[:-1]] = pairs
    at = plane + 1 + 2 * np.arange(starts.size)  # each pair's value word
    words[at] = flat[starts]
    words[at + 1] = np.diff(starts, append=flat.size)
    return words, offsets


def rle_encode(plane: np.ndarray) -> np.ndarray:
    """Run-length encode a flat binary array into (value, run) uint32 pairs."""
    return rle_encode_planes(np.asarray(plane).reshape(1, -1))[0][1:]


def rle_decode(runs: np.ndarray, size: int) -> np.ndarray:
    """Inverse of rle_encode on a binary plane; returns a uint8 array of `size`
    elements.  A value word other than 0 or 1 raises FormatError."""
    runs = np.asarray(runs, dtype="<u4")
    if runs.size % 2 != 0:
        raise FormatError("RLE stream has an odd number of words")
    values = runs[0::2]
    bad = np.flatnonzero(values > 1)
    if bad.size:
        raise FormatError(f"RLE run {bad[0]} has value {values[bad[0]]}, expected 0 or 1")
    lengths = runs[1::2].astype(np.int64)
    if lengths.sum() != size:
        raise FormatError(f"RLE stream decodes to {lengths.sum()} elements, expected {size}")
    return np.repeat(values.astype(np.uint8), lengths)


def write_container(path: str | Path, meta: dict, blocks: dict[str, np.ndarray]) -> None:
    """Write `meta` plus named arrays to `path` (a directory, created)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    entries = []
    arrays = []
    offset = 0
    for name, arr in blocks.items():
        arr = np.ascontiguousarray(arr)
        code = f"<{arr.dtype.kind}{arr.dtype.itemsize}"
        if code not in _DTYPES:
            raise FormatError(f"unsupported block dtype {arr.dtype} for {name!r}")
        arr = arr.astype(_DTYPES[code], copy=False)
        entries.append({"name": name, "dtype": code, "shape": list(arr.shape), "offset": offset, "nbytes": arr.nbytes})
        arrays.append(arr)
        offset += arr.nbytes
    manifest = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "meta": meta, "blocks": entries}
    with open(path / TENSORS_FILE, "wb") as f:
        for arr in arrays:
            f.write(arr.data)  # the array's own bytes, through a memoryview
    (path / MANIFEST_FILE).write_text(json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8")


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_block(index: int, entry) -> None:
    """Raise FormatError naming the block and the field a manifest entry gets wrong."""
    if not isinstance(entry, dict):
        raise FormatError(f"block {index} is not an object")
    label = f"block {index} {entry.get('name')!r}"
    for key in ("name", "dtype", "shape", "offset", "nbytes"):
        if key not in entry:
            raise FormatError(f"{label} has no field {key!r}")
    if not isinstance(entry["name"], str):
        raise FormatError(f"{label} field 'name' is not a string")
    if not isinstance(entry["dtype"], str) or entry["dtype"] not in _DTYPES:
        raise FormatError(f"{label} field 'dtype' is unsupported: {entry['dtype']!r}")
    shape = entry["shape"]
    if not isinstance(shape, list) or not all(_is_count(n) for n in shape):
        raise FormatError(f"{label} field 'shape' is not a list of non-negative integers: {shape!r}")
    for key in ("offset", "nbytes"):
        if not _is_count(entry[key]):
            raise FormatError(f"{label} field {key!r} is not a non-negative integer: {entry[key]!r}")
    expected = math.prod(shape) * _DTYPES[entry["dtype"]].itemsize
    if entry["nbytes"] != expected:
        raise FormatError(f"{label} field 'nbytes' is {entry['nbytes']}, but shape {shape} holds {expected} bytes")


def read_manifest(path: str | Path) -> tuple[dict, list[dict]]:
    """Read and check a container's manifest; returns (meta, block entries).

    Every manifest field is checked before any block is read.  A manifest
    that is not an object, a missing or mistyped `meta` or `blocks`, a block
    entry with a missing or mistyped field, a block name used twice, an
    `nbytes` other than prod(shape) x itemsize and a block that overlaps the
    one before it each raise FormatError naming the block and field.
    """
    path = Path(path)
    mpath = path / MANIFEST_FILE
    if not mpath.is_file():
        raise FormatError(f"missing {MANIFEST_FILE} under {path}")
    try:
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"corrupt manifest: {e}") from e
    if not isinstance(manifest, dict):
        raise FormatError(f"manifest is a JSON {type(manifest).__name__}, not an object")
    if manifest.get("format") != FORMAT_NAME:
        raise FormatError(f"unrecognized format {manifest.get('format')!r}")
    if manifest.get("version") != FORMAT_VERSION:
        raise FormatError(f"unrecognized container version {manifest.get('version')!r}")
    if not isinstance(manifest.get("meta"), dict):
        raise FormatError("manifest field 'meta' is missing or not an object")
    if not isinstance(manifest.get("blocks"), list):
        raise FormatError("manifest field 'blocks' is missing or not a list")
    first_index: dict[str, int] = {}
    prev_end = 0
    for index, entry in enumerate(manifest["blocks"]):
        _check_block(index, entry)
        if entry["name"] in first_index:
            raise FormatError(f"block {index} {entry['name']!r} field 'name' repeats block {first_index[entry['name']]}")
        first_index[entry["name"]] = index
        if entry["offset"] < prev_end:
            raise FormatError(f"block {entry['name']!r} overlaps the previous block", offset=entry["offset"])
        prev_end = entry["offset"] + entry["nbytes"]
    return manifest["meta"], manifest["blocks"]


def _read_arrays(path: str | Path, reads: list[tuple[str, int, tuple, np.dtype]]) -> list[np.ndarray]:
    """Each (label, offset, shape, dtype) of `reads` as an array filled straight
    from one open tensors.bin; a missing, unreadable or short file raises
    FormatError naming the label of the read it stopped."""
    arrays = []
    label = reads[0][0] if reads else "an empty block list"  # until the first read starts
    try:
        with open(Path(path) / TENSORS_FILE, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            for label, offset, shape, dtype in reads:
                short = f"truncated {TENSORS_FILE}: {label} end past end of file"
                if offset + math.prod(shape) * dtype.itemsize > size:  # checked before the array is allocated
                    raise FormatError(short, offset=offset)
                out = np.empty(shape, dtype)
                f.seek(offset)
                if f.readinto(out.reshape(-1).view(np.uint8)) != out.nbytes:  # the file shrank since
                    raise FormatError(short, offset=offset)
                arrays.append(out)
    except OSError as e:
        raise FormatError(f"cannot read {TENSORS_FILE} for {label}: {e}") from e
    return arrays


def read_blocks(path: str | Path, entries: list[dict]) -> dict[str, np.ndarray]:
    """Read the blocks that `read_manifest` listed; returns {name: array}.

    One open tensors.bin fills every block's array, and no array shares
    memory with another.  A missing or unreadable tensors.bin and a block
    that ends past the end of the file raise FormatError naming the block.
    """
    reads = []
    for e in entries:
        label = f"block {e['name']!r} bytes [{e['offset']}, {e['offset'] + e['nbytes']})"
        reads.append((label, e["offset"], e["shape"], _DTYPES[e["dtype"]]))
    return dict(zip((e["name"] for e in entries), _read_arrays(path, reads)))


def read_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container directory; returns (meta, {name: array}), with the
    checks of `read_manifest` and `read_blocks`."""
    meta, entries = read_manifest(path)
    return meta, read_blocks(path, entries)


def read_rows(path: str | Path, entry: dict, start: int, stop: int) -> np.ndarray:
    """Rows [start, stop) of a block, along its first axis, read from the
    container at `path`; `entry` is the block's manifest entry as
    `read_manifest` returned it.

    Only those rows' bytes are read, by the same read as `read_blocks`.  A
    missing or unreadable tensors.bin and a file that ends before the rows
    do each raise FormatError naming the block and the rows.
    """
    shape, dtype = entry["shape"], _DTYPES[entry["dtype"]]
    offset = entry["offset"] + start * math.prod(shape[1:]) * dtype.itemsize
    label = f"block {entry['name']!r} rows [{start}, {stop})"
    return _read_arrays(path, [(label, offset, (stop - start, *shape[1:]), dtype)])[0]
