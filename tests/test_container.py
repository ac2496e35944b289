"""Container format: round-trips, RLE, corruption reporting."""

import json
import shutil

import numpy as np
import pytest

from rcfvis.cli import EXIT_IO, main
from rcfvis.config import RunConfig
from rcfvis.container import read_container, rle_decode, rle_encode, write_container
from rcfvis.errors import FormatError
from rcfvis.model import RCFModel
from rcfvis.optim import OptimState
from rcfvis.synthav import GeneratorConfig, generate_clip, read_clip, write_clip
from rcfvis.training import save_checkpoint


def test_roundtrip_bit_exact(tmp_path, rng):
    blocks = {
        "a": rng.standard_normal((3, 4)).astype("<f4"),
        "b": rng.standard_normal(7),
        "c": np.arange(5, dtype="<u4"),
        "flags": np.array([0, 1, 1], dtype=np.uint8),
    }
    write_container(tmp_path / "c", {"kind": "test", "x": 1}, blocks)
    meta, out = read_container(tmp_path / "c")
    assert meta == {"kind": "test", "x": 1}
    for k, v in blocks.items():
        assert out[k].dtype == v.dtype and np.array_equal(out[k], v)


def test_rle_all_zero_single_run():
    runs = rle_encode(np.zeros((8, 12), dtype=np.uint8))
    assert runs.tolist() == [0, 96]
    assert np.array_equal(rle_decode(runs, 96), np.zeros(96, dtype=np.uint8))


def test_rle_roundtrip_random(rng):
    for _ in range(20):
        plane = (rng.random(64) < 0.3).astype(np.uint8)
        runs = rle_encode(plane)
        assert np.array_equal(rle_decode(runs, 64), plane)


def test_rle_length_mismatch():
    with pytest.raises(FormatError):
        rle_decode(np.array([1, 5], dtype="<u4"), 6)


def test_truncated_tensor_file_names_block(tmp_path, rng):
    write_container(tmp_path / "c", {}, {"alpha": rng.standard_normal(4), "beta": rng.standard_normal(4)})
    raw = (tmp_path / "c" / "tensors.bin").read_bytes()
    (tmp_path / "c" / "tensors.bin").write_bytes(raw[:40])
    with pytest.raises(FormatError, match="beta"):
        read_container(tmp_path / "c")


def test_unknown_version_rejected(tmp_path):
    write_container(tmp_path / "c", {}, {"a": np.zeros(2)})
    mpath = tmp_path / "c" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["version"] = 99
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="version"):
        read_container(tmp_path / "c")


def test_missing_manifest(tmp_path):
    with pytest.raises(FormatError, match="manifest"):
        read_container(tmp_path / "nothing")


def test_overlapping_blocks_rejected(tmp_path):
    write_container(tmp_path / "c", {}, {"a": np.zeros(4), "b": np.zeros(4)})
    mpath = tmp_path / "c" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["blocks"][1]["offset"] = 8  # overlaps block a (32 bytes)
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="overlap"):
        read_container(tmp_path / "c")


_DELETE = object()


def _set(path, value):
    """Manifest edit: set the item at `path` to `value`, or delete it if `value` is _DELETE."""

    def edit(manifest):
        *parents, last = path
        node = manifest
        for key in parents:
            node = node[key]
        if value is _DELETE:
            del node[last]
        else:
            node[last] = value
        return manifest

    return edit

# (edit, text the error must contain); block 1 of a clip is "waveform", 4000 float32
MANIFEST_FAULTS = {
    "not-an-object": (lambda m: [m], "not an object"),
    "no-blocks": (_set(["blocks"], _DELETE), "'blocks'"),
    "blocks-not-list": (_set(["blocks"], {"frames": 0}), "'blocks'"),
    "no-meta": (_set(["meta"], _DELETE), "'meta'"),
    "meta-not-object": (_set(["meta"], ["clip"]), "'meta'"),
    "block-not-object": (_set(["blocks", 1], "waveform"), "block 1"),
    **{
        f"no-{key}": (_set(["blocks", 1, key], _DELETE), f"block 1 .*'{key}'")
        for key in ("name", "dtype", "shape", "offset", "nbytes")
    },
    "name-not-string": (_set(["blocks", 1, "name"], 7), "block 1 .*'name'"),
    "dtype-unknown": (_set(["blocks", 1, "dtype"], "<i8"), "block 1 'waveform' field 'dtype'"),
    "dtype-not-string": (_set(["blocks", 1, "dtype"], ["<f4"]), "block 1 'waveform' field 'dtype'"),
    "shape-not-list": (_set(["blocks", 1, "shape"], 4000), "block 1 'waveform' field 'shape'"),
    "shape-negative": (_set(["blocks", 1, "shape"], [-4000]), "block 1 'waveform' field 'shape'"),
    "shape-float": (_set(["blocks", 1, "shape"], [4000.0]), "block 1 'waveform' field 'shape'"),
    "offset-string": (_set(["blocks", 1, "offset"], "0"), "block 1 'waveform' field 'offset'"),
    "offset-negative": (_set(["blocks", 1, "offset"], -8), "block 1 'waveform' field 'offset'"),
    "nbytes-float": (_set(["blocks", 1, "nbytes"], 16000.0), "block 1 'waveform' field 'nbytes'"),
    "nbytes-bool": (_set(["blocks", 1, "nbytes"], True), "block 1 'waveform' field 'nbytes'"),
    "nbytes-not-shape": (_set(["blocks", 1, "shape"], [2000]), "block 1 'waveform' field 'nbytes' is 16000"),
    "duplicate-name": (
        lambda m: _set(["blocks", 1, "name"], m["blocks"][0]["name"])(m),
        "block 1 'frames' field 'name' repeats block 0",
    ),
}


CLIP_META_KEYS = ("mask_shape", "num_instances", "generator_config", "fps_stream", "seed", "clip_id")
CLIP_BLOCKS = ("frames", "waveform", "gt_classes", "gt_identities", "visibility", "gt_masks_rle/000", "gt_masks_rle/001")


def _drop_block(name):
    def edit(manifest):
        manifest["blocks"] = [b for b in manifest["blocks"] if b["name"] != name]
        return manifest

    return edit


# (edit, text the error must contain); a clip whose manifest passes
# read_container but lacks or mistypes what read_clip needs
CLIP_FAULTS = {
    **{f"no-meta-{key}": (_set(["meta", key], _DELETE), f"meta field '{key}'") for key in CLIP_META_KEYS},
    **{f"no-block-{name}": (_drop_block(name), f"block '{name}'") for name in CLIP_BLOCKS},
    "mask-shape-not-pair": (_set(["meta", "mask_shape"], [32]), "'mask_shape' is not"),
    "num-instances-string": (_set(["meta", "num_instances"], "2"), "'num_instances' is not"),
    "fps-zero": (_set(["meta", "fps_stream"], 0), "'fps_stream' is not"),
    "generator-unknown-key": (_set(["meta", "generator_config", "colour"], 1), "'generator_config' is invalid"),
    "num-instances-disagrees": (
        lambda m: _set(["meta", "num_instances"], m["meta"]["num_instances"] + 1)(m),
        "block 'gt_classes' has shape",
    ),
}


@pytest.fixture(scope="module")
def clip_and_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("faults")
    cfg = RunConfig(image_h=32, image_w=48, num_slots=4).validate()
    model = RCFModel(cfg)
    save_checkpoint(root / "ckpt", model, OptimState.create(model.params(), cfg.lr0), 0)
    write_clip(generate_clip(0, GeneratorConfig(height=32, width=48, frames=2, max_sprites=2)), root / "clip")
    return root / "clip", root / "ckpt"


@pytest.mark.parametrize("fault", [*MANIFEST_FAULTS, *CLIP_FAULTS])
def test_malformed_manifest_is_format_error(fault, clip_and_checkpoint, tmp_path, capsys):
    edit, text = {**MANIFEST_FAULTS, **CLIP_FAULTS}[fault]
    clip_dir, ckpt = clip_and_checkpoint
    clip = tmp_path / "clip"
    shutil.copytree(clip_dir, clip)
    mpath = clip / "manifest.json"
    mpath.write_text(json.dumps(edit(json.loads(mpath.read_text()))))
    with pytest.raises(FormatError, match=text):
        read_clip(clip)
    capsys.readouterr()
    rc = main(["infer", "--ckpt", str(ckpt), "--clip", str(clip), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_IO
    assert "kind=io" in err and "Traceback" not in err


def _plane_words(stream):
    """(start, stop) word offsets of each plane's pairs in a frame's RLE stream."""
    spans, pos = [], 0
    while pos < stream.size:
        n = int(stream[pos])
        spans.append((pos + 1, pos + 1 + 2 * n))
        pos += 1 + 2 * n
    return spans


def _shift_one_pixel(stream):
    # plane 0 one pixel longer, plane 1 one shorter: the frame's total is unchanged
    stream = stream.copy()
    (_, end0), (_, end1) = _plane_words(stream)[:2]
    stream[end0 - 1] += 1
    stream[end1 - 1] -= 1
    return stream


# edit of frame 1's RLE stream -> text the error must contain
RLE_FAULTS = {
    "ends-before-plane": (lambda s: s[: _plane_words(s)[0][1]], "ends before plane 1"),
    "odd-word-count": (lambda s: s[:-1], "ends inside plane 1"),
    "plane-size": (_shift_one_pixel, "plane 0 of frame 1 decodes to 1537 elements, expected 1536"),
}


@pytest.mark.parametrize("fault", RLE_FAULTS)
def test_malformed_mask_stream_is_format_error(fault, tmp_path):
    edit, text = RLE_FAULTS[fault]
    gen = GeneratorConfig(height=32, width=48, frames=2, min_sprites=2, max_sprites=2)
    write_clip(generate_clip(0, gen), tmp_path / "clip")
    meta, blocks = read_container(tmp_path / "clip")
    blocks["gt_masks_rle/001"] = edit(blocks["gt_masks_rle/001"])
    write_container(tmp_path / "bad", meta, blocks)
    with pytest.raises(FormatError, match=text):
        read_clip(tmp_path / "bad")
