"""Container format: round-trips, RLE, corruption reporting."""

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from rcfvis import cli
from rcfvis.cli import EXIT_IO, main
from rcfvis.config import RunConfig
from rcfvis.container import read_container, rle_decode, rle_encode, write_container
from rcfvis.errors import FormatError
from rcfvis.model import RCFModel
from rcfvis.optim import OptimState
from rcfvis.synthav import generate_clip, read_clip, write_clip
from rcfvis.training import load_checkpoint, save_checkpoint


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


def test_rle_value_other_than_0_or_1():
    with pytest.raises(FormatError, match="run 0 has value 256, expected 0 or 1"):
        rle_decode(np.array([256, 2, 3, 2], dtype="<u4"), 4)


def test_truncated_tensor_file_names_block(tmp_path, rng):
    write_container(tmp_path / "c", {}, {"alpha": rng.standard_normal(4), "beta": rng.standard_normal(4)})
    raw = (tmp_path / "c" / "tensors.bin").read_bytes()
    (tmp_path / "c" / "tensors.bin").write_bytes(raw[:40])
    with pytest.raises(FormatError, match="beta"):
        read_container(tmp_path / "c")


def test_a_0d_block_reads_and_a_block_past_the_file_is_rejected_before_allocation(tmp_path):
    write_container(tmp_path / "c", {}, {"a": np.zeros(4), "s": np.array([2.5])})
    mpath = tmp_path / "c" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["blocks"][1]["shape"] = []
    mpath.write_text(json.dumps(manifest))
    s = read_container(tmp_path / "c")[1]["s"]
    assert s.shape == () and s == 2.5
    # 8 TB: allocated before the read, the block would raise MemoryError
    manifest["blocks"][1]["shape"], manifest["blocks"][1]["nbytes"] = [10**12], 8 * 10**12
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=re.escape("truncated tensors.bin: block 's' bytes [32, 8000000000032)")):
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

# (edit, text the error must contain); block 1 of a clip is "waveform", 4000
# float32.  An edit returns the new manifest, or the bytes to write instead.
MANIFEST_FAULTS = {
    "not-utf8": (lambda m: b"\xff" + json.dumps(m).encode(), "corrupt manifest"),
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
    "generator-missing-key": (_set(["meta", "generator_config", "noise"], _DELETE), "'generator_config' is invalid"),
    "num-instances-disagrees": (
        lambda m: _set(["meta", "num_instances"], m["meta"]["num_instances"] + 1)(m),
        "block 'gt_classes' has shape",
    ),
    "fps-disagrees-with-waveform": (_set(["meta", "fps_stream"], 16), r"'waveform' has shape \(4000,\), expected \(2000,\)"),
    "fps-without-samples": (_set(["meta", "fps_stream"], 40000), "'waveform' cannot hold fps_stream 40000"),
    "frames-dtype": (_set(["blocks", 0, "dtype"], "<u4"), "'frames' has dtype uint32, expected float32"),
    "mask-stream-2d": (
        lambda m: _set(["blocks", 6, "shape"], [1, *m["blocks"][6]["shape"]])(m),
        r"'gt_masks_rle/001' has shape \(1, ",
    ),
}


@pytest.fixture(scope="module")
def clip_and_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("faults")
    cfg = RunConfig(image_h=32, image_w=48, num_slots=4, gen_frames=2, gen_max_sprites=2).validate()
    model = RCFModel(cfg)
    save_checkpoint(root / "ckpt", model, OptimState.create(model.params()), 0)
    write_clip(generate_clip(0, cfg), root / "clip")
    return root / "clip", root / "ckpt"


@pytest.mark.parametrize("fault", [*MANIFEST_FAULTS, *CLIP_FAULTS])
def test_malformed_manifest_is_format_error(fault, clip_and_checkpoint, tmp_path, capsys):
    edit, text = {**MANIFEST_FAULTS, **CLIP_FAULTS}[fault]
    clip_dir, ckpt = clip_and_checkpoint
    clip = tmp_path / "clip"
    shutil.copytree(clip_dir, clip)
    mpath = clip / "manifest.json"
    edited = edit(json.loads(mpath.read_text()))
    mpath.write_bytes(edited if isinstance(edited, bytes) else json.dumps(edited).encode())
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


def _first_value_2(stream):
    stream = stream.copy()
    stream[1] = 2  # word 0 is plane 0's pair count, word 1 its first value
    return stream


# edit of frame 1's RLE stream -> text the error must contain
RLE_FAULTS = {
    "ends-before-plane": (lambda s: s[: _plane_words(s)[0][1]], "ends before plane 1"),
    "odd-word-count": (lambda s: s[:-1], "ends inside plane 1"),
    "plane-size": (_shift_one_pixel, "plane 0 of frame 1 decodes to 1537 elements, expected 1536"),
    "value-not-binary": (_first_value_2, "has value 2, expected 0 or 1"),
    "words-after-last-plane": (lambda s: np.concatenate([s, s[:3]]), "frame 1 has 3 words after its last plane"),
}


@pytest.mark.parametrize("fault", RLE_FAULTS)
def test_malformed_mask_stream_is_format_error(fault, tmp_path):
    edit, text = RLE_FAULTS[fault]
    cfg = RunConfig(image_h=32, image_w=48, gen_frames=2, gen_min_sprites=2, gen_max_sprites=2)
    write_clip(generate_clip(0, cfg), tmp_path / "clip")
    meta, blocks = read_container(tmp_path / "clip")
    blocks["gt_masks_rle/001"] = edit(blocks["gt_masks_rle/001"])
    write_container(tmp_path / "bad", meta, blocks)
    with pytest.raises(FormatError, match=text):
        read_clip(tmp_path / "bad")


def _mutations(manifest: bytes, tensors: bytes, mask_span: tuple[int, int], count: int, seed: int):
    """`count` seeded (manifest, tensors) pairs, each one truncation or one byte edit.

    The six kinds take turns: a truncation of either file, any byte of the
    manifest set to any value, a digit of the manifest set to another digit
    (still JSON, other numbers), any byte of tensors.bin set to any value,
    and a byte inside the mask streams set to 0, 1 or 2 (small words keep
    more of the edited streams well formed).
    """
    rng = np.random.default_rng(seed)
    digits = [i for i, c in enumerate(manifest) if chr(c).isdigit()]
    for i in range(count):
        files = [bytearray(manifest), bytearray(tensors)]
        kind = i % 6
        if kind < 2:
            del files[kind][int(rng.integers(len(files[kind]))) :]
        elif kind == 2:
            files[0][int(rng.integers(len(manifest)))] = int(rng.integers(256))
        elif kind == 3:
            files[0][digits[int(rng.integers(len(digits)))]] = ord("0") + int(rng.integers(10))
        elif kind == 4:
            files[1][int(rng.integers(len(tensors)))] = int(rng.integers(256))
        else:
            files[1][int(rng.integers(*mask_span))] = int(rng.integers(3))
        yield bytes(files[0]), bytes(files[1])


def test_mutated_clips_read_whole_or_raise_format_error(tmp_path):
    cfg = RunConfig(image_h=32, image_w=48, gen_frames=3, gen_min_sprites=2, gen_max_sprites=3, gen_noise=0.0)
    write_clip(generate_clip(0, cfg), tmp_path / "clip")
    manifest = (tmp_path / "clip" / "manifest.json").read_bytes()
    tensors = (tmp_path / "clip" / "tensors.bin").read_bytes()
    streams = [b for b in json.loads(manifest)["blocks"] if b["name"].startswith("gt_masks_rle/")]
    mask_span = (streams[0]["offset"], streams[-1]["offset"] + streams[-1]["nbytes"])
    accepted = rejected = 0
    for edited_manifest, edited_tensors in _mutations(manifest, tensors, mask_span, 300, seed=7):
        (tmp_path / "clip" / "manifest.json").write_bytes(edited_manifest)
        (tmp_path / "clip" / "tensors.bin").write_bytes(edited_tensors)
        try:
            clip = read_clip(tmp_path / "clip")
        except FormatError:
            rejected += 1
            continue
        accepted += 1
        g, (h, w) = clip.num_instances, clip.frames.shape[2:]
        for t in range(clip.num_frames):
            masks = clip.masks(t)
            assert masks.shape == (g, h, w) and masks.max(initial=0) <= 1
    assert accepted + rejected == 300 and accepted > 0 and rejected > 0


def test_mutated_checkpoints_load_whole_or_raise_format_error(tmp_path):
    cfg = RunConfig(
        image_h=16, image_w=16, backbone_channels=16, token_dim=16, code_dim=8, seg_channels=2, num_slots=2,
        enc_depth=1, dec_depth=1, heads=1, audio_dim=8, lstm_hidden=4,
    )
    model = RCFModel(cfg.validate())
    save_checkpoint(tmp_path / "ckpt", model, OptimState.create(model.params(), model.param_groups()), 0)
    manifest = (tmp_path / "ckpt" / "manifest.json").read_bytes()
    tensors = (tmp_path / "ckpt" / "tensors.bin").read_bytes()
    accepted = rejected = 0
    for edited_manifest, edited_tensors in _mutations(manifest, tensors, (0, len(tensors)), 300, seed=11):
        (tmp_path / "ckpt" / "manifest.json").write_bytes(edited_manifest)
        (tmp_path / "ckpt" / "tensors.bin").write_bytes(edited_tensors)
        try:
            loaded, state, _ = load_checkpoint(tmp_path / "ckpt")
        except FormatError:
            rejected += 1
            continue
        accepted += 1
        for name, p in loaded.params().items():
            assert np.isfinite(p.data).all() and np.isfinite(state.m[name]).all() and np.isfinite(state.v[name]).all()
    assert accepted + rejected == 300 and accepted > 0 and rejected > 0


def _set_entry(value, at=0):
    def edit(arr):
        arr = arr.copy()
        arr.reshape(-1)[at] = value
        return arr

    return edit


# fault -> (block, edit, text the error must contain)
CLIP_VALUE_FAULTS = {
    "class-9": ("gt_classes", _set_entry(9), "block 'gt_classes' entry 0 is 9, expected a class id below 4"),
    "class-4": ("gt_classes", _set_entry(4), "block 'gt_classes' entry 0 is 4, expected a class id below 4"),
    "visibility-2": ("visibility", _set_entry(2), "block 'visibility' entry 0 is 2, expected 0 or 1"),
    "visibility-disagrees": (
        "visibility",
        _set_entry(0, 1),
        "block 'visibility' entry 1 is 0, but mask plane 1 of frame 0 is non-empty",
    ),
    "frames-nan": ("frames", _set_entry(np.nan, 100), "block 'frames' entry 100 is nan, expected a finite value"),
    "frames-inf": ("frames", _set_entry(np.inf, 7), "block 'frames' entry 7 is inf, expected a finite value"),
    "waveform-nan": ("waveform", _set_entry(np.nan), "block 'waveform' entry 0 is nan, expected a finite value"),
    "waveform-short": ("waveform", lambda a: a[:1000], "block 'waveform' has shape (1000,), expected (4000,)"),
}


@pytest.mark.parametrize("fault", CLIP_VALUE_FAULTS)
def test_out_of_range_clip_values_are_format_errors(fault, tmp_path, capsys):
    name, edit, text = CLIP_VALUE_FAULTS[fault]
    cfg = RunConfig(image_h=32, image_w=48, gen_frames=2, gen_max_sprites=2)
    write_clip(generate_clip(0, cfg), tmp_path / "clip")
    meta, blocks = read_container(tmp_path / "clip")
    blocks[name] = edit(blocks[name])
    write_container(tmp_path / "data" / "train" / "clip_00000", meta, blocks)
    with pytest.raises(FormatError, match=re.escape(text)):
        read_clip(tmp_path / "data" / "train" / "clip_00000")
    capsys.readouterr()
    rc = main([
        "train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "run"),
        "--set", "image_h=32", "--set", "image_w=48", "--set", "iter_max=2", "--set", "train_clips=1",
    ])
    err = capsys.readouterr().err
    assert rc == EXIT_IO
    assert text in err and "Traceback" not in err


@pytest.mark.parametrize("fault", ["frames-nan", "waveform-nan"])
def test_non_finite_clip_fails_infer_with_exit_3(fault, clip_and_checkpoint, tmp_path, capsys):
    # a NaN clip must not stream as "0 tracks" with exit 0
    name, edit, text = CLIP_VALUE_FAULTS[fault]
    clip_dir, ckpt = clip_and_checkpoint
    meta, blocks = read_container(clip_dir)
    blocks[name] = edit(blocks[name])
    write_container(tmp_path / "clip", meta, blocks)
    capsys.readouterr()
    rc = main(["infer", "--ckpt", str(ckpt), "--clip", str(tmp_path / "clip"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_IO
    assert text in err and "Traceback" not in err


def test_short_waveform_fails_infer_with_exit_3(clip_and_checkpoint, tmp_path, capsys):
    # a cut waveform must not reach the audio front end, which exits 2
    name, edit, text = CLIP_VALUE_FAULTS["waveform-short"]
    clip_dir, ckpt = clip_and_checkpoint
    meta, blocks = read_container(clip_dir)
    blocks[name] = edit(blocks[name])
    write_container(tmp_path / "clip", meta, blocks)
    capsys.readouterr()
    rc = main(["infer", "--ckpt", str(ckpt), "--clip", str(tmp_path / "clip"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_IO
    assert "kind=io" in err and text in err and "Traceback" not in err


def _frame_bytes(entry):
    return entry["nbytes"] // entry["shape"][0]


def _truncate_in_frame_1(clip_dir, entry):
    with open(clip_dir / "tensors.bin", "r+b") as fh:
        fh.truncate(entry["offset"] + _frame_bytes(entry) * 3 // 2)


def _nan_in_frame_1(clip_dir, entry):
    with open(clip_dir / "tensors.bin", "r+b") as fh:
        fh.seek(entry["offset"] + _frame_bytes(entry) + 5 * 4)
        fh.write(np.array(np.nan, "<f4").tobytes())


# damage done to a clip's tensors.bin after read_clip -> text the error on
# reading frame 1 must contain
STORED_FRAME_FAULTS = {
    "truncated": (_truncate_in_frame_1, "truncated tensors.bin: block 'frames' rows [1, 2) end past end of file"),
    "nan": (_nan_in_frame_1, "block 'frames' entry 5 is nan, expected a finite value"),
    "deleted": (lambda clip_dir, entry: (clip_dir / "tensors.bin").unlink(), "cannot read tensors.bin for block 'frames'"),
}


@pytest.mark.parametrize("fault", STORED_FRAME_FAULTS)
def test_a_frame_damaged_after_read_clip_is_format_error(fault, clip_and_checkpoint, tmp_path, monkeypatch, capsys):
    damage, text = STORED_FRAME_FAULTS[fault]
    clip_dir, ckpt = clip_and_checkpoint
    entry = next(b for b in json.loads((clip_dir / "manifest.json").read_text())["blocks"] if b["name"] == "frames")
    shutil.copytree(clip_dir, tmp_path / "clip")
    clip = read_clip(tmp_path / "clip")
    frame = clip.frames[1]
    damage(tmp_path / "clip", entry)
    with pytest.raises(FormatError, match=re.escape(text)) as info:
        clip.frames[1]
    assert str(info.value).startswith(f"clip at {tmp_path / 'clip'} frame 1: ")
    assert frame.dtype == np.float32 and np.isfinite(frame).all()

    # the same damage between infer's read of the clip and its frames: exit 3
    def read_then_damage(path):
        read = read_clip(path)
        damage(Path(path), entry)
        return read

    shutil.copytree(clip_dir, tmp_path / "cli_clip")
    monkeypatch.setattr(cli, "read_clip", read_then_damage)
    capsys.readouterr()
    rc = main(["infer", "--ckpt", str(ckpt), "--clip", str(tmp_path / "cli_clip"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_IO
    assert "kind=io" in err and text in err and "Traceback" not in err
