"""Config parsing/validation and CLI subcommand behavior."""

import csv
import hashlib
import json
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rcfvis import cli
from rcfvis.analysis import order_stability_probe
from rcfvis.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, build_parser, main
from rcfvis.config import RunConfig, load_config
from rcfvis.container import read_container, rle_decode
from rcfvis.errors import ConfigError
from rcfvis.fusion import FusionEncoder
from rcfvis.model import RCFModel
from rcfvis.optim import OptimState
from rcfvis.stream import stream_clip
from rcfvis.synthav import generate_clip, read_clip, write_clip
from rcfvis.training import load_checkpoint, save_checkpoint

from test_reachability import TINY as TINY_CFG  # the dead-code trace's config file


class TestConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_file_plus_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nlr0 = 0.001\nnum_slots=12\n")
        cfg = load_config(p, ["num_slots=8"])
        assert cfg.lr0 == 0.001
        assert cfg.num_slots == 8

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("learning_rate=3\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(p)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="valid range"):
            load_config(None, ["num_slots=100"])

    def test_bad_parse_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(None, ["iter_max=ten"])

    def test_cross_field_checks(self):
        with pytest.raises(ConfigError):
            load_config(None, ["gen_min_sprites=5", "gen_max_sprites=2"])
        with pytest.raises(ConfigError):
            load_config(None, ["token_dim=24", "heads=16"])

    def test_env_seed_is_ignored(self, monkeypatch):
        # --seed and --set seed= are the only ways to set the seed
        monkeypatch.setenv("RCFVIS_SEED", "99")
        assert load_config(None, ["seed=5"]).seed == 5
        assert load_config().seed == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")


class TestCLIBasics:
    def test_help_lists_every_config_key(self, capsys):
        parser = build_parser()
        help_text = parser.format_help()
        for field in fields(RunConfig):
            assert field.name in help_text, field.name
            assert field.metadata["valid"] in help_text

    def test_bench_latency_paper_row(self, capsys):
        rc = main(["bench-latency", "--fps-stream", "6", "--fps-model", "89.4", "--clip", "36"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "6.40 s" in out

    def test_bench_latency_bad_input(self, capsys):
        rc = main(["bench-latency", "--fps-stream", "0", "--fps-model", "10"])
        assert rc == EXIT_CONFIG
        assert "code=2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--fps-stream", "nan"), ("--fps-model", "inf")])
    def test_bench_latency_nonfinite_exit_2(self, capsys, flag, value):
        rates = {"--fps-stream": "6", "--fps-model": "10", flag: value}
        rc = main(["bench-latency", *(x for item in rates.items() for x in item)])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert "code=2 kind=config" in captured.err and "Traceback" not in captured.err
        assert "latency" not in captured.out

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        # fps_stream, fps_model and clip_len were keys once; bench-latency has its own
        # flags.  sim_dice was a key that could not change the Hungarian assignment,
        # and ref_compress chose a depthwise-conv compression no workload used.
        for assignment in (
            "bogus=1", "fps_stream=1", "fps_model=1", "clip_len=1", "sim_dice=coeff", "ref_compress=pool"
        ):
            rc = main(["gen-data", "--out", str(tmp_path), "--set", assignment])
            assert rc == EXIT_CONFIG, assignment

    @pytest.mark.parametrize(
        "text, message",
        [(b"lr0\n", "expected key=value"), (b"lr0 = 0.001\nseed = 4\xff\n", "is not UTF-8 text")],
        ids=["no-equals", "not-utf8"],
    )
    def test_bad_config_file_exit_2(self, text, message, capsys, tmp_path):
        (tmp_path / "run.cfg").write_bytes(text)
        rc = main(["gen-data", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "channels, want", [(8, EXIT_CONFIG), (12, EXIT_CONFIG), (20, EXIT_CONFIG), (144, EXIT_CONFIG), (16, 0), (48, 0)]
    )
    def test_backbone_channels_off_the_group_norm_grid_exit_2(self, channels, want, capsys):
        size = ["--set", "image_h=32", "--set", "image_w=48", "--p", "inf"]
        rc = main(["analyze-lipschitz", "--set", f"backbone_channels={channels}", *size])
        err = capsys.readouterr().err
        assert rc == want
        assert ("multiple of 16 in [16, 128]" in err) == (want == EXIT_CONFIG) and "Traceback" not in err

    def test_sprites_wider_than_the_canvas_exit_2(self, capsys, tmp_path):
        rc = main(["gen-data", "--out", str(tmp_path / "d"), "--set", "image_h=16", "--set", "image_w=16"])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "max_radius must be at most" in err and "Traceback" not in err

    def test_missing_checkpoint_exit_3(self, capsys, tmp_path):
        rc = main(["eval", "--ckpt", str(tmp_path / "none"), "--data", str(tmp_path)])
        assert rc == EXIT_IO

    def test_empty_split_exit_3_and_writes_nothing(self, capsys, tmp_path):
        cfg = RunConfig(image_h=32, image_w=48, num_slots=4).validate()
        model = RCFModel(cfg)
        save_checkpoint(tmp_path / "ckpt", model, OptimState.create(model.params()), 0)
        data = tmp_path / "data"
        for split in ("val", "probe", "train"):
            (data / split).mkdir(parents=True)
        commands = (
            ["eval", "--ckpt", str(tmp_path / "ckpt"), "--data", str(data), "--split", "val"],
            ["probe-order", "--data", str(data), "--split", "probe", "--set", "image_h=32", "--set", "image_w=48"],
        )
        for command, split in zip(commands, ("val", "probe")):
            capsys.readouterr()
            out = tmp_path / f"{command[0]}.csv"
            assert main([*command, "--out", str(out)]) == EXIT_IO, command[0]
            assert f"no clips under dataset split directory {data / split}" in capsys.readouterr().err
            assert not out.exists()
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")]) == EXIT_IO
        assert "no clips under dataset split directory" in capsys.readouterr().err

    def test_bad_checkpoint_config_exit_3(self, capsys, tmp_path):
        cfg = RunConfig(image_h=32, image_w=48, num_slots=4, gen_frames=2, gen_max_sprites=2).validate()
        model = RCFModel(cfg)
        save_checkpoint(tmp_path / "ckpt", model, OptimState.create(model.params()), 0)
        clip = tmp_path / "clip"
        write_clip(generate_clip(0, cfg), clip)
        assert main(["infer", "--ckpt", str(tmp_path / "ckpt"), "--clip", str(clip), "--out", str(tmp_path / "ok")]) == 0

        # checkpoints written while ref_compress was a key carry it, and are rejected
        for key, value in (
            ("bogus", 1), ("fps_stream", 6.0), ("sim_dice", "coeff"), ("ref_compress", "pool"), ("num_slots", 1000)
        ):
            ckpt = tmp_path / f"ckpt_{key}"
            shutil.copytree(tmp_path / "ckpt", ckpt)
            manifest = json.loads((ckpt / "manifest.json").read_text())
            manifest["meta"]["config"][key] = value
            (ckpt / "manifest.json").write_text(json.dumps(manifest))
            capsys.readouterr()
            rc = main(["infer", "--ckpt", str(ckpt), "--clip", str(clip), "--out", str(tmp_path / "out")])
            assert rc == EXIT_IO, key
            assert key in capsys.readouterr().err

    def test_checkpoint_missing_counter_or_optimizer_block_exit_3(self, capsys, tmp_path):
        cfg = RunConfig(image_h=32, image_w=48, num_slots=4, gen_frames=2, gen_max_sprites=2).validate()
        model = RCFModel(cfg)
        save_checkpoint(tmp_path / "ckpt", model, OptimState.create(model.params()), 0)
        clip = tmp_path / "clip"
        write_clip(generate_clip(0, cfg), clip)
        first = next(iter(model.params()))

        weights = "param/head.class_head.w"

        def drop_meta(manifest, ckpt):
            del manifest["meta"]["optim_step"]
            return "optim_step"

        def drop_block(manifest, ckpt):
            manifest["blocks"] = [b for b in manifest["blocks"] if b["name"] != f"optim_m/{first}"]
            return f"optim_m/{first}"

        def reshape_block(manifest, ckpt):
            entry = next(b for b in manifest["blocks"] if b["name"] == f"optim_v/{first}")
            entry["shape"] = [entry["nbytes"] // 8]
            return f"optim_v/{first}"

        def retype_block(manifest, ckpt):
            # float64 bytes read as float32 would load as weights up to 1e38
            entry = next(b for b in manifest["blocks"] if b["name"] == weights)
            entry["dtype"], entry["nbytes"] = "<f4", entry["nbytes"] // 2
            return weights

        def nan_in_block(manifest, ckpt):
            entry = next(b for b in manifest["blocks"] if b["name"] == weights)
            with open(ckpt / "tensors.bin", "r+b") as fh:
                fh.seek(entry["offset"] + 3 * 8)
                fh.write(np.array(np.nan, "<f8").tobytes())
            return f"{weights!r} entry 3 is nan"

        def bool_iteration(manifest, ckpt):
            manifest["meta"]["iteration"] = True
            return "iteration"

        def negative_step(manifest, ckpt):
            manifest["meta"]["optim_step"] = -1
            return "optim_step"

        for edit in (drop_meta, drop_block, reshape_block, retype_block, nan_in_block, bool_iteration, negative_step):
            ckpt = tmp_path / edit.__name__
            shutil.copytree(tmp_path / "ckpt", ckpt)
            manifest = json.loads((ckpt / "manifest.json").read_text())
            named = edit(manifest, ckpt)
            (ckpt / "manifest.json").write_text(json.dumps(manifest))
            capsys.readouterr()
            rc = main(["infer", "--ckpt", str(ckpt), "--clip", str(clip), "--out", str(tmp_path / "out")])
            assert rc == EXIT_IO, edit.__name__
            assert named in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--config", "--set", "--seed"])
    def test_config_flag_with_checkpoint_exit_2(self, flag, capsys, tmp_path):
        # a --ckpt model carries its own config, so a config flag beside it is an error
        cfg = RunConfig(image_h=32, image_w=48, num_slots=4, gen_frames=2, gen_max_sprites=2).validate()
        model = RCFModel(cfg)
        ckpt = str(tmp_path / "ckpt")
        save_checkpoint(ckpt, model, OptimState.create(model.params()), 0)
        clip = str(tmp_path / "clip")
        write_clip(generate_clip(0, cfg), clip)
        (tmp_path / "run.cfg").write_text("seed=5\n")
        value = {"--config": str(tmp_path / "run.cfg"), "--set": "token_dim=7", "--seed": "5"}[flag]
        commands = (
            ["probe-order", "--clip", clip],
            ["dump-attention", "--clip", clip, "--out", str(tmp_path / "attn")],
            ["analyze-lipschitz"],
        )
        for command in commands:
            capsys.readouterr()
            assert main([*command, "--ckpt", ckpt, flag, value]) == EXIT_CONFIG, command[0]
            assert f"{flag} cannot be combined with --ckpt" in capsys.readouterr().err
        assert not (tmp_path / "attn").exists()


TINY = [
    "--set", "train_clips=2", "--set", "val_clips=1", "--set", "probe_clips=1",
    "--set", "gen_frames=4", "--set", "image_h=32", "--set", "image_w=48",
    "--set", "gen_max_sprites=2",
]


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestCLIPipelines:
    def test_gen_data_output_is_pinned(self, tmp_path, capsys):
        # every file of every split plus corpus.json, in sorted path order;
        # the probe split's slowed, noise-free clips included
        (tmp_path / "tiny.cfg").write_text(TINY_CFG)
        assert main(["gen-data", "--config", str(tmp_path / "tiny.cfg"), "--out", str(tmp_path / "d")]) == 0
        files = tree_bytes(tmp_path / "d")
        assert len(files) == 11 and "corpus.json" in files
        h = hashlib.blake2b(digest_size=16)
        for name, data in files.items():
            h.update(name.encode() + b"\0" + data)
        assert h.hexdigest() == "d32021a0ec50625efffcf067c3aed21a"

    def test_diverging_run_exits_4_without_numpy_warnings(self, tmp_path, capsys):
        # at lr0=1 a class probability underflows to 0 by iteration 2; the
        # log of it must end in the typed exit, not in a RuntimeWarning
        (tmp_path / "tiny.cfg").write_text(TINY_CFG)
        flags = ["--config", str(tmp_path / "tiny.cfg")]
        assert main(["gen-data", *flags, "--out", str(tmp_path / "d")]) == 0
        capsys.readouterr()
        args = ["--data", str(tmp_path / "d"), "--out", str(tmp_path / "r"), "--set", "lr0=1", "--set", "iter_max=3"]
        assert main(["train", *flags, *args]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "non-finite loss at iteration 2" in err and "Warning" not in err

    def test_gen_data_bit_identical(self, tmp_path, capsys):
        assert main(["gen-data", "--out", str(tmp_path / "a"), "--seed", "7", *TINY]) == 0
        assert main(["gen-data", "--out", str(tmp_path / "b"), "--seed", "7", *TINY]) == 0
        a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
        assert a.keys() == b.keys()
        assert all(a[k] == b[k] for k in a)

    def test_train_then_eval_scores_in_range(self, tmp_path, capsys):
        args = TINY + ["--set", "iter_max=4", "--set", "ckpt_every=4"]
        assert main(["gen-data", "--out", str(tmp_path / "d"), "--seed", "3", *TINY]) == 0
        assert main(["train", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "r"), "--seed", "3", *args]) == 0
        rc = main([
            "eval", "--ckpt", str(tmp_path / "r" / "ckpt_final"),
            "--data", str(tmp_path / "d"), "--split", "val", "--out", str(tmp_path / "score.csv"),
        ])
        assert rc == 0
        rows = (tmp_path / "score.csv").read_text().strip().splitlines()[1:]
        values = {row.split(",")[0]: float(row.split(",")[1]) for row in rows}
        assert set(values) == {"AP", "AP50", "AP75", "AR@1", "AR@10"}
        assert all(0.0 <= v <= 1.0 for v in values.values())

    def test_train_with_too_few_classes_exit_2_before_iteration_0(self, tmp_path, capsys):
        assert main(["gen-data", "--out", str(tmp_path / "d"), "--seed", "3", *TINY]) == 0
        classes = {c for p in sorted((tmp_path / "d" / "train").iterdir()) for c in read_clip(p).gt_classes.tolist()}
        assert max(classes) >= 2  # the corpus holds a class that 2 classes cannot score
        capsys.readouterr()
        rc = main([
            "train", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "r"), "--seed", "3",
            *TINY, "--set", "iter_max=2", "--set", "num_classes=2",
        ])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "num_classes=2 cannot score class id" in err and "clip_" in err and "Traceback" not in err
        assert not (tmp_path / "r" / "metrics.csv").exists()

    def test_train_with_too_few_slots_exit_2_before_iteration_0(self, tmp_path, capsys):
        sprites = ["--set", "gen_min_sprites=3", "--set", "gen_max_sprites=3"]
        assert main(["gen-data", "--out", str(tmp_path / "d"), "--seed", "3", *TINY, *sprites]) == 0
        clips = sorted((tmp_path / "d" / "train").iterdir())
        visible = [int(read_clip(p).visibility.sum(axis=1).max()) for p in clips]
        assert max(visible) == 3  # some frame shows more sprites than 2 slots can match
        first = next(i for i, v in enumerate(visible) if v > 2)
        capsys.readouterr()
        rc = main([
            "train", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "r"), "--seed", "3",
            *TINY, *sprites, "--set", "iter_max=2", "--set", "num_slots=2",
        ])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert f"num_slots=2 cannot match {visible[first]} sprites visible" in err and "Traceback" not in err
        assert str(clips[first]) in err
        assert not (tmp_path / "r" / "metrics.csv").exists()

    def test_infer_dump_and_probe_and_attention(self, tmp_path, capsys):
        args = TINY + ["--set", "iter_max=2", "--set", "ckpt_every=2"]
        main(["gen-data", "--out", str(tmp_path / "d"), "--seed", "4", *TINY])
        main(["train", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "r"), "--seed", "4", *args])
        ckpt = str(tmp_path / "r" / "ckpt_final")
        clip = str(tmp_path / "d" / "val" / "clip_00000")

        assert main(["infer", "--ckpt", ckpt, "--clip", clip, "--out", str(tmp_path / "pred")]) == 0
        manifest = json.loads((tmp_path / "pred" / "prediction.json").read_text())
        assert manifest["format_version"] == 1
        assert (tmp_path / "pred" / "masks" / "tensors.bin").is_file()

        assert main(["probe-order", "--ckpt", ckpt, "--clip", clip, "--out", str(tmp_path / "probe.csv")]) == 0
        lines = (tmp_path / "probe.csv").read_text().splitlines()
        assert "model=trained" in lines[0]
        assert lines[1].startswith("clip,t,eps")

        assert main(["dump-attention", "--ckpt", ckpt, "--clip", clip, "--out", str(tmp_path / "attn")]) == 0
        pgms = list((tmp_path / "attn").glob("*.pgm"))
        assert pgms and (tmp_path / "attn" / "segment_mass.csv").is_file()
        header = pgms[0].read_bytes()[:2]
        assert header == b"P5"

        assert main(["analyze-lipschitz", "--ckpt", ckpt, "--p", "2", "--out", str(tmp_path / "lip.csv")]) == 0
        text = (tmp_path / "lip.csv").read_text()
        assert "product/backbone" in text and "local_ratio/encoder" in text

    def test_infer_dump_matches_tracker_history(self, tmp_path, capsys):
        # class_threshold=0 fires every slot, so a 2-iteration model has tracks to dump
        args = TINY + ["--set", "iter_max=2", "--set", "ckpt_every=2", "--set", "class_threshold=0.0"]
        main(["gen-data", "--out", str(tmp_path / "d"), "--seed", "4", *TINY])
        main(["train", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "r"), "--seed", "4", *args])
        ckpt = str(tmp_path / "r" / "ckpt_final")
        clip_dir = str(tmp_path / "d" / "val" / "clip_00000")
        out = tmp_path / "pred"
        assert main(["infer", "--ckpt", ckpt, "--clip", clip_dir, "--out", str(out)]) == 0

        # per tracker identity: its majority class, its per-frame scores and
        # its masks upsampled 2x to image resolution
        model, _, _ = load_checkpoint(ckpt)
        clip = read_clip(clip_dir)
        _, state = stream_clip(model, clip)
        assert state.history, "the streamed clip fired no slot"
        h, w = clip.frames.shape[2], clip.frames.shape[3]

        manifest = json.loads((out / "prediction.json").read_text())
        assert manifest["format_version"] == 1
        assert manifest["video"] == clip.clip_id and manifest["mask_shape"] == [h, w]
        assert [t["identity"] for t in manifest["tracks"]] == sorted(state.history)
        meta, blocks = read_container(out / "masks")
        assert meta == {"kind": "prediction-masks", "video": clip.clip_id, "mask_shape": [h, w]}
        assert len(blocks) == sum(len(records) for records in state.history.values())
        for track in manifest["tracks"]:
            records = state.history[track["identity"]]
            classes = [r.class_id for r in records]
            assert track["class"] == max(sorted(set(classes)), key=classes.count)
            assert track["frames"] == [{"t": r.frame, "score": round(r.score, 6)} for r in records]
            for r in records:
                plane = rle_decode(blocks[f"mask/{track['identity']}/{r.frame:03d}"], h * w).reshape(h, w)
                assert np.array_equal(plane, np.kron(r.mask, np.ones((2, 2), dtype=np.uint8)))

    def test_probe_needs_clip_or_data(self, capsys):
        assert main(["probe-order"]) == EXIT_CONFIG

    def test_probe_rejects_both_clip_and_data(self, tmp_path, capsys):
        # with both, the probe must not run on the clip alone and ignore --data
        cfg = RunConfig(image_h=32, image_w=48, num_slots=4, gen_frames=2, gen_max_sprites=2).validate()
        clip_dir = tmp_path / "data" / "probe" / "clip_00000"
        write_clip(generate_clip(0, cfg), clip_dir)
        out = tmp_path / "probe.csv"
        size = ["--set", "image_h=32", "--set", "image_w=48", "--set", "num_slots=4"]
        args = ["probe-order", "--clip", str(clip_dir), "--data", str(tmp_path / "data"), "--out", str(out), *size]
        capsys.readouterr()
        assert main(args) == EXIT_CONFIG
        assert "exactly one of --clip and --data" in capsys.readouterr().err
        assert not out.exists()

    def test_dump_attention_records_no_tape(self, tmp_path, capsys, monkeypatch):
        # a read-only dump must not record, and hold, a training tape
        cfg = RunConfig(image_h=32, image_w=48, num_slots=4, gen_frames=2, gen_max_sprites=2).validate()
        clip = tmp_path / "clip"
        write_clip(generate_clip(0, cfg), clip)
        token_sets = []
        maps = FusionEncoder.attention_maps

        def spy(self, tokens, layout):
            token_sets.append(tokens)
            return maps(self, tokens, layout)

        monkeypatch.setattr(FusionEncoder, "attention_maps", spy)
        size = ["--set", "image_h=32", "--set", "image_w=48", "--set", "num_slots=4"]
        assert main(["dump-attention", "--clip", str(clip), "--out", str(tmp_path / "attn"), *size]) == 0
        assert len(token_sets) == 1
        assert not token_sets[0].requires_grad

    def test_probe_no_override_runs_with_override_off(self, tmp_path, capsys, monkeypatch):
        size = ["--set", "image_h=32", "--set", "image_w=48", "--set", "num_slots=4", "--set", "class_threshold=0.0"]
        cfg = RunConfig(
            image_h=32, image_w=48, num_slots=4, class_threshold=0.0, iou_override=False, gen_frames=4, gen_max_sprites=2
        ).validate()
        clip_dir = tmp_path / "clip"
        write_clip(generate_clip(2, cfg), clip_dir)
        seen = []

        def spy(model, clip, **kw):
            seen.append(model.cfg.iou_override)
            return order_stability_probe(model, clip, **kw)

        monkeypatch.setattr(cli, "order_stability_probe", spy)
        out = tmp_path / "probe.csv"
        assert main(["probe-order", "--clip", str(clip_dir), "--no-override", "--out", str(out), *size]) == 0
        assert main(["probe-order", "--clip", str(clip_dir), "--out", str(tmp_path / "on.csv"), *size]) == 0
        assert seen == [False, True]

        clip = read_clip(clip_dir)
        report = order_stability_probe(RCFModel(cfg), clip, p=cfg.probe_norm_p)
        want = [
            [clip.clip_id, str(r.t), repr(r.eps), repr(r.delta), repr(r.ratio), str(r.tracked), str(r.switched), str(int(r.changed))]
            for r in report.rows
        ]
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["# model=random p=1"]
        assert rows[2:] == want

    def test_infer_deterministic(self, tmp_path, capsys):
        args = TINY + ["--set", "iter_max=2", "--set", "ckpt_every=2"]
        main(["gen-data", "--out", str(tmp_path / "d"), "--seed", "5", *TINY])
        main(["train", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "r"), "--seed", "5", *args])
        ckpt = str(tmp_path / "r" / "ckpt_final")
        clip = str(tmp_path / "d" / "val" / "clip_00000")
        main(["infer", "--ckpt", ckpt, "--clip", clip, "--out", str(tmp_path / "p1")])
        main(["infer", "--ckpt", ckpt, "--clip", clip, "--out", str(tmp_path / "p2")])
        a, b = tree_bytes(tmp_path / "p1"), tree_bytes(tmp_path / "p2")
        assert a.keys() == b.keys()
        assert all(a[k] == b[k] for k in a)
