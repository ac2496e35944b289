"""Config parsing/validation and CLI subcommand behavior."""

import csv
import hashlib
import json
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rcfvis import viseval
from rcfvis.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, build_parser, main
from rcfvis.config import RunConfig, load_config
from rcfvis.container import rle_decode
from rcfvis.errors import ConfigError
from rcfvis.fusion import FusionEncoder
from rcfvis.model import RCFModel
from rcfvis.optim import OptimState
from rcfvis.stream import stream_clip
from rcfvis.synthav import generate_clip, read_clip, write_clip
from rcfvis.training import load_checkpoint, save_checkpoint
from rcfvis.viseval import gt_tracks_from_clip, identity_switches, switch_rate

from conftest import read_container  # a test helper: no command reads a whole container
from test_reachability import TINY as TINY_CFG  # the dead-code trace's config file

DELETE = object()  # a config edit that removes the key


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

    def test_analyze_lipschitz_is_gone_exit_2(self, capsys):
        # its "product bound" left out the GroupNorms, so it bounded nothing
        with pytest.raises(SystemExit) as exc:
            main(["analyze-lipschitz"])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_CONFIG
        assert "invalid choice: 'analyze-lipschitz'" in err and "Traceback" not in err

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
    def test_backbone_channels_off_the_group_norm_grid_exit_2(self, channels, want, capsys, tmp_path):
        out = tmp_path / "d"
        size = ["--set", "image_h=32", "--set", "image_w=48", "--set", "gen_frames=2"]
        size += ["--set", "train_clips=1", "--set", "val_clips=1", "--set", "probe_clips=1"]
        rc = main(["gen-data", "--set", f"backbone_channels={channels}", *size, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == want
        assert out.exists() == (want == 0)
        assert ("multiple of 16 in [16, 128]" in err) == (want == EXIT_CONFIG) and "Traceback" not in err

    def test_sprites_wider_than_the_canvas_exit_2(self, capsys, tmp_path):
        rc = main(["gen-data", "--out", str(tmp_path / "d"), "--set", "image_h=16", "--set", "image_w=16"])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "max_radius must be at most" in err and "Traceback" not in err

    def test_ref_token_k_that_does_not_divide_the_feature_grid_exit_2(self, capsys, tmp_path):
        # a 32x48 image has a 4x6 feature grid, which 4 x 4 reference tokens cannot tile
        size = ["--set", "image_h=32", "--set", "image_w=48"]
        rc = main(["gen-data", "--out", str(tmp_path / "d"), *size, "--set", "ref_token_k=4"])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG and not (tmp_path / "d").exists()
        assert "ref_token_k 4 must divide the feature grid 4x6" in err and "Traceback" not in err

    def test_missing_checkpoint_exit_3(self, capsys, tmp_path):
        rc = main(["eval", "--ckpt", str(tmp_path / "none"), "--data", str(tmp_path)])
        assert rc == EXIT_IO

    def test_empty_split_exit_3_and_writes_nothing(self, capsys, tmp_path):
        cfg = RunConfig(image_h=32, image_w=48, num_slots=4).validate()
        model = RCFModel(cfg)
        save_checkpoint(tmp_path / "ckpt", model, OptimState.create(model.params(), model.param_groups()), 0)
        data = tmp_path / "data"
        for split in ("val", "probe", "train"):
            (data / split).mkdir(parents=True)
        for split in ("val", "probe"):
            capsys.readouterr()
            out = tmp_path / f"{split}.csv"
            command = ["eval", "--ckpt", str(tmp_path / "ckpt"), "--data", str(data), "--split", split]
            assert main([*command, "--out", str(out)]) == EXIT_IO, split
            assert f"no clips under dataset split directory {data / split}" in capsys.readouterr().err
            assert not out.exists()
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")]) == EXIT_IO
        assert "no clips under dataset split directory" in capsys.readouterr().err

    def test_eval_of_two_clips_with_one_id_exit_3(self, ckpt_and_clip, capsys, tmp_path):
        # eval keys tracks by clip id: a second clip of the same id would
        # replace the first, and the score would cover one clip of the two
        ckpt, clip, _ = ckpt_and_clip
        for name in ("clip_00000", "clip_00001"):
            shutil.copytree(clip, tmp_path / "data" / "val" / name)
        out = tmp_path / "eval.csv"
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path / "data"), "--out", str(out)]) == EXIT_IO
        assert "'clip-00000000'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_checkpoint_config_exit_3(self, capsys, tmp_path):
        cfg = RunConfig(image_h=32, image_w=48, num_slots=4, heads=4, gen_frames=2, gen_max_sprites=2).validate()
        model = RCFModel(cfg)
        save_checkpoint(tmp_path / "ckpt", model, OptimState.create(model.params(), model.param_groups()), 0)
        clip = tmp_path / "clip"
        write_clip(generate_clip(0, cfg), clip)
        assert main(["infer", "--ckpt", str(tmp_path / "ckpt"), "--clip", str(clip), "--out", str(tmp_path / "ok")]) == 0

        # checkpoints written while ref_compress, probe_norm_p or track_max_gap
        # was a key carry it, and are rejected; so is a value of another kind
        # than its key's, and a missing key (DELETE), which would load with its
        # default: heads shapes no parameter, so this 4-head model would load with 8
        for i, (key, value) in enumerate((
            ("bogus", 1), ("fps_stream", 6.0), ("sim_dice", "coeff"), ("ref_compress", "pool"), ("num_slots", 1000),
            ("probe_norm_p", "1"), ("track_max_gap", 5), ("num_slots", 4.0), ("heads", True), ("seed", 1.5),
            ("image_h", 32.0), ("lr0", True), ("heads", DELETE),
        )):
            ckpt = tmp_path / f"ckpt_{i}"
            shutil.copytree(tmp_path / "ckpt", ckpt)
            manifest = json.loads((ckpt / "manifest.json").read_text())
            config = manifest["meta"]["config"]
            if value is DELETE:
                del config[key]
            else:
                config[key] = value
            (ckpt / "manifest.json").write_text(json.dumps(manifest))
            capsys.readouterr()
            rc = main(["infer", "--ckpt", str(ckpt), "--clip", str(clip), "--out", str(tmp_path / "out")])
            assert rc == EXIT_IO, key
            assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # no rejected load wrote anything

    @pytest.fixture
    def ckpt_and_clip(self, tmp_path):
        """A saved 32x48 checkpoint that fires every slot, a clip, and the
        files that `infer` writes for them."""
        cfg = RunConfig(
            image_h=32, image_w=48, num_slots=4, gen_frames=2, gen_max_sprites=2, class_threshold=0.0
        ).validate()
        model = RCFModel(cfg)
        save_checkpoint(tmp_path / "ckpt", model, OptimState.create(model.params(), model.param_groups()), 0)
        clip = tmp_path / "clip"
        write_clip(generate_clip(0, cfg), clip)
        assert main(["infer", "--ckpt", str(tmp_path / "ckpt"), "--clip", str(clip), "--out", str(tmp_path / "ok")]) == 0
        return tmp_path / "ckpt", clip, tree_bytes(tmp_path / "ok")

    @staticmethod
    def _infer_edited(ckpt, clip, edit, capsys):
        """`infer` on a copy of `ckpt` whose manifest `edit(manifest, copy)`
        changed in place: (exit code, what `edit` returned, stderr, written files)."""
        edited = ckpt.parent / edit.__name__
        shutil.copytree(ckpt, edited)
        manifest = json.loads((edited / "manifest.json").read_text())
        named = edit(manifest, edited)
        (edited / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        out = ckpt.parent / f"out_{edit.__name__}"
        rc = main(["infer", "--ckpt", str(edited), "--clip", str(clip), "--out", str(out)])
        return rc, named, capsys.readouterr().err, tree_bytes(out)

    def test_checkpoint_bad_parameter_block_exit_3(self, ckpt_and_clip, capsys):
        ckpt, clip, _ = ckpt_and_clip
        weights = "group0/data"

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

        def drop_data_block(manifest, ckpt):
            manifest["blocks"] = [b for b in manifest["blocks"] if b["name"] != weights]
            return f"missing block {weights!r}"

        for edit in (retype_block, nan_in_block, drop_data_block):
            rc, named, err, written = self._infer_edited(ckpt, clip, edit, capsys)
            assert rc == EXIT_IO, edit.__name__
            assert named in err and not written, edit.__name__

    def test_infer_reads_no_optimizer_block_or_counter(self, ckpt_and_clip, capsys):
        # the moments and counters stay in the file for a resume; a model-only
        # load neither reads nor checks them
        ckpt, clip, intact = ckpt_and_clip

        def drop_meta(manifest, ckpt):
            del manifest["meta"]["optim_step"]

        def drop_block(manifest, ckpt):
            manifest["blocks"] = [b for b in manifest["blocks"] if b["name"] != "group0/m"]

        def reshape_block(manifest, ckpt):
            entry = next(b for b in manifest["blocks"] if b["name"] == "group1/v")
            entry["shape"] = [entry["nbytes"] // 16, 2]

        def bool_iteration(manifest, ckpt):
            manifest["meta"]["iteration"] = True

        def negative_step(manifest, ckpt):
            manifest["meta"]["optim_step"] = -1

        def drop_optimizer_state(manifest, ckpt):
            manifest["blocks"] = [b for b in manifest["blocks"] if b["name"].endswith("/data")]
            del manifest["meta"]["optim_step"], manifest["meta"]["iteration"]

        edits = (drop_meta, drop_block, reshape_block, bool_iteration, negative_step, drop_optimizer_state)
        for edit in edits:
            rc, _, err, written = self._infer_edited(ckpt, clip, edit, capsys)
            assert rc == 0, (edit.__name__, err)
            assert written == intact, edit.__name__
        assert json.loads(intact["prediction.json"])["tracks"]  # the intact model fired slots

    @pytest.mark.parametrize("flag", ["--config", "--set", "--seed"])
    def test_config_flag_with_checkpoint_exit_2(self, flag, capsys, tmp_path):
        # dump-attention reads its model from --ckpt, which carries its own config:
        # it takes no config flag
        cfg = RunConfig(image_h=32, image_w=48, num_slots=4, gen_frames=2, gen_max_sprites=2).validate()
        model = RCFModel(cfg)
        ckpt = str(tmp_path / "ckpt")
        save_checkpoint(ckpt, model, OptimState.create(model.params(), model.param_groups()), 0)
        clip = str(tmp_path / "clip")
        write_clip(generate_clip(0, cfg), clip)
        (tmp_path / "run.cfg").write_text("seed=5\n")
        value = {"--config": str(tmp_path / "run.cfg"), "--set": "token_dim=7", "--seed": "5"}[flag]
        capsys.readouterr()
        command = ["dump-attention", "--clip", clip, "--out", str(tmp_path / "attn"), "--ckpt", ckpt, flag, value]
        with pytest.raises(SystemExit) as exc:
            main(command)
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag} {value}" in err and "Traceback" not in err
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
        # the probe split's slowed, noise-free clips included.  Re-pinned for
        # the four-block clip layout: the earlier layout's tree still hashed
        # to its pin (13931e93...), corpus.json is unchanged, and each clip's
        # tensors.bin is the earlier one without its `gt_identities` and
        # `visibility` bytes
        (tmp_path / "tiny.cfg").write_text(TINY_CFG)
        assert main(["gen-data", "--config", str(tmp_path / "tiny.cfg"), "--out", str(tmp_path / "d")]) == 0
        files = tree_bytes(tmp_path / "d")
        assert len(files) == 11 and "corpus.json" in files
        h = hashlib.blake2b(digest_size=16)
        for name, data in files.items():
            h.update(name.encode() + b"\0" + data)
        assert h.hexdigest() == "ac68ffded84b5e8161ec4bbe2acb61a3"

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
        assert set(values) == {"AP", "AP50", "AP75", "AR@1", "AR@10", "switch_rate"}
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

    def test_train_takes_the_mask_grid_from_the_prediction(self, tmp_path, capsys):
        # a 64x96 corpus trains under a 32x48 config as under its own size:
        # the model's grid follows the frames, and so does the ground truth's
        corpus = ["--set", "train_clips=1", "--set", "val_clips=1", "--set", "probe_clips=1", "--set", "gen_frames=2"]
        assert main(["gen-data", "--out", str(tmp_path / "d"), *corpus]) == 0
        run = ["train", "--data", str(tmp_path / "d"), "--set", "iter_max=2", "--set", "num_slots=4"]
        assert main([*run, "--out", str(tmp_path / "own")]) == 0
        assert main([*run, "--out", str(tmp_path / "small"), "--set", "image_h=32", "--set", "image_w=48"]) == 0
        metrics = [(tmp_path / name / "metrics.csv").read_bytes() for name in ("own", "small")]
        assert metrics[0] == metrics[1] and len(metrics[0].splitlines()) == 3

    def test_probe_takes_the_mask_grid_from_the_prediction(self, tmp_path, capsys):
        # eval of a 64x96 clip under a 32x48 checkpoint counts switches as
        # under the clip's own size: the ground truth shrinks to the prediction's grid
        cfg = RunConfig(image_h=32, image_w=48, num_slots=4, class_threshold=0.0).validate()
        model = RCFModel(cfg)
        save_checkpoint(tmp_path / "ckpt", model, OptimState.create(model.params(), model.param_groups()), 0)
        clip_dir = tmp_path / "data" / "probe" / "clip_00000"
        big = RunConfig(gen_frames=3, gen_max_sprites=2, gen_min_radius=16.0, gen_max_radius=20.0)
        write_clip(generate_clip(1, big), clip_dir)  # 64x96, with a sprite that a slot follows
        out = tmp_path / "eval.csv"
        command = ["eval", "--ckpt", str(tmp_path / "ckpt"), "--data", str(tmp_path / "data"), "--split", "probe"]
        assert main([*command, "--out", str(out)]) == 0
        model.cfg = RunConfig(num_slots=4, class_threshold=0.0).validate()  # the clip's own size
        clip = read_clip(clip_dir)
        transitions = identity_switches(stream_clip(model, clip)[0], gt_tracks_from_clip(clip))
        assert len(transitions) == 2 and sum(followed for followed, _ in transitions) > 0
        with open(out, newline="") as fh:
            rows = dict(list(csv.reader(fh))[1:])
        assert rows["switch_rate"] == f"{switch_rate([transitions]):.6f}"

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

        assert main(["dump-attention", "--ckpt", ckpt, "--clip", clip, "--out", str(tmp_path / "attn")]) == 0
        pgms = list((tmp_path / "attn").glob("*.pgm"))
        assert pgms and (tmp_path / "attn" / "segment_mass.csv").is_file()
        header = pgms[0].read_bytes()[:2]
        assert header == b"P5"

        probe = ["eval", "--ckpt", ckpt, "--data", str(tmp_path / "d"), "--split", "probe"]
        assert main([*probe, "--out", str(tmp_path / "probe.csv")]) == 0
        lines = (tmp_path / "probe.csv").read_text().splitlines()
        assert lines[0] == "metric,value" and lines[-1].startswith("switch_rate,")

    def test_infer_dump_matches_streamed_predictions(self, tmp_path, capsys):
        # class_threshold=0 fires every slot, so a 2-iteration model has tracks to dump
        args = TINY + ["--set", "iter_max=2", "--set", "ckpt_every=2", "--set", "class_threshold=0.0"]
        main(["gen-data", "--out", str(tmp_path / "d"), "--seed", "4", *TINY])
        main(["train", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "r"), "--seed", "4", *args])
        ckpt = str(tmp_path / "r" / "ckpt_final")
        clip_dir = str(tmp_path / "d" / "val" / "clip_00000")
        out = tmp_path / "pred"
        assert main(["infer", "--ckpt", ckpt, "--clip", clip_dir, "--out", str(out)]) == 0

        # per streamed identity: its majority class, its per-frame scores and
        # its masks upsampled 2x to image resolution
        model = load_checkpoint(ckpt)
        clip = read_clip(clip_dir)
        preds, _ = stream_clip(model, clip)
        records = {}  # identity -> [(frame, class, score, mask)] in frame order
        for pred in preds:
            for i in np.flatnonzero(pred.fired):
                class_id = int(np.argmax(pred.class_probs[i, :-1]))
                entry = (pred.frame_index, class_id, float(pred.scores[i]), pred.binary_masks[i])
                records.setdefault(int(pred.identities[i]), []).append(entry)
        assert records, "the streamed clip fired no slot"
        h, w = clip.frames.shape[2], clip.frames.shape[3]

        manifest = json.loads((out / "prediction.json").read_text())
        assert manifest["format_version"] == 1
        assert manifest["video"] == clip.clip_id and manifest["mask_shape"] == [h, w]
        assert [t["identity"] for t in manifest["tracks"]] == sorted(records)
        meta, blocks = read_container(out / "masks")
        assert meta == {"kind": "prediction-masks", "video": clip.clip_id, "mask_shape": [h, w]}
        assert len(blocks) == sum(len(track) for track in records.values())
        for track in manifest["tracks"]:
            want = records[track["identity"]]
            classes = [c for _, c, _, _ in want]
            assert track["class"] == max(sorted(set(classes)), key=classes.count)
            assert track["frames"] == [{"t": t, "score": round(score, 6)} for t, _, score, _ in want]
            for t, _, _, mask in want:
                plane = rle_decode(blocks[f"mask/{track['identity']}/{t:03d}"], h * w).reshape(h, w)
                assert np.array_equal(plane, np.kron(mask, np.ones((2, 2), dtype=np.uint8)))

    def test_probe_order_is_gone_exit_2(self, capsys):
        # eval streams each clip once and reports the identity-switch rate beside AP
        with pytest.raises(SystemExit) as exc:
            main(["probe-order"])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_CONFIG
        assert "invalid choice: 'probe-order'" in err and "Traceback" not in err

    def test_eval_csv_rows_and_one_stream_per_clip(self, tmp_path, capsys, monkeypatch):
        # the checkpoint's iou_override=false reaches the stream: with the
        # probe's --no-override gone, that is how a tracker without the override is scored
        cfg = RunConfig(
            image_h=32, image_w=48, num_slots=4, class_threshold=0.0, gen_frames=3, iou_override=False
        ).validate()
        model = RCFModel(cfg)
        save_checkpoint(tmp_path / "ckpt", model, OptimState.create(model.params(), model.param_groups()), 0)
        clips = [generate_clip(i, cfg) for i in range(3)]
        for i, clip in enumerate(clips):
            write_clip(clip, tmp_path / "data" / "val" / f"clip_{i:05d}")
        streamed = []

        def spy(model, clip):
            streamed.append((clip.clip_id, model.cfg.iou_override))
            return stream_clip(model, clip)

        monkeypatch.setattr(viseval, "stream_clip", spy)
        out = tmp_path / "eval.csv"
        assert main(["eval", "--ckpt", str(tmp_path / "ckpt"), "--data", str(tmp_path / "data"), "--out", str(out)]) == 0
        assert sorted(streamed) == sorted((clip.clip_id, False) for clip in clips)  # each clip streamed once
        printed = capsys.readouterr().out.splitlines()
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        names = ["AP", "AP50", "AP75", "AR@1", "AR@10", "switch_rate"]
        assert [name for name, _ in rows] == ["metric", *names]
        assert [line.split("=")[0] for line in printed] == names
        assert all(0.0 <= float(value) <= 1.0 for _, value in rows[1:])

    def test_dump_attention_records_no_tape(self, tmp_path, capsys, monkeypatch):
        # a read-only dump must not record, and hold, a training tape
        cfg = RunConfig(image_h=32, image_w=48, num_slots=4, gen_frames=2, gen_max_sprites=2).validate()
        model = RCFModel(cfg)
        ckpt = str(tmp_path / "ckpt")
        save_checkpoint(ckpt, model, OptimState.create(model.params(), model.param_groups()), 0)
        clip = tmp_path / "clip"
        write_clip(generate_clip(0, cfg), clip)
        token_sets = []
        maps = FusionEncoder.attention_maps

        def spy(self, tokens):
            token_sets.append(tokens)
            return maps(self, tokens)

        monkeypatch.setattr(FusionEncoder, "attention_maps", spy)
        assert main(["dump-attention", "--ckpt", ckpt, "--clip", str(clip), "--out", str(tmp_path / "attn")]) == 0
        assert len(token_sets) == 1
        assert not token_sets[0].requires_grad

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
