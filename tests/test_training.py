"""Set loss semantics, checkpoint round-trips, short training runs."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rcfvis.cli import EXIT_IO, main
from rcfvis.config import RunConfig
from rcfvis.container import write_container
from rcfvis.errors import ArgumentError, NumericError
from rcfvis.matching import Assignment
from rcfvis.model import RCFModel
from rcfvis import training
from rcfvis.optim import OptimState, adamw_step
from rcfvis.synthav import generate_clip, write_clip
from rcfvis.tensor import Tensor, grad_check
from rcfvis.training import (
    load_checkpoint,
    match_and_loss,
    sample_window,
    save_checkpoint,
    set_loss,
    train_loop,
)

from conftest import read_container  # a test helper: no command reads a whole container
from test_optim import per_tensor_adamw_step  # the per-tensor oracle


def tiny_cfg(**kw):
    base = dict(
        image_h=32,
        image_w=48,
        gen_frames=6,
        train_clips=3,
        val_clips=2,
        probe_clips=2,
        iter_max=6,
        ckpt_every=3,
        gen_max_sprites=2,
    )
    base.update(kw)
    return RunConfig(**base).validate()


def write_corpus(cfg: RunConfig, root: Path):
    for split, count in (("train", cfg.train_clips), ("val", cfg.val_clips), ("probe", cfg.probe_clips)):
        for i in range(count):
            write_clip(generate_clip(1000 + i, cfg), root / split / f"clip_{i:05d}")


class TestSetLoss:
    def test_perfect_prediction_zero_dice(self):
        gt_masks = np.zeros((1, 4, 4))
        gt_masks[0, 1:3, 1:3] = 1.0
        logits = np.where(gt_masks[0] > 0, 500.0, -500.0)[None]
        logits = np.concatenate([logits, np.full((1, 4, 4), -500.0)])
        probs = Tensor(np.array([[0.9, 0.05, 0.05], [0.1, 0.1, 0.8]]))
        report = set_loss(probs, Tensor(logits), np.array([0]), gt_masks, Assignment((0,), 0.0), num_classes=2)
        assert report.dice == pytest.approx(0.0, abs=1e-12)
        assert report.ce == pytest.approx(-(np.log(0.9) + np.log(0.8)), abs=1e-12)
        assert report.total == pytest.approx(report.ce + report.dice)

    def test_all_empty_ground_truth(self):
        probs = Tensor(np.full((3, 4), 0.25))
        logits = Tensor(np.zeros((3, 2, 2)))
        report = set_loss(probs, logits, np.zeros(0, dtype=int), np.zeros((0, 2, 2)), Assignment((), 0.0), 3)
        assert report.dice == 0.0
        assert report.ce == pytest.approx(-3 * np.log(0.25), abs=1e-12)

    def test_loss_nonnegative_random(self, rng):
        for _ in range(10):
            logits_cls = rng.standard_normal((4, 3))
            probs = np.exp(logits_cls)
            probs /= probs.sum(axis=1, keepdims=True)
            masks = (rng.random((2, 4, 4)) < 0.5).astype(float)
            report = set_loss(
                Tensor(probs),
                Tensor(rng.standard_normal((4, 4, 4))),
                np.array([0, 1]),
                masks,
                Assignment((1, 3), 0.0),
                num_classes=2,
            )
            assert report.total >= 0.0

    def test_gradient_through_loss(self, rng):
        gt_masks = (rng.random((2, 3, 3)) < 0.5).astype(float)
        cls_logits = rng.standard_normal((3, 3))

        def f(mask_logits):
            from rcfvis.tensor import softmax

            probs = softmax(Tensor(cls_logits), 1)
            report = set_loss(probs, mask_logits, np.array([0, 1]), gt_masks, Assignment((0, 2), 0.0), 2)
            return report.loss

        x = Tensor(rng.standard_normal((3, 3, 3)))
        assert grad_check(f, x, eps=1e-6) < 1e-5

    def test_bad_assignment_rejected(self, rng):
        probs = Tensor(np.full((2, 3), 1 / 3))
        logits = Tensor(np.zeros((2, 2, 2)))
        with pytest.raises(ArgumentError):
            set_loss(probs, logits, np.array([0]), np.zeros((1, 2, 2)), Assignment((5,), 0.0), 2)


class TestSampleWindow:
    def test_clip_start_replicates_frame_zero(self):
        clip = generate_clip(0, tiny_cfg(gen_frames=4, gen_min_sprites=1, gen_max_sprites=1))
        refs, windows = sample_window(clip, 0, 2)
        assert len(refs) == 2 and len(windows) == 3
        assert np.array_equal(refs[0], clip.frames[0].astype(np.float64))
        assert np.array_equal(refs[1], clip.frames[0].astype(np.float64))

    def test_interior_window_ordering(self):
        clip = generate_clip(1, tiny_cfg(gen_min_sprites=1, gen_max_sprites=1))
        refs, windows = sample_window(clip, 3, 2)
        assert np.array_equal(refs[0], clip.frames[1].astype(np.float64))
        assert np.array_equal(refs[1], clip.frames[2].astype(np.float64))
        assert np.array_equal(windows[-1], clip.audio_window(3).astype(np.float64))


class TestCheckpoint:
    def test_roundtrip_restores_everything(self, tmp_path):
        cfg = tiny_cfg(audio_enabled=False)
        model = RCFModel(cfg)
        params = model.params()
        state = OptimState.create(params, model.param_groups())
        state.step = 17
        rng = np.random.default_rng(0)
        for flat in state.flat:  # in place: the moments are the optimizer's arrays
            flat.m[...] = rng.standard_normal(flat.m.shape)
            flat.v[...] = rng.random(flat.v.shape)
        save_checkpoint(tmp_path / "ckpt", model, state, iteration=42)
        meta, blocks = read_container(tmp_path / "ckpt")  # each group's arrays as they are
        assert len(state.flat) > 1
        assert list(blocks) == [f"group{i}/{kind}" for i in range(len(state.flat)) for kind in ("data", "m", "v")]
        assert meta["groups"] == [
            {"lr_mult": g.lr_mult, "weight_decay": g.weight_decay, "params": g.names} for g in model.param_groups()
        ]
        assert meta["iteration"] == 42 and meta["optim_step"] == 17
        for i, flat in enumerate(state.flat):
            for kind in ("data", "m", "v"):
                assert blocks[f"group{i}/{kind}"].tobytes() == getattr(flat, kind).tobytes()
        model2 = load_checkpoint(tmp_path / "ckpt")
        assert model2.cfg == cfg
        loaded = model2.params()
        assert list(loaded) == list(params)
        for name, p in loaded.items():
            assert p.data.tobytes() == params[name].data.tobytes(), name

    def test_a_resume_starts_its_optimizer_from_the_loaded_values(self, tmp_path):
        # the path `train --resume` will take: a loaded model's parameters
        # become the arrays that AdamW updates
        cfg = tiny_cfg(audio_enabled=False)
        model = RCFModel(cfg)
        save_checkpoint(tmp_path / "ckpt", model, OptimState.create(model.params(), model.param_groups()), 0)
        saved = {name: p.data.copy() for name, p in model.params().items()}
        loaded = load_checkpoint(tmp_path / "ckpt")
        state = OptimState.create(loaded.params(), loaded.param_groups())
        params = loaded.params()
        for name, p in params.items():
            assert p.data.tobytes() == saved[name].tobytes(), name
        for flat in state.flat:
            flat.grad.fill(1.0)
        adamw_step(state, cfg.lr0)
        for name, p in params.items():
            assert not np.array_equal(p.data, saved[name]), name

    def test_load_peak_stays_within_three_times_the_parameters(self, tmp_path, traced):
        # the load reads the parameter blocks once and allocates no optimizer
        # state; the 32-slot default model has 3.5 MiB of parameters
        model = RCFModel(RunConfig(num_slots=32).validate())
        save_checkpoint(tmp_path / "ckpt", model, OptimState.create(model.params(), model.param_groups()), 0)
        params = model.params()
        param_bytes = sum(p.data.nbytes for p in params.values())
        loaded, _, peak = traced(lambda: load_checkpoint(tmp_path / "ckpt"))
        assert peak <= 3 * param_bytes, (peak, param_bytes)
        assert all(p.data.tobytes() == params[name].data.tobytes() for name, p in loaded.params().items())

    def test_per_parameter_or_edited_group_layout_exit_3(self, tmp_path, capsys):
        # checkpoints written before the flat layout carry three blocks per
        # parameter and no `groups` list
        cfg = tiny_cfg(audio_enabled=False)
        model = RCFModel(cfg)
        params = model.params()
        save_checkpoint(tmp_path / "ckpt", model, OptimState.create(params, model.param_groups()), 3)
        meta, blocks = read_container(tmp_path / "ckpt")
        old = {k: v for k, v in meta.items() if k != "groups"}
        per_parameter = {}
        for name, p in params.items():
            per_parameter[f"param/{name}"] = p.data
            per_parameter[f"optim_m/{name}"] = np.zeros(p.data.shape)
            per_parameter[f"optim_v/{name}"] = np.zeros(p.data.shape)
        write_container(tmp_path / "per_parameter", old, per_parameter)
        edits = {
            "lr_mult": lambda groups: groups[0].update(lr_mult=0.5),
            "order": lambda groups: groups[0]["params"].reverse(),
            "moved": lambda groups: groups[1]["params"].append(groups[0]["params"].pop()),
            "dropped": lambda groups: groups.pop(),
        }
        for edit_name, edit in edits.items():
            edited = json.loads(json.dumps(meta))
            edit(edited["groups"])
            write_container(tmp_path / edit_name, edited, blocks)
        write_clip(generate_clip(0, cfg), tmp_path / "clip")
        for ckpt in ("per_parameter", *edits):
            capsys.readouterr()
            rc = main(["infer", "--ckpt", str(tmp_path / ckpt), "--clip", str(tmp_path / "clip"), "--out", str(tmp_path / "pred")])
            assert rc == EXIT_IO, ckpt
            assert "parameter group layout" in capsys.readouterr().err, ckpt


class TestTrainLoop:
    def test_short_run_and_artifacts(self, tmp_path):
        cfg = tiny_cfg()
        write_corpus(cfg, tmp_path / "data")
        result = train_loop(cfg, tmp_path / "data", tmp_path / "run")
        assert result.iterations == cfg.iter_max
        assert (tmp_path / "run" / "metrics.csv").is_file()
        assert (tmp_path / "run" / "ckpt_000003").is_dir()
        assert (tmp_path / "run" / "ckpt_final").is_dir()
        lines = (tmp_path / "run" / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,lr,total,ce,dice"
        assert len(lines) == cfg.iter_max + 1
        assert all(np.isfinite(result.losses))

    def test_deterministic_across_runs(self, tmp_path):
        cfg = tiny_cfg(iter_max=4)
        write_corpus(cfg, tmp_path / "data")
        r1 = train_loop(cfg, tmp_path / "data", tmp_path / "run1")
        r2 = train_loop(cfg, tmp_path / "data", tmp_path / "run2")
        assert r1.losses == r2.losses
        m1 = (tmp_path / "run1" / "metrics.csv").read_bytes()
        m2 = (tmp_path / "run2" / "metrics.csv").read_bytes()
        assert m1 == m2
        b1 = (tmp_path / "run1" / "ckpt_final" / "tensors.bin").read_bytes()
        b2 = (tmp_path / "run2" / "ckpt_final" / "tensors.bin").read_bytes()
        assert b1 == b2

    @pytest.mark.parametrize("seed", [0, 7])
    def test_flat_adamw_matches_per_tensor_oracle_bytes(self, tmp_path, monkeypatch, seed):
        cfg = tiny_cfg(iter_max=3, seed=seed)
        write_corpus(cfg, tmp_path / "data")
        flat = train_loop(cfg, tmp_path / "data", tmp_path / "flat")
        model = RCFModel(cfg)
        groups, sizes = model.param_groups(), {name: p.data.size for name, p in model.params().items()}
        monkeypatch.setattr(training, "adamw_step", lambda state, lr: per_tensor_adamw_step(state, lr, groups, sizes))
        oracle = train_loop(cfg, tmp_path / "data", tmp_path / "oracle")
        for f in ("metrics.csv", "ckpt_final/tensors.bin", "ckpt_final/manifest.json"):
            assert (tmp_path / "flat" / f).read_bytes() == (tmp_path / "oracle" / f).read_bytes(), f
        assert flat.losses == oracle.losses

    def test_non_finite_gradient_stops_before_the_step(self, tmp_path, monkeypatch):
        # a NaN in one gradient at iteration 1, with a finite loss
        cfg = tiny_cfg(iter_max=3)
        write_corpus(cfg, tmp_path / "data")
        zero_grads, backward = OptimState.zero_grads, Tensor.backward
        seen, steps = {}, []

        def recording_zero_grads(state):
            seen["state"] = state
            zero_grads(state)

        def poisoned_backward(loss, *args, **kwargs):
            backward(loss, *args, **kwargs)
            seen["calls"] = seen.get("calls", 0) + 1
            if seen["calls"] == 2:
                seen["state"].flat[0].grad[3] = np.nan

        def counting_adamw_step(*args):
            steps.append(1)
            adamw_step(*args)

        monkeypatch.setattr(OptimState, "zero_grads", recording_zero_grads)
        monkeypatch.setattr(Tensor, "backward", poisoned_backward)
        monkeypatch.setattr(training, "adamw_step", counting_adamw_step)
        with pytest.raises(NumericError, match="non-finite gradient at iteration 1"):
            train_loop(cfg, tmp_path / "data", tmp_path / "run")
        assert len(steps) == 1
        dump = json.loads((tmp_path / "run" / "abort_dump.json").read_text())
        assert dump["iteration"] == 1 and np.isfinite(dump["total"])
        assert len((tmp_path / "run" / "metrics.csv").read_text().splitlines()) == 2

    def test_poly_schedule_endpoints_in_metrics(self, tmp_path):
        cfg = tiny_cfg(iter_max=4)
        write_corpus(cfg, tmp_path / "data")
        train_loop(cfg, tmp_path / "data", tmp_path / "run")
        rows = (tmp_path / "run" / "metrics.csv").read_text().strip().splitlines()[1:]
        first_lr = float(rows[0].split(",")[1])
        assert first_lr == pytest.approx(cfg.lr0)

    def test_missing_data_dir(self, tmp_path):
        from rcfvis.errors import FormatError

        with pytest.raises(FormatError):
            train_loop(tiny_cfg(), tmp_path / "nope", tmp_path / "run")


def test_a_training_step_peaks_at_most_3_mb_above_the_steady_state(tmp_path, monkeypatch, capsys):
    """tracemalloc's peak over each iteration's forward and backward, less
    what was held at the optimizer step before it (model, optimizer state
    and clips).  The backward frees each node's saved arrays and gradient as
    it leaves it, a ReLU adds no array, a conv keeps no im2col columns, an
    attention node no weights, and matching builds no (G, N, pixels)
    product: 2.41 MB here.  Keeping the columns and the weights, and the
    whole product, peaked 4.50 MB above; a tape kept whole until the sweep
    ends, with ReLU nodes of their own, 8.14 MB."""
    cfg = tiny_cfg(num_slots=8, gen_frames=4, train_clips=2, iter_max=4, ckpt_every=1000)
    for i in range(cfg.train_clips):
        write_clip(generate_clip(i, cfg), tmp_path / "data" / "train" / f"clip_{i:05d}")
    marks = []

    def step(*args):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return adamw_step(*args)

    monkeypatch.setattr(training, "adamw_step", step)
    tracemalloc.start()
    try:
        train_loop(cfg, tmp_path / "data", tmp_path / "run")
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    above = [peak - held for (held, _), (_, peak) in zip(marks, marks[1:])]
    assert len(above) == 3 and max(above) <= 3 * 1024 * 1024, above


def test_training_forward_tape_size_is_pinned():
    """Tape nodes behind one training loss at 32 slots.  Every linear, norm,
    LSTM direction, attention and loss term is one node; the elementary-op
    versions of the layers and the set loss recorded 1145, and any extra op
    changes the count.  Each conv adds its bias inside its node: a separate
    bias reshape and add cost 34 more nodes.  Each ReLU is folded into the
    conv, linear or norm before it: as nodes of their own, the 22 ReLUs made
    385."""
    cfg = RunConfig(num_slots=32, gen_frames=4, gen_min_sprites=4, gen_max_sprites=8).validate()
    clip = generate_clip(3, cfg)
    model = RCFModel(cfg)
    refs, windows = sample_window(clip, 2, cfg.ref_frames)
    probs, masks = model.forward_frames(clip.frames[2], refs, windows)
    loss = match_and_loss(probs, masks, clip, 2, cfg).loss
    seen, todo = {id(loss)}, [loss]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    assert len(seen) == 363
