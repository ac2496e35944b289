"""Set loss semantics, checkpoint round-trips, short training runs."""

from pathlib import Path

import numpy as np
import pytest

from rcfvis.config import RunConfig
from rcfvis.container import read_container, write_container
from rcfvis.errors import ArgumentError
from rcfvis.matching import Assignment
from rcfvis.model import RCFModel
from rcfvis.optim import OptimState
from rcfvis.synthav import GeneratorConfig, generate_clip, write_clip
from rcfvis.tensor import Tensor, grad_check
from rcfvis.training import (
    load_checkpoint,
    match_and_loss,
    sample_window,
    save_checkpoint,
    set_loss,
    train_loop,
)


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
    gen = GeneratorConfig(
        height=cfg.image_h, width=cfg.image_w, frames=cfg.gen_frames,
        min_sprites=cfg.gen_min_sprites, max_sprites=cfg.gen_max_sprites, noise=cfg.gen_noise,
    )
    for split, count in (("train", cfg.train_clips), ("val", cfg.val_clips), ("probe", cfg.probe_clips)):
        for i in range(count):
            write_clip(generate_clip(1000 + i, gen), root / split / f"clip_{i:05d}")


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
        clip = generate_clip(0, GeneratorConfig(height=32, width=48, frames=4, min_sprites=1, max_sprites=1))
        refs, windows = sample_window(clip, 0, 2)
        assert len(refs) == 2 and len(windows) == 3
        assert np.array_equal(refs[0], clip.frames[0].astype(np.float64))
        assert np.array_equal(refs[1], clip.frames[0].astype(np.float64))

    def test_interior_window_ordering(self):
        clip = generate_clip(1, GeneratorConfig(height=32, width=48, frames=6, min_sprites=1, max_sprites=1))
        refs, windows = sample_window(clip, 3, 2)
        assert np.array_equal(refs[0], clip.frames[1].astype(np.float64))
        assert np.array_equal(refs[1], clip.frames[2].astype(np.float64))
        assert np.array_equal(windows[-1], clip.audio_window(3).astype(np.float64))


class TestCheckpoint:
    def test_roundtrip_restores_everything(self, tmp_path):
        cfg = tiny_cfg(audio_enabled=False)
        model = RCFModel(cfg)
        params = model.params()
        state = OptimState.create(params, cfg.lr0, model.param_groups())
        state.step = 17
        rng = np.random.default_rng(0)
        for name in params:
            state.m[name] = rng.standard_normal(params[name].shape)
        save_checkpoint(tmp_path / "ckpt", model, state, iteration=42)
        model2, state2, it = load_checkpoint(tmp_path / "ckpt")
        assert it == 42 and state2.step == 17
        for name, p in model2.params().items():
            assert np.array_equal(p.data, params[name].data)
            assert np.array_equal(state2.m[name], state.m[name])
        assert model2.cfg == cfg

    def test_key_bias_blocks_of_older_checkpoints_are_ignored(self, tmp_path):
        # checkpoints written before attention keys lost their bias carry
        # one `*.wk.b` block per prefix and attention layer
        cfg = tiny_cfg(audio_enabled=False)
        model = RCFModel(cfg)
        params = model.params()
        save_checkpoint(tmp_path / "ckpt", model, OptimState.create(params, cfg.lr0, model.param_groups()), 3)
        meta, blocks = read_container(tmp_path / "ckpt")
        key_biases = [name.replace(".wq.b", ".wk.b") for name in params if name.endswith(".wq.b")]
        assert key_biases and not any(name in params for name in key_biases)
        for name in key_biases:
            for prefix in ("param", "optim_m", "optim_v"):
                blocks[f"{prefix}/{name}"] = np.full(cfg.token_dim, 0.5)
        write_container(tmp_path / "old", meta, blocks)
        model2, _, it = load_checkpoint(tmp_path / "old")
        assert it == 3 and model2.params().keys() == params.keys()
        for name, p in model2.params().items():
            assert np.array_equal(p.data, params[name].data)


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


def test_training_forward_tape_size_is_pinned():
    """Tape nodes behind one training loss at 32 slots.  Every linear, norm,
    LSTM direction, attention and loss term is one node; the elementary-op
    versions of the layers and the set loss recorded 1145, and any extra op
    changes the count.  Each conv adds its bias inside its node: a separate
    bias reshape and add cost 34 more nodes."""
    cfg = RunConfig(num_slots=32).validate()
    clip = generate_clip(3, GeneratorConfig(frames=4, min_sprites=4, max_sprites=8))
    model = RCFModel(cfg)
    refs, windows = sample_window(clip, 2, cfg.ref_frames)
    out = model.forward_frames(clip.frames[2], refs, windows)
    loss = match_and_loss(out, clip, 2, cfg).loss
    seen, todo = {id(loss)}, [loss]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    assert len(seen) == 385
