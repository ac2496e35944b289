"""Fused layer ops against the compositions of elementary tape ops they replace.

The oracles below are the layer code that `linear`, `normalize`, `lstm`,
`cross_entropy` and `dice_loss` replaced.  Each fused op must give the same
forward bits as its oracle (linear: as numpy's `x @ w + b`), gradients
within 1e-10 of the oracle's, and pass `grad_check` for every input.  The
ReLU that `linear`, `conv2d` and `normalize` fold in must give the bits,
gradients included, of the op followed by a separate ReLU node.  A
whole-model test swaps the oracles into the layers and compares one
training loss and every parameter gradient.  The elementary ops the
oracles need beyond the package's (negation, division, sqrt, tanh, log and
ReLU) are tape nodes defined here.
"""

import numpy as np
import pytest

from rcfvis import nn, training
from rcfvis.config import RunConfig
from rcfvis.matching import DICE_SMOOTH, hungarian_assign, similarity_matrix
from rcfvis.model import RCFModel
from rcfvis.nn import NORM_EPS
from rcfvis.synthav import generate_clip
from rcfvis.tensor import (
    Tensor,
    _unbroadcast,
    concat,
    conv2d,
    cross_entropy,
    dice_loss,
    grad_check,
    linear,
    lstm,
    normalize,
)

# ---------------------------------------------------------------------------
# elementary ops: one tape node each, with the textbook derivative


def _node(data, parents, partials):
    """A tape node whose gradient to parents[k] is partials[k](out.grad),
    summed down to that parent's shape."""

    def bw():
        for p, partial in zip(parents, partials):
            if p.requires_grad:
                p._accum(_unbroadcast(partial(out.grad), p.data.shape))

    out = Tensor._from_op(data, parents, bw)
    return out


def neg(a):
    return _node(-a.data, (a,), (lambda g: -g,))


def sub(a, b):
    return Tensor._lift(a) + neg(Tensor._lift(b))


def div(a, b):
    return _node(a.data / b.data, (a, b), (lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data)))


def sqrt(a):
    y = np.sqrt(a.data)
    return _node(y, (a,), (lambda g: g * 0.5 / y,))


def tanh(a):
    y = np.tanh(a.data)
    return _node(y, (a,), (lambda g: g * (1.0 - y * y),))


def log(a):
    return _node(np.log(a.data), (a,), (lambda g: g / a.data,))


def relu(a):
    return _node(np.maximum(a.data, 0.0), (a,), (lambda g: g * (a.data > 0),))


def then_relu(y, on):
    """y, followed by a ReLU node when `on`."""
    return relu(y) if on else y


# ---------------------------------------------------------------------------
# composite oracles


def composite_linear(x, w, b):
    """x @ w + b from elementwise products: no shared matmul code."""
    n_in, n_out = w.shape
    prod = x.reshape(x.shape[0], n_in, 1) * w.reshape(1, n_in, n_out)
    return prod.sum(axis=1) + b


def composite_layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return div(centered, sqrt(var + NORM_EPS)) * gain + bias


def composite_group_norm(x, gain, bias, groups):
    c, h, w = x.shape
    xg = x.reshape(groups, (c // groups) * h * w)
    mu = xg.mean(axis=1, keepdims=True)
    centered = sub(xg, mu)
    var = (centered * centered).mean(axis=1, keepdims=True)
    norm = div(centered, sqrt(var + NORM_EPS))
    return norm.reshape(c, h, w) * gain + bias


def composite_lstm(xs, wx, wh, b, reverse=False):
    steps, hd = xs.shape[0], wh.shape[0]
    h = Tensor(np.zeros((1, hd)))
    c = Tensor(np.zeros((1, hd)))
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    outs = [None] * steps
    for t in order:
        z = xs[t : t + 1, :] @ wx + h @ wh + b
        i = z[:, 0 * hd : 1 * hd].sigmoid()
        f = z[:, 1 * hd : 2 * hd].sigmoid()
        g = tanh(z[:, 2 * hd : 3 * hd])
        o = z[:, 3 * hd : 4 * hd].sigmoid()
        c = f * c + i * g
        h = o * tanh(c)
        outs[t] = h
    return concat(outs, axis=0)


def composite_cross_entropy(probs, targets):
    onehot = np.zeros(probs.shape)
    onehot[np.arange(probs.shape[0]), targets] = 1.0
    return neg((log(probs) * Tensor(onehot)).sum())


def composite_dice_loss(logits, rows, targets, smooth):
    terms = []
    for k, j in enumerate(rows):
        gt = np.asarray(targets[k], dtype=np.float64)
        m = logits[j].sigmoid()
        inter = (m * Tensor(gt)).sum()
        d = div(inter * 2.0 + smooth, m.sum() + float(gt.sum()) + smooth)
        terms.append(sub(1.0, d))
    total = terms[0] if terms else Tensor(np.zeros(()))
    for t in terms[1:]:
        total = total + t
    return total


# ---------------------------------------------------------------------------
# per-op cases: (fused, oracle, differentiable inputs)


def _probs(rng, shape):
    e = np.exp(rng.standard_normal(shape))
    return e / e.sum(axis=1, keepdims=True)


def _cases():
    rng = np.random.default_rng(11)
    masks = (rng.random((9, 4, 5)) < 0.5).astype(float)
    rows = (3, 0, 5, 9, 1, 8, 2, 7, 4)
    targets = np.array([2, 0, 3, 3, 1])
    cases = {
        "layer_norm": (
            lambda x, g, b: normalize(x, g, b, (-1, x.shape[-1]), NORM_EPS),
            composite_layer_norm,
            [rng.standard_normal((5, 8)) * 3 + 1, rng.standard_normal(8) + 1, rng.standard_normal(8)],
        ),
        "dice_loss": (
            lambda m: dice_loss(m, rows, masks, DICE_SMOOTH),
            lambda m: composite_dice_loss(m, rows, masks, DICE_SMOOTH),
            [rng.standard_normal((10, 4, 5)) * 2],
        ),
        "dice_loss-repeated-row": (
            lambda m: dice_loss(m, (1, 1), masks[:2], DICE_SMOOTH),
            lambda m: composite_dice_loss(m, (1, 1), masks[:2], DICE_SMOOTH),
            [rng.standard_normal((3, 4, 5))],
        ),
        "cross_entropy": (
            lambda p: cross_entropy(p, targets),
            lambda p: composite_cross_entropy(p, targets),
            [_probs(rng, (5, 4))],
        ),
    }
    for groups in (1, 3):
        cases[f"group_norm-{groups}-groups"] = (
            lambda x, g, b, groups=groups: normalize(x, g, b, (groups, -1), NORM_EPS),
            lambda x, g, b, groups=groups: composite_group_norm(x, g, b, groups),
            [rng.standard_normal((6, 3, 4)) * 2, rng.standard_normal((6, 1, 1)) + 1, rng.standard_normal((6, 1, 1))],
        )
    for reverse in (False, True):
        cases["lstm-" + ("reverse" if reverse else "forward")] = (
            lambda x, wx, wh, b, reverse=reverse: lstm(x, wx, wh, b, reverse),
            lambda x, wx, wh, b, reverse=reverse: composite_lstm(x, wx, wh, b, reverse),
            [
                rng.standard_normal((4, 3)),
                rng.standard_normal((3, 8)) * 0.5,
                rng.standard_normal((2, 8)) * 0.5,
                rng.standard_normal(8) * 0.5,
            ],
        )
    return cases


CASES = _cases()


def run(op, arrays, seed):
    """Output data and every input's gradient after backward(seed)."""
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*inputs)
    out.backward(seed)
    return out.data, [t.grad for t in inputs]


def out_seed(name, arrays):
    fused = CASES[name][0]
    shape = fused(*[Tensor(a) for a in arrays]).shape
    return np.random.default_rng(5).standard_normal(shape)


@pytest.mark.parametrize("name", list(CASES))
def test_forward_bits_and_grads_match_composite(name):
    fused, oracle, arrays = CASES[name]
    seed = out_seed(name, arrays)
    got, got_grads = run(fused, arrays, seed)
    want, want_grads = run(oracle, arrays, seed)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for g, w in zip(got_grads, want_grads):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-10 * max(1.0, np.abs(w).max())


def assert_grad_check_each_input(op, arrays, seed):
    for k in range(len(arrays)):

        def f(t, k=k):
            inputs = [t if j == k else Tensor(a) for j, a in enumerate(arrays)]
            return (op(*inputs) * Tensor(seed)).sum()

        assert grad_check(f, Tensor(arrays[k])) < 1e-6, f"input {k}"


@pytest.mark.parametrize("name", list(CASES))
def test_grad_check_each_input(name):
    fused, _, arrays = CASES[name]
    assert_grad_check_each_input(fused, arrays, out_seed(name, arrays))


def test_linear_matches_matmul_bits_and_composite_grads(rng):
    arrays = [rng.standard_normal((5, 7)), rng.standard_normal((7, 3)), rng.standard_normal(3)]
    x, w, b = arrays
    seed = rng.standard_normal((5, 3))
    got, got_grads = run(linear, arrays, seed)
    assert got.tobytes() == (x @ w + b).tobytes()
    want, want_grads = run(composite_linear, arrays, seed)
    assert np.abs(got - want).max() < 1e-12
    for g, wg in zip(got_grads, want_grads):
        assert np.abs(g - wg).max() <= 1e-10 * max(1.0, np.abs(wg).max())
    assert_grad_check_each_input(linear, arrays, seed)


def test_linear_without_bias_has_two_parents(rng):
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    out = linear(x, w)
    assert out._parents == (x, w)
    assert out.data.tobytes() == (x.data @ w.data).tobytes()


# op -> (the op with its ReLU flag last, inputs); every pre-ReLU output is
# at least 0.01 from 0, where the kink breaks central differences
RELU_CASES = {
    "linear": (
        lambda x, w, b, on: linear(x, w, b, on),
        [
            np.linspace(-1.0, 1.3, 15).reshape(5, 3),
            np.array([[1.0, -0.5], [0.25, 2.0], [-1.5, 0.5]]),
            np.array([0.13, -0.21]),
        ],
    ),
    "conv2d": (
        lambda x, w, b, on: conv2d(x, w, b, 1, 1, on),
        [
            np.random.default_rng(3).standard_normal((2, 4, 5)),
            np.random.default_rng(0).standard_normal((3, 2, 3, 3)) * 0.5,
            np.array([0.1, -0.2, 0.05]),
        ],
    ),
    "group_norm": (
        lambda x, g, b, on: normalize(x, g, b, (2, -1), NORM_EPS, on),
        [
            np.random.default_rng(5).standard_normal((4, 3, 3)) * 2,
            np.random.default_rng(6).standard_normal((4, 1, 1)) + 1,
            np.random.default_rng(7).standard_normal((4, 1, 1)) * 0.5,
        ],
    ),
}


@pytest.mark.parametrize("name", list(RELU_CASES))
def test_folded_relu_matches_the_op_then_a_relu_node(name):
    op, arrays = RELU_CASES[name]
    pre = op(*[Tensor(a) for a in arrays], False).data
    assert np.abs(pre).min() >= 0.01 and (pre < 0).any() and (pre > 0).any()
    seed = np.random.default_rng(8).standard_normal(pre.shape)
    got, got_grads = run(lambda *t: op(*t, True), arrays, seed)
    want, want_grads = run(lambda *t: relu(op(*t, False)), arrays, seed)
    assert got.tobytes() == want.tobytes()
    for g, w in zip(got_grads, want_grads):
        assert g.tobytes() == w.tobytes()
    assert_grad_check_each_input(lambda *t: op(*t, True), arrays, seed)


def test_dice_loss_adds_its_terms_in_order():
    # numpy's pairwise sum adds eight or more terms in another order, which
    # changes the last bit of some of these sums
    for seed in range(10):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.standard_normal((10, 4, 5)) * 2)
        masks = (rng.random((9, 4, 5)) < 0.5).astype(float)
        rows = rng.permutation(10)[:9]
        got = dice_loss(logits, rows, masks, DICE_SMOOTH).data
        assert got.tobytes() == composite_dice_loss(logits, rows, masks, DICE_SMOOTH).data.tobytes()


def test_dice_loss_of_no_rows_is_zero(rng):
    logits = Tensor(rng.standard_normal((3, 2, 2)), requires_grad=True)
    out = dice_loss(logits, (), np.zeros((0, 2, 2)), DICE_SMOOTH)
    assert out.shape == () and float(out.data) == 0.0
    out.backward()
    assert np.array_equal(logits.grad, np.zeros((3, 2, 2)))


# ---------------------------------------------------------------------------
# whole model: the composite layers swapped in


def composite_set_loss(class_probs, mask_logits, gt_classes, gt_masks, gt_to_slot, num_classes):
    targets = np.full(class_probs.shape[0], num_classes)
    targets[list(gt_to_slot)] = gt_classes
    return composite_cross_entropy(class_probs, targets) + composite_dice_loss(
        mask_logits, gt_to_slot, gt_masks, DICE_SMOOTH
    )


def forward(cfg, clip, t):
    model = RCFModel(cfg)
    refs, windows = training.sample_window(clip, t, cfg.ref_frames)
    probs, logits = model.forward_frames(clip.frames[t], refs, windows)
    return model, probs, logits


@pytest.mark.parametrize("seed", [0, 7])
def test_model_matches_composite_layers(seed, monkeypatch):
    """Forward outputs and the loss bit for bit, and every parameter gradient
    within 1e-12 of its largest entry."""
    cfg = RunConfig(num_slots=32, seed=seed, gen_frames=4, gen_min_sprites=4, gen_max_sprites=8).validate()
    clip = generate_clip(seed + 3, cfg)
    t = 2
    classes, masks = training.frame_ground_truth(clip, t, cfg.mask_hw)

    def outputs_and_grads(fused):
        with monkeypatch.context() as m:
            if not fused:
                m.setattr(
                    nn.Linear,
                    "__call__",
                    lambda self, x, relu=False: then_relu(x @ self.w if self.b is None else x @ self.w + self.b, relu),
                )
                m.setattr(
                    nn.Conv2dLayer,
                    "__call__",
                    lambda self, x, relu=False: then_relu(conv2d(x, self.w, self.b, self.stride, self.pad), relu),
                )
                m.setattr(nn.LayerNorm, "__call__", lambda self, x: composite_layer_norm(x, self.gain, self.bias))
                m.setattr(
                    nn.GroupNormReLU,
                    "__call__",
                    lambda self, x: relu(composite_group_norm(x, self.gain, self.bias, self.groups)),
                )
                m.setattr(
                    nn.LSTMLayer,
                    "__call__",
                    lambda self, xs, reverse=False: composite_lstm(xs, self.wx, self.wh, self.b, reverse),
                )
            model, probs, logits = forward(cfg, clip, t)
            sim = similarity_matrix(probs.data, logits.data, masks.astype(np.float64), classes)
            assignment = hungarian_assign(sim)
            args = (probs, logits, classes, masks, assignment, cfg.num_classes)
            loss = training.set_loss(*args).loss if fused else composite_set_loss(*args)
            loss.backward()
        grads = {name: p.grad for name, p in model.params().items()}
        return (probs.data, logits.data, loss.data), grads

    fused_out, fused_grads = outputs_and_grads(True)
    oracle_out, oracle_grads = outputs_and_grads(False)
    for a, b in zip(fused_out, oracle_out):
        assert a.tobytes() == b.tobytes()
    assert fused_grads.keys() == oracle_grads.keys()
    for name, g in fused_grads.items():
        want = oracle_grads[name]
        assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max(), name
