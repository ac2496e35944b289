"""AdamW update semantics, the flat chunked storage against a per-tensor
oracle, and the poly LR schedule."""

import numpy as np
import pytest

from rcfvis import optim
from rcfvis.errors import ArgumentError
from rcfvis.optim import ADAM_EPS, BETA1, BETA2, OptimState, ParamGroup, adamw_step, poly_lr
from rcfvis.tensor import Tensor


def per_tensor_adamw_step(state, lr, groups, sizes):
    """Oracle: the update as one loop over single tensors, the body AdamW
    had before its storage went flat.  It walks the `names` of each of
    `groups` over slices of its flat group's arrays, `sizes[name]` elements
    each, and writes them in place."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for flat, grp in zip(state.flat, groups, strict=True):
        lr_eff = lr * flat.lr_mult
        start = 0
        for name in grp.names:
            view = slice(start, start + sizes[name])
            start = view.stop
            p, g, m, v = flat.data[view], flat.grad[view], flat.m[view], flat.v[view]
            if flat.weight_decay:
                p *= 1.0 - lr_eff * flat.weight_decay
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p -= lr_eff * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def make(value, lr_mult=1.0, weight_decay=0.0):
    """A one-parameter state; `step(g)` writes the gradient g to its slot
    and takes an update."""
    p = Tensor(np.array(value), requires_grad=True)
    state = OptimState.create({"p": p}, [ParamGroup(lr_mult, weight_decay, ["p"])])

    def step(g, lr):
        p.grad[...] = g
        adamw_step(state, lr)

    return p, state, step


def test_zero_grad_zero_decay_leaves_params():
    p, state, step = make([1.0, -2.0])
    step(np.zeros(2), lr=1e-2)
    assert np.allclose(p.data, [1.0, -2.0])


def test_decoupled_decay_shrinks_before_moments():
    p, state, step = make([4.0], weight_decay=0.5)
    step(np.zeros(1), lr=0.1)
    assert p.data[0] == pytest.approx(4.0 * (1 - 0.1 * 0.5), abs=1e-15)


def test_three_step_trajectory_matches_hand_reference():
    p, state, step = make([1.0], weight_decay=0.01, lr_mult=0.5)
    grads = [0.3, -0.2, 0.05]
    # hand-stepped reference in plain floats
    ref = 1.0
    m = v = 0.0
    lr_eff = 0.1 * 0.5
    for t, g in enumerate(grads, start=1):
        ref *= 1 - lr_eff * 0.01
        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * g * g
        mh = m / (1 - BETA1**t)
        vh = v / (1 - BETA2**t)
        ref -= lr_eff * mh / (np.sqrt(vh) + ADAM_EPS)
        step(np.array([g]), lr=0.1)
    assert p.data[0] == pytest.approx(ref, abs=1e-15)
    assert state.step == 3


def test_negative_lr_rejected():
    p, state, step = make([1.0])
    with pytest.raises(ArgumentError):
        step(np.zeros(1), lr=-1.0)


class TestPolyLR:
    def test_endpoints(self):
        assert poly_lr(0, 100, 0.25) == 0.25
        assert poly_lr(100, 100, 0.25) == 0.0

    def test_midpoint(self):
        # 0.5^0.9, frozen from a 40-digit evaluation
        assert poly_lr(50, 100, 1.0) == pytest.approx(0.5358867312681465821065032, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ArgumentError):
            poly_lr(101, 100, 1.0)
        with pytest.raises(ArgumentError):
            poly_lr(0, 0, 1.0)


SHAPES = [(), (1,), (3, 1, 1), (64, 64), (70_000,)]
SETTINGS = [(1.0, 0.0), (1.0, 0.05), (0.1, 0.0), (0.1, 0.05)]  # (lr_mult, weight_decay)


def grouped_params(seed):
    """Every shape in every group, interleaved, so that a group is not a run
    of `params` order."""
    rng = np.random.default_rng(seed)
    params = {}
    groups = [ParamGroup(lr_mult, weight_decay, []) for lr_mult, weight_decay in SETTINGS]
    for k, shape in enumerate(SHAPES):
        for gi, grp in enumerate(groups):
            name = f"m{k}.g{gi}"
            params[name] = Tensor(rng.standard_normal(shape), requires_grad=True)
            grp.names.append(name)
    return params, groups


class TestFlatStorage:
    def test_views_share_the_group_arrays(self):
        params, groups = grouped_params(0)
        values = {name: p.data.copy() for name, p in params.items()}
        state = OptimState.create(params, groups)
        assert len(state.flat) == len(SETTINGS)
        for flat, grp in zip(state.flat, groups, strict=True):
            assert (flat.lr_mult, flat.weight_decay) == (grp.lr_mult, grp.weight_decay)
            start = 0  # each name's slot follows the one before it
            for name in grp.names:
                p = params[name]
                view = slice(start, start + p.data.size)
                start = view.stop
                assert np.shares_memory(p.data, flat.data[view])
                assert p.grad.shape == p.data.shape and np.shares_memory(p.grad, flat.grad[view])
                assert p.data.shape == values[name].shape and np.array_equal(p.data, values[name])
            assert start == flat.data.size
            assert not flat.grad.any() and not flat.m.any() and not flat.v.any()

    def test_zero_grads_points_each_grad_at_its_slot(self):
        params, groups = grouped_params(1)
        state = OptimState.create(params, groups)
        grads = {name: p.grad for name, p in params.items()}
        for flat in state.flat:
            flat.grad[:] = 3.0
        state.zero_grads()
        for name, p in params.items():
            assert p.grad is grads[name] and not p.grad.any()

    def test_chunked_update_equals_per_tensor_oracle_bit_for_bit(self, monkeypatch):
        # 1,000-element chunks cut through tensors, and every group's last chunk is ragged
        monkeypatch.setattr(optim, "_CHUNK", 1000)
        params, groups = grouped_params(2)
        oracle_params = {name: Tensor(p.data.copy(), requires_grad=True) for name, p in params.items()}
        state = OptimState.create(params, groups)
        oracle = OptimState.create(oracle_params, groups)
        assert state.scratch.shape[1] == 1000
        assert all(flat.data.size % 1000 for flat in state.flat)
        rng = np.random.default_rng(3)
        for step in range(5):
            for name, p in params.items():
                g = rng.standard_normal(p.data.shape)
                p.grad[...] = g
                oracle_params[name].grad[...] = g
            lr = 1e-2 * (1 - step / 5)
            adamw_step(state, lr)
            per_tensor_adamw_step(oracle, lr, groups, {name: p.data.size for name, p in params.items()})
        assert state.step == oracle.step == 5
        for name, p in params.items():
            assert p.data.tobytes() == oracle_params[name].data.tobytes(), name
        for flat, want in zip(state.flat, oracle.flat, strict=True):
            assert flat.m.tobytes() == want.m.tobytes() and flat.v.tobytes() == want.v.tobytes()
