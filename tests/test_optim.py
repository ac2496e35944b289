"""AdamW update semantics, the flat chunked storage against a per-tensor
oracle, and the poly LR schedule."""

import numpy as np
import pytest

from rcfvis import optim
from rcfvis.errors import ArgumentError
from rcfvis.optim import ADAM_EPS, BETA1, BETA2, OptimState, ParamGroup, adamw_step, poly_lr
from rcfvis.tensor import Tensor


def group_of(state, name):
    """(lr_mult, weight_decay) of the flat group holding parameter `name`."""
    (flat,) = [f for f in state.flat if np.shares_memory(state.m[name], f.m)]
    return flat.lr_mult, flat.weight_decay


def per_tensor_adamw_step(state, params, grads, lr):
    """Oracle: the update as one loop over single tensors, the body AdamW
    had before its storage went flat.  It writes the same views in place."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = grads[name]
        lr_mult, weight_decay = group_of(state, name)
        lr_eff = lr * lr_mult
        if weight_decay:
            p.data *= 1.0 - lr_eff * weight_decay
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.data -= lr_eff * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def make(value, **group):
    p = Tensor(np.array(value), requires_grad=True)
    params = {"p": p}
    groups = {"p": ParamGroup(**group)} if group else None
    state = OptimState.create(params, groups)
    return p, params, state


def test_zero_grad_zero_decay_leaves_params():
    p, params, state = make([1.0, -2.0])
    adamw_step(state, params, {"p": np.zeros(2)}, lr=1e-2)
    assert np.allclose(p.data, [1.0, -2.0])


def test_decoupled_decay_shrinks_before_moments():
    p, params, state = make([4.0], weight_decay=0.5)
    adamw_step(state, params, {"p": np.zeros(1)}, lr=0.1)
    assert p.data[0] == pytest.approx(4.0 * (1 - 0.1 * 0.5), abs=1e-15)


def test_three_step_trajectory_matches_hand_reference():
    p, params, state = make([1.0], weight_decay=0.01, lr_mult=0.5)
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
        adamw_step(state, params, {"p": np.array([g])}, lr=0.1)
    assert p.data[0] == pytest.approx(ref, abs=1e-15)
    assert state.step == 3


def test_shape_mismatch_rejected():
    p, params, state = make([1.0, 2.0])
    with pytest.raises(ArgumentError):
        adamw_step(state, params, {"p": np.zeros(3)}, lr=1e-3)


def test_missing_gradient_names_the_parameter():
    p = Tensor(np.ones(2), requires_grad=True)
    q = Tensor(np.ones(3), requires_grad=True)
    params = {"p": p, "head.q": q}
    state = OptimState.create(params)
    with pytest.raises(ArgumentError, match="head.q"):
        adamw_step(state, params, {"p": np.ones(2)}, lr=1e-3)
    with pytest.raises(ArgumentError, match="head.q"):
        adamw_step(state, params, {"p": np.ones(2), "head.q": None}, lr=1e-3)


def test_negative_lr_rejected():
    p, params, state = make([1.0])
    with pytest.raises(ArgumentError):
        adamw_step(state, params, {"p": np.zeros(1)}, lr=-1.0)


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
GROUPS = [ParamGroup(1.0, 0.0), ParamGroup(1.0, 0.05), ParamGroup(0.1, 0.0), ParamGroup(0.1, 0.05)]


def grouped_params(seed):
    """Every shape in every group, interleaved, so that a group is not a run
    of `params` order."""
    rng = np.random.default_rng(seed)
    params, groups = {}, {}
    for k, shape in enumerate(SHAPES):
        for gi, grp in enumerate(GROUPS):
            name = f"m{k}.g{gi}"
            params[name] = Tensor(rng.standard_normal(shape), requires_grad=True)
            groups[name] = grp
    return params, groups


class TestFlatStorage:
    def test_views_share_the_group_arrays(self):
        params, groups = grouped_params(0)
        values = {name: p.data.copy() for name, p in params.items()}
        state = OptimState.create(params, groups)
        assert len(state.flat) == len(GROUPS)
        for name, p in params.items():
            (flat,) = [f for f in state.flat if np.shares_memory(p.data, f.data)]
            assert (flat.lr_mult, flat.weight_decay) == (groups[name].lr_mult, groups[name].weight_decay)
            assert np.shares_memory(state.grads[name], flat.grad)
            assert np.shares_memory(state.m[name], flat.m) and np.shares_memory(state.v[name], flat.v)
            assert p.data.shape == values[name].shape and np.array_equal(p.data, values[name])
            assert not state.m[name].any() and not state.v[name].any()

    def test_zero_grads_points_each_grad_at_its_slot(self):
        params, groups = grouped_params(1)
        state = OptimState.create(params, groups)
        for flat in state.flat:
            flat.grad[:] = 3.0
        state.zero_grads(params)
        for name, p in params.items():
            assert p.grad is state.grads[name] and not p.grad.any()

    @pytest.mark.parametrize("as_views", [True, False])
    def test_chunked_update_equals_per_tensor_oracle_bit_for_bit(self, monkeypatch, as_views):
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
            grads = {name: rng.standard_normal(p.data.shape) for name, p in params.items()}
            if as_views:
                for name, g in grads.items():
                    state.grads[name][...] = g
                passed = dict(state.grads)
            else:
                passed = {name: g.copy() for name, g in grads.items()}
            lr = 1e-2 * (1 - step / 5)
            adamw_step(state, params, passed, lr)
            per_tensor_adamw_step(oracle, oracle_params, grads, lr)
        assert state.step == oracle.step == 5
        for name, p in params.items():
            assert p.data.tobytes() == oracle_params[name].data.tobytes(), name
            assert state.m[name].tobytes() == oracle.m[name].tobytes(), name
            assert state.v[name].tobytes() == oracle.v[name].tobytes(), name
