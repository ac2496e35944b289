"""AdamW with decoupled weight decay, per-group LR multipliers, poly schedule.

Storage.  Parameters that share one (lr_mult, weight_decay) pair form a
`ParamGroup` (`RCFModel.param_groups` is the rule), and each group keeps
four contiguous float64 arrays: parameters, gradients, first moments and
second moments, laid out in the order of the group's `names`.  These arrays
are the optimizer's only store: every parameter's `Tensor.data` and
`Tensor.grad` are views into them, pointed there once by
`OptimState.create`, so the tape's in-place `Tensor._accum` adds straight
into the gradient array (a backward leaves a leaf's `grad` in place), and a
checkpoint writes each group's arrays as they are.

Update.  `adamw_step` walks each group's arrays in chunks of `_CHUNK`
elements (fixed when the state is created) through two preallocated
scratch rows.  It applies the same elementwise float64 operations in the
same order as a loop over single tensors would, and each such operation
rounds every element on its own, so the result does not depend on where a
chunk starts or ends.

Why 32 Ki elements: a chunk is then 256 KiB per array, so the six arrays
that one chunk touches (parameters, gradients, both moments and two scratch
rows) take 1.5 MiB and stay in a 2 MiB per-core L2 between their passes.
The 463,606 parameters of a 32-slot model (3.7 MB per array) do not.  Timed in a
loop that runs the update alone (Xeon, 2 shared vCPUs, single-thread BLAS),
32 Ki chunks took 4.0-5.0 ms per step, against 5.1-7.5 ms in 4 Ki chunks,
4.9-5.4 ms in one pass over each whole group and 7.6-8.7 ms for a loop over
single tensors; 16 Ki and 64 Ki were within the noise of 32 Ki.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
POLY_POWER = 0.9
_CHUNK = 1 << 15  # elements per walked chunk: 256 KiB of float64 per array


@dataclass
class ParamGroup:
    """Parameters that share one LR multiplier and weight decay; `names` are
    in the order of their slots in the group's flat arrays."""

    lr_mult: float
    weight_decay: float
    names: list[str]

    def slots(self, params: dict[str, Tensor]):
        """Each parameter of the group with its slice of the group's flat arrays."""
        start = 0
        for name in self.names:
            p = params[name]
            yield p, slice(start, start + p.data.size)
            start += p.data.size


@dataclass
class FlatGroup:
    """One group's contiguous parameter, gradient and moment arrays."""

    lr_mult: float
    weight_decay: float
    data: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray


@dataclass
class OptimState:
    """The groups' flat arrays plus schedule bookkeeping.

    Parameters (`Tensor.data`) and their gradients (`Tensor.grad`) are views
    into the arrays of `flat`.  Write them in place (`p.data[...] = x`); a
    rebound name no longer reaches the arrays that `adamw_step` updates.
    """

    flat: list[FlatGroup] = field(default_factory=list)
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, 0)))
    step: int = 0

    @staticmethod
    def create(params: dict[str, Tensor], groups: list[ParamGroup]) -> "OptimState":
        """One flat group per entry of `groups`, in order, holding its
        parameters' current values; gradients and moments at zero.  Rebinds
        each `p.data` and `p.grad` to its views of the group's arrays."""
        state = OptimState()
        for grp in groups:
            data = np.concatenate([params[name].data.ravel() for name in grp.names], dtype=np.float64)
            flat = FlatGroup(grp.lr_mult, grp.weight_decay, data, *(np.zeros(data.size) for _ in range(3)))
            for p, view in grp.slots(params):
                p.data, p.grad = data[view].reshape(p.data.shape), flat.grad[view].reshape(p.data.shape)
            state.flat.append(flat)
        largest = max((flat.data.size for flat in state.flat), default=0)
        state.scratch = np.empty((2, max(1, min(_CHUNK, largest))))
        return state

    def zero_grads(self) -> None:
        """Zero the gradient arrays, which backward then accumulates into in
        place (0.0 + g == g exactly)."""
        for flat in self.flat:
            flat.grad.fill(0.0)


def adamw_step(state: OptimState, lr: float) -> None:
    """One decoupled-weight-decay adaptive-moment update, in place, from the
    gradients in each group's `grad` array.

    Decay shrinks each parameter by (1 - lr_eff * wd) before the moment
    update; lr_eff folds in the parameter group's LR multiplier.
    """
    if lr < 0:
        raise ArgumentError("learning rate must be nonnegative")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    width = state.scratch.shape[1]
    for flat in state.flat:
        lr_eff = lr * flat.lr_mult
        decay = 1.0 - lr_eff * flat.weight_decay
        for start in range(0, flat.data.size, width):
            view = slice(start, start + width)
            p, g, m, v = flat.data[view], flat.grad[view], flat.m[view], flat.v[view]
            a, b = state.scratch[0, : p.size], state.scratch[1, : p.size]
            if flat.weight_decay:
                p *= decay
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=a)
            m += a
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=a)
            a *= g
            v += a
            np.divide(m, bc1, out=a)
            a *= lr_eff
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            p -= a


def poly_lr(iteration: int, iter_max: int, lr0: float) -> float:
    """Poly schedule lr0 * (1 - iter/iter_max)^0.9."""
    if iter_max <= 0:
        raise ArgumentError("iter_max must be positive")
    if not 0 <= iteration <= iter_max:
        raise ArgumentError(f"iteration {iteration} outside [0, {iter_max}]")
    return lr0 * (1.0 - iteration / iter_max) ** POLY_POWER
