"""Shared building blocks for the tape-based models: linear layers, binding."""

from __future__ import annotations

import operator

import numpy as np

from .autodiff import Tape, Tensor, is_frozen, shared_constant


def init_linear(rng: np.random.Generator, fan_in: int, fan_out: int,
                zero: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Fan-in-scaled uniform weight (fan_in, fan_out) and zero bias (1, fan_out);
    zero=True gives an all-zero layer."""
    if zero:
        return np.zeros((fan_in, fan_out)), np.zeros((1, fan_out))
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)), np.zeros((1, fan_out))


def mlp(tape: Tape, x: Tensor, tensors: dict[str, Tensor], prefix: str,
        n_layers: int) -> Tensor:
    """Affine layers named `{prefix}{i}.w/.b` with tanh between them."""
    h = x
    for i in range(n_layers):
        h = tape.linear(h, tensors[f"{prefix}{i}.w"], tensors[f"{prefix}{i}.b"])
        if i < n_layers - 1:
            h = tape.tanh(h)
    return h


def bind(tape: Tape, named: dict[str, np.ndarray],
         trainable: bool) -> dict[str, Tensor]:
    """Register a parameter dict on a tape, optionally as gradient leaves.
    For inference, a dict whose arrays are all frozen (`autodiff.freeze`), such
    as a loaded model's, binds as shared constants that any tape may read,
    built once and reused while the dict holds the same arrays; any other dict
    binds as checked constants of this tape. Training a frozen array raises
    ValueError naming the first one."""
    if not trainable:
        shared = _shared_constants(named)
        return shared if shared is not None else {
            name: tape.leaf(arr) for name, arr in named.items()}
    for name, arr in named.items():
        require_writeable(name, arr)
    return {name: tape.leaf(arr, requires_grad=True) for name, arr in named.items()}


def require_writeable(name: str, arr: np.ndarray) -> None:
    """Raise ValueError naming the parameter arr when it is read-only."""
    if not arr.flags.writeable:
        raise ValueError(f"parameter {name} is read-only, as a loaded model's are; "
                         "train a copy.deepcopy of the model instead")


# The last all-frozen dict bound: its names and its arrays, in order, and
# their shared constants by name. One dict's at most, so that binding model
# after model does not grow memory.
_last: tuple[tuple[str, ...], tuple[np.ndarray, ...], dict[str, Tensor]] = ((), (), {})


def _shared_constants(named: dict[str, np.ndarray]) -> dict[str, Tensor] | None:
    """Shared constants of named's arrays, or None when one is not frozen. A
    constant of the last all-frozen dict is reused for the array it holds; when
    named holds the same arrays under the same names, in order, one identity
    sweep finds that and its constants are reused as they are."""
    global _last
    names, arrays, last = _last
    if tuple(named) == names and all(map(operator.is_, named.values(), arrays)):
        return dict(last)  # the caller's to extend
    fresh = {}
    for name, arr in named.items():
        t = last.get(name)
        if t is None or t.values is not arr:
            if not is_frozen(arr):
                return None
            t = shared_constant(arr)
        fresh[name] = t
    _last = tuple(named), tuple(named.values()), fresh
    return dict(fresh)
