"""Dense float64 tensors with a define-by-run reverse-mode tape.

Every value is a :class:`Tensor` wrapping a numpy ``float64`` array.  A
:class:`Tape` records each operation as it runs; :func:`backward` walks the
recording in reverse and returns a gradient map.  Tensors created without a
tape are constants: they participate in forward arithmetic but contribute no
gradient, which is also how :func:`stop_gradient` is realized.

The tape is rebuilt on every use (nothing is retained between steps), and
gradients are available with respect to any leaf, including plain inputs,
not only model parameters.

Conventions:
  * all data is float64,
  * relu and l1_norm use subgradient 0 exactly at their kink,
  * clamp_min/clamp_max pass zero gradient where the clamp is active,
  * only equal-shape and scalar-with-tensor broadcasting is supported
    (bias addition has its own op, ``add_bias``).
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

import numpy as np

from .errors import ContractError, DimensionError

Array = np.ndarray

# Probabilities are clamped to this floor before any log.
LOG_FLOOR = 1e-12


def _as_array(data) -> Array:
    return np.asarray(data, dtype=np.float64)


class Tensor:
    """Immutable dense value, optionally attached to a tape node.

    ``data`` is treated as read-only once wrapped; nothing in this package
    mutates a tensor in place.
    """

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape: Optional["Tape"] = None, node_id: Optional[int] = None):
        self.data = _as_array(data)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def is_constant(self) -> bool:
        return self.tape is None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        kind = "const" if self.is_constant else f"node {self.node_id}"
        return f"Tensor(shape={self.shape}, {kind})"

    # Operator sugar; scalars are promoted to constant tensors.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class _Node:
    """One recorded operation: edges to parents with their vjp closures."""

    __slots__ = ("parents",)

    def __init__(self, parents: tuple[tuple[int, Callable[[Array], Array]], ...]):
        self.parents = parents


class Tape:
    """Ordered operation record; parents always precede children.

    A tape is single-threaded and single-use: build a fresh one per forward
    pass.  ``bind`` memoizes leaves by key so the same parameter wrapped
    twice during one pass resolves to one node (gradient contributions
    accumulate there).
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._bindings: dict[Hashable, Tensor] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def leaf(self, data) -> Tensor:
        """Record ``data`` as a differentiable input."""
        node_id = len(self._nodes)
        self._nodes.append(_Node(()))
        return Tensor(data, self, node_id)

    def bind(self, key: Hashable, data) -> Tensor:
        """Leaf memoized by ``key``; repeated binds return the same node."""
        bound = self._bindings.get(key)
        if bound is None:
            bound = self.leaf(data)
            self._bindings[key] = bound
        return bound


def _tape_of(*tensors: Tensor) -> Optional[Tape]:
    tape = None
    for t in tensors:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ContractError("operands recorded on different tapes")
    return tape


def _record(tape: Optional[Tape], out_data: Array,
            parents: list[tuple[Tensor, Callable[[Array], Array]]]) -> Tensor:
    if tape is None:
        return Tensor(out_data)
    edges = tuple((t.node_id, vjp) for t, vjp in parents if t.tape is not None)
    node_id = len(tape._nodes)
    tape._nodes.append(_Node(edges))
    return Tensor(out_data, tape, node_id)


class Gradients:
    """Result of :func:`backward`: node-id -> gradient array.

    Leaves that the loss never touched read back as zeros.
    """

    def __init__(self, tape: Tape, grads: dict[int, Array]):
        self._tape = tape
        self._grads = grads

    def wrt(self, t: Tensor) -> Array:
        if t.tape is not self._tape:
            raise ContractError("tensor is not on the tape these gradients came from")
        g = self._grads.get(t.node_id)
        return np.zeros_like(t.data) if g is None else g

    def wrt_key(self, key: Hashable, like: Array) -> Array:
        """Gradient for a ``Tape.bind`` key; zeros if the key was never bound."""
        bound = self._tape._bindings.get(key)
        if bound is None:
            return np.zeros_like(like)
        return self.wrt(bound)


def backward(loss: Tensor) -> Gradients:
    """Reverse sweep from a scalar loss.

    Pure function of the tape: calling it twice yields identical gradients.
    """
    if loss.tape is None:
        raise ContractError("loss is a constant, not on any tape")
    if loss.data.shape != ():
        raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
    tape = loss.tape
    grads: dict[int, Array] = {loss.node_id: np.ones(())}
    for node_id in range(loss.node_id, -1, -1):
        g = grads.get(node_id)
        if g is None:
            continue
        for parent_id, vjp in tape._nodes[node_id].parents:
            contribution = vjp(g)
            seen = grads.get(parent_id)
            grads[parent_id] = contribution if seen is None else seen + contribution
    return Gradients(tape, grads)


def stop_gradient(t: Tensor) -> Tensor:
    """Same value, detached: backward treats the result as a constant."""
    return Tensor(t.data)


# ---------------------------------------------------------------------------
# elementwise


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape or a.shape == () or b.shape == ():
        return
    raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} are not equal "
                         "and neither is scalar")


def _reduce_to(shape: tuple[int, ...], g: Array) -> Array:
    # Undo scalar broadcasting on the backward path.
    if shape == () and g.shape != ():
        return np.sum(g)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")
    out = a.data + b.data
    return _record(_tape_of(a, b), out, [
        (a, lambda g: _reduce_to(a.shape, g)),
        (b, lambda g: _reduce_to(b.shape, g)),
    ])


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")
    out = a.data - b.data
    return _record(_tape_of(a, b), out, [
        (a, lambda g: _reduce_to(a.shape, g)),
        (b, lambda g: _reduce_to(b.shape, -g)),
    ])


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")
    out = a.data * b.data
    return _record(_tape_of(a, b), out, [
        (a, lambda g: _reduce_to(a.shape, g * b.data)),
        (b, lambda g: _reduce_to(b.shape, g * a.data)),
    ])


def relu(t: Tensor) -> Tensor:
    # np.maximum (not a where-mask) so NaN propagates instead of being
    # silently squashed to 0; training aborts on non-finite losses.
    mask = t.data > 0.0
    return _record(_tape_of(t), np.maximum(t.data, 0.0),
                   [(t, lambda g: g * mask)])


def log(t: Tensor) -> Tensor:
    """Natural log; callers that may see 0 clamp with ``clamp_min`` first."""
    return _record(_tape_of(t), np.log(t.data), [(t, lambda g: g / t.data)])


def clamp_min(t: Tensor, floor: float) -> Tensor:
    mask = t.data > floor
    return _record(_tape_of(t), np.maximum(t.data, floor),
                   [(t, lambda g: g * mask)])


def clamp_max(t: Tensor, ceiling: float) -> Tensor:
    mask = t.data < ceiling
    return _record(_tape_of(t), np.minimum(t.data, ceiling),
                   [(t, lambda g: g * mask)])


# ---------------------------------------------------------------------------
# matrix ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} do not chain")
    out = a.data @ b.data
    return _record(_tape_of(a, b), out, [
        (a, lambda g: g @ b.data.T),
        (b, lambda g: a.data.T @ g),
    ])


def transpose(t: Tensor) -> Tensor:
    if t.data.ndim != 2:
        raise DimensionError(f"transpose: expected a matrix, got shape {t.shape}")
    return _record(_tape_of(t), t.data.T, [(t, lambda g: g.T)])


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Row-broadcast bias addition: (n, m) + (m,) -> (n, m)."""
    if x.data.ndim != 2 or bias.data.ndim != 1 or x.shape[1] != bias.shape[0]:
        raise DimensionError(f"add_bias: shapes {x.shape} and {bias.shape} do not align")
    return _record(_tape_of(x, bias), x.data + bias.data, [
        (x, lambda g: g),
        (bias, lambda g: g.sum(axis=0)),
    ])


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise DimensionError(f"concat_cols: shapes {a.shape} and {b.shape} do not stack")
    split = a.shape[1]
    return _record(_tape_of(a, b), np.concatenate([a.data, b.data], axis=1), [
        (a, lambda g: g[:, :split]),
        (b, lambda g: g[:, split:]),
    ])


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError(f"concat_rows: shapes {a.shape} and {b.shape} do not stack")
    split = a.shape[0]
    return _record(_tape_of(a, b), np.concatenate([a.data, b.data], axis=0), [
        (a, lambda g: g[:split]),
        (b, lambda g: g[split:]),
    ])


# ---------------------------------------------------------------------------
# reductions


def _check_axis(t: Tensor, axis: Optional[int]) -> None:
    if axis is not None and not -t.data.ndim <= axis < t.data.ndim:
        raise DimensionError(f"axis {axis} out of range for shape {t.shape}")


def _expand(t: Tensor, g: Array, axis: Optional[int]) -> Array:
    if axis is None:
        return np.broadcast_to(g, t.shape)
    return np.broadcast_to(np.expand_dims(g, axis), t.shape)


def sum(t: Tensor, axis: Optional[int] = None) -> Tensor:  # noqa: A001 - op name
    _check_axis(t, axis)
    return _record(_tape_of(t), np.sum(t.data, axis=axis),
                   [(t, lambda g: _expand(t, g, axis))])


def mean(t: Tensor, axis: Optional[int] = None) -> Tensor:
    _check_axis(t, axis)
    count = t.data.size if axis is None else t.shape[axis]
    return _record(_tape_of(t), np.mean(t.data, axis=axis),
                   [(t, lambda g: _expand(t, g, axis) / count)])


def l1_norm(t: Tensor, axis: Optional[int] = None) -> Tensor:
    _check_axis(t, axis)
    return _record(_tape_of(t), np.sum(np.abs(t.data), axis=axis),
                   [(t, lambda g: _expand(t, g, axis) * np.sign(t.data))])


def l2_norm_sq(t: Tensor, axis: Optional[int] = None) -> Tensor:
    _check_axis(t, axis)
    return _record(_tape_of(t), np.sum(t.data * t.data, axis=axis),
                   [(t, lambda g: _expand(t, g, axis) * 2.0 * t.data)])


def softmax_rows(logits: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction stabilization."""
    if logits.data.ndim != 2:
        raise DimensionError(f"softmax_rows: expected a matrix, got shape {logits.shape}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)

    def vjp(g: Array) -> Array:
        inner = (g * probs).sum(axis=1, keepdims=True)
        return probs * (g - inner)

    return _record(_tape_of(logits), probs, [(logits, vjp)])
