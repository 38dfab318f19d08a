"""Dense float64 tensors with a define-by-run reverse-mode tape.

Every value is a :class:`Tensor` wrapping a numpy ``float64`` array.  A
:class:`Tape` records each operation as it runs; :func:`backward` walks the
recording in reverse and returns a gradient map.  Tensors created without a
tape are constants: they participate in forward arithmetic but contribute no
gradient, which is also how :func:`stop_gradient` is realized.

The tape is rebuilt on every use (nothing is retained between steps), and
gradients are available with respect to any leaf, including plain inputs,
not only model parameters.  :func:`backward` keeps leaf gradients only: it
drops each intermediate gradient once that node's vjps have run.  It sums
a node's contributions into new arrays and writes into none, so a vjp may
hand back another node's gradient or a read-only broadcast.

Weight gradients are formed when they are read. The weight vjp of
:func:`linear` hands back its row factors ``(g, x)`` instead of the
product ``g^T x``, :func:`backward` collects every pair that reaches a
leaf, and :class:`Gradients` hands out a leaf's gradient as its pieces
``(dense, G, X)``: the gradient is ``dense + G^T X``, one product over
the stacked rows of all its uses. A weight read by several passes (the
clean and the VAT-perturbed one) thus costs one product, not one per use
plus the adds. :func:`form_gradient` forms that sum, into a new array or
a given one, from whole pieces or from a band of their rows: the
optimizer forms a large weight's gradient that way, a panel at a time,
and never holds it whole. A sweep read only for an input's gradient (the
VAT probe) forms none.

A leading axis stacks independent copies of one computation (the two
branches of the model): ``linear`` takes a stacked (k, out, in) weight
with a shared (n, in) input or a stacked (k, n, in) one, the row ops and
reductions act per copy, and ``index`` reads one copy. Each copy's values
and gradients are bit for bit those of the computation run alone: every
op does the same float operations per copy, and ``np.matmul`` over a
leading axis runs the per-copy BLAS call.

A tape holds arrays and shapes, never a :class:`Tensor`: vjp closures
capture the arrays they need, and bindings keep node ids.  A tensor and
the :class:`Gradients` of a sweep point at their tape, so the tape and
its activations are freed by reference counting once the last of them
goes away.  A tape binds each parameter's own array, which the optimizer
updates in place: a tape is not read after the update that follows it.

Conventions:
  * all data is float64,
  * relu and l1_norm use subgradient 0 exactly at their kink,
  * clamp_max, and the log floor of xlogy_rows, pass zero gradient where active,
  * only equal-shape and scalar-with-tensor broadcasting is supported,
    besides a shared operand against a leading stacking axis where an op
    says so (the affine map x W^T + b has its own op, ``linear``).
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

import numpy as np

from .errors import ContractError, DimensionError

Array = np.ndarray

# xlogy_rows clamps probabilities to this floor before the log.
LOG_FLOOR = 1e-12


def _as_array(data) -> Array:
    return np.asarray(data, dtype=np.float64)


class Tensor:
    """Dense value, optionally attached to a tape node.

    ``data`` is treated as read-only while its tape is in use: parameter
    arrays change in place between steps; a tape is not read after the
    update that follows it.
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


class Tape:
    """Ordered operation record; parents always precede children.

    Each node is its tuple of ``(parent id, vjp)`` edges; a leaf's is empty.
    A tape is single-threaded and single-use: build a fresh one per forward
    pass.  ``bind`` memoizes leaves by key so the same parameter wrapped
    twice during one pass resolves to one node (gradient contributions
    accumulate there).
    """

    def __init__(self):
        self._nodes: list[tuple[tuple[int, Callable[[Array], Array]], ...]] = []
        self._bindings: dict[Hashable, tuple[int, Array]] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def leaf(self, data) -> Tensor:
        """Record ``data`` as a differentiable input."""
        node_id = len(self._nodes)
        self._nodes.append(())
        return Tensor(data, self, node_id)

    def bind(self, key: Hashable, data) -> Tensor:
        """Leaf memoized by ``key``; repeated binds return the same node and value."""
        bound = self._bindings.get(key)
        if bound is None:
            t = self.leaf(data)
            self._bindings[key] = (t.node_id, t.data)
            return t
        node_id, value = bound
        return Tensor(value, self, node_id)

    def bound(self) -> list:
        """Every ``bind`` key, in bind order."""
        return list(self._bindings)


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
    # The vjps must capture arrays and shapes only: a captured Tensor would
    # point back at this tape and make it a reference cycle.
    if tape is None:
        return Tensor(out_data)
    edges = tuple((t.node_id, vjp) for t, vjp in parents if t.tape is not None)
    node_id = len(tape._nodes)
    tape._nodes.append(edges)
    return Tensor(out_data, tape, node_id)


class Gradients:
    """Result of :func:`backward`: each leaf's gradient, formed when read.

    A leaf's gradient is the sum of its dense contributions and, if it is
    a ``linear`` weight, of one product ``G^T X`` over its uses' row
    factors, where G stacks each use's output gradient and X its input
    rows. ``parts`` hands out those pieces, ``wrt`` and ``wrt_key`` the
    gradient formed from them afresh; no read changes what the next one
    sees.

    Leaves that the loss never touched read back as zeros. Gradients of
    intermediate nodes are not kept.
    """

    def __init__(self, tape: Tape, grads: dict[int, Array],
                 rows: dict[int, list[tuple[Array, Array]]]):
        self._tape = tape
        self._grads = grads  # leaf -> its dense gradient
        self._rows = rows    # leaf -> the (g, x) row factors of its linear uses

    def wrt(self, t: Tensor) -> Array:
        if t.tape is not self._tape:
            raise ContractError("tensor is not on the tape these gradients came from")
        if self._tape._nodes[t.node_id]:
            raise ContractError(f"node {t.node_id} is not a leaf; backward keeps "
                                "leaf gradients only")
        return form_gradient(*self._parts(t.node_id), like=t.data)

    def wrt_key(self, key: Hashable, like: Array) -> Array:
        """Gradient for a ``Tape.bind`` key; zeros like ``like`` if the key
        was never bound."""
        return form_gradient(*self.parts(key), like=like)

    def parts(self, key: Hashable) -> tuple:
        """``(dense, G, X)`` for a ``Tape.bind`` key, the gradient being
        ``dense + G^T X``; each is None where it is zero.

        G and X are stacked like the leaf: (k, N, out) and (k, N, in) for a
        stacked weight, a shared input broadcast, so ``[k]`` picks copy k's.
        """
        bound = self._tape._bindings.get(key)
        return self._parts(None if bound is None else bound[0])

    def _parts(self, node_id: Optional[int]) -> tuple:
        dense, uses = self._grads.get(node_id), self._rows.get(node_id)
        if not uses:
            return dense, None, None
        uses = [(g, np.broadcast_to(x, g.shape[:-1] + x.shape[-1:])) for g, x in uses]
        return (dense, *(parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-2)
                         for parts in zip(*uses)))


def form_gradient(dense: Optional[Array], g: Optional[Array], x: Optional[Array],
                  like: Optional[Array] = None, out: Optional[Array] = None) -> Array:
    """``dense + g^T x`` over the last two axes, a None term counting as zero.

    Given ``out``, the sum is written into it (C order) and ``out`` is
    returned. Otherwise it is a new array, or ``dense`` itself when there
    is no product, or zeros like ``like`` when both terms are None.
    """
    if g is not None:
        grad = np.matmul(g.swapaxes(-1, -2), x, out=out)
        if dense is not None:
            grad += dense
        return grad
    if out is None:
        return np.zeros_like(like) if dense is None else dense
    np.copyto(out, 0.0 if dense is None else dense)
    return out


def backward(loss: Tensor) -> Gradients:
    """Reverse sweep from a scalar loss.

    Pure function of the tape: calling it twice yields identical gradients.
    A node's second and later contributions are summed into a new array, so
    the sweep writes into no array, a vjp's included. A ``linear`` weight
    that is a leaf gets no product here: its uses' row factors are kept,
    and :class:`Gradients` forms its gradient when it is read. A weight
    that is not a leaf gets its product at once.
    """
    if loss.tape is None:
        raise ContractError("loss is a constant, not on any tape")
    if loss.data.shape != ():
        raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
    tape = loss.tape
    grads: dict[int, Array] = {loss.node_id: np.ones(())}
    rows: dict[int, list[tuple[Array, Array]]] = {}
    for node_id in range(loss.node_id, -1, -1):
        parents = tape._nodes[node_id]
        if not parents:
            continue  # a leaf keeps its gradient
        g = grads.pop(node_id, None)
        if g is None:
            continue
        for parent_id, vjp in parents:
            contribution = vjp(g)
            if isinstance(contribution, tuple):  # a linear weight's (g, x)
                if not tape._nodes[parent_id]:
                    rows.setdefault(parent_id, []).append(contribution)
                    continue
                contribution = form_gradient(None, *contribution)
            seen = grads.get(parent_id)
            grads[parent_id] = contribution if seen is None else seen + contribution
    return Gradients(tape, grads, rows)


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


def _unstack(ndim: int, g: Array) -> Array:
    # Undo broadcasting a shared operand of ndim dims against a stacking axis.
    return g.sum(axis=0) if g.ndim > ndim else g


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")
    a_shape, b_shape = a.shape, b.shape
    return _record(_tape_of(a, b), a.data + b.data, [
        (a, lambda g: _reduce_to(a_shape, g)),
        (b, lambda g: _reduce_to(b_shape, g)),
    ])


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")
    a_shape, b_shape = a.shape, b.shape
    return _record(_tape_of(a, b), a.data - b.data, [
        (a, lambda g: _reduce_to(a_shape, g)),
        (b, lambda g: _reduce_to(b_shape, -g)),
    ])


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")
    a_data, b_data = a.data, b.data
    return _record(_tape_of(a, b), a_data * b_data, [
        (a, lambda g: _reduce_to(a_data.shape, g * b_data)),
        (b, lambda g: _reduce_to(b_data.shape, g * a_data)),
    ])


def relu(t: Tensor) -> Tensor:
    # np.maximum (not a where-mask) so NaN propagates instead of being
    # silently squashed to 0; training aborts on non-finite losses.
    mask = t.data > 0.0
    return _record(_tape_of(t), np.maximum(t.data, 0.0),
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
    a_data, b_data = a.data, b.data
    return _record(_tape_of(a, b), a_data @ b_data, [
        (a, lambda g: g @ b_data.T),
        (b, lambda g: a_data.T @ g),
    ])


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x W^T + b: (n, in), (out, in), (out,) -> (n, out).

    Stacked: (k, out, in) and (k, out) with a shared (n, in) input or a
    stacked (k, n, in) one -> (k, n, out), one product per copy; a shared
    input's vjp sums over the copies. The weight's vjp hands back the row
    factors ``(g, x)``, not ``g^T x``: the weight's gradient is formed when
    it is read (see the module docstring), C-contiguous in W's own layout.
    """
    x_data, w_data, b_data = x.data, w.data, b.data
    xs, ws = x_data.shape, w_data.shape
    if (len(ws) not in (2, 3) or b_data.shape != ws[:-1] or len(xs) < 2
            or xs[:-2] not in ((), ws[:-2]) or xs[-1] != ws[-1]):
        raise DimensionError(f"linear: shapes {xs}, {ws} and {b_data.shape} "
                             "do not align")
    out = np.matmul(x_data, w_data.swapaxes(-1, -2))
    out += b_data[..., None, :]
    return _record(_tape_of(x, w, b), out, [
        (x, lambda g: _unstack(x_data.ndim, g @ w_data)),
        (w, lambda g: (g, x_data)),
        (b, lambda g: g.sum(axis=-2)),
    ])


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Columns of a, then of b; both matrices, or both stacked alike."""
    if a.data.ndim < 2 or a.shape[:-1] != b.shape[:-1]:
        raise DimensionError(f"concat_cols: shapes {a.shape} and {b.shape} do not stack")
    split = a.shape[-1]
    return _record(_tape_of(a, b), np.concatenate([a.data, b.data], axis=-1), [
        (a, lambda g: g[..., :split]),
        (b, lambda g: g[..., split:]),
    ])


def concat_rows(*parts: Tensor) -> Tensor:
    """Stack matrices of one width (each stacked alike), in order; a single
    part comes back as is."""
    if (not parts or any(p.data.ndim < 2 for p in parts)
            or len({p.shape[:-2] + p.shape[-1:] for p in parts}) != 1):
        raise DimensionError(f"concat_rows: shapes {[p.shape for p in parts]} do not stack")
    if len(parts) == 1:
        return parts[0]
    edges, start = [], 0
    for p in parts:
        stop = start + p.shape[-2]
        edges.append((p, lambda g, start=start, stop=stop: g[..., start:stop, :]))
        start = stop
    return _record(_tape_of(*parts), np.concatenate([p.data for p in parts], axis=-2),
                   edges)


def slice_rows(t: Tensor, rows: slice) -> Tensor:
    """Rows ``rows.start:rows.stop`` of a matrix (of each stacked one); the
    slice must lie inside it."""
    start, stop, step = rows.start, rows.stop, rows.step
    if (t.data.ndim < 2 or step not in (None, 1) or not isinstance(start, int)
            or not isinstance(stop, int) or not 0 <= start <= stop <= t.shape[-2]):
        raise DimensionError(f"slice_rows: {rows} does not select rows of shape {t.shape}")
    shape = t.shape

    def vjp(g: Array) -> Array:
        out = np.zeros(shape)
        out[..., start:stop, :] = g
        return out

    return _record(_tape_of(t), t.data[..., start:stop, :], [(t, vjp)])


def _scatter(shape: tuple[int, ...], k: Optional[int], g: Array) -> Array:
    # The gradient of t[k] (of t itself for k None) as one of t's shape.
    if k is None:
        return g
    out = np.zeros(shape)
    out[k] = g
    return out


def index(t: Tensor, k: int) -> Tensor:
    """Copy k of a stacked tensor: ``t[k]`` along the leading axis."""
    if t.data.ndim < 1 or not -t.shape[0] <= k < t.shape[0]:
        raise DimensionError(f"index: {k} does not select a copy of shape {t.shape}")
    shape = t.shape
    return _record(_tape_of(t), t.data[k], [(t, lambda g: _scatter(shape, k, g))])


def combine(parts: list) -> Tensor:
    """The scalar sum of w * t[k] over (t, k, w) parts, w * t for k None,
    added in the parts' order: one node for a weighted sum of scalars read
    off stacked tensors, with each float operation of the chain of
    ``index``, ``mul`` and ``add`` nodes it replaces."""
    total = None
    for t, k, w in parts:
        value = (t.data if k is None else t.data[k]) * w
        if np.ndim(value) != 0:
            raise DimensionError(f"combine: part {k} of shape {t.shape} is not a scalar")
        total = value if total is None else total + value
    return _record(_tape_of(*(t for t, _, _ in parts)), total, [
        (t, lambda g, shape=t.shape, k=k, w=w: _scatter(shape, k, g * w))
        for t, k, w in parts])


# ---------------------------------------------------------------------------
# reductions


def _check_axis(t: Tensor, axis: Optional[int]) -> None:
    if axis is not None and not -t.data.ndim <= axis < t.data.ndim:
        raise DimensionError(f"axis {axis} out of range for shape {t.shape}")


def _expand(shape: tuple[int, ...], g: Array, axis: Optional[int]) -> Array:
    if axis is None:
        return np.broadcast_to(g, shape)
    return np.broadcast_to(np.expand_dims(g, axis), shape)


def sum(t: Tensor, axis: Optional[int] = None) -> Tensor:  # noqa: A001 - op name
    _check_axis(t, axis)
    shape = t.shape
    return _record(_tape_of(t), np.sum(t.data, axis=axis),
                   [(t, lambda g: _expand(shape, g, axis))])


def l1_norm(t: Tensor, axis: Optional[int] = None) -> Tensor:
    _check_axis(t, axis)
    data = t.data
    return _record(_tape_of(t), np.sum(np.abs(data), axis=axis),
                   [(t, lambda g: _expand(data.shape, g, axis) * np.sign(data))])


def l2_norm_sq(t: Tensor, axis: Optional[int] = None) -> Tensor:
    _check_axis(t, axis)
    data = t.data
    return _record(_tape_of(t), np.sum(data * data, axis=axis),
                   [(t, lambda g: _expand(data.shape, g, axis) * 2.0 * data)])


def xlogy_rows(a: Tensor, p: Tensor, row_weights: Array) -> Tensor:
    """sum_i w_i sum_k a_ik log(max(p_ik, LOG_FLOOR)): an NLL for one-hot a, an
    entropy for a = p (``a`` may be ``p``), a KL as a difference of two. Its
    vjps are ``w log p`` and ``w a / p``, zero where the floor is active.

    A stacked (k, n, c) p gives k values; ``a`` is stacked alike or one
    (n, c) matrix shared by the copies."""
    if (p.data.ndim < 2 or a.shape not in (p.shape, p.shape[-2:])
            or np.shape(row_weights) != p.shape[-2:-1]):
        raise DimensionError(f"xlogy_rows: shapes {a.shape}, {p.shape} and "
                             f"{np.shape(row_weights)} do not align")
    a_data, p_data, w = a.data, p.data, np.asarray(row_weights, dtype=np.float64)[:, None]
    clamped = np.maximum(p_data, LOG_FLOOR)
    log_p = np.log(clamped)
    value = np.sum(np.sum(a_data * log_p, axis=-1) * w[:, 0], axis=-1)
    return _record(_tape_of(a, p), value, [
        (a, lambda g: _unstack(a_data.ndim, g[..., None, None] * w * log_p)),
        (p, lambda g: g[..., None, None] * w * a_data / clamped * (p_data > LOG_FLOOR)),
    ])


def softmax_rows(logits: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction stabilization (per stacked copy)."""
    if logits.data.ndim < 2:
        raise DimensionError(f"softmax_rows: expected a matrix, got shape {logits.shape}")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)

    def vjp(g: Array) -> Array:
        inner = (g * probs).sum(axis=-1, keepdims=True)
        return probs * (g - inner)

    return _record(_tape_of(logits), probs, [(logits, vjp)])
