"""Neural building blocks on top of the tape.

Provides named parameters, linear layers, relu MLPs with inverted
dropout, Glorot-uniform initialization, the Adam optimizer, and a
versioned binary checkpoint container.

An MLP may be stacked: each of its parameters then holds the two model
branches' arrays along a leading axis of 2, and one forward runs both
branches (see `tensor.linear`). Its input is one matrix both branches
read or one per branch, its dropout masks both branches', stacked alike
and drawn together.

Dropout contract: masks are data. `draw_dropout_masks` draws one array
per hidden layer whose entries are 0 (dropped) or 1/(1-rate) (kept), and
`mlp_forward` multiplies each hidden activation by the mask it is given,
so running without masks needs no rescaling. Passing the same masks again
replays the exact same stochastic forward; virtual adversarial
perturbations depend on this. Which passes drop, and with which
generator, is the caller's decision (`losses.ForwardPass.dropout`).
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ContractError, DimensionError, SpecError, TrainingError
from .tensor import (
    Tape,
    Tensor,
    form_gradient,
    linear,
    matmul,  # unused here; perfbench/workloads.py patches it for its matmul counters
    mul,
    relu,
)


class Parameter:
    """A named trainable array. Identity (not name) keys tape bindings.

    A stacked parameter holds one array per model branch along its leading
    axis; the array of branch b is named ``branch{b}/`` + ``name``.
    """

    __slots__ = ("name", "value", "stacked")

    def __init__(self, name: str, value: np.ndarray, stacked: bool = False):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.stacked = stacked

    def part_names(self) -> list:
        """The name of each array the parameter holds, in order."""
        if not self.stacked:
            return [self.name]
        return [f"branch{b}/{self.name}" for b in range(1, len(self.value) + 1)]

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


@dataclass(frozen=True)
class MlpSpec:
    input_dim: int
    hidden_dims: tuple
    output_dim: int
    dropout_rate: float = 0.4

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        for d in dims:
            if int(d) <= 0:
                raise SpecError(f"mlp dims must be positive, got {dims}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise SpecError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")


class LinearLayer:
    """Affine map x -> x W^T + b with weight stored as (out, in)."""

    __slots__ = ("weight", "bias")

    def __init__(self, weight: Parameter, bias: Parameter):
        self.weight = weight
        self.bias = bias

    def apply(self, tape: Tape, x: Tensor) -> Tensor:
        w = tape.bind(self.weight, self.weight.value)
        b = tape.bind(self.bias, self.bias.value)
        return linear(x, w, b)


class Mlp:
    """Stack of linear layers; relu + dropout after every hidden layer."""

    def __init__(self, spec: MlpSpec, layers: Sequence[LinearLayer]):
        self.spec = spec
        self.layers = list(layers)

    def params(self) -> list:
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out


def glorot_uniform(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill a (fan_out, fan_in) array in place with the numbers
    ``rng.uniform(-bound, bound, out.shape)`` would draw."""
    bound = math.sqrt(6.0 / sum(out.shape))
    # uniform computes low + (high - low) * u from the same doubles u.
    rng.random(out=out)
    out *= bound - -bound
    out += -bound
    return out


def mlp_params(spec: MlpSpec, name: str, weight, bias, stacked: bool = False) -> Mlp:
    """The MLP's parameters, each layer's made by the two given makers.

    Layer k has "{name}/layer{k}/weight" = ``weight(fan_out, fan_in)`` and
    then "{name}/layer{k}/bias" = ``bias(fan_out)``; with ``stacked`` the
    makers return both branches' arrays, stacked.
    """
    dims = [int(d) for d in (spec.input_dim, *spec.hidden_dims, spec.output_dim)]
    return Mlp(spec, [
        LinearLayer(Parameter(f"{name}/layer{k}/weight", weight(fan_out, fan_in), stacked),
                    Parameter(f"{name}/layer{k}/bias", bias(fan_out), stacked))
        for k, (fan_in, fan_out) in enumerate(zip(dims, dims[1:]))
    ])


def init_params(spec: MlpSpec, rng, name: str = "mlp") -> Mlp:
    """Glorot-uniform weights, zero biases; deterministic given the rng state.

    Given a sequence of generators, one per branch, the MLP is stacked, and
    branch b's arrays hold what ``init_params(spec, rng[b - 1])`` would draw.
    """
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    stack = () if single else (len(rngs),)

    def weight(fan_out, fan_in):
        w = np.empty(stack + (fan_out, fan_in))
        for r, part in zip(rngs, w.reshape(-1, fan_out, fan_in)):
            glorot_uniform(r, part)
        return w

    return mlp_params(spec, name, weight, lambda fan_out: np.zeros(stack + (fan_out,)),
                      stacked=not single)


def draw_dropout_masks(mlp: Mlp, n: int, rng: np.random.Generator) -> Optional[list]:
    """One inverted-dropout mask per hidden layer for a batch of n rows.

    A stacked MLP's masks are (2, n, width), both branches' in one draw per
    layer; an unstacked one's are (n, width). Returns None at rate 0 and
    then draws nothing from rng.
    """
    rate = mlp.spec.dropout_rate
    if rate == 0.0:
        return None
    stack = mlp.layers[0].weight.value.shape[:-2]
    return [(rng.random(stack + (n, int(width))) >= rate).astype(np.float64) / (1.0 - rate)
            for width in mlp.spec.hidden_dims]


def mlp_forward(tape: Tape, mlp: Mlp, x: Tensor, masks: Optional[list] = None) -> Tensor:
    """Run the MLP, multiplying hidden activation k by masks[k].

    Without masks the forward has no dropout (eval mode, or rate 0).
    """
    if x.data.ndim < 2 or x.shape[-1] != mlp.spec.input_dim:
        raise DimensionError(
            f"mlp expects input width {mlp.spec.input_dim}, got shape {x.shape}"
        )
    if masks is not None and len(masks) != len(mlp.spec.hidden_dims):
        raise ContractError(
            f"expected {len(mlp.spec.hidden_dims)} dropout masks, got {len(masks)}"
        )

    h = x
    for k, layer in enumerate(mlp.layers[:-1]):
        h = relu(layer.apply(tape, h))
        if masks is not None:
            mask = np.asarray(masks[k], dtype=np.float64)
            if mask.shape != h.shape:
                raise DimensionError(
                    f"dropout mask {k} has shape {mask.shape}, activations {h.shape}"
                )
            h = mul(h, Tensor(mask))
    return mlp.layers[-1].apply(tape, h)


# Elements per block of Adam's update: a block of each array it touches
# stays in a 2 MB L2 for the whole update (timings in README's Optimizer).
ADAM_CHUNK = 16384

# Elements per gradient panel of a parameter above ADAM_CHUNK: large enough
# for an efficient product, small enough to stay in cache (README's Optimizer).
ADAM_PANEL = 1 << 18

# Kingma & Ba's defaults; no caller uses others.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def _panel(shape: tuple) -> tuple:
    """(rows, elements) of one gradient panel of an array of this shape, a
    matrix or a vector: ``ADAM_PANEL`` elements' worth of rows, at least one."""
    row = math.prod(shape[1:])
    rows = min(shape[0], max(1, ADAM_PANEL // row))
    return rows, rows * row


class Adam:
    """Adam with bias correction over a fixed parameter group.

    The update is Kingma & Ba's efficient form (Section 2 of their paper):
    the bias corrections fold into a step size and an epsilon,
    lr_t = lr*sqrt(1-b2^t)/(1-b1^t) and eps_t = eps*sqrt(1-b2^t), and the
    parameter moves by lr_t*m/(sqrt(v) + eps_t). In exact arithmetic that
    equals lr*m_hat/(sqrt(v_hat) + eps); in floating point it differs in
    the last bits.

    The optimizer owns the in-place update: each step writes into every
    parameter's own array, so ``p.value`` stays the same object. A reader
    that keeps a parameter array across a step must copy it.

    Construction builds one plan, a list of runs. A run is a flat view of
    parameter values, its offset in the flat moments ``_m`` and ``_v``,
    and the gradients to form into the buffer ``_grad`` before its
    update, which runs ``ADAM_CHUNK`` elements at a time, each block in
    cache for the whole sequence of float operations. Parameters of at
    most ``ADAM_CHUNK`` elements are packed: construction copies them, in
    order, into one contiguous array and re-points each ``p.value`` at
    its view of it, once, and one run updates them all. Each larger
    parameter keeps its own array and has one run per band of
    ``ADAM_PANEL`` elements' worth of whole rows, a stacked one's one
    branch at a time, whose gradient is formed from those rows of the
    pieces ``Gradients.parts`` hands out (see ``tensor.form_gradient``).
    The moments hold the parameters in the same order, the packed ones
    first. So beside its moments the optimizer holds the packed array and
    one buffer as large as it or as the largest panel, never a whole
    larger parameter's gradient.
    """

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-4):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        small = [p for p in self.params if p.value.size <= ADAM_CHUNK]
        large = [p for p in self.params if p.value.size > ADAM_CHUNK]
        self._packed = np.empty(sum(p.value.size for p in small))
        # np.empty maps no page; the first gradient formed into it does.
        self._grad = np.empty(max([self._packed.size] + [
            _panel(p.value.shape[int(p.stacked):])[1] for p in large]))
        self._scratch = np.empty(ADAM_CHUNK)
        # Each parameter's offset in the moments and the array the plan
        # updates; (offset, name) of each array a parameter holds, in order.
        self._where, self._names, size, fills = {}, [], 0, []
        for p in small + large:
            if p.value.size <= ADAM_CHUNK:
                view, grad = (a[size:size + p.value.size].reshape(p.value.shape)
                              for a in (self._packed, self._grad))
                np.copyto(view, p.value)
                p.value = view
                fills.append((p, None, ..., grad))
            self._where[p] = (size, p.value)
            names = p.part_names()
            self._names += [(size + k * p.value.size // len(names), name)
                            for k, name in enumerate(names)]
            size += p.value.size
        self._m, self._v = np.zeros(size), np.zeros(size)
        # Runs: (flat values, offset in the moments, fills); a fill is
        # (parameter, branch or None, rows, its gradient's view of _grad).
        self._plan = [(self._packed, 0, fills)]
        for p in large:
            lo, value = self._where[p]
            for branch in range(len(value)) if p.stacked else [None]:
                part = value if branch is None else value[branch]
                height = _panel(part.shape)[0]
                for top in range(0, len(part), height):
                    band = part[top:top + height]
                    self._plan.append((band.reshape(-1), lo, [
                        (p, branch, slice(top, top + height),
                         self._grad[:band.size].reshape(band.shape))]))
                    lo += band.size

    def moments(self, p: Parameter) -> tuple:
        """(m, v) of one parameter of the group, as views of the live state."""
        if p not in self._where:
            raise ContractError(f"parameter {p.name} is not in this optimizer's group")
        lo, value = self._where[p]
        return tuple(a[lo:lo + value.size].reshape(value.shape) for a in (self._m, self._v))

    def step(self, grads) -> None:
        """Apply one update from a Gradients object keyed by Parameter identity.

        Raises ContractError before anything moves if a parameter's
        ``p.value`` is not the array this optimizer updates (say, it was
        replaced, or a second optimizer packed it) or is not a
        C-contiguous, writeable array. A non-finite gradient block raises
        TrainingError, naming the parameter (a stacked one's branch array)
        of its first bad element, before that block is written; the
        earlier blocks have moved by then, and the error ends the run.
        """
        for p, (_, value) in self._where.items():
            if not (p.value is value and value.flags.c_contiguous and value.flags.writeable):
                raise ContractError(f"parameter {p.name} is not the C-contiguous, writeable "
                                    "array this optimizer updates in place")
        self.t += 1
        root_b2t = math.sqrt(1.0 - BETA2 ** self.t)
        lr_t = self.lr * root_b2t / (1.0 - BETA1 ** self.t)
        eps_t = EPS * root_b2t
        read = None
        for value, lo, fills in self._plan:
            for p, branch, rows, grad in fills:
                if p is not read:  # a parameter's runs are consecutive
                    read, pieces = p, grads.parts(p)
                dense, g, x = (a if branch is None or a is None else a[branch]
                               for a in pieces)
                form_gradient(None if dense is None else dense[rows],
                              None if g is None else g[:, rows], x, out=grad)
            self._blocks(value, lo, lr_t, eps_t)

    def _blocks(self, value, lo, lr_t, eps_t) -> None:
        """One run's update, block by block: ``value`` against its gradient
        in ``_grad`` and the moments from offset ``lo``."""
        g, m, v = self._grad[:value.size], self._m[lo:], self._v[lo:]
        for i in range(0, value.size, ADAM_CHUNK):
            block = g[i:i + ADAM_CHUNK]
            # min and max propagate NaN and +-inf, and allocate nothing.
            if not (np.isfinite(block.min()) and np.isfinite(block.max())):
                bad = lo + i + int(np.flatnonzero(~np.isfinite(block))[0])
                name = [name for start, name in self._names if start <= bad][-1]
                raise TrainingError(f"non-finite gradient for parameter {name}")
            self._update(block, *(a[i:i + block.size] for a in (m, v, value)),
                         self._scratch[:block.size], lr_t, eps_t)

    @staticmethod
    def _update(g, m, v, value, scratch, lr_t, eps_t) -> None:
        # g is the optimizer's own buffer, so it serves as the second scratch.
        np.multiply(g, 1.0 - BETA2, out=scratch)
        scratch *= g
        v *= BETA2
        v += scratch
        g *= 1.0 - BETA1
        m *= BETA1
        m += g
        np.sqrt(v, out=scratch)
        scratch += eps_t
        np.multiply(m, lr_t, out=g)
        g /= scratch
        value -= g


# ---------------------------------------------------------------------------
# Checkpoint container.
#
# Layout (all integers little-endian):
#   magic   8 bytes  b"CRALCKPT"
#   version uint32   currently 1
#   mlen    uint32   length of the UTF-8 JSON metadata blob
#   meta    mlen bytes
#   count   uint32   number of records
#   record: nlen uint32, name (UTF-8, nlen bytes), ndim uint32,
#           dims uint32[ndim], data float64[prod(dims)] row-major
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"CRALCKPT"
CHECKPOINT_VERSION = 1


@contextmanager
def replacing(path, mode: str = "wb"):
    """A file opened for writing whose contents replace ``path`` as one step.

    It is a temporary file in ``path``'s directory, renamed over ``path``
    with ``os.replace`` when the block ends. If the block raises, the
    temporary file is removed and ``path`` keeps its previous contents, so
    a crash never leaves a truncated artifact.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def save_checkpoint(path, arrays: dict, meta: Optional[dict] = None) -> None:
    """Write a name -> float64 array mapping with a JSON metadata header."""
    meta_blob = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    with replacing(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(meta_blob)))
        fh.write(meta_blob)
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            # np.ascontiguousarray would promote 0-d arrays to 1-d.
            arr = np.asarray(arrays[name], dtype=np.float64, order="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple:
    """Read back (meta, arrays). A malformed file raises a ContractError naming it."""

    def bad(reason):
        return ContractError(f"{path}: {reason}")

    def take(fh, n, what):
        # n comes from the file: compare it with the bytes left before reading.
        buf = fh.read(n) if n <= end - fh.tell() else b""
        if len(buf) != n:
            raise bad(f"checkpoint truncated while reading {what}")
        return buf

    def text(fh, n, what):
        try:
            return take(fh, n, what).decode("utf-8")
        except UnicodeDecodeError:
            raise bad(f"checkpoint {what} is not UTF-8") from None

    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        if take(fh, len(CHECKPOINT_MAGIC), "magic") != CHECKPOINT_MAGIC:
            raise bad("not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", take(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise bad(f"unsupported checkpoint version {version}")
        (mlen,) = struct.unpack("<I", take(fh, 4, "meta length"))
        try:
            meta = json.loads(text(fh, mlen, "metadata"))
        except json.JSONDecodeError as exc:
            raise bad(f"checkpoint metadata is not JSON ({exc})") from None
        if not isinstance(meta, dict):
            raise bad("checkpoint metadata is not a JSON object")
        (count,) = struct.unpack("<I", take(fh, 4, "record count"))
        arrays = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<I", take(fh, 4, "name length"))
            name = text(fh, nlen, "name")
            if name in arrays:
                raise bad(f"checkpoint has two records named {name!r}")
            (ndim,) = struct.unpack("<I", take(fh, 4, "ndim"))
            dims = struct.unpack(f"<{ndim}I", take(fh, 4 * ndim, "dims")) if ndim else ()
            data = np.frombuffer(take(fh, 8 * math.prod(dims), f"data for {name}"),
                                 dtype="<f8")
            arrays[name] = data.reshape(dims).astype(np.float64)
        if fh.read(1):
            raise bad("checkpoint has bytes after its last record")
        return meta, arrays
