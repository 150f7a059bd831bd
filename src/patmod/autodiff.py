"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

A ``Tape`` is an append-only list of operation nodes built during one forward
pass.  Appending at execution time guarantees topological order, so a single
reverse sweep in ``backward`` visits every node after all of its consumers.
Tensors without a ``node_id`` are constants; gradients flow only into tensors
that were produced on the tape or explicitly watched as parameters.

Tapes are single-use: ``backward`` freezes the tape and drops its nodes, so
the backward rules and the activations they close over are freed as soon as
the sweep ends, even while tensors of the forward pass are still held.  A
second ``backward`` on the same tape raises ContractError.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, DomainError

Array = np.ndarray


def _as_array(values) -> Array:
    arr = np.asarray(values, dtype=np.float64)
    return arr


class DTensor:
    """A dense n-dimensional float64 value, optionally attached to a tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape: "Tape | None" = None, node_id: int | None = None):
        self.data = _as_array(data)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f", node={self.node_id}" if self.node_id is not None else ""
        return f"DTensor(shape={self.shape}{tag})"


def constant(values) -> DTensor:
    """Wrap values as a tape-less DTensor."""
    return DTensor(values)


def _coerce(t) -> DTensor:
    return t if isinstance(t, DTensor) else DTensor(t)


class Node:
    """One recorded operation: kind tag, producing inputs, backward rule."""

    __slots__ = ("kind", "inputs", "backward")

    def __init__(self, kind: str, inputs: tuple, backward: Callable | None):
        self.kind = kind
        self.inputs = inputs  # node ids (or None for constant slots)
        self.backward = backward  # grad_out -> list of grads aligned with inputs; None for a watched leaf


class Parameter:
    """A named, persistent tensor updated by the optimizer."""

    __slots__ = ("name", "tensor")

    def __init__(self, name: str, values):
        self.name = name
        self.tensor = _coerce(values)

    @property
    def data(self) -> Array:
        return self.tensor.data

    @data.setter
    def data(self, values: Array) -> None:
        self.tensor.data = _as_array(values)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class Tape:
    """Append-only gradient tape for one forward pass; ``backward`` sweeps it
    once, then freezes it and empties ``nodes``."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.frozen = False
        self._param_nodes: dict[int, Parameter] = {}

    def _record(self, kind: str, data: Array, input_ids: tuple, backward) -> DTensor:
        if self.frozen:
            raise ContractError("cannot record on a frozen tape")
        self.nodes.append(Node(kind, input_ids, backward))
        return DTensor(data, tape=self, node_id=len(self.nodes) - 1)

    def watch(self, param: Parameter) -> DTensor:
        """Register a parameter as a leaf and return its on-tape tensor."""
        t = self._record("leaf", param.tensor.data, (), None)
        self._param_nodes[t.node_id] = param
        return t


def _tape_of(tensors: Iterable[DTensor]) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ContractError("operands live on different tapes")
    return tape


def _node_ids(tensors: Sequence[DTensor], tape: Tape | None) -> tuple:
    return tuple(t.node_id if t.tape is tape and tape is not None else None for t in tensors)


def _emit(kind: str, data: Array, inputs: Sequence[DTensor], backward) -> DTensor:
    tape = _tape_of(inputs)
    if tape is None:
        return DTensor(data)
    return tape._record(kind, data, _node_ids(inputs, tape), backward)


# ---------------------------------------------------------------------------
# elementwise ops


def _check_same_shape(a: DTensor, b: DTensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def add(a, b) -> DTensor:
    a, b = _coerce(a), _coerce(b)
    _check_same_shape(a, b, "add")
    out = a.data + b.data

    def backward(g):
        return [g, g]

    return _emit("add", out, (a, b), backward)


def sub(a, b) -> DTensor:
    a, b = _coerce(a), _coerce(b)
    _check_same_shape(a, b, "sub")
    out = a.data - b.data

    def backward(g):
        return [g, -g]

    return _emit("sub", out, (a, b), backward)


def scale(a, c: float) -> DTensor:
    a = _coerce(a)
    c = float(c)
    out = a.data * c

    def backward(g):
        return [g * c]

    return _emit("scale", out, (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra with fused activations

# tanh outputs stay strictly inside (-1, 1): float64 tanh saturates to 1.0 above ~19
_TANH_LIM = np.nextafter(1.0, 0.0)


def _apply_activation(out: Array, activation: str | None) -> None:
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    elif activation == "tanh":
        np.tanh(out, out=out)
        np.clip(out, -_TANH_LIM, _TANH_LIM, out=out)
    elif activation is not None:
        raise ContractError(f"unknown activation {activation!r}")


def _activation_grad(g: Array, out: Array, activation: str | None) -> Array:
    if activation == "relu":
        return g * (out > 0.0)
    if activation == "tanh":
        return g * (1.0 - out * out)
    return g


def linear(x, w, b, activation: str | None = None) -> DTensor:
    """Fully connected layer x @ w + b with an optionally fused activation.

    ``b`` is a 1 x n row (a plain bias, or bias plus a feature projection).
    One tape node; the bias add and activation run in place on the fresh
    matmul output, which matters on memory-bound hosts.
    """
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise DimensionError(f"linear: incompatible shapes {x.shape} x {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise DimensionError(f"linear: bias must be 1x{w.shape[1]}, got {b.shape}")
    xd, wd = x.data, w.data
    out = xd @ wd
    out += b.data[0]
    _apply_activation(out, activation)

    def backward(g):
        g = _activation_grad(g, out, activation)
        return [g @ wd.T, xd.T @ g, g.sum(axis=0, keepdims=True)]

    return _emit("linear", out, (x, w, b), backward)


def _blocks(block_index, rows: DTensor, n_blocks: int, op: str) -> tuple[Array, Array]:
    """Check a block index over the rows of a matrix: nondecreasing within
    [0, n_blocks), so each block is one run of rows, possibly empty.  Returns
    it as intp with the first row of every present block."""
    idx = np.asarray(block_index, dtype=np.intp)
    if rows.data.ndim != 2 or idx.shape != rows.shape[:1]:
        raise DimensionError(f"{op}: block_index of shape {idx.shape} over an input of shape {rows.shape}")
    if idx.size and (idx[0] < 0 or idx[-1] >= n_blocks or np.any(idx[1:] < idx[:-1])):
        raise DomainError(f"{op}: block_index must be nondecreasing within [0, {n_blocks})")
    return idx, np.flatnonzero(np.diff(idx, prepend=-1))


def linear_blockfeat(x, feats, w_x, w_f, b, block_index, activation: str | None = None) -> DTensor:
    """Fully connected layer over [x | feature] where row r takes the feature
    row ``feats[block_index[r]]`` (a block index as ``_blocks`` checks it).

    Computes x @ w_x + feats @ w_f + b without materializing the wide
    concatenated input: each block's feature row is added to its run of rows
    in place, and backward sums the gradient over each run.
    """
    x, feats, w_x, w_f, b = (_coerce(t) for t in (x, feats, w_x, w_f, b))
    n_out = w_x.shape[1]
    n_blocks = feats.shape[0]
    idx, starts = _blocks(block_index, x, n_blocks, "linear_blockfeat")
    if x.shape[1] != w_x.shape[0] or feats.shape[1] != w_f.shape[0] or w_f.shape[1] != n_out:
        raise DimensionError(
            f"linear_blockfeat: incompatible shapes x{x.shape} wx{w_x.shape} "
            f"f{feats.shape} wf{w_f.shape}"
        )
    if b.shape != (1, n_out):
        raise DimensionError(f"linear_blockfeat: bias must be 1x{n_out}, got {b.shape}")
    runs = list(zip(idx[starts], starts, np.r_[starts[1:], idx.size]))
    xd, fd = x.data, feats.data
    rows = fd @ w_f.data
    rows += b.data[0]
    out = xd @ w_x.data
    for k, lo, hi in runs:
        out[lo:hi] += rows[k]
    _apply_activation(out, activation)
    wxd, wfd = w_x.data, w_f.data

    def backward(g):
        g = _activation_grad(g, out, activation)
        rows_g = np.zeros((n_blocks, n_out))
        for k, lo, hi in runs:
            np.sum(g[lo:hi], axis=0, out=rows_g[k])
        return [
            g @ wxd.T,
            rows_g @ wfd.T,
            xd.T @ g,
            fd.T @ rows_g,
            rows_g.sum(axis=0, keepdims=True),
        ]

    return _emit("linear_blockfeat", out, (x, feats, w_x, w_f, b), backward)


def conv2d(x, kernel, bias, stride: int = 1, pad: int = 0) -> DTensor:
    """ReLU of the direct cross-correlation of a BxCxHxW stack with an
    OxCxkxk kernel plus an Ox1 bias -> BxOxH'xW'; H' = (H + 2*pad - k)//stride + 1.

    Accumulates over kernel taps (no im2col), one (O x C) @ (C x B*H'*W')
    product each, channel-major inside: the output is a view the next conv2d
    reads without a copy.  One tape node; bias and ReLU run in place.
    """
    x, kernel, bias = _coerce(x), _coerce(kernel), _coerce(bias)
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise DimensionError(f"conv2d: expects BxCxHxW and OxCxkxk, got {x.shape}, {kernel.shape}")
    if stride < 1:
        raise DomainError(f"conv2d: stride must be >= 1, got {stride}")
    n, c_in, h, w = x.shape
    c_out, c_k, kh, kw = kernel.shape
    if c_k != c_in:
        raise DimensionError(f"conv2d: channel mismatch, input {x.shape} vs kernel {kernel.shape}")
    if bias.shape != (c_out, 1):
        raise DimensionError(f"conv2d: bias must be {c_out}x1, got {bias.shape}")
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise DimensionError(
            f"conv2d: kernel {kernel.shape} larger than padded input {(c_in, h + 2 * pad, w + 2 * pad)}"
        )
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (w + 2 * pad - kw) // stride + 1

    def window(a: Array, ky: int, kx: int) -> Array:  # the CxBxH'xW' positions tap (ky, kx) reads
        return a[:, :, ky : ky + stride * h_out : stride, kx : kx + stride * w_out : stride]

    xp = np.pad(x.data.transpose(1, 0, 2, 3), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    kd = kernel.data
    out = np.zeros((c_out, n, h_out, w_out))
    for ky in range(kh):
        for kx in range(kw):
            out += (kd[:, :, ky, kx] @ window(xp, ky, kx).reshape(c_in, -1)).reshape(out.shape)
    out += bias.data[:, :, None, None]
    _apply_activation(out, "relu")

    def backward(g):
        gm = _activation_grad(g.transpose(1, 0, 2, 3), out, "relu").reshape(c_out, -1)
        dk = np.zeros_like(kd)
        dxp = np.zeros_like(xp)
        for ky in range(kh):
            for kx in range(kw):
                dk[:, :, ky, kx] = gm @ window(xp, ky, kx).reshape(c_in, -1).T
                window(dxp, ky, kx)[...] += (kd[:, :, ky, kx].T @ gm).reshape(c_in, n, h_out, w_out)
        dx = dxp[:, :, pad : pad + h, pad : pad + w]
        return [dx.transpose(1, 0, 2, 3), dk, gm.sum(axis=1, keepdims=True)]

    return _emit("conv2d", out.transpose(1, 0, 2, 3), (x, kernel, bias), backward)


# ---------------------------------------------------------------------------
# shape ops


def concat(tensors: Sequence) -> DTensor:
    """Stack tensors by rows; backward hands each input its row slice."""
    tensors = [_coerce(t) for t in tensors]
    if not tensors:
        raise DomainError("concat: empty tensor list")
    base = tensors[0].shape
    for t in tensors[1:]:
        if t.shape[1:] != base[1:]:
            raise DimensionError(f"concat: shape {t.shape} incompatible with {base} for stacking rows")
    out = np.concatenate([t.data for t in tensors])
    offsets = np.cumsum([0] + [t.shape[0] for t in tensors])

    def backward(g):
        return [g[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]

    return _emit("concat", out, tensors, backward)


def reshape(a, shape) -> DTensor:
    a = _coerce(a)
    old = a.shape
    out = a.data.reshape(shape)

    def backward(g):
        return [g.reshape(old)]

    return _emit("reshape", out, (a,), backward)


def gather_rows(a, indices) -> DTensor:
    """Select rows of a 2-D tensor; backward scatter-adds into the source."""
    a = _coerce(a)
    if a.data.ndim != 2:
        raise DimensionError(f"gather_rows: expects a matrix, got {a.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    out = a.data[idx]

    def backward(g):
        da = np.zeros_like(a.data)
        np.add.at(da, idx, g)
        return [da]

    return _emit("gather_rows", out, (a,), backward)


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(a) -> DTensor:
    """Sum of every entry -> scalar."""
    a = _coerce(a)
    if a.data.size == 0:
        raise DomainError("reduce_sum: empty reduction")
    out = a.data.sum()
    shape = a.shape

    def backward(g):
        return [np.full(shape, g)]

    return _emit("sum", out, (a,), backward)


def mean_over_blocks(a, block_index, n_blocks: int) -> DTensor:
    """Per-block column mean of a matrix -> (n_blocks, d); an empty block
    reads zero.  Each block sums its rows in row order, as numpy's mean over
    that block alone does, so the two agree bit for bit; the gradient spreads
    evenly over the block's rows."""
    a = _coerce(a)
    idx, _ = _blocks(block_index, a, n_blocks, "mean_over_blocks")
    sums = np.zeros((n_blocks, a.shape[1]))
    np.add.at(sums, idx, a.data)
    counts = np.maximum(np.bincount(idx, minlength=n_blocks), 1)[:, None]
    out = sums / counts

    def backward(g):
        return [(g / counts)[idx]]

    return _emit("mean_over_blocks", out, (a,), backward)


def max_over_blocks(a, block_index, n_blocks: int) -> DTensor:
    """Per-block column maximum of a matrix -> (n_blocks, d); an empty block
    reads zero.  Each column's gradient routes to the block's first maximal
    row, the row np.argmax picks."""
    a = _coerce(a)
    idx, starts = _blocks(block_index, a, n_blocks, "max_over_blocks")
    n, d = a.shape
    present = idx[starts]
    out = np.zeros((n_blocks, d))
    out[present] = np.maximum.reduceat(a.data, starts, axis=0)
    first = np.minimum.reduceat(np.where(a.data == out[idx], np.arange(n)[:, None], n), starts, axis=0)
    cols = np.arange(d)

    def backward(g):
        da = np.zeros((n, d))
        da[first, cols] = g[present]
        return [da]

    return _emit("max_over_blocks", out, (a,), backward)


def row_norm(a) -> DTensor:
    """Euclidean norm of each row of an nxd matrix -> (n,).

    Zero rows get zero gradient (subgradient choice at the non-smooth point).
    """
    a = _coerce(a)
    if a.data.ndim != 2:
        raise DimensionError(f"row_norm: expects a matrix, got {a.shape}")
    out = np.sqrt((a.data * a.data).sum(axis=1))
    ad = a.data

    def backward(g):
        safe = np.where(out > 0.0, out, 1.0)
        return [(g / safe * (out > 0.0))[:, None] * ad]

    return _emit("row_norm", out, (a,), backward)


# ---------------------------------------------------------------------------
# backward sweep


def backward(loss: DTensor) -> dict[str, DTensor]:
    """Reverse sweep from a scalar loss; returns gradients for watched parameters.

    Freezes the tape, empties ``tape.nodes`` and returns {name: gradient};
    parameters with no path to the loss get zeros.  A tape that has already
    been swept raises ContractError.  Parameters themselves are never
    written.
    """
    if loss.tape is None or loss.node_id is None:
        raise ContractError("loss is not on a tape")
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    tape = loss.tape
    if tape.frozen:
        raise ContractError("backward already ran on this tape")
    grads: dict[int, Array] = {loss.node_id: np.ones_like(loss.data)}
    collected: dict[int, Array] = {}
    for nid in range(loss.node_id, -1, -1):
        g = grads.pop(nid, None)
        if g is None:
            continue
        node = tape.nodes[nid]
        if nid in tape._param_nodes:
            collected[nid] = g if nid not in collected else collected[nid] + g
            continue
        for input_id, gin in zip(node.inputs, node.backward(g)):
            if input_id is None:
                continue
            if input_id in grads:
                grads[input_id] = grads[input_id] + gin
            else:
                grads[input_id] = gin
    tape.frozen = True
    tape.nodes = []  # Node closures hold activations and point back at the tape
    result = {}
    for nid, param in tape._param_nodes.items():
        g = collected.get(nid)
        if g is None:
            g = np.zeros_like(param.data)
        result[param.name] = DTensor(g)
    return result


# ---------------------------------------------------------------------------
# finite-difference oracle


def grad_check(f: Callable, x, eps: float = 1e-6, floor: float = 1e-2) -> float:
    """Worst relative deviation between tape gradients and central differences.

    ``f`` maps a DTensor to a tensor; non-scalar outputs are summed before
    differentiation.  Each coordinate of ``x`` is perturbed by +-eps.  The
    relative error uses max(|fd|, |g|, floor) as denominator so near-zero
    gradients are compared with an absolute floor.  NaN anywhere reports inf.
    """
    x = np.asarray(x, dtype=np.float64)

    def f_scalar(values: Array) -> float:
        out = f(DTensor(values))
        if isinstance(out, tuple):
            out = out[0]
        return float(out.data.sum())

    tape = Tape()
    p = Parameter("x", x.copy())
    out = f(tape.watch(p))
    if isinstance(out, tuple):
        out = out[0]
    if out.data.size != 1:
        out = reduce_sum(out)
    if not np.isfinite(out.data).all():
        return float("inf")
    analytic = backward(out)["x"].data

    worst = 0.0
    flat = x.copy().reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f_scalar(flat.reshape(x.shape))
        flat[i] = orig - eps
        f_minus = f_scalar(flat.reshape(x.shape))
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            return float("inf")
        fd = (f_plus - f_minus) / (2.0 * eps)
        g = analytic.reshape(-1)[i]
        rel = abs(fd - g) / max(abs(fd), abs(g), floor)
        worst = max(worst, rel)
    return worst
