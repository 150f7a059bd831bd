"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

A ``Tape`` is an append-only list of operation nodes built during one forward
pass.  Appending at execution time guarantees topological order, so a single
reverse sweep in ``backward`` visits every node after all of its consumers.
Tensors without a ``node_id`` are constants; gradients flow only into tensors
that were produced on the tape or explicitly watched as parameters.

Tapes are single-use: ``backward`` freezes the tape, then drops each node as
the sweep passes it, so a backward rule and the activations only it closes
over are freed before the next rule runs, even while tensors of the forward
pass are still held.  A second ``backward`` on the same tape raises
ContractError.

Backward rules own their incoming gradient: no element of the array the
sweep hands a rule belongs to any other live array, so the rule may overwrite
it (the fused activations apply their derivative in place).  In return, no
two arrays a rule returns share memory, and none of them aliases forward
data; a rule may hand on its incoming gradient, or disjoint slices of it.

A node keeps what its rule reads, with one exception that trades time for
memory: ``linear_blockfeat`` fuses two ReLU layers and keeps only its narrow
inputs and its output, so its rule recomputes the wide hidden layer between
them and drops it again before it returns.  Every weight gradient is one
``_sum_outer`` call; input gradients and bias sums stay in their rules.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, DomainError

Array = np.ndarray


class DTensor:
    """A dense n-dimensional float64 value, optionally attached to a tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape: "Tape | None" = None, node_id: int | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

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


class Parameter(DTensor):
    """A named, persistent tensor updated by the optimizer: off the tape it
    is its own (constant) operand, and ``Tape.watch`` records it as a leaf."""

    __slots__ = ("name",)

    def __init__(self, name: str, values):
        super().__init__(values)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


class Tape:
    """Append-only gradient tape for one forward pass; ``backward`` freezes
    it and empties ``nodes`` as it sweeps them once."""

    def __init__(self):
        self.nodes: list[Node | None] = []  # backward sets each swept node to None
        self.frozen = False
        self._param_nodes: dict[int, Parameter] = {}

    def _record(self, kind: str, data: Array, input_ids: tuple, backward) -> DTensor:
        if self.frozen:
            raise ContractError("cannot record on a frozen tape")
        self.nodes.append(Node(kind, input_ids, backward))
        return DTensor(data, tape=self, node_id=len(self.nodes) - 1)

    def watch(self, param: Parameter) -> DTensor:
        """Register a parameter as a leaf; returns its on-tape tensor, which shares ``param.data``."""
        t = self._record("leaf", param.data, (), None)
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
        return [g, g.copy()]  # each input owns its gradient

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
    """The gradient through the activation, written into ``g`` (which the
    calling rule owns) and returned."""
    if activation == "relu":
        np.multiply(g, out > 0.0, out=g)
    elif activation == "tanh":
        np.multiply(g, 1.0 - out * out, out=g)
    return g


def _sum_outer(a: Array, b: Array) -> Array:
    """``a.T @ b``: the sum over the K rows of the outer products a[k] (x) b[k].
    Every weight gradient sums its rows here, and nowhere else."""
    return a.T @ b


def linear(x, w, b, activation: str | None = None) -> DTensor:
    """Fully connected layer x @ w + b with an optionally fused activation.

    ``b`` is a 1 x n bias row; a per-block feature projection is
    ``linear_blockfeat``'s job.
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
        return [g @ wd.T, _sum_outer(xd, g), g.sum(axis=0, keepdims=True)]

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


def linear_blockfeat(x, feats, w_x, w_f, b, block_index, w2, b2) -> DTensor:
    """Two ReLU layers over [x | feature], where row r takes the feature row
    ``feats[block_index[r]]`` (a block index as ``_blocks`` checks it):
    relu(h @ w2 + b2) with h = relu(x @ w_x + feats @ w_f + b).

    The wide concatenated input is never built: each block's feature row is
    added to its run of rows in place, and backward sums the gradient over
    each run.  One tape node, which keeps its narrow inputs and its output
    but not the hidden layer h: backward recomputes h with the same calls on
    the same operands, so every gradient has the bytes of the two-layer chain.
    """
    x, feats, w_x, w_f, b, w2, b2 = (_coerce(t) for t in (x, feats, w_x, w_f, b, w2, b2))
    n_hidden = w_x.shape[1]
    n_blocks = feats.shape[0]
    idx, starts = _blocks(block_index, x, n_blocks, "linear_blockfeat")
    if (
        x.shape[1] != w_x.shape[0] or feats.shape[1] != w_f.shape[0] or w_f.shape[1] != n_hidden
        or w2.data.ndim != 2 or w2.shape[0] != n_hidden
    ):
        raise DimensionError(
            f"linear_blockfeat: incompatible shapes x{x.shape} wx{w_x.shape} "
            f"f{feats.shape} wf{w_f.shape} w2{w2.shape}"
        )
    if b.shape != (1, n_hidden):
        raise DimensionError(f"linear_blockfeat: bias must be 1x{n_hidden}, got {b.shape}")
    if b2.shape != (1, w2.shape[1]):
        raise DimensionError(f"linear_blockfeat: second bias must be 1x{w2.shape[1]}, got {b2.shape}")
    runs = list(zip(idx[starts], starts, np.r_[starts[1:], idx.size]))
    xd, fd, wxd, wfd, bd, w2d = x.data, feats.data, w_x.data, w_f.data, b.data, w2.data

    def hidden() -> Array:
        rows = fd @ wfd
        rows += bd[0]
        h = xd @ wxd
        for k, lo, hi in runs:
            h[lo:hi] += rows[k]
        _apply_activation(h, "relu")
        return h

    out = hidden() @ w2d
    out += b2.data[0]
    _apply_activation(out, "relu")

    def backward(g):
        # each array is dropped as soon as it is spent, so h, g and the
        # hidden gradient are never all alive at once
        g = _activation_grad(g, out, "relu")
        h = hidden()
        dw2 = _sum_outer(h, g)
        live = h > 0.0
        del h
        db2 = g.sum(axis=0, keepdims=True)
        gh = g @ w2d.T
        del g
        np.multiply(gh, live, out=gh)  # _activation_grad's ReLU step, with the mask of the dropped h
        del live
        rows_g = np.zeros((n_blocks, n_hidden))
        for k, lo, hi in runs:
            np.sum(gh[lo:hi], axis=0, out=rows_g[k])
        return [
            gh @ wxd.T,
            rows_g @ wfd.T,
            _sum_outer(xd, gh),
            _sum_outer(fd, rows_g),
            rows_g.sum(axis=0, keepdims=True),
            dw2,
            db2,
        ]

    return _emit("linear_blockfeat", out, (x, feats, w_x, w_f, b, w2, b2), backward)


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

    xp = np.zeros((c_in, n, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + w] = x.data.transpose(1, 0, 2, 3)
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
                dk[:, :, ky, kx] = _sum_outer(gm.T, window(xp, ky, kx).reshape(c_in, -1).T)
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
    ad = a.data

    def backward(g):
        first = np.minimum.reduceat(np.where(ad == out[idx], np.arange(n)[:, None], n), starts, axis=0)
        da = np.zeros((n, d))
        da[first, np.arange(d)] = g[present]
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


def backward(loss: DTensor) -> dict[str, Array]:
    """Reverse sweep from a scalar loss; returns gradients for watched parameters.

    Freezes the tape, then sweeps it once.  Each node leaves ``tape.nodes``
    as its rule is called, so the node's activations are freed before the
    next rule runs; ``tape.nodes`` is empty when the sweep ends.  Each rule
    owns the gradient it is handed and may overwrite it (see the module
    docstring).  Returns {name: gradient array} for the watched parameters
    the sweep reached, in watch order; a parameter with no path to the loss
    has no entry.  A tape that has already been swept, or whose sweep
    raised, raises ContractError.  Parameters themselves are never written.
    """
    if loss.tape is None or loss.node_id is None:
        raise ContractError("loss is not on a tape")
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    tape = loss.tape
    if tape.frozen:
        raise ContractError("backward already ran on this tape")
    tape.frozen = True
    # one map from node id to gradient; a parameter's leaf keeps its entry
    grads: dict[int, Array] = {loss.node_id: np.ones_like(loss.data)}
    for nid in range(loss.node_id, -1, -1):
        if nid in tape._param_nodes or nid not in grads:
            continue
        node = tape.nodes[nid]
        tape.nodes[nid] = None  # its rule and the activations only it holds die before the next rule runs
        for input_id, gin in zip(node.inputs, node.backward(grads.pop(nid))):
            if input_id is None:
                continue
            if input_id in grads:
                grads[input_id] = grads[input_id] + gin
            else:
                grads[input_id] = gin
    tape.nodes = []  # the nodes the sweep never reached
    return {param.name: np.asarray(grads[nid]) for nid, param in tape._param_nodes.items() if nid in grads}
