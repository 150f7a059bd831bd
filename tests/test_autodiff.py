"""Tensor-core tests: forward values against hand/brute-force oracles,
gradients against central finite differences."""

import weakref

import numpy as np
import pytest

from patmod import autodiff as ad
from patmod import training as tr
from patmod.errors import ContractError, DimensionError, DomainError

import oracles

GC_TOL = 1e-4  # worst relative error allowed at eps=1e-6 in float64


def _conv_taps(x, k, stride, pad):
    """Cross-correlation of each image of a BxCxHxW stack on its own, summed
    tap by tap in conv2d's order, so results compare bitwise."""
    c_out, c_in, kh, kw = k.shape
    outs = []
    for image in x:
        xp = np.pad(image, ((0, 0), (pad, pad), (pad, pad)))
        h_out = (xp.shape[1] - kh) // stride + 1
        w_out = (xp.shape[2] - kw) // stride + 1
        out = np.zeros((c_out, h_out, w_out))
        for ky in range(kh):
            for kx in range(kw):
                xs = xp[:, ky : ky + stride * h_out : stride, kx : kx + stride * w_out : stride]
                out += (k[:, :, ky, kx] @ xs.reshape(c_in, -1)).reshape(c_out, h_out, w_out)
        outs.append(out)
    return np.stack(outs)


def _bias_off_kink(taps):
    """Per-channel bias that centres the widest gap between the middle half of
    each channel's outputs (over all images) on zero: ReLU keeps some outputs
    and zeroes others, and none sits near the kink where finite differences
    break down."""
    flat = np.sort(taps.swapaxes(0, 1).reshape(taps.shape[1], -1), axis=1)
    quarter = flat.shape[1] // 4
    mid = flat[:, quarter : flat.shape[1] - quarter]
    j = np.diff(mid, axis=1).argmax(axis=1)
    rows = np.arange(mid.shape[0])
    return -0.5 * (mid[rows, j] + mid[rows, j + 1])[:, None]


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 1, 3, 3))
    k = np.ones((1, 1, 1, 1))
    out = ad.conv2d(x, k, np.zeros((1, 1)), stride=1, pad=0)
    np.testing.assert_array_equal(out.data, np.maximum(x, 0.0))


def test_conv2d_summing_kernel():
    out = ad.conv2d(np.ones((1, 1, 4, 4)), np.ones((1, 1, 2, 2)), np.zeros((1, 1)), stride=2, pad=0)
    assert out.shape == (1, 1, 2, 2)
    np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))


def test_conv2d_output_size_formula():
    out = ad.conv2d(np.zeros((4, 2, 5, 5)), np.zeros((3, 2, 3, 3)), np.zeros((3, 1)), stride=2, pad=1)
    assert out.shape == (4, 3, 3, 3)  # (5 + 2 - 3)//2 + 1


def test_conv2d_kernel_too_large():
    with pytest.raises(DimensionError):
        ad.conv2d(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 4, 4)), np.zeros((1, 1)), stride=1, pad=0)


def test_conv2d_rejects_bias_of_wrong_shape():
    with pytest.raises(DimensionError, match="bias"):
        ad.conv2d(np.zeros((1, 2, 5, 5)), np.zeros((3, 2, 3, 3)), np.zeros((1, 3)))


def test_conv2d_rejects_an_input_without_batch_axis():
    with pytest.raises(DimensionError, match="BxCxHxW"):
        ad.conv2d(np.zeros((2, 5, 5)), np.zeros((3, 2, 3, 3)), np.zeros((3, 1)))


@pytest.mark.parametrize("stride, pad", [(1, 1), (2, 1), (2, 0)])
def test_conv2d_fuses_bias_and_relu_bitwise(stride, pad):
    rng = np.random.default_rng(10)
    x = rng.standard_normal((1, 2, 5, 5))
    k = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal((3, 1))
    out = ad.conv2d(x, k, b, stride, pad).data
    expected = np.maximum(_conv_taps(x, k, stride, pad) + b[:, :, None], 0.0)
    assert (expected > 0.0).any() and (expected == 0.0).any()
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("stride, pad", [(1, 1), (2, 1), (2, 0)])
def test_conv2d_stack_equals_each_image_alone_bitwise(stride, pad):
    """A B = 3 stack gives every image the output of its own B = 1 call,
    bit for bit, and the same per-image gradients summed over the stack."""
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, 2, 6, 6))
    k = rng.standard_normal((4, 2, 3, 3))
    b = rng.standard_normal((4, 1))
    out = ad.conv2d(x, k, b, stride, pad).data
    for i in range(3):
        np.testing.assert_array_equal(out[i], ad.conv2d(x[i : i + 1], k, b, stride, pad).data[0])

    def grads(images):
        tape = ad.Tape()
        params = [ad.Parameter(name, v) for name, v in (("x", images), ("k", k), ("b", b))]
        y = ad.conv2d(*(tape.watch(p) for p in params), stride, pad)
        g = ad.backward(ad.reduce_sum(y))
        return [g[name] for name in ("x", "k", "b")]

    dx, dk, db = grads(x)
    alone = [grads(x[i : i + 1]) for i in range(3)]
    np.testing.assert_array_equal(dx, np.concatenate([g[0] for g in alone]))
    np.testing.assert_allclose(dk, sum(g[1] for g in alone), rtol=1e-13, atol=0)
    np.testing.assert_allclose(db, sum(g[2] for g in alone), rtol=1e-13, atol=0)


def test_conv2d_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 2, 5, 5))
    k = rng.standard_normal((3, 2, 3, 3))
    for stride in (1, 2):
        b = _bias_off_kink(_conv_taps(x, k, stride, 1))
        assert oracles.grad_check(lambda t: ad.conv2d(t, ad.constant(k), ad.constant(b), stride, 1), x) < 1e-5
        assert oracles.grad_check(lambda t: ad.conv2d(ad.constant(x), t, ad.constant(b), stride, 1), k) < 1e-5
        assert oracles.grad_check(lambda t: ad.conv2d(ad.constant(x), ad.constant(k), t, stride, 1), b) < 1e-5


def test_relu_values():
    out = ad.linear([[-1.0], [0.0], [2.0]], [[1.0]], [[0.0]], activation="relu")
    np.testing.assert_array_equal(out.data, [[0.0], [0.0], [2.0]])


def test_tanh_values():
    assert ad.linear([[0.0]], [[1.0]], [[0.0]], activation="tanh").data[0, 0] == 0.0
    big = ad.linear([[50.0], [-50.0]], [[1.0]], [[0.0]], activation="tanh")
    assert np.all(np.abs(big.data) < 1.0)


def test_add_gradient_is_one():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    assert oracles.grad_check(lambda x: ad.add(x, ad.constant(b)), a) < 1e-6

    tape = ad.Tape()
    p = ad.Parameter("a", a)
    loss = ad.reduce_sum(ad.add(tape.watch(p), ad.constant(b)))
    grads = ad.backward(loss)
    np.testing.assert_array_equal(grads["a"], np.ones_like(a))


def test_broadcast_rejects_non_row():
    """add and sub take operands of one shape; nothing broadcasts, not even a row."""
    with pytest.raises(DimensionError):
        ad.add(np.ones((4, 3)), np.ones((2, 3)))
    with pytest.raises(DimensionError):
        ad.sub(np.ones((4, 3)), np.ones((4, 1)))
    with pytest.raises(DimensionError):
        ad.sub(np.ones((4, 3)), np.ones((1, 3)))


def test_concat_single_tensor_is_identity():
    x = np.ones((2, 2))
    np.testing.assert_array_equal(ad.concat([x]).data, x)


def test_concat_mismatch():
    with pytest.raises(DimensionError):
        ad.concat([np.ones((2, 3)), np.ones((2, 4))])


def test_concat_gradient_routes_slices():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((4, 3))
    w = ad.constant(rng.standard_normal((3, 5)))
    bias = ad.constant(np.zeros((1, 5)))
    # tanh makes each row's gradient depend on its values, so a misrouted slice shows
    assert oracles.grad_check(lambda x: ad.linear(ad.concat([x, ad.constant(b)]), w, bias, "tanh"), a) < 1e-6
    assert oracles.grad_check(lambda x: ad.linear(ad.concat([ad.constant(a), x]), w, bias, "tanh"), b) < 1e-6


def test_mean_over_blocks():
    rows = [[2.0, 1.0], [4.0, 3.0], [6.0, 8.0], [1.0, -1.0]]
    out = ad.mean_over_blocks(rows, [0, 0, 0, 2], 3)  # block 1 holds no row
    np.testing.assert_array_equal(out.data, [[4.0, 4.0], [0.0, 0.0], [1.0, -1.0]])
    assert ad.mean_over_blocks(np.zeros((0, 2)), [], 2).data.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_block_means_equal_per_block_numpy_means_bitwise():
    """Row-order sums reproduce each block's own ``mean(axis=0)`` bit for bit."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-6, 6, size=(300, 1))
    block_index = np.repeat([0, 1, 3, 4], [1, 150, 100, 49])
    out = ad.mean_over_blocks(a, block_index, 5).data
    for m in range(5):
        rows = a[block_index == m]
        np.testing.assert_array_equal(out[m], rows.mean(axis=0) if len(rows) else np.zeros(3))


def test_max_over_blocks_values_and_first_argmax_gradient():
    a = np.array([[1.0, 5.0], [3.0, 5.0], [3.0, 2.0], [-4.0, -7.0], [-2.0, -9.0]])
    tape = ad.Tape()
    x = tape.watch(ad.Parameter("x", a))
    out = ad.max_over_blocks(x, [0, 0, 0, 2, 2], 3)  # block 1 holds no row
    np.testing.assert_array_equal(out.data, [[3.0, 5.0], [0.0, 0.0], [-2.0, -7.0]])
    weights = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    loss = ad.reduce_sum(ad.linear(ad.reshape(out, (1, 6)), weights.reshape(6, 1), np.zeros((1, 1))))
    grad = ad.backward(loss)["x"]
    # ties go to the first maximal row of the block, as np.argmax picks
    np.testing.assert_array_equal(grad, [[0.0, 2.0], [1.0, 0.0], [0.0, 0.0], [0.0, 6.0], [5.0, 0.0]])


@pytest.mark.parametrize("op", [ad.mean_over_blocks, ad.max_over_blocks])
def test_block_reductions_check_block_index(op):
    a = np.ones((4, 2))
    with pytest.raises(DomainError):
        op(a, [0, 1, 0, 1], 2)
    with pytest.raises(DomainError):
        op(a, [0, 0, 1, 2], 2)
    with pytest.raises(DomainError):
        op(a, [-1, 0, 0, 1], 2)
    with pytest.raises(DimensionError):
        op(a, [0, 0, 1], 2)
    with pytest.raises(DimensionError):
        op(np.ones(4), [0, 0, 1, 1], 2)


def test_sum_gradient_is_ones():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 3))
    assert oracles.grad_check(ad.reduce_sum, x) < 1e-10


def test_backward_linear_case():
    # loss = sum(x W + b) with x fixed: dW = outer(x, ones)
    x = np.array([1.0, 2.0, 3.0])
    tape = ad.Tape()
    p = ad.Parameter("W", np.zeros((3, 2)))
    loss = ad.reduce_sum(ad.linear(ad.constant(x[None, :]), tape.watch(p), ad.constant(np.zeros((1, 2)))))
    grads = ad.backward(loss)
    np.testing.assert_array_equal(grads["W"], np.tile(x[:, None], (1, 2)))


def test_backward_symmetric_zero():
    tape = ad.Tape()
    p = ad.Parameter("w", np.array([[0.0]]))
    w = tape.watch(p)
    zero = ad.constant([[0.0]])
    t = ad.linear(w, ad.constant([[1.0]]), zero, activation="tanh")
    grads = ad.backward(ad.reduce_sum(ad.linear(t, t, zero)))  # 1x1: t @ t = t**2
    assert grads["w"][0, 0] == 0.0


def test_backward_requires_scalar_loss():
    tape = ad.Tape()
    p = ad.Parameter("w", np.ones((2, 2)))
    w = tape.watch(p)
    with pytest.raises(ContractError):
        ad.backward(ad.scale(w, 2.0))


def test_backward_freezes_tape():
    tape = ad.Tape()
    p = ad.Parameter("w", np.ones((2, 2)))
    w = tape.watch(p)
    ad.backward(ad.reduce_sum(w))
    assert tape.frozen
    with pytest.raises(ContractError):
        ad.scale(w, 2.0)


def test_backward_releases_tape_nodes():
    tape = ad.Tape()
    w = tape.watch(ad.Parameter("w", np.ones((2, 2))))
    loss = ad.reduce_sum(ad.scale(w, 2.0))
    assert len(tape.nodes) == 3
    ad.backward(loss)
    assert tape.nodes == []


def test_second_backward_on_swept_tape_rejected():
    tape = ad.Tape()
    w = tape.watch(ad.Parameter("w", np.ones((2, 2))))
    loss = ad.reduce_sum(w)
    ad.backward(loss)
    with pytest.raises(ContractError, match="already ran"):
        ad.backward(loss)


def test_unused_parameter_gets_zero_gradient():
    """A watched parameter with no path to the loss has no entry in the
    gradient map, and the optimizer reads the missing name as a zero
    gradient: the same values and moments, bit for bit, as an explicit
    zeros array."""
    tape = ad.Tape()
    used = ad.Parameter("used", np.ones(3))
    unused = ad.Parameter("unused", np.ones((2, 2)))
    a = tape.watch(used)
    tape.watch(unused)
    grads = ad.backward(ad.reduce_sum(a))
    assert list(grads) == ["used"]
    np.testing.assert_array_equal(grads["used"], np.ones(3))

    init = np.array([[1.0, -2.0], [-0.0, 3.5]])
    first = {"used": np.ones(3), "unused": np.array([[0.5, -1.0], [2.0, 0.25]])}
    runs = []
    for second in (grads, {**grads, "unused": np.zeros((2, 2))}):
        params = [ad.Parameter("used", np.ones(3)), ad.Parameter("unused", init.copy())]
        state = tr.AdamState()
        tr.adam_step(params, first, state, lr=0.1)  # gives "unused" its moments
        tr.adam_step(params, second, state, lr=0.1)
        runs.append([x.tobytes() for x in (params[1].data, state.m["unused"], state.v["unused"])])
    assert runs[0] == runs[1]


def test_scalar_parameter_gradient_is_an_array():
    """Arithmetic on 0-d arrays gives numpy scalars; backward still hands a
    0-d parameter its gradient as an array."""
    tape = ad.Tape()
    w = tape.watch(ad.Parameter("w", np.array(2.0)))
    g = ad.backward(ad.scale(w, 3.0))["w"]
    assert type(g) is np.ndarray and g.shape == () and g == 3.0


def test_mixed_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a = t1.watch(ad.Parameter("a", np.ones(2)))
    b = t2.watch(ad.Parameter("b", np.ones(2)))
    with pytest.raises(ContractError):
        ad.add(a, b)


def test_untaped_parameter_is_its_own_operand():
    """A Parameter off the tape is a constant operand: an op gives the bytes
    it gives on the parameter's array and records on no tape."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 4))
    w, b = ad.Parameter("w", rng.normal(size=(4, 3))), ad.Parameter("b", rng.normal(size=(1, 3)))
    out = ad.linear(x, w, b, "tanh")
    assert out.tape is None and out.node_id is None
    assert out.data.tobytes() == ad.linear(x, w.data, b.data, "tanh").data.tobytes()


def test_grad_check_exact_for_sum():
    assert oracles.grad_check(ad.reduce_sum, np.array([1.0, -2.0, 3.0])) < 1e-9


def test_grad_check_tanh_matmul():
    rng = np.random.default_rng(8)
    b = rng.standard_normal((3, 3))
    x = rng.standard_normal((3, 3))
    bias = ad.constant(np.zeros((1, 3)))
    assert oracles.grad_check(lambda t: ad.linear(t, ad.constant(b), bias, "tanh"), x) < 1e-5


def test_grad_check_reports_nan_as_failure():
    def bad(t):
        out = ad.scale(t, float("nan"))
        return ad.reduce_sum(out)

    assert oracles.grad_check(bad, np.ones(2)) == float("inf")


@pytest.mark.parametrize("trial", range(20))
def test_all_ops_grad_check_20_seeded_instances(trial):
    """Every registered differentiable op passes the FD oracle at < 1e-4."""
    rng = np.random.default_rng(100 + trial)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((4, 3))
    img = rng.standard_normal((1, 2, 4, 4))
    ker = rng.standard_normal((2, 2, 3, 3))
    idx = rng.integers(0, 4, size=6)

    checks = [
        lambda x: ad.add(x, ad.constant(b)),
        lambda x: ad.sub(ad.constant(b), x),
        lambda x: ad.scale(x, -2.5),
        lambda x: ad.concat([x, ad.constant(b)]),
        lambda x: ad.reshape(x, (2, 6)),
        lambda x: ad.gather_rows(x, idx),
        lambda x: ad.reduce_sum(x),
        lambda x: ad.mean_over_blocks(x, [0, 0, 0, 0], 1),
        lambda x: ad.mean_over_blocks(x, [0, 2, 2, 2], 4),
        lambda x: ad.max_over_blocks(x, [0, 0, 0, 0], 1),
        lambda x: ad.max_over_blocks(x, [0, 2, 2, 2], 4),
        lambda x: ad.row_norm(ad.add(x, ad.constant(np.full((4, 3), 0.1)))),
    ]
    for f in checks:
        assert oracles.grad_check(f, a) < GC_TOL
    ker_b = _bias_off_kink(_conv_taps(img, ker, 1, 1))
    assert oracles.grad_check(lambda x: ad.conv2d(x, ad.constant(ker), ad.constant(ker_b), 1, 1), img) < GC_TOL
    assert oracles.grad_check(lambda x: ad.conv2d(ad.constant(img), x, ad.constant(ker_b), 1, 1), ker) < GC_TOL
    assert oracles.grad_check(lambda x: ad.conv2d(ad.constant(img), ad.constant(ker), x, 1, 1), ker_b) < GC_TOL

    w = rng.standard_normal((3, 6))
    bias = rng.standard_normal((1, 6))
    for act in (None, "relu", "tanh"):
        assert oracles.grad_check(lambda x: ad.linear(x, ad.constant(w), ad.constant(bias), act), a) < GC_TOL
        assert oracles.grad_check(lambda x: ad.linear(ad.constant(a), x, ad.constant(bias), act), w) < GC_TOL
        assert oracles.grad_check(lambda x: ad.linear(ad.constant(a), ad.constant(w), x, act), bias) < GC_TOL

    feats = rng.standard_normal((4, 5))
    w_f = rng.standard_normal((5, 6))
    w2 = rng.standard_normal((6, 2))
    b2 = rng.standard_normal((1, 2))
    operands = (a, feats, w, w_f, bias, w2, b2)

    def blockfeat(block_index, i):
        """linear_blockfeat as a function of its i-th operand, the rest constant."""
        def f(t):
            args = [t if j == i else ad.constant(v) for j, v in enumerate(operands)]
            return ad.linear_blockfeat(*args[:5], block_index, *args[5:])
        return f

    # even blocks, then uneven blocks with the first and third feature rows unused
    for block_index in ([0, 0, 1, 1], [1, 1, 1, 3]):
        for i, value in enumerate(operands):
            assert oracles.grad_check(blockfeat(block_index, i), value) < GC_TOL, (block_index, i)


def test_linear_blockfeat_matches_wide_linear_and_checks_block_index():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 3))
    feats = rng.standard_normal((3, 2))
    w = rng.standard_normal((5, 4))
    b = rng.standard_normal((1, 4))
    w2 = rng.standard_normal((4, 3))
    b2 = rng.standard_normal((1, 3))
    block_index = [0, 0, 0, 2, 2]  # feature row 1 feeds no row
    out = ad.linear_blockfeat(x, feats, w[:3], w[3:], b, block_index, w2, b2)
    wide = ad.linear(ad.linear(np.hstack([x, feats[block_index]]), w, b, "relu"), w2, b2, "relu")
    np.testing.assert_allclose(out.data, wide.data, rtol=1e-14, atol=1e-14)
    empty = ad.linear_blockfeat(np.zeros((0, 3)), feats, w[:3], w[3:], b, [], w2, b2)
    assert empty.shape == (0, 3)
    with pytest.raises(DomainError):
        ad.linear_blockfeat(x, feats, w[:3], w[3:], b, [0, 1, 0, 2, 2], w2, b2)
    with pytest.raises(DomainError):
        ad.linear_blockfeat(x, feats, w[:3], w[3:], b, [0, 0, 0, 2, 3], w2, b2)
    with pytest.raises(DimensionError):
        ad.linear_blockfeat(x, feats, w[:3], w[3:], b, [0, 0, 1], w2, b2)
    with pytest.raises(DimensionError, match="incompatible shapes"):
        ad.linear_blockfeat(x, feats, w[:3], w[3:], b, block_index, w2.T, b2)
    with pytest.raises(DimensionError, match="second bias"):
        ad.linear_blockfeat(x, feats, w[:3], w[3:], b, block_index, w2, b)


def _blockfeat_one_layer(x, feats, w_x, w_f, b, block_index, activation):
    """The one-layer rule ``linear_blockfeat`` had before it fused the second
    layer and recomputed the first: the oracle for the fused node's bytes."""
    x, feats, w_x, w_f, b = (ad._coerce(t) for t in (x, feats, w_x, w_f, b))
    n_out = w_x.shape[1]
    n_blocks = feats.shape[0]
    idx, starts = ad._blocks(block_index, x, n_blocks, "oracle")
    runs = list(zip(idx[starts], starts, np.r_[starts[1:], idx.size]))
    xd, fd = x.data, feats.data
    rows = fd @ w_f.data
    rows += b.data[0]
    out = xd @ w_x.data
    for k, lo, hi in runs:
        out[lo:hi] += rows[k]
    ad._apply_activation(out, activation)
    wxd, wfd = w_x.data, w_f.data

    def backward(g):
        g = ad._activation_grad(g, out, activation)
        rows_g = np.zeros((n_blocks, n_out))
        for k, lo, hi in runs:
            np.sum(g[lo:hi], axis=0, out=rows_g[k])
        return [g @ wxd.T, rows_g @ wfd.T, xd.T @ g, fd.T @ rows_g, rows_g.sum(axis=0, keepdims=True)]

    return ad._emit("oracle", out, (x, feats, w_x, w_f, b), backward)


_NAMES = ("x", "feats", "w_x", "w_f", "b", "w2", "b2")


def _output_and_grads(op, values):
    """``op``'s output and the gradient of each of its 7 operands, through a
    loss that weighs every output entry differently; one extra constant row
    keeps the loss defined when there are no rows."""
    tape = ad.Tape()
    out = op(*[tape.watch(ad.Parameter(n, v.copy())) for n, v in zip(_NAMES, values)])
    tail = ad.constant(np.ones((1, out.shape[1])))
    grads = ad.backward(ad.reduce_sum(ad.row_norm(ad.concat([out, tail]))))
    return out.data, [np.asarray(grads[n]) for n in _NAMES]


@pytest.mark.parametrize(
    "block_index",
    [[0, 0, 0, 2, 2, 2, 2], [1, 1, 3, 3, 3, 3, 3], [0, 1, 1, 1, 2, 2, 3], []],
    ids=["unused-row", "uneven-runs", "every-block", "empty"],
)
def test_fused_blockfeat_equals_two_layer_chain_bitwise(block_index):
    """The fused node's output and all 7 gradients have the bytes of the old
    one-layer rule followed by a ReLU ``linear``."""
    rng = np.random.default_rng(12)
    k = len(block_index)
    values = (
        rng.standard_normal((k, 3)), rng.standard_normal((4, 5)), rng.standard_normal((3, 16)),
        rng.standard_normal((5, 16)), rng.standard_normal((1, 16)), rng.standard_normal((16, 6)),
        rng.standard_normal((1, 6)),
    )

    def chain(x, f, wx, wf, b, w2, b2):
        return ad.linear(_blockfeat_one_layer(x, f, wx, wf, b, block_index, "relu"), w2, b2, "relu")

    def fused(x, f, wx, wf, b, w2, b2):
        return ad.linear_blockfeat(x, f, wx, wf, b, block_index, w2, b2)

    want_out, want_grads = _output_and_grads(chain, values)
    got_out, got_grads = _output_and_grads(fused, values)
    assert got_out.tobytes() == want_out.tobytes()
    for name, got, want in zip(_NAMES, got_grads, want_grads):
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    if k:
        assert all(np.any(g != 0.0) for g in got_grads[2:])  # the comparison is not of zeros alone


def _arrays_in_closure(fn):
    """Every ndarray reachable from ``fn`` through closure cells, nested
    functions, containers and array bases (not through module globals)."""
    seen, found, stack = set(), [], [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
            if obj.base is not None:
                stack.append(obj.base)
        elif callable(obj) and hasattr(obj, "__closure__"):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
    return found


def test_fused_blockfeat_node_keeps_no_hidden_layer():
    """The fused node's backward rule, and the recompute helper it calls,
    reach no (K, hidden) array: the hidden layer lives only inside a call."""
    rng = np.random.default_rng(13)
    k, hidden, n_out = 64, 24, 7
    tape = ad.Tape()
    block_index = np.repeat(np.arange(4), 16)
    operands = (
        rng.standard_normal((k, 3)), rng.standard_normal((4, 5)), rng.standard_normal((3, hidden)),
        rng.standard_normal((5, hidden)), rng.standard_normal((1, hidden)), rng.standard_normal((hidden, n_out)),
        rng.standard_normal((1, n_out)),
    )
    t = [tape.watch(ad.Parameter(f"p{i}", v)) for i, v in enumerate(operands)]
    out = ad.linear_blockfeat(*t[:5], block_index, *t[5:])
    rule = tape.nodes[out.node_id].backward
    shapes = [a.shape for a in _arrays_in_closure(rule) if a.dtype == np.float64]
    assert (k, n_out) in shapes  # the walk reaches the output the rule keeps
    assert (k, hidden) not in shapes


def test_forward_backward_bitwise_deterministic():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 6))
    w = rng.standard_normal((6, 6))

    def run():
        tape = ad.Tape()
        p = ad.Parameter("w", w.copy())
        h = ad.linear(tape.watch(p), ad.constant(x), ad.constant(np.zeros((1, 6))), "tanh")
        loss = ad.reduce_sum(ad.row_norm(h))
        return ad.backward(loss)["w"], loss.item()

    g1, l1 = run()
    g2, l2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)


def test_tape_topological_order():
    tape = ad.Tape()
    a = tape.watch(ad.Parameter("a", np.ones(2)))
    b = ad.scale(a, 2.0)
    c = ad.add(a, b)
    for nid, node in enumerate(tape.nodes):
        for input_id in node.inputs:
            assert input_id is None or input_id < nid
    assert c.node_id == len(tape.nodes) - 1


# ---------------------------------------------------------------------------
# gradient ownership and node release


def _every_op(rng):
    """One instance of every op, as (name, function of its inputs, inputs)."""
    a, b = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    w, bias = rng.standard_normal((3, 6)), rng.standard_normal((1, 6))
    feats, w_f = rng.standard_normal((2, 5)), rng.standard_normal((5, 6))
    img, ker, ker_b = rng.standard_normal((2, 2, 5, 5)), rng.standard_normal((3, 2, 3, 3)), rng.standard_normal((3, 1))
    w2, bias2 = rng.standard_normal((6, 4)), rng.standard_normal((1, 4))
    ops = [
        ("add", ad.add, (a, b)),
        ("sub", ad.sub, (a, b)),
        ("scale", lambda x: ad.scale(x, -2.5), (a,)),
        ("concat", lambda x, y: ad.concat([x, y]), (a, b)),
        ("reshape", lambda x: ad.reshape(x, (2, 6)), (a,)),
        ("gather_rows", lambda x: ad.gather_rows(x, [3, 0, 3]), (a,)),
        ("sum", ad.reduce_sum, (a,)),
        ("mean_over_blocks", lambda x: ad.mean_over_blocks(x, [0, 0, 2, 2], 3), (a,)),
        ("max_over_blocks", lambda x: ad.max_over_blocks(x, [0, 0, 2, 2], 3), (a,)),
        ("row_norm", ad.row_norm, (a,)),
        ("conv2d", lambda x, k, c: ad.conv2d(x, k, c, 2, 1), (img, ker, ker_b)),
        (
            "linear_blockfeat",
            lambda x, f, wx, wf, c, w2, c2: ad.linear_blockfeat(x, f, wx, wf, c, [0, 0, 1, 1], w2, c2),
            (a, feats, w, w_f, bias, w2, bias2),
        ),
    ]
    for act in (None, "relu", "tanh"):
        ops.append((f"linear_{act}", lambda x, y, c, act=act: ad.linear(x, y, c, act), (a, w, bias)))
    return ops


_OPS = _every_op(np.random.default_rng(4))


@pytest.mark.parametrize("name, op, values", _OPS, ids=[name for name, _, _ in _OPS])
def test_backward_rule_outputs_share_no_memory(name, op, values):
    """The ownership rule's half that falls on each rule: the gradients one
    rule returns share no memory with each other or with its forward data,
    so a rule downstream may overwrite the gradient it is handed."""
    tape = ad.Tape()
    inputs = [tape.watch(ad.Parameter(f"p{i}", v)) for i, v in enumerate(values)]
    out = op(*inputs)
    g = np.random.default_rng(99).standard_normal(out.shape)
    grads = tape.nodes[out.node_id].backward(g)
    forward = [t.data for t in inputs] + [out.data]
    assert len(grads) == len(inputs), name
    for i, gi in enumerate(grads):
        assert gi.shape == inputs[i].shape, name
        assert not any(np.may_share_memory(gi, f) for f in forward), (name, i)
        assert not any(np.may_share_memory(gi, gj) for gj in grads[:i]), (name, i)


def test_every_weight_gradient_is_one_sum_outer_call(monkeypatch):
    """Each weight gradient of ``linear``, ``linear_blockfeat`` and ``conv2d``
    is one ``_sum_outer`` call and has the bytes of the inline product."""
    calls, sum_outer = [], ad._sum_outer
    monkeypatch.setattr(ad, "_sum_outer", lambda a, b: calls.append(1) or sum_outer(a, b))
    rng = np.random.default_rng(31)

    def rule_grads(op, values, g):
        tape = ad.Tape()
        out = op(*[tape.watch(ad.Parameter(f"p{i}", v)) for i, v in enumerate(values)])
        calls.clear()
        return out.data, tape.nodes[out.node_id].backward(g.copy())

    x, w, b = rng.standard_normal((7, 3)), rng.standard_normal((3, 5)), rng.standard_normal((1, 5))
    g = rng.standard_normal((7, 5))
    _, grads = rule_grads(ad.linear, (x, w, b), g)
    assert len(calls) == 1
    assert grads[1].tobytes() == (x.T @ g).tobytes()

    idx = np.array([0, 0, 2, 2, 2, 3, 3])
    f, wf, w2 = rng.standard_normal((4, 4)), rng.standard_normal((4, 5)), rng.standard_normal((5, 6))
    b2 = rng.standard_normal((1, 6))
    g = rng.standard_normal((7, 6))
    out, grads = rule_grads(lambda *t: ad.linear_blockfeat(*t[:5], idx, *t[5:]), (x, f, w, wf, b, w2, b2), g)
    assert len(calls) == 3
    h = x @ w
    h += (f @ wf + b)[idx]
    np.maximum(h, 0.0, out=h)
    g = g * (out > 0.0)
    gh = (g @ w2.T) * (h > 0.0)
    rows_g = np.stack([gh[idx == k].sum(axis=0) for k in range(len(f))])
    assert grads[2].tobytes() == (x.T @ gh).tobytes()
    assert grads[3].tobytes() == (f.T @ rows_g).tobytes()
    assert grads[5].tobytes() == (h.T @ g).tobytes()

    img, ker, ker_b = rng.standard_normal((2, 2, 5, 5)), rng.standard_normal((3, 2, 3, 3)), rng.standard_normal((3, 1))
    g = rng.standard_normal((2, 3, 5, 5))
    out, grads = rule_grads(lambda *t: ad.conv2d(*t, 1, 1), (img, ker, ker_b), g)
    assert len(calls) == 9
    xp = np.zeros((2, 2, 7, 7))  # channel-major and padded, as conv2d lays it out
    xp[:, :, 1:6, 1:6] = img.transpose(1, 0, 2, 3)
    gm = (g * (out > 0.0)).transpose(1, 0, 2, 3).reshape(3, -1)
    dk = np.zeros_like(ker)
    for ky in range(3):
        for kx in range(3):
            dk[:, :, ky, kx] = gm @ xp[:, :, ky : ky + 5, kx : kx + 5].reshape(2, -1).T
    assert grads[1].tobytes() == dk.tobytes()


def test_one_gradient_fed_to_two_relu_layers_matches_finite_differences():
    """add hands one gradient to two ReLU layers that each apply their
    derivative in place; concat hands its row slices to ReLU layers."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 4))
    w1, w2, w3 = (ad.constant(rng.standard_normal(s)) for s in ((4, 5), (4, 5), (5, 3)))
    b1, b2, b3 = (ad.constant(rng.standard_normal((1, n))) for n in (5, 5, 3))

    def through_add(t):
        h = ad.add(ad.linear(t, w1, b1, "relu"), ad.linear(t, w2, b2, "relu"))
        return ad.linear(h, w3, b3, "relu")

    def through_concat(t):
        h = ad.concat([ad.linear(t, w1, b1, "relu"), ad.linear(t, w2, b2, "relu")])
        return ad.linear(h, w3, b3, "relu")

    assert oracles.grad_check(through_add, x) < GC_TOL
    assert oracles.grad_check(through_concat, x) < GC_TOL


def test_backward_frees_each_node_before_the_next_rule_runs():
    """The last linear's activation is held only by its own node, and the
    sweep frees it before the conv2d rules run, not when the sweep ends."""
    rng = np.random.default_rng(2)
    tape = ad.Tape()
    kernels = [tape.watch(ad.Parameter(f"k{i}", rng.standard_normal((2, c, 3, 3)))) for i, c in enumerate((1, 2))]
    w1 = tape.watch(ad.Parameter("w1", rng.standard_normal((32, 8))))
    w2 = tape.watch(ad.Parameter("w2", rng.standard_normal((8, 4))))
    h, convs = ad.constant(rng.standard_normal((2, 1, 4, 4))), []
    for k in kernels:
        h = ad.conv2d(h, k, ad.constant(np.full((2, 1), 0.1)), 1, 1)
        convs.append(h.node_id)
    h = ad.linear(ad.reshape(h, (2, 32)), w1, ad.constant(np.zeros((1, 8))), "relu")
    last = ad.linear(h, w2, ad.constant(np.zeros((1, 4))))
    activation = weakref.ref(last.data)
    loss = ad.reduce_sum(last)
    del h, last

    dead = []
    for nid in convs:
        node = tape.nodes[nid]
        node.backward = lambda g, rule=node.backward: dead.append(activation() is None) or rule(g)
    assert activation() is not None
    grads = ad.backward(loss)
    assert dead == [True, True]
    assert tape.nodes == [] and set(grads) == {"k0", "k1", "w1", "w2"}


def test_rule_that_raises_leaves_a_frozen_tape():
    """A rule that raises midway leaves the tape frozen, with nodes already
    released, so a second backward is refused before it meets one."""
    tape = ad.Tape()
    w = tape.watch(ad.Parameter("w", np.ones((2, 2))))
    mid = ad.scale(w, 2.0)
    loss = ad.reduce_sum(ad.scale(mid, 3.0))

    def broken(g):
        raise RuntimeError("rule failed")

    tape.nodes[mid.node_id].backward = broken
    with pytest.raises(RuntimeError, match="rule failed"):
        ad.backward(loss)
    assert tape.frozen
    with pytest.raises(ContractError, match="already ran"):
        ad.backward(loss)
