"""Tensor-core tests: forward values against hand/brute-force oracles,
gradients against central finite differences."""

import numpy as np
import pytest

from patmod import autodiff as ad
from patmod.errors import ContractError, DimensionError, DomainError

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
        return [g[name].data for name in ("x", "k", "b")]

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
        assert ad.grad_check(lambda t: ad.conv2d(t, ad.constant(k), ad.constant(b), stride, 1), x) < 1e-5
        assert ad.grad_check(lambda t: ad.conv2d(ad.constant(x), t, ad.constant(b), stride, 1), k) < 1e-5
        assert ad.grad_check(lambda t: ad.conv2d(ad.constant(x), ad.constant(k), t, stride, 1), b) < 1e-5


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
    assert ad.grad_check(lambda x: ad.add(x, ad.constant(b)), a) < 1e-6

    tape = ad.Tape()
    p = ad.Parameter("a", a)
    loss = ad.reduce_sum(ad.add(tape.watch(p), ad.constant(b)))
    grads = ad.backward(loss)
    np.testing.assert_array_equal(grads["a"].data, np.ones_like(a))


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
    assert ad.grad_check(lambda x: ad.linear(ad.concat([x, ad.constant(b)]), w, bias, "tanh"), a) < 1e-6
    assert ad.grad_check(lambda x: ad.linear(ad.concat([ad.constant(a), x]), w, bias, "tanh"), b) < 1e-6


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
    grad = ad.backward(loss)["x"].data
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
    assert ad.grad_check(ad.reduce_sum, x) < 1e-10


def test_backward_linear_case():
    # loss = sum(x W + b) with x fixed: dW = outer(x, ones)
    x = np.array([1.0, 2.0, 3.0])
    tape = ad.Tape()
    p = ad.Parameter("W", np.zeros((3, 2)))
    loss = ad.reduce_sum(ad.linear(ad.constant(x[None, :]), tape.watch(p), ad.constant(np.zeros((1, 2)))))
    grads = ad.backward(loss)
    np.testing.assert_array_equal(grads["W"].data, np.tile(x[:, None], (1, 2)))


def test_backward_symmetric_zero():
    tape = ad.Tape()
    p = ad.Parameter("w", np.array([[0.0]]))
    w = tape.watch(p)
    zero = ad.constant([[0.0]])
    t = ad.linear(w, ad.constant([[1.0]]), zero, activation="tanh")
    grads = ad.backward(ad.reduce_sum(ad.linear(t, t, zero)))  # 1x1: t @ t = t**2
    assert grads["w"].data[0, 0] == 0.0


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
    tape = ad.Tape()
    used = ad.Parameter("used", np.ones(3))
    unused = ad.Parameter("unused", np.ones((2, 2)))
    a = tape.watch(used)
    tape.watch(unused)
    grads = ad.backward(ad.reduce_sum(a))
    np.testing.assert_array_equal(grads["unused"].data, np.zeros((2, 2)))


def test_mixed_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a = t1.watch(ad.Parameter("a", np.ones(2)))
    b = t2.watch(ad.Parameter("b", np.ones(2)))
    with pytest.raises(ContractError):
        ad.add(a, b)


def test_grad_check_exact_for_sum():
    assert ad.grad_check(ad.reduce_sum, np.array([1.0, -2.0, 3.0])) < 1e-9


def test_grad_check_tanh_matmul():
    rng = np.random.default_rng(8)
    b = rng.standard_normal((3, 3))
    x = rng.standard_normal((3, 3))
    bias = ad.constant(np.zeros((1, 3)))
    assert ad.grad_check(lambda t: ad.linear(t, ad.constant(b), bias, "tanh"), x) < 1e-5


def test_grad_check_reports_nan_as_failure():
    def bad(t):
        out = ad.scale(t, float("nan"))
        return ad.reduce_sum(out)

    assert ad.grad_check(bad, np.ones(2)) == float("inf")


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
        assert ad.grad_check(f, a) < GC_TOL
    ker_b = _bias_off_kink(_conv_taps(img, ker, 1, 1))
    assert ad.grad_check(lambda x: ad.conv2d(x, ad.constant(ker), ad.constant(ker_b), 1, 1), img) < GC_TOL
    assert ad.grad_check(lambda x: ad.conv2d(ad.constant(img), x, ad.constant(ker_b), 1, 1), ker) < GC_TOL
    assert ad.grad_check(lambda x: ad.conv2d(ad.constant(img), ad.constant(ker), x, 1, 1), ker_b) < GC_TOL

    w = rng.standard_normal((3, 6))
    bias = rng.standard_normal((1, 6))
    for act in (None, "relu", "tanh"):
        assert ad.grad_check(lambda x: ad.linear(x, ad.constant(w), ad.constant(bias), act), a) < GC_TOL
        assert ad.grad_check(lambda x: ad.linear(ad.constant(a), x, ad.constant(bias), act), w) < GC_TOL
        assert ad.grad_check(lambda x: ad.linear(ad.constant(a), ad.constant(w), x, act), bias) < GC_TOL

    feats = rng.standard_normal((4, 5))
    w_f = rng.standard_normal((5, 6))

    def blockfeat(block_index, x_=None, f_=None, wx_=None, wf_=None, b_=None):
        return lambda t: ad.linear_blockfeat(
            t if x_ is None else ad.constant(a),
            t if f_ is None else ad.constant(feats),
            t if wx_ is None else ad.constant(w),
            t if wf_ is None else ad.constant(w_f),
            t if b_ is None else ad.constant(bias),
            block_index=block_index,
            activation="relu",
        )

    # even blocks, then uneven blocks with the first and third feature rows unused
    for block_index in ([0, 0, 1, 1], [1, 1, 1, 3]):
        assert ad.grad_check(blockfeat(block_index, f_=1, wx_=1, wf_=1, b_=1), a) < GC_TOL
        assert ad.grad_check(blockfeat(block_index, x_=1, wx_=1, wf_=1, b_=1), feats) < GC_TOL
        assert ad.grad_check(blockfeat(block_index, x_=1, f_=1, wf_=1, b_=1), w) < GC_TOL
        assert ad.grad_check(blockfeat(block_index, x_=1, f_=1, wx_=1, b_=1), w_f) < GC_TOL
        assert ad.grad_check(blockfeat(block_index, x_=1, f_=1, wx_=1, wf_=1), bias) < GC_TOL


def test_linear_blockfeat_matches_wide_linear_and_checks_block_index():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 3))
    feats = rng.standard_normal((3, 2))
    w = rng.standard_normal((5, 4))
    b = rng.standard_normal((1, 4))
    block_index = [0, 0, 0, 2, 2]  # feature row 1 feeds no row
    out = ad.linear_blockfeat(x, feats, w[:3], w[3:], b, block_index)
    wide = ad.linear(np.hstack([x, feats[block_index]]), w, b)
    np.testing.assert_allclose(out.data, wide.data, rtol=1e-14, atol=1e-14)
    empty = ad.linear_blockfeat(np.zeros((0, 3)), feats, w[:3], w[3:], b, [])
    assert empty.shape == (0, 4)
    with pytest.raises(DomainError):
        ad.linear_blockfeat(x, feats, w[:3], w[3:], b, [0, 1, 0, 2, 2])
    with pytest.raises(DomainError):
        ad.linear_blockfeat(x, feats, w[:3], w[3:], b, [0, 0, 0, 2, 3])
    with pytest.raises(DimensionError):
        ad.linear_blockfeat(x, feats, w[:3], w[3:], b, [0, 0, 1])


def test_forward_backward_bitwise_deterministic():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 6))
    w = rng.standard_normal((6, 6))

    def run():
        tape = ad.Tape()
        p = ad.Parameter("w", w.copy())
        h = ad.linear(tape.watch(p), ad.constant(x), ad.constant(np.zeros((1, 6))), "tanh")
        loss = ad.reduce_sum(ad.row_norm(h))
        return ad.backward(loss)["w"].data, loss.item()

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
