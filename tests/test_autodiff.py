"""Tensor-core tests: forward values against hand/brute-force oracles,
gradients against central finite differences."""

import numpy as np
import pytest

from patmod import autodiff as ad
from patmod.errors import ContractError, DimensionError, DomainError

GC_TOL = 1e-4  # worst relative error allowed at eps=1e-6 in float64


def test_matmul_identity():
    out = ad.matmul([[1.0, 0.0], [0.0, 1.0]], [[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])


def test_matmul_1x1():
    out = ad.matmul([[1.0, 2.0]], [[3.0], [4.0]])
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(np.ones((2, 3)), np.ones((2, 2)))


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((3, 2))
    a = rng.standard_normal((4, 3))
    assert ad.grad_check(lambda x: ad.matmul(x, ad.constant(b)), a) < 1e-5
    assert ad.grad_check(lambda x: ad.matmul(ad.constant(a), x), b) < 1e-5


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 3, 3))
    k = np.ones((1, 1, 1, 1))
    out = ad.conv2d(x, k, stride=1, pad=0)
    np.testing.assert_array_equal(out.data, x)


def test_conv2d_summing_kernel():
    out = ad.conv2d(np.ones((1, 4, 4)), np.ones((1, 1, 2, 2)), stride=2, pad=0)
    assert out.shape == (1, 2, 2)
    np.testing.assert_array_equal(out.data, np.full((1, 2, 2), 4.0))


def test_conv2d_output_size_formula():
    out = ad.conv2d(np.zeros((2, 5, 5)), np.zeros((3, 2, 3, 3)), stride=2, pad=1)
    assert out.shape == (3, 3, 3)  # (5 + 2 - 3)//2 + 1


def test_conv2d_kernel_too_large():
    with pytest.raises(DimensionError):
        ad.conv2d(np.zeros((1, 2, 2)), np.zeros((1, 1, 4, 4)), stride=1, pad=0)


def test_conv2d_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 5, 5))
    k = rng.standard_normal((3, 2, 3, 3))
    assert ad.grad_check(lambda t: ad.conv2d(t, ad.constant(k), 1, 1), x) < 1e-5
    assert ad.grad_check(lambda t: ad.conv2d(ad.constant(x), t, 2, 1), k) < 1e-5


def test_relu_values():
    out = ad.relu([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_tanh_values():
    assert ad.tanh([0.0]).data[0] == 0.0
    big = ad.tanh(np.array([50.0, -50.0]))
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


def test_row_broadcast_add_and_gradient():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((5, 3))
    row = rng.standard_normal((1, 3))
    out = ad.add(m, row)
    np.testing.assert_allclose(out.data, m + row)
    assert ad.grad_check(lambda x: ad.add(ad.constant(m), x), row) < 1e-6


def test_broadcast_rejects_non_row():
    with pytest.raises(DimensionError):
        ad.add(np.ones((4, 3)), np.ones((2, 3)))


def test_concat_rows_with_feature_columns():
    pattern = np.arange(12.0).reshape(4, 3)
    feature = np.array([[9.0, 8.0]])
    out = ad.concat([ad.constant(pattern), ad.constant(np.repeat(feature, 4, axis=0))], axis=1)
    assert out.shape == (4, 5)
    np.testing.assert_array_equal(out.data[:, 3:], np.repeat(feature, 4, axis=0))


def test_concat_single_tensor_is_identity():
    x = np.ones((2, 2))
    np.testing.assert_array_equal(ad.concat([x], axis=0).data, x)


def test_concat_mismatch():
    with pytest.raises(DimensionError):
        ad.concat([np.ones((2, 3)), np.ones((2, 4))], axis=0)


def test_concat_gradient_routes_slices():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((3, 4))
    weight = ad.constant(rng.standard_normal((3, 6)))
    assert ad.grad_check(lambda x: ad.mul(ad.concat([x, ad.constant(b)], 1), weight), a) < 1e-6
    assert ad.grad_check(lambda x: ad.mul(ad.concat([ad.constant(a), x], 1), weight), b) < 1e-6


def test_reduce_mean():
    assert ad.reduce_mean([2.0, 4.0, 6.0]).item() == 4.0


def test_sum_gradient_is_ones():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 3))
    assert ad.grad_check(ad.reduce_sum, x) < 1e-10


def test_reduce_dispatch_and_axis_errors():
    out = ad.reduce_sum(np.ones((2, 3)), axis=0)
    np.testing.assert_array_equal(out.data, [2.0, 2.0, 2.0])
    with pytest.raises(DimensionError):
        ad.reduce_sum(np.ones((2, 3)), axis=5)


def test_backward_linear_case():
    # loss = sum(W x) with x fixed: dW = outer(ones, x)
    x = np.array([1.0, 2.0, 3.0])
    tape = ad.Tape()
    p = ad.Parameter("W", np.zeros((2, 3)))
    loss = ad.reduce_sum(ad.matmul(tape.watch(p), ad.constant(x[:, None])))
    grads = ad.backward(loss)
    np.testing.assert_array_equal(grads["W"].data, np.tile(x, (2, 1)))


def test_backward_symmetric_zero():
    tape = ad.Tape()
    p = ad.Parameter("w", np.array([[0.0]]))
    w = tape.watch(p)
    t = ad.tanh(w)
    grads = ad.backward(ad.reduce_sum(ad.mul(t, t)))
    assert grads["w"].data[0, 0] == 0.0


def test_backward_requires_scalar_loss():
    tape = ad.Tape()
    p = ad.Parameter("w", np.ones((2, 2)))
    w = tape.watch(p)
    with pytest.raises(ContractError):
        ad.backward(ad.relu(w))


def test_backward_freezes_tape():
    tape = ad.Tape()
    p = ad.Parameter("w", np.ones((2, 2)))
    w = tape.watch(p)
    ad.backward(ad.reduce_sum(w))
    assert tape.frozen
    with pytest.raises(ContractError):
        ad.relu(w)


def test_backward_releases_tape_nodes():
    tape = ad.Tape()
    w = tape.watch(ad.Parameter("w", np.ones((2, 2))))
    loss = ad.reduce_sum(ad.relu(w))
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
    assert ad.grad_check(lambda t: ad.tanh(ad.matmul(t, ad.constant(b))), x) < 1e-5


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
    row = rng.standard_normal((1, 3))
    m = rng.standard_normal((3, 5))
    img = rng.standard_normal((2, 4, 4))
    ker = rng.standard_normal((2, 2, 3, 3))
    idx = rng.integers(0, 4, size=6)

    checks = [
        lambda x: ad.add(x, ad.constant(b)),
        lambda x: ad.sub(ad.constant(b), x),
        lambda x: ad.mul(x, ad.constant(b)),
        lambda x: ad.scale(x, -2.5),
        lambda x: ad.relu(x),
        lambda x: ad.tanh(x),
        lambda x: ad.matmul(x, ad.constant(m)),
        lambda x: ad.concat([x, ad.constant(b)], axis=0),
        lambda x: ad.reshape(x, (2, 6)),
        lambda x: ad.gather_rows(x, idx),
        lambda x: ad.reduce_sum(x, axis=1),
        lambda x: ad.reduce_mean(x, axis=0),
        lambda x: ad.max_over_columns(x),
        lambda x: ad.row_norm(ad.add(x, ad.constant(np.full((4, 3), 0.1)))),
    ]
    for f in checks:
        assert ad.grad_check(f, a) < GC_TOL
    assert ad.grad_check(lambda x: ad.add(ad.constant(a), x), row) < GC_TOL
    assert ad.grad_check(lambda x: ad.conv2d(x, ad.constant(ker), 1, 1), img) < GC_TOL
    assert ad.grad_check(lambda x: ad.conv2d(ad.constant(img), x, 1, 1), ker) < GC_TOL

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
        h = ad.tanh(ad.matmul(tape.watch(p), ad.constant(x)))
        loss = ad.reduce_sum(ad.mul(h, h))
        return ad.backward(loss)["w"].data, loss.item()

    g1, l1 = run()
    g2, l2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)


def test_tape_topological_order():
    tape = ad.Tape()
    a = tape.watch(ad.Parameter("a", np.ones(2)))
    b = ad.relu(a)
    c = ad.add(a, b)
    for nid, node in enumerate(tape.nodes):
        for input_id in node.inputs:
            assert input_id is None or input_id < nid
    assert c.node_id == len(tape.nodes) - 1
