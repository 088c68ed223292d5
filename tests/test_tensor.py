"""Autodiff core: forward values against numpy, gradients against central FD."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mxt.ssm as S
import mxt.tensor as T
from mxt.tensor import Tensor, Tape, ContractError, DimensionError, NumericError, no_grad
from mxt.gradcheck import check_function, fd_gradients, relative_error

TOL = 1e-6  # FD vs tape at float64, h=1e-5


def rng(seed=0):
    return np.random.default_rng(seed)


def check(build, *arrays):
    worst, _ = check_function(build, list(arrays))
    assert worst < TOL, f"grad mismatch: {worst:.3e}"


# ---- elementwise forward/backward -------------------------------------------


def _gelu(t):
    # gelu is the gate half of gelu_gate; an all-ones value half passes it through
    return T.gelu_gate(T.concat([t, Tensor(np.ones_like(t.data))], axis=1))


UNARY = {
    "neg": (T.neg, lambda x: -x, (-3, 3)),
    "exp": (T.exp, np.exp, (-3, 3)),
    "abs": (T.abs_, np.abs, (0.2, 3)),  # keep away from the kink
    "tanh": (T.tanh, np.tanh, (-3, 3)),
    "silu": (T.silu, lambda x: x / (1 + np.exp(-x)), (-3, 3)),
    "softplus": (T.softplus, lambda x: np.log1p(np.exp(x)), (-3, 3)),
    "relu": (T.relu, lambda x: np.maximum(x, 0), (0.2, 3)),
    "leaky_relu": (T.leaky_relu, lambda x: np.where(x > 0, x, 0.2 * x), (0.2, 3)),
    "gelu": (
        _gelu,
        lambda x: 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3))),
        (-3, 3),
    ),
}


@pytest.mark.parametrize("name", sorted(UNARY))
def test_unary_forward_matches_reference(name):
    op, ref, (lo, hi) = UNARY[name]
    x = rng(1).uniform(lo, hi, (3, 4))
    got = op(Tensor(x, dtype=np.float64)).data
    np.testing.assert_allclose(got, ref(x), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", sorted(UNARY))
def test_unary_gradients(name):
    op, _, (lo, hi) = UNARY[name]
    x = rng(2).uniform(lo, hi, (2, 3))
    check(lambda t: T.sum_(op(t) * Tensor(rng(3).uniform(-1, 1, (2, 3)), dtype=np.float64)), x)


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div])
def test_binary_gradients_with_broadcast(op):
    a = rng(4).uniform(0.5, 2.0, (2, 3, 4))
    b = rng(5).uniform(0.5, 2.0, (3, 1))
    w = Tensor(rng(6).uniform(-1, 1, (2, 3, 4)), dtype=np.float64)
    check(lambda x, y: T.sum_(op(x, y) * w), a, b)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([((2, 3), (2, 3)), ((2, 3), (3,)), ((4, 1, 2), (3, 1)), ((1,), (5, 4)), ((), (2, 2))]),
    st.sampled_from(["add", "mul", "sub"]),
)
def test_broadcast_matches_numpy(shapes, opname):
    sa, sb = shapes
    a = rng(7).uniform(0.5, 2.0, sa)
    b = rng(8).uniform(0.5, 2.0, sb)
    op = {"add": T.add, "mul": T.mul, "sub": T.sub}[opname]
    npop = {"add": np.add, "mul": np.multiply, "sub": np.subtract}[opname]
    out = op(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
    np.testing.assert_array_equal(out.data, npop(a, b))
    # backward reduces over broadcast axes: check against FD
    check(lambda x, y: T.sum_(op(x, y) * op(x, y)), a, b)


def test_shape_mismatch_raises_dimension_error():
    with pytest.raises(DimensionError):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_mixed_width_raises():
    a = Tensor(np.zeros(3), dtype=np.float32)
    b = Tensor(np.zeros(3), dtype=np.float64)
    with pytest.raises(ContractError):
        T.add(a, b)


def test_python_scalar_adopts_tensor_width():
    x = Tensor(np.ones(3), dtype=np.float32)
    assert (x + 0.5).dtype == np.float32
    assert (2.0 * x).dtype == np.float32
    y = Tensor(np.ones(3), dtype=np.float64)
    assert (y / 3).dtype == np.float64


# ---- matmul -------------------------------------------------------------------


def test_matmul_forward_and_grad():
    a = rng(9).standard_normal((3, 4))
    b = rng(10).standard_normal((4, 5))
    out = T.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
    np.testing.assert_allclose(out.data, a @ b, rtol=1e-12)
    w = Tensor(rng(11).standard_normal((3, 5)), dtype=np.float64)
    check(lambda x, y: T.sum_(T.matmul(x, y) * w), a, b)


def test_matmul_batch_broadcast_grad():
    a = rng(12).standard_normal((2, 1, 3, 4))
    b = rng(13).standard_normal((5, 4, 2))
    w = Tensor(rng(14).standard_normal((2, 5, 3, 2)), dtype=np.float64)
    check(lambda x, y: T.sum_(T.matmul(x, y) * w), a, b)


def test_matmul_rank_and_inner_dim_errors():
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(DimensionError):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
    with pytest.raises(DimensionError):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))
    with pytest.raises(ContractError):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)),
                 act="relu")


# ---- reductions ----------------------------------------------------------------


@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), ((0, 2), True), (-1, True)])
def test_sum_mean_max_gradients(axis, keepdims):
    x = rng(15).uniform(-2, 2, (3, 4, 5))
    for red in (T.sum_, T.mean):
        check(lambda t: T.sum_(red(t, axis, keepdims) * 1.7), x)


def test_mean_backward_distributes_inverse_count():
    x = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4), requires_grad=True)
    with Tape():
        T.mean(x).backward()
    np.testing.assert_array_equal(x.grad, np.full((3, 4), 1.0 / 12.0))


def test_sum_multi_axis_matches_numpy():
    x = rng(16).standard_normal((2, 3, 4))
    np.testing.assert_allclose(
        T.sum_(Tensor(x, dtype=np.float64), (0, 2)).data, x.sum(axis=(0, 2)), rtol=1e-12
    )


# ---- attention ---------------------------------------------------------------------


def _softmax(x):
    """softmax(x) along the last axis of x (B, n, n), n = s*s, through
    ``attention``: x^T is q at identity pooling (an s x s image on an s x s
    grid), and one-hot k and v planes make the scores q and the output the
    weights themselves."""
    bsz, n, _ = x.shape
    s = int(round(np.sqrt(n)))
    eye = np.broadcast_to(np.eye(n).reshape(1, n, s, s), (bsz, n, s, s))
    one_hot = Tensor(np.concatenate([eye, eye], axis=1), dtype=x.dtype)
    q = T.reshape(T.transpose(x, (0, 2, 1)), (bsz, n, s, s))
    out = T.attention(T.concat([q, one_hot], axis=1), 1, s)
    return T.transpose(T.reshape(out, (bsz, n, n)), (0, 2, 1))


def test_softmax_known_values():
    x = np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (1, 4, 1))
    out = _softmax(Tensor(x, dtype=np.float64))
    np.testing.assert_allclose(out.data[0, 0], [0.0320586, 0.08714432, 0.23688282, 0.64391426],
                               atol=1e-8)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    x = rng(17).standard_normal((2, 9, 9)) * 50  # large values: needs max subtraction
    out = _softmax(Tensor(x, dtype=np.float64))
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones((2, 9)), atol=1e-12)
    shifted = _softmax(Tensor(x + 123.0, dtype=np.float64))
    np.testing.assert_allclose(out.data, shifted.data, atol=1e-12)


def test_softmax_gradient():
    x = rng(18).standard_normal((2, 4, 4))
    w = Tensor(rng(19).standard_normal((2, 4, 4)), dtype=np.float64)
    check(lambda t: T.sum_(_softmax(t) * w), x)


def test_softmax_nan_raises_numeric_error():
    bad = np.zeros((1, 4, 4))
    bad[0, 1, 2] = np.nan
    with pytest.raises(NumericError):
        _softmax(Tensor(bad, dtype=np.float64))


@pytest.mark.parametrize("heads,pooled,scale", [(1, 2, None), (2, 2, 0.7), (2, 3, None)])
def test_attention_gradients(heads, pooled, scale):
    # 6 x 7 pools onto 2 x 2 with overlapping column windows and onto 3 x 3
    # with uneven ones
    qkv = rng(53).standard_normal((2, 12, 6, 7))
    _fd_check_fused(lambda t: T.attention(t, heads, pooled, scale), [qkv], (2, 4, 6, 7), 54)


def test_attention_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        T.attention(Tensor(np.zeros((1, 8, 4, 4))), 1, 2)    # not three equal thirds
    with pytest.raises(DimensionError):
        T.attention(Tensor(np.zeros((1, 9, 4, 4))), 2, 2)    # 3 channels over 2 heads
    with pytest.raises(ContractError):
        T.attention(Tensor(np.zeros((1, 6, 4, 4))), 1, 0)


def _softmax_node(x, axis):
    """A separate softmax node, as ``attention`` replaces it; it keeps its input."""
    e = np.exp(x.data - x.data.max(axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g, _):
        return (out * (g - (g * out).sum(axis=axis, keepdims=True)),)

    return T._make(out, (x,), bwd)


def _float32_run(op, inputs, out_shape, seed):
    """(output, input grads) of sum(op(*inputs) * w) for a fixed random w."""
    w = Tensor(rng(seed).standard_normal(out_shape).astype(np.float32))
    for t in inputs:
        t.grad = None
    with Tape():
        y = op(*inputs)
        T.sum_(y * w).backward()
    return [y.data] + [t.grad for t in inputs]


def _float32_leaves(seed, *shapes):
    r = rng(seed)
    return [Tensor((r.standard_normal(s) * 2).astype(np.float32), requires_grad=True)
            for s in shapes]


def _attention_chain(qkv, heads, pooled, scale):
    """The unfused ops ``attention`` replaces: slices, pools, the scaled
    scores, the softmax node and the mix with the pooled values."""
    bsz, c3, h, w = qkv.shape
    c = c3 // 3
    dh, n = c // heads, pooled * pooled
    q, k, v = qkv[:, :c], qkv[:, c : 2 * c], qkv[:, 2 * c :]
    kp = T.reshape(T.adaptive_avg_pool2d(k, (pooled, pooled)), (bsz, heads, dh, n))
    vp = T.reshape(T.adaptive_avg_pool2d(v, (pooled, pooled)), (bsz, heads, dh, n))
    s = T.matmul(T.transpose(kp, (0, 1, 3, 2)), T.reshape(q, (bsz, heads, dh, h * w)))
    att = _softmax_node(s if scale is None else s * scale, -2)
    return T.reshape(T.matmul(vp, att), (bsz, c, h, w))


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("scaled", [False, True])
def test_attention_float32_bit_equal_to_unfused_chain(heads, scaled):
    (qkv,) = _float32_leaves(47, (2, 24, 6, 7))
    scale = 1.0 / np.sqrt(8 // heads) if scaled else None
    fused = _float32_run(lambda t: T.attention(t, heads, 2, scale), (qkv,), (2, 8, 6, 7), 48)
    ref = _float32_run(lambda t: _attention_chain(t, heads, 2, scale), (qkv,), (2, 8, 6, 7), 48)
    assert fused[0].dtype == np.float32
    for got, want in zip(fused, ref):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("act", ["silu", "softplus"])
@pytest.mark.parametrize("x_shape", [(2, 5, 4), (2, 3, 5, 4)])
@pytest.mark.parametrize("bias", [True, False])
def test_linear_act_float32_bit_equal_to_unfused_chain(act, x_shape, bias):
    # bias False: an all-zero bias, which must leave the bare product's
    # output and x, w gradients unchanged
    x, w, b = _float32_leaves(51, x_shape, (4, 6), (6,))
    if not bias:
        b = Tensor(np.zeros(6, np.float32), requires_grad=True)
    inputs = (x, w, b) if bias else (x, w)
    out_shape = x_shape[:-1] + (6,)
    unary = getattr(T, act)
    fused = _float32_run(lambda x, w, b: T.linear(x, w, b, act=act), (x, w, b), out_shape, 52)
    ref = _float32_run(lambda x, w, *b: unary(T.matmul(x, w) + b[0] if b else T.matmul(x, w)),
                       inputs, out_shape, 52)
    assert fused[0].dtype == np.float32
    for got, want in zip(fused, ref):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("x_shape", [(2, 5, 4), (2, 3, 5, 4)])
@pytest.mark.parametrize("bias", [True, False])
def test_linear_float32_bit_equal_to_matmul_plus_bias(x_shape, bias):
    # bias False: an all-zero bias, as in the test above
    x, w, b = _float32_leaves(49, x_shape, (4, 6), (6,))
    if not bias:
        b = Tensor(np.zeros(6, np.float32), requires_grad=True)
    inputs = (x, w, b) if bias else (x, w)
    out_shape = x_shape[:-1] + (6,)
    fused = _float32_run(T.linear, (x, w, b), out_shape, 50)
    ref = _float32_run(lambda x, w, *b: T.matmul(x, w) + b[0] if b else T.matmul(x, w),
                       inputs, out_shape, 50)
    assert fused[0].dtype == np.float32
    for got, want in zip(fused, ref):
        assert np.array_equal(got, want)


# ---- shape ops -------------------------------------------------------------------


def test_reshape_transpose_gradients():
    x = rng(20).standard_normal((2, 3, 4))
    w = Tensor(rng(21).standard_normal((4, 6)), dtype=np.float64)
    check(lambda t: T.sum_(T.reshape(t, (4, 6)) * w), x)
    w2 = Tensor(rng(22).standard_normal((4, 2, 3)), dtype=np.float64)
    check(lambda t: T.sum_(T.transpose(t, (2, 0, 1)) * w2), x)


def test_concat_split_roundtrip_and_grads():
    a = rng(23).standard_normal((2, 3))
    b = rng(24).standard_normal((2, 5))
    w = Tensor(rng(25).standard_normal((2, 8)), dtype=np.float64)
    check(lambda x, y: T.sum_(T.concat([x, y], axis=1) * w), a, b)

    x = Tensor(np.arange(12, dtype=np.float64).reshape(2, 6), requires_grad=True)
    with Tape():
        parts = x[:, :2], x[:, 2:]
        np.testing.assert_array_equal(parts[0].data, x.data[:, :2])
        np.testing.assert_array_equal(parts[1].data, x.data[:, 2:])
        (T.sum_(parts[0] * 2.0) + T.sum_(parts[1])).backward()
    expect = np.concatenate([np.full((2, 2), 2.0), np.ones((2, 4))], axis=1)
    np.testing.assert_array_equal(x.grad, expect)


def test_pad_index_gradients():
    x = rng(26).standard_normal((2, 3))
    check(lambda t: T.sum_(t[0:2, 1:3] * 5.0), x)
    # strided slice (used by stride-2 convs)
    y = rng(27).standard_normal((6, 6))
    check(lambda t: T.sum_(t[::2, 1::2] * 2.0), y)


def test_upsample_nearest_forward_and_grad():
    x = np.arange(4, dtype=np.float64).reshape(1, 1, 2, 2)
    up = T.upsample_nearest2x(Tensor(x, dtype=np.float64))
    np.testing.assert_array_equal(
        up.data[0, 0], [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]]
    )
    check(lambda t: T.sum_(T.upsample_nearest2x(t) * 0.7), rng(30).standard_normal((2, 3, 2, 2)))


def test_adaptive_pool_matches_bruteforce_and_grad():
    x = rng(31).standard_normal((2, 3, 7, 5))
    out = T.adaptive_avg_pool2d(Tensor(x, dtype=np.float64), (3, 3)).data
    for i in range(3):
        for j in range(3):
            h0, h1 = int(np.floor(i * 7 / 3)), int(np.ceil((i + 1) * 7 / 3))
            w0, w1 = int(np.floor(j * 5 / 3)), int(np.ceil((j + 1) * 5 / 3))
            np.testing.assert_allclose(out[:, :, i, j], x[:, :, h0:h1, w0:w1].mean(axis=(2, 3)), rtol=1e-12)
    check(lambda t: T.sum_(T.adaptive_avg_pool2d(t, (3, 3)) * 1.1), rng(32).standard_normal((1, 2, 5, 4)))


def test_adaptive_pool_upscales_with_overlapping_windows():
    # smaller input than output grid: every window still non-empty
    x = rng(33).standard_normal((1, 1, 4, 4))
    out = T.adaptive_avg_pool2d(Tensor(x, dtype=np.float64), (8, 8))
    assert out.shape == (1, 1, 8, 8)
    assert np.isfinite(out.data).all()
    check(lambda t: T.sum_(T.adaptive_avg_pool2d(t, (8, 8)) * 0.3), x[0, 0][None, None])


# ---- tape mechanics ---------------------------------------------------------------


def test_fanout_accumulates():
    x = Tensor(np.array(3.0), requires_grad=True, dtype=np.float64)
    with Tape():
        y = x + x
        y.backward()
    assert x.grad == 2.0


def test_second_backward_raises_and_leaf_grads_accumulate_across_graphs():
    x = Tensor(np.array(2.0), requires_grad=True, dtype=np.float64)
    with Tape():
        y = x * x
        y.backward()
        first = x.grad.copy()
        # the sweep freed y's graph: sweeping it again must not pass for a leaf
        with pytest.raises(ContractError, match="already swept"):
            y.backward()
        np.testing.assert_array_equal(x.grad, first)
        assert y.grad is None
        # a second forward pass is a new graph, and its gradient adds on
        (x * x).backward()
    np.testing.assert_array_equal(x.grad, 2 * first)


def test_sweep_frees_each_node_it_passes():
    import gc
    import weakref

    x = Tensor(np.ones(1000), requires_grad=True, dtype=np.float64)
    gc.disable()
    try:
        with Tape() as tape:
            hidden = T.exp(x) * 2.0
            ref = weakref.ref(hidden.data)
            loss = T.sum_(hidden)
            del hidden
            assert len(tape) == 3
            loss.backward()
            # refcounting alone frees it, before the tape exits
            assert ref() is None
            assert len(tape) == 0
    finally:
        gc.enable()
    np.testing.assert_allclose(x.grad, 2.0 * np.e)


def test_sweep_through_a_consumed_node_raises():
    x = Tensor(np.arange(3.0), requires_grad=True, dtype=np.float64)
    with Tape():
        shared = x * 2.0
        first = T.sum_(shared)
        second = T.sum_(shared * 3.0)
        first.backward()
        with pytest.raises(ContractError, match="already swept"):
            second.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_disjoint_sweeps_on_one_tape_match_separate_tapes():
    # the shape of a GAN step: D's loss sees G's output detached, G's loss
    # sees D's parameters as leaves; both graphs are swept on one tape
    r = rng(41)
    gw = r.standard_normal((3, 4))
    dw = r.standard_normal((4, 1))
    xs = r.standard_normal((5, 3))

    def run(one_tape):
        g = Tensor(gw, requires_grad=True, dtype=np.float64)
        d = Tensor(dw, requires_grad=True, dtype=np.float64)
        x = Tensor(xs, dtype=np.float64)

        def losses():
            fake = T.tanh(x @ g)
            d_loss = T.mean(T.softplus(fake.detach() @ d))
            g_loss = T.mean(T.softplus(-(fake @ d))) + T.mean(fake * fake)
            return d_loss, g_loss

        if one_tape:
            with Tape() as tape:
                d_loss, g_loss = losses()
                total = len(tape)
                d_loss.backward()
                left = len(tape)
                g_loss.backward()
                # each sweep took exactly its own graph off the tape
                assert 0 < left < total and len(tape) == 0
        else:
            for i in range(2):
                with Tape():
                    losses()[i].backward()
        return g.grad, d.grad

    for a, b in zip(run(True), run(False)):
        np.testing.assert_array_equal(a, b)


def test_ops_outside_a_tape_record_nothing():
    import gc
    import weakref

    x = Tensor(np.ones(1000), requires_grad=True, dtype=np.float64)
    gc.disable()
    try:
        hidden = T.exp(x)
        ref = weakref.ref(hidden.data)
        y = T.sum_(hidden * 2.0)
        del hidden
        assert ref() is None
    finally:
        gc.enable()
    assert len(T.active_tape()) == 0
    assert not y.requires_grad
    with pytest.raises(ContractError, match="Tape"):
        y.backward()
    assert x.grad is None


def test_diamond_graph_visits_each_node_once():
    x = Tensor(np.array(1.5), requires_grad=True, dtype=np.float64)
    with Tape():
        a = x * 2.0
        out = a * 3.0 + a * 4.0  # a fans out
        out.backward()
    assert x.grad == pytest.approx(14.0)


def test_backward_requires_scalar_root():
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    with Tape():
        y = x * 2.0
        with pytest.raises(ContractError):
            y.backward()


def test_no_grad_records_nothing():
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        with T.no_grad():
            y = x * 2.0
        assert len(tape) == 0
        assert not y.requires_grad


def test_innermost_tape_or_no_grad_decides_recording():
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    with T.no_grad():
        with Tape() as tape:
            with T.no_grad():
                assert not (x * 2.0).requires_grad
            y = T.sum_(x * 2.0)
            assert len(tape) == 2 and y.requires_grad
            y.backward()
        assert not (x * 2.0).requires_grad
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_detach_blocks_gradient():
    x = Tensor(np.array(2.0), requires_grad=True, dtype=np.float64)
    with Tape():
        y = x * 3.0
        z = y.detach() * x
        z.backward()
    assert x.grad == pytest.approx(6.0)  # only the direct factor, not through y


def test_grad_mode_and_open_tapes_are_per_thread():
    import threading

    # three threads meet at each barrier: one sits in no_grad, one records
    # on its own tape, the main thread runs an op outside any tape
    w = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    meet = threading.Barrier(3, timeout=10)
    seen = {}

    def quiet():
        with T.no_grad():
            meet.wait()
            meet.wait()

    def record():
        with Tape() as tape:
            meet.wait()
            seen["y"] = w * 2.0
            meet.wait()
            seen["nodes"] = len(tape)

    threads = [threading.Thread(target=f) for f in (quiet, record)]
    for t in threads:
        t.start()
    meet.wait()
    z = w * 3.0
    meet.wait()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert seen["nodes"] == 1 and seen["y"].requires_grad
    assert not z.requires_grad and len(T.active_tape()) == 0


def test_tape_context_isolates_recording():
    x = Tensor(np.array(1.0), requires_grad=True, dtype=np.float64)
    outer = Tape()
    with outer:
        _ = x * 2.0
        inner = Tape()
        with inner:
            y = x * 5.0
        assert len(inner) == 1
    assert len(outer) == 1


def test_grad_dtype_follows_input_width():
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float32)
    with Tape():
        T.sum_(x * 2.0).backward()
    assert x.grad.dtype == np.float32


def test_fd_oracle_self_consistent():
    # the FD machinery itself, checked on a function with a known gradient
    f = lambda a: float(np.sum(a * a))
    x = rng(34).standard_normal((2, 2))
    (g,) = fd_gradients(f, [x.copy()])
    assert relative_error(2 * x, g) < 1e-8


# ---- forward-time values, index contract, tape lifetime ----------------------


def _affine_tanh(w, b):
    # a two-parameter chain for recompute: tanh(x @ w + b) * x
    return lambda x: T.tanh(T.linear(x, w, b)) * x


# every op that records a node, with the shapes of its inputs
FORWARD_TIME_OPS = {
    "add": (T.add, [(2, 3), (3,)]),
    "sub": (T.sub, [(2, 3), (1, 3)]),
    "mul": (T.mul, [(2,), (1, 2)]),
    "div": (T.div, [(2, 3), (2, 3)]),
    "neg": (T.neg, [(2, 3)]),
    "exp": (T.exp, [(2, 3)]),
    "abs": (T.abs_, [(2, 3)]),
    "tanh": (T.tanh, [(2, 3)]),
    "silu": (T.silu, [(2, 3)]),
    "relu": (T.relu, [(2, 3)]),
    "leaky_relu": (T.leaky_relu, [(2, 3)]),
    "softplus": (T.softplus, [(2, 3)]),
    "gelu_gate": (T.gelu_gate, [(2, 4, 3)]),
    "matmul": (T.matmul, [(2, 3, 4), (4, 5)]),
    "linear": (T.linear, [(3, 4), (4, 5), (5,)]),
    "linear_silu": (lambda x, w, b: T.linear(x, w, b, "silu"), [(3, 4), (4, 5), (5,)]),
    "linear_softplus": (lambda x, w, b: T.linear(x, w, b, "softplus"), [(3, 4), (4, 5), (5,)]),
    "sum": (lambda x: T.sum_(x, axis=1), [(2, 3)]),
    "mean": (lambda x: T.mean(x, axis=(0, 2), keepdims=True), [(2, 3, 4)]),
    "reshape": (lambda x: T.reshape(x, (3, 2)), [(2, 3)]),
    "transpose": (lambda x: T.transpose(x, (1, 0)), [(2, 3)]),
    "concat": (lambda a, b: T.concat([a, b], axis=1), [(2, 3), (2, 2)]),
    "index": (lambda x: x[1:, ::2], [(3, 4)]),
    "upsample_nearest2x": (T.upsample_nearest2x, [(1, 2, 2, 3)]),
    "adaptive_avg_pool2d": (lambda x: T.adaptive_avg_pool2d(x, (2, 2)), [(1, 2, 5, 4)]),
    "conv2d": (lambda x, w, b: T.conv2d(x, w, b, 3, 1, 1), [(2, 2, 4, 4), (18, 3), (3,)]),
    "depthwise_conv2d": (lambda x, w, b: T.depthwise_conv2d(x, w, b, 3, 1),
                         [(2, 2, 4, 4), (9, 2), (2,)]),
    "causal_conv1d": (T.causal_conv1d, [(2, 5, 3), (2, 3), (3,)]),
    "layer_norm": (lambda x, g, b: T.layer_norm(x, g, b, axis=1), [(2, 3, 2, 2), (3,), (3,)]),
    "attention": (lambda qkv: T.attention(qkv, 2, 2, 0.7), [(1, 12, 4, 5)]),
    "zoh_gain": (S.zoh_gain, [(3,), (2, 3)]),
    "scan_recurrence": (lambda *ts: S.scan_recurrence(*ts, chunk_len=2),
                        [(1, 5, 2), (1, 5, 2), (2, 3), (1, 5, 3), (1, 5, 3)]),
    "recompute": (lambda x, w, b: T.recompute(_affine_tanh(w, b), (x,), (w, b)),
                  [(3, 4), (4, 4), (4,)]),
}


@pytest.mark.parametrize("name", list(FORWARD_TIME_OPS))
def test_backward_uses_forward_time_values(name):
    # an optimizer step rebinds .data between forward and backward; the
    # gradient must still be that of the value the forward pass computed.
    # Inputs lie in [0.5, 2), and the rebind flips their sign.
    op, shapes = FORWARD_TIME_OPS[name]

    def grads(rebind):
        r = rng(79)
        ts = [Tensor(r.uniform(0.5, 2.0, s), requires_grad=True, dtype=np.float64) for s in shapes]
        with Tape():
            y = op(*ts)
            loss = T.sum_(y * Tensor(r.standard_normal(y.shape), dtype=np.float64))
            if rebind:
                for t in ts:
                    t.data = -2.0 * t.data
            loss.backward()
        return [t.grad for t in ts]

    for clean, moved in zip(grads(False), grads(True)):
        assert clean is not None
        np.testing.assert_array_equal(clean, moved)


@pytest.mark.parametrize("idx", [np.array([0, 0, 1]), [0, 0, 1], np.array([True, False, True]),
                                 (slice(None), np.array([0, 0]))])
def test_index_rejects_non_basic_indices(idx):
    # repeated integer-array indices would need an accumulating scatter
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True, dtype=np.float64)
    with pytest.raises(ContractError):
        x[idx]


def test_index_basic_forms_still_differentiate():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True, dtype=np.float64)
    with Tape():
        y = T.sum_(x[1]) + T.sum_(x[np.int64(2), 1:3]) + T.sum_(x[..., None][:, 0])
        y.backward()
    expected = np.zeros((3, 4))
    expected[1] += 1
    expected[2, 1:3] += 1
    expected[:, 0] += 1
    np.testing.assert_array_equal(x.grad, expected)


def test_tape_exit_frees_recorded_activations():
    import gc
    import weakref

    x = Tensor(np.ones(1000), requires_grad=True, dtype=np.float64)
    gc.disable()
    try:
        with Tape():
            loss = T.sum_(T.exp(x) * 2.0)
            ref = weakref.ref(T.active_tape().nodes[0].out.data)
            loss.backward()
        # only refcounting runs here: the node <-> tensor cycles must be gone
        assert ref() is None
    finally:
        gc.enable()
    np.testing.assert_allclose(x.grad, 2.0 * np.e)


def test_backward_under_another_tape_raises():
    # a sweep of the inner tape would never reach the root: it must not be
    # a silent no-op
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    with Tape() as outer:
        y = T.sum_(x * 2.0)
        with Tape():
            with pytest.raises(ContractError, match="active tape"):
                y.backward()
        assert len(outer) == 2 and x.grad is None
        y.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_backward_after_tape_exit_raises():
    # the root's node was cut when its tape closed; it must not pass for a leaf
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    with Tape():
        y = T.sum_(x * 2.0)
    with pytest.raises(ContractError, match="exited"):
        y.backward()
    assert x.grad is None and y.grad is None


# ---- recompute, read-only recorded outputs -------------------------------------


def test_recompute_gradients_match_fd():
    def build(x, w, b):
        return T.sum_(T.recompute(_affine_tanh(w, b), (x,), (w, b)))
    check(build, rng(60).standard_normal((3, 4)), rng(61).standard_normal((4, 4)),
          rng(62).standard_normal(4))


def test_recompute_records_one_node_and_frees_the_chain():
    w = Tensor(rng(63).standard_normal((4, 4)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng(64).standard_normal(4), requires_grad=True, dtype=np.float64)
    x = Tensor(rng(65).standard_normal((3, 4)), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        y = T.recompute(_affine_tanh(w, b), (x,), (w, b))
        assert len(tape) == 1
        assert tape.nodes[0].inputs == (x, w, b)
        assert tape.nodes[0].bwd.__qualname__ == "recompute.<locals>.bwd"
        T.sum_(y).backward()
        assert len(tape) == 0
    # without a tape, or under no_grad, it is a plain call of fn
    plain = _affine_tanh(w, b)(x)
    with no_grad():
        np.testing.assert_array_equal(T.recompute(_affine_tanh(w, b), (x,), (w, b)).data,
                                      plain.data)


def test_recompute_with_a_constant_input_still_gives_parameter_gradients():
    # no input needs grad, but the parameters do: the node must be recorded
    w = Tensor(rng(66).standard_normal((4, 4)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng(67).standard_normal(4), requires_grad=True, dtype=np.float64)
    x = Tensor(rng(68).standard_normal((3, 4)), dtype=np.float64)
    with Tape():
        T.sum_(_affine_tanh(w, b)(x)).backward()
    want = w.grad, b.grad
    w.grad = b.grad = None
    with Tape() as tape:
        y = T.recompute(_affine_tanh(w, b), (x,), (w, b))
        assert len(tape) == 1
        T.sum_(y).backward()
    np.testing.assert_array_equal(w.grad, want[0])
    np.testing.assert_array_equal(b.grad, want[1])
    assert x.grad is None


def test_nested_recompute_matches_the_recorded_chain():
    w = Tensor(rng(69).standard_normal((4, 4)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng(70).standard_normal(4), requires_grad=True, dtype=np.float64)
    inner = _affine_tanh(w, b)

    def outer(x, z):
        return T.recompute(inner, (x * z,), (w, b)) + T.exp(z)

    def grads(run):
        x = Tensor(rng(71).standard_normal((3, 4)), requires_grad=True, dtype=np.float64)
        z = Tensor(rng(72).standard_normal((3, 4)), requires_grad=True, dtype=np.float64)
        w.grad = b.grad = None
        with Tape():
            T.sum_(run(x, z)).backward()
        return x.grad, z.grad, w.grad, b.grad

    want = grads(lambda x, z: inner(x * z) + T.exp(z))
    got = grads(lambda x, z: T.recompute(outer, (x, z), (w, b)))
    for a, e in zip(got, want):
        np.testing.assert_array_equal(a, e)


def test_recompute_backward_uses_forward_time_parameters():
    # an optimizer step rebinds .data between forward and backward; the rerun
    # must see the forward-time weights, and the new ones must stay bound
    def grads(rebind):
        w = Tensor(rng(73).standard_normal((4, 4)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng(74).standard_normal(4), requires_grad=True, dtype=np.float64)
        x = Tensor(rng(75).standard_normal((3, 4)), requires_grad=True, dtype=np.float64)
        with Tape():
            y = T.sum_(T.recompute(_affine_tanh(w, b), (x,), (w, b)))
            moved = w.data * 10.0
            if rebind:
                w.data = moved
            y.backward()
        if rebind:
            assert w.data is moved
        return x.grad, w.grad, b.grad

    for clean, moved in zip(grads(False), grads(True)):
        np.testing.assert_array_equal(clean, moved)


def test_recorded_outputs_are_read_only():
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    with Tape():
        y = T.exp(x)
        with pytest.raises(ValueError, match="read-only"):
            y.data += 1.0
        T.sum_(y).backward()
    np.testing.assert_allclose(x.grad, np.e)
    # nothing recorded, nothing frozen
    assert T.exp(x).data.flags.writeable
    assert x.data.flags.writeable


def test_softplus_float32_tails_are_finite_and_quiet():
    import warnings

    x = Tensor(np.array([-100.0, -80.0, 80.0, 100.0], dtype=np.float32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = T.softplus(x).data
    assert y.dtype == np.float32 and np.isfinite(y).all()
    # exp(-100) is subnormal in float32, hence the absolute floor
    np.testing.assert_allclose(y, [np.exp(-100.0), np.exp(-80.0), 80.0, 100.0],
                               rtol=1e-6, atol=1e-44)


# ---- fused layer ops: FD in every input on random shapes ----------------------------


def _fd_check_fused(op, arrays, out_shape, seed):
    w = Tensor(rng(seed).standard_normal(out_shape), dtype=np.float64)
    check(lambda *ts: T.sum_(op(*ts) * w), *arrays)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3), st.integers(3, 5),
       st.integers(3, 5), st.sampled_from([1, 3]), st.sampled_from([1, 2]),
       st.sampled_from([0, 1]), st.integers(0, 2**16))
def test_conv2d_gradients_property(bsz, cin, cout, h, w, k, stride, pad, seed):
    r = rng(seed)
    arrays = [r.standard_normal((bsz, cin, h, w)), r.standard_normal((k * k * cin, cout)),
              r.standard_normal(cout)]
    oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    _fd_check_fused(lambda x, wt, b: T.conv2d(x, wt, b, k, stride, pad),
                    arrays, (bsz, cout, oh, ow), seed + 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.integers(1, 3), st.integers(3, 5), st.integers(3, 5),
       st.sampled_from([1, 3]), st.sampled_from([0, 1]), st.integers(0, 2**16))
def test_depthwise_conv2d_gradients_property(bsz, c, h, w, k, pad, seed):
    r = rng(seed)
    arrays = [r.standard_normal((bsz, c, h, w)), r.standard_normal((k * k, c)),
              r.standard_normal(c)]
    out = (bsz, c, h + 2 * pad - k + 1, w + 2 * pad - k + 1)
    _fd_check_fused(lambda x, wt, b: T.depthwise_conv2d(x, wt, b, k, pad),
                    arrays, out, seed + 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.integers(1, 7), st.integers(1, 3), st.integers(1, 4),
       st.integers(0, 2**16))
def test_causal_conv1d_gradients_property(bsz, length, c, k, seed):
    r = rng(seed)
    arrays = [r.standard_normal((bsz, length, c)), r.standard_normal((k, c)),
              r.standard_normal(c)]
    _fd_check_fused(T.causal_conv1d, arrays, (bsz, length, c), seed + 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([1, -1]), st.integers(0, 2**16))
def test_layer_norm_gradients_property(bsz, c, h, w, axis, seed):
    r = rng(seed)
    shape = (bsz, c, h, w) if axis == 1 else (bsz, h * w, c)
    arrays = [r.standard_normal(shape) * 2.0 + 1.0, r.standard_normal(c), r.standard_normal(c)]
    _fd_check_fused(lambda x, g, b: T.layer_norm(x, g, b, axis=axis), arrays, shape, seed + 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**16))
def test_gelu_gate_gradients_property(n, h, m, seed):
    y = rng(seed).uniform(-4, 4, (n, 2 * h, m))
    _fd_check_fused(T.gelu_gate, [y], (n, h, m), seed + 1)


def test_gelu_gate_float32_bit_equal_to_gelu_times_value():
    # the arithmetic of gelu(a) * b as separate numpy steps, a and b the halves
    r = rng(45)
    y = Tensor(r.uniform(-4, 4, (2, 10, 3, 5)).astype(np.float32), requires_grad=True)
    w = Tensor(r.standard_normal((2, 5, 3, 5)).astype(np.float32))
    a, b, g = y.data[:, :5].copy(), y.data[:, 5:].copy(), w.data
    c, k = 0.7978845608028654, 0.044715
    t = np.tanh(c * (a + k * (a * a * a)))
    gelu = (1.0 + t) * a * 0.5
    dgelu = 0.5 * (1.0 + t) + 0.5 * a * ((1.0 - t * t) * (c * (1.0 + 3.0 * k * (a * a))))
    with Tape():
        out = T.gelu_gate(y)
        T.sum_(out * w).backward()
    assert out.dtype == np.float32 and y.grad.dtype == np.float32
    assert np.array_equal(out.data, gelu * b)
    assert np.array_equal(y.grad[:, :5], (g * b) * dgelu)
    assert np.array_equal(y.grad[:, 5:], g * gelu)


def test_gelu_gate_rejects_odd_channels():
    with pytest.raises(DimensionError):
        T.gelu_gate(Tensor(np.zeros((1, 3, 2))))


def test_fused_ops_record_one_node_and_keep_float32():
    r = rng(40)

    def leaf(*shape):
        return Tensor(r.standard_normal(shape).astype(np.float32), requires_grad=True)

    x4, x3 = leaf(2, 3, 5, 5), leaf(2, 6, 3)
    cases = [
        (T.conv2d, (x4, leaf(27, 4), leaf(4)), (3, 2, 1)),
        (T.depthwise_conv2d, (x4, leaf(9, 3), leaf(3)), (3, 1)),
        (T.causal_conv1d, (x3, leaf(4, 3), leaf(3)), ()),
        (T.layer_norm, (x4, leaf(3), leaf(3)), (1,)),
        (T.gelu_gate, (x3,), ()),
        (T.linear, (x3, leaf(3, 4), leaf(4)), ()),
        (T.linear, (x3, leaf(3, 4), leaf(4)), ("silu",)),
        (T.linear, (x3, leaf(3, 4), leaf(4)), ("softplus",)),
        (T.attention, (x4,), (1, 2, 0.5)),
    ]
    for op, inputs, args in cases:
        with Tape() as tape:
            y = op(*inputs, *args)
            loss = T.sum_(y)
            assert len(tape) == 2  # the op and the sum
            loss.backward()
        assert y.dtype == np.float32
        assert all(t.grad is not None and t.grad.dtype == np.float32 for t in inputs)
