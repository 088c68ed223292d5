"""Selective scan: series oracle for ZOH, unrolled-recurrence oracle, adjoint FD."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mxt.ssm as S
from mxt.blocks import SsmParams
import mxt.tensor as T
from mxt.gradcheck import check_function
from mxt.tensor import ContractError, DimensionError, NumericError, Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


# ---- oracles -----------------------------------------------------------------


def zoh_series_oracle(a: float, delta: float, terms: int = 30):
    """(a_bar, phi) from a truncated exponential series at 50 decimal digits.

    exp(x) ~ sum_{k<terms} x^k/k!; phi = (exp(x)-1)/a = delta * sum x^k/(k+1)!
    evaluated directly so a = 0 never divides.
    """
    with mp.workdps(50):
        x = mp.mpf(delta) * mp.mpf(a)
        a_bar = mp.mpf(0)
        term = mp.mpf(1)
        for k in range(terms):
            a_bar += term
            term = term * x / (k + 1)
        phi = mp.mpf(0)
        term = mp.mpf(delta)
        for k in range(terms - 1):
            phi += term
            term = term * x / (k + 2)
        return float(a_bar), float(phi)


def unrolled_recurrence(a, b):
    """Dumb elementwise loop over every index; the ground truth."""
    h = np.zeros_like(b)
    B, L = b.shape[0], b.shape[1]
    rest = b.shape[2:]
    for i in range(B):
        for t in range(L):
            for idx in np.ndindex(*rest):
                prev = h[(i, t - 1) + idx] if t > 0 else 0.0
                h[(i, t) + idx] = a[(i, t) + idx] * prev + b[(i, t) + idx]
    return h


def recurrence_chunked(a, b, chunk_len):
    """The recurrence stepped chunk_len steps at a time with the fused scan's
    own kernel, `_step_chunk`, in its time-major layout, carrying the state
    between chunks. Every chunk_len gives the sequential update bit for bit."""
    h = np.empty_like(b)
    a_tm, b_tm, h_tm = (v.swapaxes(0, 1) for v in (a, b, h))
    carry = np.zeros(b.shape[:1] + b.shape[2:], dtype=b.dtype)
    for s in range(0, b.shape[1], chunk_len):
        e = min(s + chunk_len, b.shape[1])
        h_tm[s:e] = S._step_chunk(a_tm[s:e].copy(), b_tm[s:e], carry)
        carry = h_tm[e - 1]
    return h


# ---- ZOH discretization ---------------------------------------------------------


ZOH_GRID_A = [-16.0, -4.0, -1.0, -1e-2, -1e-5, 1e-5, 0.5, 2.0]
ZOH_GRID_D = [0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 0.05, 0.5, 2.0]


def test_zoh_matches_series_oracle_everywhere():
    worst = 0.0
    for a in ZOH_GRID_A:
        for d in ZOH_GRID_D:
            if abs(a * d) > 5.0:
                continue  # 30-term series itself degrades past |x| ~ 5
            ref_abar, ref_phi = zoh_series_oracle(a, d)
            a_bar, b_bar = S.discretize_zoh(
                Tensor(np.float64(a), dtype=np.float64),
                Tensor(np.float64(1.0), dtype=np.float64),
                Tensor(np.float64(d), dtype=np.float64),
            )
            ra = abs(a_bar.item() - ref_abar) / max(abs(ref_abar), 1e-300)
            rb = abs(b_bar.item() - ref_phi) / max(abs(ref_phi), 1e-300) if d > 0 else abs(b_bar.item())
            worst = max(worst, ra, rb)
    assert worst < 1e-12, f"worst ZOH rel err {worst:.3e}"


def test_zoh_small_delta_limits():
    a = Tensor(np.float64(-3.7), dtype=np.float64)
    b = Tensor(np.float64(1.3), dtype=np.float64)
    d = Tensor(np.float64(1e-10), dtype=np.float64)
    a_bar, b_bar = S.discretize_zoh(a, b, d)
    assert abs(a_bar.item() - 1.0) < 1e-9
    assert abs(b_bar.item() - 1e-10 * 1.3) / (1e-10 * 1.3) < 1e-9


def test_zoh_delta_zero_boundary():
    a_bar, b_bar = S.discretize_zoh(
        Tensor(np.float64(-2.0), dtype=np.float64),
        Tensor(np.float64(5.0), dtype=np.float64),
        Tensor(np.float64(0.0), dtype=np.float64),
    )
    assert a_bar.item() == 1.0
    assert b_bar.item() == 0.0


def test_zoh_negative_delta_rejected():
    with pytest.raises(ContractError):
        S.discretize_zoh(
            Tensor(np.float64(-1.0), dtype=np.float64),
            Tensor(np.float64(1.0), dtype=np.float64),
            Tensor(np.float64(-1e-6), dtype=np.float64),
        )


def test_zoh_branch_is_continuous_at_crossover():
    # values straddling the 1e-8 branch point agree to ~1e-15
    a = -1.0
    for d in (0.9e-8, 1.1e-8):
        got = S.discretize_zoh(
            Tensor(np.float64(a), dtype=np.float64),
            Tensor(np.float64(1.0), dtype=np.float64),
            Tensor(np.float64(d), dtype=np.float64),
        )[1].item()
        ref = zoh_series_oracle(a, d)[1]
        assert abs(got - ref) / ref < 1e-13


def test_zoh_gradients():
    a = rng(1).uniform(-4, -0.5, (3, 2))
    b = rng(2).uniform(-1, 1, (3, 2))
    d = rng(3).uniform(1e-3, 0.5, (3, 2))

    def f(at, bt, dt):
        a_bar, b_bar = S.discretize_zoh(at, bt, dt)
        return T.sum_(a_bar * 1.3) + T.sum_(b_bar * 0.7)

    worst, _ = check_function(f, [a, b, d])
    assert worst < 1e-6


def test_zoh_gradients_in_series_branch():
    a = rng(4).uniform(-2, -0.5, (2, 2))
    b = rng(5).uniform(-1, 1, (2, 2))
    d0 = rng(6).uniform(1e-10, 4e-9, (2, 2))

    # delta this small would vanish under h=1e-5 central differences, so FD
    # runs on a scaled parameterization: delta = d0 * s with s near 1
    def f(at, bt, st):
        dt = Tensor(d0, dtype=np.float64) * st
        a_bar, b_bar = S.discretize_zoh(at, bt, dt)
        return T.sum_(b_bar) + T.sum_(a_bar)

    worst, _ = check_function(f, [a, b, np.ones((2, 2))])
    assert worst < 1e-6


# ---- recurrence kernels ----------------------------------------------------------


def test_sequential_matches_unrolled_oracle():
    a = rng(7).uniform(-0.9, 0.9, (2, 9, 3, 2))
    b = rng(8).standard_normal((2, 9, 3, 2))
    np.testing.assert_allclose(S.recurrence_sequential(a, b), unrolled_recurrence(a, b), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("chunk", [1, 3, 16, 64])
def test_chunked_matches_unrolled_oracle(chunk):
    a = rng(9).uniform(-0.99, 0.99, (2, 21, 2, 2))
    b = rng(10).standard_normal((2, 21, 2, 2))
    got = recurrence_chunked(a, b, chunk)
    np.testing.assert_allclose(got, unrolled_recurrence(a, b), rtol=1e-10, atol=1e-12)


def test_chunk_len_one_is_bitwise_sequential():
    a = rng(11).uniform(-1, 1, (3, 50, 4))
    b = rng(12).standard_normal((3, 50, 4))
    seq = S.recurrence_sequential(a, b)
    ch1 = recurrence_chunked(a, b, 1)
    assert np.array_equal(seq, ch1)


@settings(max_examples=25, deadline=None)
@given(
    L=st.integers(1, 40),
    chunk=st.sampled_from([1, 2, 3, 5, 8, 64]),
    seed=st.integers(0, 10_000),
)
def test_chunked_equals_sequential_property(L, chunk, seed):
    r = np.random.default_rng(seed)
    a = r.uniform(0.0, 1.0, (1, L, 3)).astype(np.float64)
    b = r.standard_normal((1, L, 3))
    np.testing.assert_allclose(
        recurrence_chunked(a, b, chunk), S.recurrence_sequential(a, b), rtol=1e-11, atol=1e-13
    )


def scan_inputs(B=1, L=7, E=2, N=3, seed=13):
    """float64 (x, delta, a, b, c) for the fused op; delta well inside > 0."""
    r = rng(seed)
    return [r.standard_normal((B, L, E)), r.uniform(0.05, 0.6, (B, L, E)),
            -r.uniform(0.5, 4.0, (E, N)), r.standard_normal((B, L, N)),
            r.standard_normal((B, L, N))]


def f64(arr):
    return Tensor(arr, dtype=np.float64)


def test_scan_recurrence_gradients_vs_fd():
    # L = 7: chunk 3 leaves a partial last chunk, chunk 1 is the plain
    # sequential update, chunk 7 runs the whole sequence as one chunk
    arrays = scan_inputs()
    w = f64(rng(15).standard_normal((1, 7, 2)))
    for chunk in (1, 3, 7):
        worst, errs = check_function(
            lambda *ts: T.sum_(S.scan_recurrence(*ts, chunk_len=chunk) * w), arrays)
        assert worst < 1e-6, f"chunk {chunk}: {worst:.3e} {errs}"


def test_scan_float32_bit_equal_to_reference_at_paper_level0():
    # paper layout, level 0 of a 64x64 image: E = 2*16 channels, N = 8, L = 64^2
    p = SsmParams(32, 8, rng(30), False, dtype=np.float32)
    x = Tensor(rng(31).standard_normal((1, 64 * 64, 32)).astype(np.float32))
    with T.no_grad():
        delta, bt, ct = S.selective_discrete(x, p)
        E, N = p.a_log.shape
        a_bar, b_bar = S.discretize_zoh(T.reshape(p.decay(), (1, 1, E, N)),
                                        T.reshape(bt, (1, 64 * 64, 1, N)),
                                        T.reshape(delta, (1, 64 * 64, E, 1)))
        h = recurrence_chunked(a_bar.data, b_bar.data * x.data[..., None], 64)
        ref = (h * ct.data[:, :, None, :]).sum(axis=-1)
        got = S.scan_chunked(x, p, chunk_len=64).data
    assert got.dtype == np.float32
    assert np.array_equal(got, ref)


def unfused_scan_f32(x, p, recurrence=lambda a, b: recurrence_chunked(a, b, 64)):
    """The level-0 test's reference chain: discretize_zoh, a recurrence kernel
    (recurrence_chunked by default) and a readout summed over the trailing N
    axis."""
    bsz, L, E = x.shape
    N = p.a_log.shape[1]
    with T.no_grad():
        delta, bt, ct = S.selective_discrete(x, p)
        a_bar, b_bar = S.discretize_zoh(T.reshape(p.decay(), (1, 1, E, N)),
                                        T.reshape(bt, (bsz, L, 1, N)),
                                        T.reshape(delta, (bsz, L, E, 1)))
        h = recurrence(a_bar.data, b_bar.data * x.data[..., None])
        return (h * ct.data[:, :, None, :]).sum(axis=-1)


@pytest.mark.parametrize("E,L", [(64, 32 * 32), (128, 16 * 16), (256, 8 * 8), (32, 1000)])
def test_scan_float32_bit_equal_to_reference_at_every_paper_level(E, L):
    # levels 1-3 of the paper layout on a 64x64 image (level 0 is the test
    # above), plus a ragged last chunk
    p = SsmParams(E, 8, rng(40 + E), False, dtype=np.float32)
    x = Tensor(rng(41).standard_normal((1, L, E)).astype(np.float32))
    with T.no_grad():
        got = S.scan_chunked(x, p, chunk_len=64).data
    assert got.dtype == np.float32
    assert np.array_equal(got, unfused_scan_f32(x, p))


@pytest.mark.parametrize("chunk_len", [1, 7, 64])
@pytest.mark.parametrize("B", [1, 2])
@pytest.mark.parametrize("E,L", [(32, 64 * 64), (64, 32 * 32), (128, 16 * 16), (256, 8 * 8),
                                 (32, 1000)])
def test_scan_float32_bit_equal_to_sequential_chain(E, L, B, chunk_len):
    # the fused op steps every chunk in the sequential update's arithmetic,
    # so chunk_len sets only the block size, never the rounding
    p = SsmParams(E, 8, rng(50 + E), False, dtype=np.float32)
    x = Tensor(rng(51).standard_normal((B, L, E)).astype(np.float32))
    with T.no_grad():
        got = S.scan_chunked(x, p, chunk_len=chunk_len).data
    assert np.array_equal(got, unfused_scan_f32(x, p, S.recurrence_sequential))


@pytest.mark.parametrize("N", list(range(1, 21)) + [64, 128, 129, 300])
def test_sum_states_is_bitwise_numpy_sum(N):
    p = rng(N).standard_normal((2, 5, N, 33)).astype(np.float32)
    ref = np.ascontiguousarray(p.transpose(0, 1, 3, 2)).sum(axis=-1)
    got = S._sum_states(p)
    assert got.dtype == np.float32
    assert np.array_equal(got, ref)


@settings(max_examples=25, deadline=None)
@given(B=st.integers(1, 2), L=st.integers(1, 10), E=st.integers(1, 3), N=st.integers(1, 4),
       chunk=st.integers(1, 12), seed=st.integers(0, 10_000))
def test_scan_recurrence_gradients_vs_fd_property(B, L, E, N, chunk, seed):
    arrays = scan_inputs(B, L, E, N, seed)
    w = f64(rng(seed + 1).standard_normal((B, L, E)))
    worst, errs = check_function(
        lambda *ts: T.sum_(S.scan_recurrence(*ts, chunk_len=chunk) * w), arrays)
    assert worst < 1e-6, f"{worst:.3e} {errs}"


def unfused_scan_tape(x, delta, a, b, c):
    """Differentiable reference: `discretize_zoh`, then one tape op per step."""
    bsz, L, E = x.shape
    N = a.shape[1]
    a_bar, b_bar = S.discretize_zoh(T.reshape(a, (1, 1, E, N)), T.reshape(b, (bsz, L, 1, N)),
                                    T.reshape(delta, (bsz, L, E, 1)))
    bx = b_bar * T.reshape(x, (bsz, L, E, 1))
    state, ys = None, []
    for t in range(L):
        step = T.index(bx, (slice(None), slice(t, t + 1)))
        state = step if state is None else T.index(a_bar, (slice(None), slice(t, t + 1))) * state + step
        c_t = T.reshape(T.index(c, (slice(None), slice(t, t + 1))), (bsz, 1, 1, N))
        ys.append(T.sum_(state * c_t, axis=-1))
    return T.concat(ys, axis=1)


def test_scan_series_branch_matches_unfused_tape_chain():
    # channel 0 has every delta*|a| below SERIES_BRANCH, so the per-call check
    # must route the call through the series forms of phi and dphi/da; the
    # closed form of dphi/da would cancel to ~1e-4 relative error there
    arrays = scan_inputs(B=2, L=9, E=2, N=3, seed=17)
    arrays[1][:, :, 0] = rng(19).uniform(1e-13, 1e-12, (2, 9))
    w = f64(rng(18).standard_normal((2, 9, 2)))

    def run(fn):
        ts = [Tensor(v, requires_grad=True, dtype=np.float64) for v in arrays]
        with T.Tape():
            y = fn(*ts)
            T.sum_(y * w).backward()
        return [y.data] + [t.grad for t in ts]

    fused = run(lambda *ts: S.scan_recurrence(*ts, chunk_len=4))
    for got, ref in zip(fused, run(unfused_scan_tape)):
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0)


def test_scan_nonfinite_reports_timestep():
    arrays = scan_inputs(L=8)
    arrays[0][0, 3, 1] = np.inf
    with pytest.raises(NumericError, match="t=3"):
        S.scan_recurrence(*(f64(v) for v in arrays), chunk_len=64)


@pytest.mark.parametrize("B,sample", [(1, 0), (2, 1)])
def test_scan_nonfinite_in_later_chunk_reports_global_timestep(B, sample):
    # with B = 2 only the second sample goes non-finite
    arrays = scan_inputs(B=B, L=20)
    arrays[0][sample, 13, 0] = np.nan
    with pytest.raises(NumericError, match=r"t=13\b"):
        S.scan_recurrence(*(f64(v) for v in arrays), chunk_len=4)


def test_scan_shape_mismatch():
    x, delta, a, b, c = (f64(v) for v in scan_inputs(L=4))
    with pytest.raises(DimensionError):
        S.scan_recurrence(x, f64(np.ones((1, 5, 2))), a, b, c, chunk_len=64)
    with pytest.raises(DimensionError):
        S.scan_recurrence(x, delta, a, f64(np.ones((1, 4, 2))), c, chunk_len=64)
    with pytest.raises(DimensionError):
        S.scan_recurrence(x, delta, f64(np.ones((3, 3))), b, c, chunk_len=64)


def test_scan_rejects_negative_delta_and_bad_chunk():
    arrays = scan_inputs(L=4)
    with pytest.raises(ContractError):
        S.scan_recurrence(*(f64(v) for v in arrays), chunk_len=0)
    arrays[1][0, 2, 0] = -1e-3
    with pytest.raises(ContractError):
        S.scan_recurrence(*(f64(v) for v in arrays), chunk_len=64)


def test_scan_backward_uses_forward_time_values():
    # rebinding .data between forward and backward (as an optimizer step
    # does) must not change the gradient of the value already computed
    arrays = scan_inputs(L=6)
    w = f64(rng(16).standard_normal((1, 6, 2)))

    def grads(rebind):
        ts = [Tensor(v, requires_grad=True, dtype=np.float64) for v in arrays]
        with T.Tape():
            y = T.sum_(S.scan_recurrence(*ts, chunk_len=4) * w)
            if rebind:
                for t in ts:
                    t.data = t.data * 0.5
            y.backward()
        return [t.grad for t in ts]

    for clean, moved in zip(grads(False), grads(True)):
        np.testing.assert_array_equal(clean, moved)


# ---- selective scan end to end -----------------------------------------------------


def make_params(E=3, N=2, seed=0, dtype=np.float64, use_skip=False):
    return SsmParams(E, N, rng(seed), dtype=dtype, use_skip=use_skip)


def test_scan_chunked_equals_sequential_selective():
    p = make_params()
    x = Tensor(rng(16).standard_normal((2, 33, 3)), dtype=np.float64)
    ys = S.scan_sequential(x, p)
    for chunk in (1, 3, 16, 64):
        yc = S.scan_chunked(x, p, chunk_len=chunk)
        assert np.max(np.abs(yc.data - ys.data)) < 1e-12


def test_selective_scan_is_causal():
    p = make_params(seed=2)
    x = rng(17).standard_normal((1, 20, 3))
    y0 = S.scan_chunked(Tensor(x, dtype=np.float64), p, chunk_len=8).data
    x2 = x.copy()
    x2[0, 13] += 10.0
    y1 = S.scan_chunked(Tensor(x2, dtype=np.float64), p, chunk_len=8).data
    np.testing.assert_array_equal(y0[:, :13], y1[:, :13])
    assert np.abs(y0[:, 13:] - y1[:, 13:]).max() > 0


def test_frozen_params_scan_is_linear():
    p = make_params(seed=3)
    x = Tensor(rng(18).standard_normal((2, 12, 3)), dtype=np.float64)
    delta, bt, ct = S.selective_discrete(x, p)
    assert delta.shape == (2, 12, 3) and bt.shape == ct.shape == (2, 12, 2)
    y1 = S.scan_with_params(x, delta, p.decay(), bt, ct, None, chunk_len=5).data
    y2 = S.scan_with_params(x * 2.5, delta, p.decay(), bt, ct, None, chunk_len=5).data
    np.testing.assert_allclose(y2, 2.5 * y1, rtol=1e-11, atol=1e-12)


def test_selective_scan_not_linear():
    p = make_params(seed=4)
    x = Tensor(rng(19).standard_normal((1, 10, 3)), dtype=np.float64)
    y1 = S.scan_chunked(x, p, chunk_len=64).data
    y2 = S.scan_chunked(x * 2.0, p, chunk_len=64).data
    assert np.abs(y2 - 2.0 * y1).max() > 1e-6


def test_impulse_response_decays():
    # negative a means |a_bar| < 1: an impulse's state shrinks monotonically
    p = make_params(seed=5)
    E, N = 3, 2
    L = 30
    a = np.full((1, L, E, N), 0.8)
    b = np.zeros((1, L, E, N))
    b[0, 0] = 1.0
    h = S.recurrence_sequential(a, b)
    mags = np.abs(h[0]).sum(axis=(1, 2))
    assert (np.diff(mags) <= 0).all()


def test_a_is_always_negative():
    p = make_params(seed=6)
    a = -np.exp(p.a_log.data)
    assert (a < 0).all()
    # decay magnitudes drawn from [1, 16] pre-log
    assert (np.exp(p.a_log.data) >= 1.0 - 1e-12).all()
    assert (np.exp(p.a_log.data) <= 16.0 + 1e-12).all()


def test_delta_bias_initial_range():
    p = make_params(E=64, seed=7)
    dt = np.logaddexp(0, p.dt_b.data)  # softplus of the bias alone
    assert (dt >= 1e-3 * (1 - 1e-9)).all() and (dt <= 1e-1 * (1 + 1e-9)).all()


def test_full_selective_scan_gradients():
    E, N, L = 2, 2, 5
    p = make_params(E=E, N=N, seed=8)
    x0 = rng(20).standard_normal((1, L, E)) * 0.5
    w = Tensor(rng(21).standard_normal((1, L, E)), dtype=np.float64)

    names = ["a_log", "dt_w", "dt_b", "b_w", "c_w"]

    def f(xv, *weights):
        q = SsmParams(E, N, None, False, dtype=np.float64)
        for name, t in zip(names, weights):
            setattr(q, name, t)
        return T.sum_(S.scan_chunked(xv, q, chunk_len=3) * w)

    arrays = [x0] + [getattr(p, n).data for n in names]
    worst, errs = check_function(f, arrays)
    assert worst < 1e-6, f"selective scan grad mismatch {worst:.3e} ({errs})"


def test_skip_term_adds_direct_path():
    p = make_params(seed=9, use_skip=True)
    x = Tensor(rng(22).standard_normal((1, 8, 3)), dtype=np.float64)
    y_skip = S.scan_chunked(x, p, chunk_len=64).data
    p2 = SsmParams(3, 2, None, False, dtype=np.float64)
    for name in ("a_log", "dt_w", "dt_b", "b_w", "c_w"):
        setattr(p2, name, getattr(p, name))
    y_none = S.scan_chunked(x, p2, chunk_len=64).data
    np.testing.assert_allclose(y_skip, y_none + p.skip_d.data * x.data, rtol=1e-12)
