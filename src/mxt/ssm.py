"""Selective state-space scan: one fused, chunked tape op plus its oracles.

The continuous system h'(t) = A h(t) + B x(t), y(t) = C h(t) with diagonal A
discretizes under zero-order hold to the elementwise recurrence

    h_t = a_bar_t * h_{t-1} + b_bar_t * x_t,   y_t = sum_n c_t[n] * h_t[n]

with a_bar = exp(delta*a) and b_bar = phi * b, phi = (exp(delta*a) - 1)/a.
Selectivity makes delta, b, c functions of the input sequence while a stays a
learned per-(channel, state) constant, always negative via a = -exp(a_log).

The model runs all of this as one tape op, `scan_recurrence`. It walks the
sequence one chunk at a time: discretize the chunk, step the recurrence
through it from the carried state, check that every state is finite and read
out y. No (B, L, E, N) array outlives its chunk.

Layout. Inside a chunk every per-step array is time-major, (l, B, N, E): a
step's B*N*E lanes are one contiguous block, so each step of the recurrence
is two in-place ufunc calls over all of them, in the same arithmetic as
`recurrence_sequential` (Mamba's own kernel is likewise a plain scan over
time, Gu & Dao, arXiv 2312.00752, 3.3). The E channels are the contiguous
inner axis: broadcasting an (l, B, E) input along N or an (l, B, N) one
along E runs full-length inner loops. The (B, L, .) inputs, the output and
the gradients are read and written through transposed views, and `a` is
transposed once per call. Each element sees the same arithmetic as in the
unfused chain, and the readout sums the N states with whole-slice adds in
numpy's own pairwise order (in sequence below 8 terms; from 8 to 128 terms,
8 strided lanes combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and the rest
added in sequence), so the float32 output is bit-equal to the chain
`discretize_zoh` -> `recurrence_sequential` -> `.sum(axis=-1)` for every
chunk_len; chunk_len only sets the block size. Whether the series form of
phi can apply is decided once per call: rounding is monotone, so no
|delta*a| is below fl(min delta * min|a|).

Backward. The op keeps only its forward-time inputs x, delta, a, b, c and
the state entering each chunk. It walks the chunks in reverse and
recomputes each chunk's states from the saved carry. The adjoint
lam_t = g_t c_t + a_bar_{t+1} lam_{t+1} (so that grad_a_bar[t] =
lam_t * h_{t-1} and grad_bx[t] = lam_t) is the same linear recurrence run
backwards in time, so it is a reverse loop of two ufunc calls per step,
lam_t += lam_in; lam_in = a_bar_t * lam_t, from the lam_in carried out of
the next chunk. Only there does the op form the ZOH partials dphi/da and
dphi/ddelta = exp(delta*a); its sums over N and E are matmuls or reductions
over outer axes.

The unfused pieces stay as tested oracles: `zoh_gain`/`discretize_zoh` (the
discretization as ordinary tape ops) and `recurrence_sequential` (a plain
loop). `scan_sequential` chains them into the reference selective scan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .tensor import ContractError, DimensionError, NumericError, Tensor

if TYPE_CHECKING:
    from .blocks import SsmParams

# |delta*a| below this uses the truncated-series form of the ZOH gain
SERIES_BRANCH = 1e-8


# ---- ZOH discretization ------------------------------------------------------


def _zoh_phi(a: np.ndarray, delta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """phi = (exp(x) - 1)/a for x = delta*a, elementwise with broadcasting.

    Near x = 0 the quotient cancels catastrophically, so a three-term series
    phi = delta * (1 + x/2 + x^2/6) takes over; its truncation error is
    O(x^3/24), far below 1e-12 relative at the 1e-8 branch point. The series
    is only evaluated when some |x| falls below the branch point.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.expm1(x) / a
    small = np.abs(x) < SERIES_BRANCH
    if small.any():
        phi = np.where(small, delta * (1.0 + x * (0.5 + x / 6.0)), phi)
    return phi


def _zoh_dphi_da(a, delta, x, phi, ex) -> np.ndarray:
    """Partial of phi in a, given x = delta*a, phi and ex = exp(x)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        dphi = (delta * ex - phi) / a
    small = np.abs(x) < SERIES_BRANCH
    if small.any():
        dphi = np.where(small, delta * delta * (0.5 + x / 3.0), dphi)
    return dphi


def _check_delta(delta: np.ndarray, op: str) -> None:
    if np.any(delta < 0):
        raise ContractError(f"{op}: delta must be >= 0")


def zoh_gain(a: Tensor, delta: Tensor) -> Tensor:
    """Differentiable phi(a, delta) = (exp(delta*a) - 1)/a with broadcasting."""
    _check_delta(delta.data, "zoh")
    phi = _zoh_phi(a.data, delta.data, delta.data * a.data)

    def bwd(g, ad, dd):
        x = dd * ad
        ex = np.exp(x)
        ga = T._unbroadcast(g * _zoh_dphi_da(ad, dd, x, phi, ex), ad.shape) if a.requires_grad else None
        gd = T._unbroadcast(g * ex, dd.shape) if delta.requires_grad else None
        return ga, gd

    return T._make(phi, (a, delta), bwd)


def discretize_zoh(a: Tensor, b: Tensor, delta: Tensor):
    """ZOH discretization of a diagonal system: (a_bar, b_bar).

    a_bar = exp(delta*a); b_bar = (exp(delta*a) - 1)/a * b. Accepts delta = 0
    (the limit: a_bar = 1, b_bar = 0); rejects delta < 0. All arguments
    broadcast elementwise.
    """
    _check_delta(delta.data, "discretize_zoh")
    a_bar = T.exp(delta * a)
    b_bar = zoh_gain(a, delta) * b
    return a_bar, b_bar


# ---- recurrence kernels (plain numpy, time on axis 1) -------------------------


def recurrence_sequential(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """h_t = a_t * h_{t-1} + b_t with h_{-1} = 0, one step at a time."""
    h = np.empty_like(b)
    state = np.zeros(b.shape[:1] + b.shape[2:], dtype=b.dtype)
    for t in range(b.shape[1]):
        state = a[:, t] * state + b[:, t]
        h[:, t] = state
    return h


def _step_chunk(A: np.ndarray, B: np.ndarray, h: np.ndarray) -> np.ndarray:
    """States of one chunk of h_t = A_t h_{t-1} + B_t entered with state `h`.

    A and B have time on axis 0, so each step is two in-place ufunc calls over
    all of the step's lanes, in the arithmetic of `recurrence_sequential`.
    Overwrites A with the states and returns it.
    """
    for a_t, b_t in zip(A, B):
        a_t *= h
        a_t += b_t
        h = a_t
    return A


def _first_nonfinite_step(h: np.ndarray) -> int:
    """First index on axis 0, the time axis, where some state of h is non-finite."""
    bad = ~np.isfinite(h)
    return int(np.argmax(bad.reshape(len(h), -1).any(axis=1)))


# ---- the fused selective scan, in the time-major (l, B, N, E) layout ------------


def _sum_states(p: np.ndarray, lo: int = 0, n: int | None = None) -> np.ndarray:
    """Sum p[:, :, lo:lo+n] of an (l, B, N, E) array over N in numpy's order.

    numpy sums a contiguous axis pairwise: fewer than 8 terms in sequence; up
    to 128 terms in 8 lanes that take every 8th term, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftover terms in sequence;
    longer runs split in two at a multiple of 8. Replaying that order with
    whole-slice adds makes the result bit-equal to `.sum(axis=-1)` of the
    array with N moved last. Only N's place as axis 2 matters here.
    """
    n = p.shape[2] if n is None else n
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _sum_states(p, lo, half) + _sum_states(p, lo + half, n - half)
    if n < 8:
        out, tail = p[:, :, lo].copy(), lo + 1
    else:
        lanes = p[:, :, lo:lo + 8]
        tail = lo + n - n % 8
        for i in range(lo + 8, tail, 8):
            lanes = lanes + p[:, :, i:i + 8]
        pairs = lanes[:, :, 0::2] + lanes[:, :, 1::2]
        pairs = pairs[:, :, 0::2] + pairs[:, :, 1::2]
        out = pairs[:, :, 0] + pairs[:, :, 1]
    for i in range(tail, lo + n):
        out += p[:, :, i]
    return out


def _scan_chunk(x, delta, a_t, b, carry, series, keep=False):
    """Discretize one chunk and step it from `carry`.

    x and delta are (l, B, E), a_t is a transposed (N, E), b is (l, B, N) and
    carry (B, N, E). Returns the (l, B, N, E) states, consuming a_bar and
    phi; with `keep` returns (z, a_bar, phi, h) for backward instead.
    `series` says some |z| may fall below SERIES_BRANCH, so the series form
    is checked.
    """
    d = delta[:, :, None, :]
    # delta is a transposed view, so numpy would lay z out batch-major
    z = np.multiply(d, a_t, order="C")
    if series:
        phi = _zoh_phi(a_t, d, z)
    else:
        phi = np.expm1(z)
        phi /= a_t
    if not keep:
        a_bar = np.exp(z, out=z)
        phi *= b[:, :, :, None]
        phi *= x[:, :, None, :]
        return _step_chunk(a_bar, phi, carry)
    a_bar = np.exp(z)
    bx = phi * b[:, :, :, None]
    bx *= x[:, :, None, :]
    return z, a_bar, phi, _step_chunk(a_bar.copy(), bx, carry)


def _time_major(v: np.ndarray) -> np.ndarray:
    """The (L, B, .) view of a (B, L, .) array."""
    return v.transpose(1, 0, 2)


def scan_recurrence(x: Tensor, delta: Tensor, a: Tensor, b: Tensor, c: Tensor,
                    chunk_len: int) -> Tensor:
    """Fused selective scan y_t = sum_n c_t[n] h_t[n] over (B, L, E) inputs.

    h_t = exp(delta_t a) h_{t-1} + phi(a, delta_t) b_t x_t with h_{-1} = 0;
    x, delta are (B, L, E), a is (E, N), b and c are (B, L, N). Runs
    chunk_len steps at a time and raises NumericError naming the first
    timestep whose state is non-finite. Backward recomputes each chunk from
    the state saved at its start.
    """
    if chunk_len < 1:
        raise ContractError(f"chunk_len must be >= 1, got {chunk_len}")
    if x.ndim != 3 or x.shape[1] < 1:
        raise DimensionError(f"scan needs x of shape (B, L, E) with L >= 1, got {x.shape}")
    bsz, L, E = x.shape
    if a.ndim != 2 or a.shape[0] != E:
        raise DimensionError(f"scan: a {a.shape} does not match {E} channels")
    N = a.shape[1]
    if delta.shape != x.shape or b.shape != (bsz, L, N) or c.shape != (bsz, L, N):
        raise DimensionError(f"scan: x {x.shape}, delta {delta.shape}, a {a.shape}, "
                             f"b {b.shape}, c {c.shape} do not match")
    for t in (delta, a, b, c):
        T._check_same_dtype(x, t, "scan")
    _check_delta(delta.data, "scan")
    inputs = (x, delta, a, b, c)
    xd, dd, bd, cd = (_time_major(t.data) for t in (x, delta, b, c))
    a_t = np.ascontiguousarray(a.data.T)
    # rounding is monotone, so no |z| = delta*|a| is below this product
    series = bool(dd.min() * np.abs(a_t).min() < SERIES_BRANCH)
    starts = range(0, L, chunk_len)
    # state entering each chunk, kept only when backward can run
    carries = np.empty((len(starts), bsz, N, E), xd.dtype) if T.needs_grad(inputs) else None
    y = np.empty_like(x.data)
    carry = np.zeros((bsz, N, E), xd.dtype)
    for i, s in enumerate(starts):
        e = min(s + chunk_len, L)
        if carries is not None:
            carries[i] = carry
        h = _scan_chunk(xd[s:e], dd[s:e], a_t, bd[s:e], carry, series)
        with np.errstate(invalid="ignore"):
            y_chunk = _sum_states(h * cd[s:e, :, :, None])
        # a non-finite state always makes its readout non-finite
        if not np.isfinite(y_chunk).all() and not np.isfinite(h).all():
            t = s + _first_nonfinite_step(h)
            raise NumericError(f"scan produced a non-finite state at timestep t={t}")
        _time_major(y)[s:e] = y_chunk
        carry = h[-1]

    def bwd(gy, *_):
        gy = _time_major(np.asarray(gy))
        gx, gd = (np.empty((bsz, L, E), xd.dtype) for _ in range(2))
        gb, gc = (np.empty((bsz, L, N), xd.dtype) for _ in range(2))
        ga_t = np.zeros_like(a_t)
        ones = np.ones((1, N), xd.dtype)            # sums over N run as matmuls
        lam_in = np.zeros((bsz, N, E), xd.dtype)   # a_bar_{t+1} * lam_{t+1}
        for i in reversed(range(len(starts))):
            s = starts[i]
            e = min(s + chunk_len, L)
            g, xc, dc, bc = gy[s:e], xd[s:e], dd[s:e], bd[s:e]
            z, a_bar, phi, h = _scan_chunk(xc, dc, a_t, bc, carries[i], series, keep=True)
            _time_major(gc)[s:e] = np.matmul(h, g[:, :, :, None])[..., 0]
            # lam_t = g_t c_t + a_bar_{t+1} lam_{t+1} is the forward recurrence
            # run backwards in time from the carried lam_in
            lam = np.multiply(cd[s:e, :, :, None], g[:, :, None, :], order="C")
            for a_s, lam_s in zip(a_bar[::-1], lam[::-1]):
                lam_s += lam_in
                np.multiply(a_s, lam_s, out=lam_in)
            h[1:] = h[:-1]  # now h_{t-1}
            h[0] = carries[i]
            # through bx = phi * b * x
            lp = lam * phi
            _time_major(gx)[s:e] = np.matmul(bc[:, :, None, :], lp)[:, :, 0]
            _time_major(gb)[s:e] = np.matmul(lp, xc[:, :, :, None])[..., 0]
            gphi = lam * bc[:, :, :, None]
            gphi *= xc[:, :, None, :]
            # through z = delta * a, into a_bar = exp(z) and into phi(a, delta),
            # whose delta-partial is exp(z) = a_bar
            gz = lam * h
            gz *= a_bar
            d = dc[:, :, None, :]
            if series:
                dphi = _zoh_dphi_da(a_t, d, z, phi, a_bar)
            else:
                dphi = (d * a_bar - phi) / a_t
            ga_t += (gz * d + gphi * dphi).sum(axis=(0, 1))
            _time_major(gd)[s:e] = np.matmul(ones, gz * a_t + gphi * a_bar)[:, :, 0]
        grads = (gx, gd, np.ascontiguousarray(ga_t.T), gb, gc)
        return tuple(g if t.requires_grad else None for g, t in zip(grads, inputs))

    return T._make(y, inputs, bwd)


# ---- selective parameterization ------------------------------------------------


def selective_discrete(x: Tensor, params: SsmParams):
    """Input-dependent parameters for x of shape (B, L, E), in factored form.

    Returns (delta, b_t, c_t): delta = softplus(x dt_w + dt_b) is (B, L, E),
    b_t and c_t are (B, L, N). The scan forms the (B, L, E, N) products.
    """
    if x.ndim != 3:
        raise DimensionError(f"selective scan expects (B, L, E), got {x.shape}")
    if x.shape[2] != params.a_log.shape[0]:
        raise DimensionError(f"x has {x.shape[2]} channels, params expect {params.a_log.shape[0]}")
    delta = T.linear(x, params.dt_w, params.dt_b, act="softplus")
    return delta, T.matmul(x, params.b_w), T.matmul(x, params.c_w)


def scan_with_params(x: Tensor, delta: Tensor, a: Tensor, b_t: Tensor, c_t: Tensor,
                     skip_d: Tensor | None, chunk_len: int) -> Tensor:
    """Run the scan with explicit (frozen) parameters, plus skip_d * x.

    y is linear in x here, which the selective path deliberately is not.
    """
    y = scan_recurrence(x, delta, a, b_t, c_t, chunk_len)
    if skip_d is not None:
        y = y + x * skip_d
    return y


def scan_chunked(x: Tensor, params: SsmParams, chunk_len: int) -> Tensor:
    """The selective scan of the model: projections, then the fused op."""
    delta, b_t, c_t = selective_discrete(x, params)
    return scan_with_params(x, delta, params.decay(), b_t, c_t, params.skip_d, chunk_len)


def scan_sequential(x: Tensor, params: SsmParams) -> Tensor:
    """Reference selective scan from the oracles: ZOH via `discretize_zoh`,
    then `recurrence_sequential` one step at a time. Forward only: the result
    is a constant tensor."""
    with T.no_grad():
        delta, b_t, c_t = selective_discrete(x, params)
        bsz, L, E = x.shape
        a_bar, b_bar = discretize_zoh(T.reshape(params.decay(), (1, 1, E, -1)),
                                      T.reshape(b_t, (bsz, L, 1, -1)),
                                      T.reshape(delta, (bsz, L, E, 1)))
        h = recurrence_sequential(a_bar.data, b_bar.data * x.data[..., None])
        y = (h * c_t.data[:, :, None, :]).sum(axis=-1)
        if params.skip_d is not None:
            y = y + x.data * params.skip_d.data
    return Tensor(y)
