"""Reverse-mode autodiff over numpy arrays with an explicit tape.

Ops record only while the innermost open ``with Tape()`` or ``no_grad()``
block is a tape: each differentiable op then appends one node to that tape
(a Wengert list, recorded in execution order, which is already
topologically sorted). Outside every tape, or when ``no_grad`` is the
innermost block, ops produce constant tensors and record nothing. A node
keeps its inputs' arrays as the forward saw them and hands them to its
backward closure, so an optimizer step that rebinds a parameter's data
between forward and backward cannot change the gradient.

``backward`` sweeps the tape once in reverse, accumulating gradients into a
dict keyed by tensor identity, so fan-out is handled by plain addition. A
node lives only as long as a sweep can still use it: once ``backward`` has
passed it, its closure, output, inputs and saved arrays are released and
it leaves the tape, so memory falls during the sweep. A second sweep
through a consumed node raises ``ContractError``; leaf ``.grad``s
accumulate across sweeps of separate graphs. Nodes a sweep did not reach
stay until the tape exits. A root recorded on another tape than the
innermost open one raises ``ContractError`` instead of sweeping nothing.
The open tapes and ``no_grad`` blocks form one stack held in a context
variable, so each thread records on its own.

Besides the elementwise, reduction and shape ops, each layer is one fused
op with a hand-written backward that keeps only its inputs: ``conv2d``,
``depthwise_conv2d``, ``causal_conv1d``, ``layer_norm``, ``linear`` (a
matmul plus bias, optionally followed by silu or softplus) and
``gelu_gate``, the gelu-gated product of a tensor's two channel halves.
``attention`` takes spatial-reduced attention from its qkv input to its
output in one node. Whatever backward can cheaply rebuild from the inputs
(a pre-activation, a normalized input) it recomputes rather than keeps;
``recompute`` does the same for any chain of ops, keeping only the chain's
inputs. A recorded output is read-only.

Two float widths exist: float32 (standard) and float64 (wide). float32 is
the fixed default: layers are float64 only when built with
``dtype=np.float64``, and ``Tensor`` keeps the width of float input and makes
any other input float32. Mixing widths in one op is an error rather than an
implicit promotion; python scalars adopt the tensor's width.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Sequence

import numpy as np


class DimensionError(ValueError):
    """Shapes that cannot combine under the op's rules."""


class ContractError(ValueError):
    """An argument violates an op's stated precondition."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where the op forbids it."""


_ALLOWED = (np.float32, np.float64)

class Node:
    """One recorded op: output tensor, input tensors, the inputs' arrays as
    the forward saw them (``saved``), and a backward closure.

    ``bwd(g, *saved)`` maps the upstream gradient (ndarray, shape of ``out``)
    and those arrays to a tuple of gradients aligned with ``inputs`` (entries
    may be None).
    """

    __slots__ = ("out", "inputs", "saved", "bwd")

    def __init__(self, out: "Tensor", inputs: tuple, bwd: Callable):
        self.out = out
        self.inputs = inputs
        self.saved = tuple(t.data for t in inputs)
        self.bwd = bwd


class Tape:
    """Ordered record of nodes. Execution order == topological order."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[Node] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def __enter__(self) -> "Tape":
        _tape_stack.set(_tape_stack.get() + (self,))
        return self

    def __exit__(self, *exc) -> None:
        _tape_stack.set(_tape_stack.get()[:-1])
        # break the Node <-> Tensor cycles so refcounting frees the recorded
        # activations as soon as nothing else holds them; the sentinel keeps
        # "recorded on a closed tape" apart from "leaf"
        for node in self.nodes:
            node.out._node = _EXITED


# ``Tensor._node`` of an op output whose tape has exited
_EXITED = Node(None, (), None)
# ``Tensor._node`` of an op output whose node a backward sweep has consumed
_SWEPT = Node(None, (), None)

# Per context, so per thread: the open ``Tape()`` and ``no_grad()`` blocks,
# innermost last, a ``no_grad`` as None. Ops record only when the innermost
# entry is a tape.
_tape_stack: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "mxt_tape_stack", default=())
# what ``active_tape`` returns outside every tape; nothing records on it
_NO_TAPE = Tape()


def active_tape() -> Tape:
    """The innermost open tape, which ``backward`` sweeps, even under a
    ``no_grad`` opened inside it."""
    return next((t for t in reversed(_tape_stack.get()) if t is not None), _NO_TAPE)


@contextlib.contextmanager
def no_grad():
    """Disable recording in this thread until the block ends or a ``Tape``
    opens inside it; ops inside produce constant tensors."""
    token = _tape_stack.set(_tape_stack.get() + (None,))
    try:
        yield
    finally:
        _tape_stack.reset(token)


def _contig(arr: np.ndarray) -> np.ndarray:
    # np.ascontiguousarray promotes 0-d to 1-d; keep scalars 0-d
    if arr.ndim and not arr.flags.c_contiguous:
        return np.ascontiguousarray(arr)
    return arr


def _sweep(grads: dict) -> None:
    """Sweep the active tape in reverse from the upstream gradients in
    ``grads`` (keyed by tensor identity), as ``Tensor.backward`` and the
    rerun inside ``recompute`` do: leaves accumulate ``.grad``, every node
    passed is consumed and, when the sweep ends, taken off the tape. A
    gradient meant for no node on the tape is left in ``grads``."""
    nodes = active_tape().nodes
    try:
        for node in reversed(nodes):
            g = grads.pop(id(node.out), None)
            if g is None:
                continue
            input_grads = node.bwd(g, *node.saved)
            for t, gi in zip(node.inputs, input_grads):
                if gi is None or not t.requires_grad:
                    continue
                if t._node is None or t._node is _EXITED:
                    t._accumulate_leaf(gi)
                elif t._node is _SWEPT:
                    raise ContractError("backward reached a tensor whose graph an "
                                        "earlier backward() already swept")
                else:
                    prev = grads.get(id(t))
                    grads[id(t)] = gi if prev is None else prev + gi
            node.out._node = _SWEPT
            node.out = node.inputs = node.saved = node.bwd = None
    finally:
        nodes[:] = [node for node in nodes if node.bwd is not None]


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is None:
            arr = np.asarray(data)
            if arr.dtype.type not in _ALLOWED:
                arr = arr.astype(np.float32)
        else:
            dtype = np.dtype(dtype).type
            if dtype not in _ALLOWED:
                raise ContractError(f"unsupported dtype {dtype}")
            arr = np.asarray(data, dtype=dtype)
        arr = _contig(arr)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: Node | None = None

    # ---- basic introspection -------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{grad})"

    def detach(self) -> "Tensor":
        """Constant view of the same data, cut off from the tape."""
        return Tensor(self.data, requires_grad=False)

    # ---- autodiff -------------------------------------------------------

    def backward(self) -> None:
        """Reverse sweep from this scalar through the active tape.

        Leaf tensors with requires_grad get ``.grad`` populated (accumulated
        if already set). Each node is visited exactly once: as the sweep
        passes a node it drops the node's closure, output and inputs and,
        when the sweep ends, takes it off the tape. A graph can therefore be
        swept only once; a root or an input whose node an earlier sweep
        consumed raises ``ContractError``, as does a root whose node is not
        on the active tape.
        """
        if self.shape != ():
            raise ContractError(f"backward root must be scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise ContractError("backward root does not require grad; ops record "
                                "only inside `with Tape()` and outside no_grad()")
        if self._node is _EXITED:
            raise ContractError("backward root was recorded on a tape that has exited; "
                                "call backward() inside its `with Tape()` block")
        if self._node is _SWEPT:
            raise ContractError("backward root was already swept; its graph is freed")
        seed = np.ones((), dtype=self.data.dtype)
        if self._node is None:
            # degenerate: the root is itself a leaf
            self._accumulate_leaf(seed)
            return
        grads = {id(self): seed}
        _sweep(grads)
        if id(self) in grads:
            raise ContractError("backward root is not on the active tape; call "
                                "backward() under the `with Tape()` that recorded it")

    def _accumulate_leaf(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad = self.grad + g

    # ---- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_coerce(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_coerce(other, self), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return index(self, idx)


def _coerce(value, like: Tensor) -> Tensor:
    """Wrap a python scalar / ndarray as a constant of the partner's width."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _check_same_dtype(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.dtype != b.data.dtype:
        raise ContractError(
            f"{op}: mixed widths {a.data.dtype.name} vs {b.data.dtype.name}; cast explicitly"
        )


def needs_grad(inputs: tuple) -> bool:
    """Whether an op on these inputs gets recorded for backward."""
    stack = _tape_stack.get()
    return bool(stack) and stack[-1] is not None and any(t.requires_grad for t in inputs)


def _make(out_data: np.ndarray, inputs: tuple, bwd: Callable) -> Tensor:
    """Build the output tensor and record a node if grad flow is live.

    ``bwd`` is called as ``bwd(g, *arrays)`` with the inputs' arrays the
    node saved at record time; it must never read ``t.data`` off a tensor,
    since an optimizer step between forward and backward rebinds parameter
    data. It may close over arrays the forward derived. A recorded output is
    made read-only, since a later op may save it and a write into it would
    silently change that op's gradient.
    """
    rg = needs_grad(inputs)
    out = Tensor(out_data, requires_grad=rg)
    if rg:
        out.data.flags.writeable = False
        node = Node(out, inputs, bwd)
        out._node = node
        active_tape().nodes.append(node)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---- elementwise binary ----------------------------------------------------


def _binary(a, b, op: str, fwd, da, db) -> Tensor:
    if not isinstance(a, Tensor) and isinstance(b, Tensor):
        a = _coerce(a, b)
    if not isinstance(b, Tensor) and isinstance(a, Tensor):
        b = _coerce(b, a)
    _check_same_dtype(a, b, op)
    try:
        out = fwd(a.data, b.data)
    except ValueError as e:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from e

    def bwd(g, ad, bd):
        ga = _unbroadcast(da(g, ad, bd), ad.shape) if a.requires_grad else None
        gb = _unbroadcast(db(g, ad, bd), bd.shape) if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), bwd)


def add(a, b) -> Tensor:
    return _binary(a, b, "add", np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, "mul", np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _binary(
        a, b, "div", np.divide,
        lambda g, x, y: g / y,
        lambda g, x, y: -g * x / (y * y),
    )


# ---- elementwise unary -------------------------------------------------------


def _unary(x: Tensor, fwd, dfd) -> Tensor:
    """dfd(g, x_data, out_data) -> grad wrt x."""
    out = fwd(x.data)

    def bwd(g, xd):
        return (dfd(g, xd, out),)

    return _make(out, (x,), bwd)


def neg(x: Tensor) -> Tensor:
    return _unary(x, np.negative, lambda g, xd, y: -g)


def exp(x: Tensor) -> Tensor:
    return _unary(x, np.exp, lambda g, xd, y: g * y)


def abs_(x: Tensor) -> Tensor:
    # subgradient 0 at exactly 0
    return _unary(x, np.abs, lambda g, xd, y: g * np.sign(xd))


def tanh(x: Tensor) -> Tensor:
    return _unary(x, np.tanh, lambda g, xd, y: g * (1.0 - y * y))


def _sigmoid_arr(x: np.ndarray) -> np.ndarray:
    # stable on both tails
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _silu(z: np.ndarray) -> np.ndarray:
    return z * _sigmoid_arr(z)


def _dsilu(g: np.ndarray, z: np.ndarray) -> np.ndarray:
    s = _sigmoid_arr(z)
    return g * (s + z * s * (1.0 - s))


def _softplus(z: np.ndarray) -> np.ndarray:
    # max(z, 0) + log1p(exp(-|z|)): stable on both tails and ~8x faster
    # than np.logaddexp(0, z) on float32
    return np.maximum(z, 0) + np.log1p(np.exp(-np.abs(z)))


def _dsoftplus(g: np.ndarray, z: np.ndarray) -> np.ndarray:
    return g * _sigmoid_arr(z)


# name -> (activation, its vector-Jacobian product from the pre-activation);
# the unary ops and ``linear(act=...)`` share them, so both compute the same
# values and gradients
_ACTIVATIONS = {"silu": (_silu, _dsilu), "softplus": (_softplus, _dsoftplus)}


def silu(x: Tensor) -> Tensor:
    return _unary(x, _silu, lambda g, xd, y: _dsilu(g, xd))


def relu(x: Tensor) -> Tensor:
    return _unary(x, lambda xd: np.maximum(xd, 0), lambda g, xd, y: g * (xd > 0))


LEAKY_SLOPE = 0.2


def leaky_relu(x: Tensor) -> Tensor:
    """x where positive, else ``LEAKY_SLOPE`` * x."""
    def fwd(xd):
        return np.where(xd > 0, xd, xd * xd.dtype.type(LEAKY_SLOPE))

    def dfd(g, xd, y):
        return g * np.where(xd > 0, xd.dtype.type(1), xd.dtype.type(LEAKY_SLOPE))

    return _unary(x, fwd, dfd)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def _gelu_tanh(xd: np.ndarray) -> np.ndarray:
    """tanh(sqrt(2/pi) * (x + 0.044715 x^3)), the inner term of gelu."""
    # x*x*x with the second product in place, so one temporary; not x**3,
    # which numpy sends through powf for float32, ~15x slower
    t = xd * xd
    t *= xd
    t *= _GELU_A
    t += xd
    t *= _GELU_C
    return np.tanh(t, out=t)


def gelu_gate(y: Tensor) -> Tensor:
    """gelu(a) * b for the two channel halves a = y[:, :h], b = y[:, h:],
    h = y.shape[1] // 2: the gate of a gated feed-forward (tanh gelu).

    One node that keeps only ``y`` and reads both halves as views, in the
    arithmetic of ``mul(gelu(a), b)``. Backward recomputes the tanh and
    gelu(a) and writes both halves of the input gradient.
    """
    if y.ndim < 2 or y.shape[1] % 2:
        raise DimensionError(f"gelu_gate needs an even axis 1, got {y.shape}")
    h = y.shape[1] // 2
    a, b = y.data[:, :h], y.data[:, h:]
    out = _gelu_tanh(a)
    out += 1.0
    out *= a
    out *= 0.5
    out *= b

    def bwd(g, yd):
        a, b = yd[:, :h], yd[:, h:]
        t = _gelu_tanh(a)
        dt = (1.0 - t * t) * (_GELU_C * (1.0 + 3.0 * _GELU_A * (a * a)))
        gy = np.empty(yd.shape, dtype=yd.dtype)
        np.multiply(g * b, 0.5 * (1.0 + t) + 0.5 * a * dt, out=gy[:, :h])
        t += 1.0
        t *= a
        t *= 0.5
        np.multiply(g, t, out=gy[:, h:])
        return (gy,)

    return _make(out, (y,), bwd)


def softplus(x: Tensor) -> Tensor:
    return _unary(x, _softplus, lambda g, xd, y: _dsoftplus(g, xd))


# ---- matmul ------------------------------------------------------------------


def _check_matmul(a: Tensor, b: Tensor, op: str) -> None:
    """The shape and width checks every matmul op shares."""
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise ContractError(f"{op} expects tensors on both sides")
    _check_same_dtype(a, b, op)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"{op} needs rank >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"{op} inner dims differ: {a.shape} @ {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError as e:
        raise DimensionError(f"{op} batch dims do not broadcast: {a.shape} @ {b.shape}") from e


def _matmul_grads(g: np.ndarray, a: Tensor, b: Tensor, ad: np.ndarray, bd: np.ndarray) -> tuple:
    """Gradients of a @ b for upstream g, from the forward-time operands."""
    ga = gb = None
    if a.requires_grad:
        ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape)
    if b.requires_grad:
        gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape)
    return ga, gb


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; leading dims broadcast, last two contract."""
    _check_matmul(a, b, "matmul")
    out = np.matmul(a.data, b.data)

    def bwd(g, ad, bd):
        return _matmul_grads(g, a, b, ad, bd)

    return _make(out, (a, b), bwd)


def _affine(xd: np.ndarray, wd: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """xd @ wd + bd, the bias added in place, in the arithmetic of
    ``add(matmul(x, w), b)``."""
    out = np.matmul(xd, wd)
    out += bd
    return out


def linear(x: Tensor, w: Tensor, b: Tensor, act: str | None = None) -> Tensor:
    """act(x @ w + b), with ``b`` (w.shape[-1],) and ``act`` None, "silu" or
    "softplus": one node that keeps only its inputs.

    The bias is added in place to the product, and the activation runs on
    that, so values equal ``silu(add(matmul(x, w), b))`` and the like.
    Backward recomputes the pre-activation with the same matmul and add, so
    the gradients equal that chain's too, and no pre-activation is kept.
    """
    if act is not None and act not in _ACTIVATIONS:
        raise ContractError(f"linear: act must be one of {sorted(_ACTIVATIONS)}, got {act!r}")
    _check_matmul(x, w, "linear")
    inputs = _layer_inputs("linear", x, w, b)
    if b.shape != (w.shape[-1],):
        raise DimensionError(f"linear: bias {b.shape} does not fit weight {w.shape}")
    out = _affine(x.data, w.data, b.data)
    if act is not None:
        out = _ACTIVATIONS[act][0](out)

    def bwd(g, xd, wd, bd):
        if act is not None:
            g = _ACTIVATIONS[act][1](g, _affine(xd, wd, bd))
        gx, gw = _matmul_grads(g, x, w, xd, wd)
        return gx, gw, (_unbroadcast(g, bd.shape) if b.requires_grad else None)

    return _make(out, inputs, bwd)


# ---- reductions ---------------------------------------------------------------


def _norm_axes(axis, ndim: int) -> tuple:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_reduced(g: np.ndarray, shape: tuple, axes: tuple, keepdims: bool) -> np.ndarray:
    if not keepdims:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


def sum_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, x.ndim)
    out = x.data.sum(axis=axes, keepdims=keepdims)

    def bwd(g, xd):
        return (_expand_reduced(np.asarray(g), xd.shape, axes, keepdims).astype(xd.dtype, copy=False),)

    return _make(np.asarray(out, dtype=x.data.dtype), (x,), bwd)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, x.ndim)
    count = 1
    for a in axes:
        count *= x.shape[a]
    out = x.data.mean(axis=axes, keepdims=keepdims)

    def bwd(g, xd):
        # every contributing element receives exactly 1/count of the upstream
        g = np.asarray(g) / xd.dtype.type(count)
        return (_expand_reduced(g, xd.shape, axes, keepdims).astype(xd.dtype, copy=False),)

    return _make(np.asarray(out, dtype=x.data.dtype), (x,), bwd)


# ---- shape ops -----------------------------------------------------------------


def reshape(x: Tensor, shape: tuple) -> Tensor:
    try:
        out = _contig(x.data.reshape(shape))
    except ValueError as e:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}") from e

    def bwd(g, xd):
        return (np.asarray(g).reshape(xd.shape),)

    return _make(out, (x,), bwd)


def transpose(x: Tensor, perm=None) -> Tensor:
    if perm is None:
        perm = tuple(reversed(range(x.ndim)))
    perm = tuple(p % x.ndim for p in perm)
    if sorted(perm) != list(range(x.ndim)):
        raise DimensionError(f"invalid permutation {perm} for rank {x.ndim}")
    out = _contig(x.data.transpose(perm))
    inv = tuple(np.argsort(perm))

    def bwd(g, _):
        return (np.asarray(g).transpose(inv),)

    return _make(out, (x,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ContractError("concat of zero tensors")
    for t in tensors[1:]:
        _check_same_dtype(tensors[0], t, "concat")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as e:
        raise DimensionError(f"concat shapes incompatible: {[t.shape for t in tensors]}") from e
    axis = axis % out.ndim
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g, *_):
        return tuple(np.split(np.asarray(g), splits, axis=axis))

    return _make(out, tensors, bwd)


def _is_basic_index(idx) -> bool:
    items = idx if isinstance(idx, tuple) else (idx,)
    return all(i is None or i is Ellipsis or isinstance(i, slice)
               or (isinstance(i, (int, np.integer)) and not isinstance(i, bool))
               for i in items)


def index(x: Tensor, idx) -> Tensor:
    """Basic indexing (ints, slices, None, Ellipsis, tuples thereof);
    differentiable. Integer-array and boolean indices are rejected: their
    gradient would have to accumulate repeated positions."""
    if not _is_basic_index(idx):
        raise ContractError(f"index: only basic indices are differentiable, got {idx!r}")
    out = x.data[idx]
    out = _contig(out)

    def bwd(g, xd):
        full = np.zeros_like(xd)
        full[idx] += g
        return (full,)

    return _make(out, (x,), bwd)


def upsample_nearest2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x spatial upsample of (B, C, H, W)."""
    if x.ndim != 4:
        raise DimensionError(f"upsample expects (B, C, H, W), got {x.shape}")
    out = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def bwd(g, xd):
        b, c, h, w = xd.shape
        return (np.asarray(g).reshape(b, c, h, 2, w, 2).sum(axis=(3, 5)),)

    return _make(out, (x,), bwd)


def _pool_matrix(n: int, o: int, dtype) -> np.ndarray:
    """(o, n) matrix whose row i averages the window [floor(i*n/o), ceil((i+1)*n/o))."""
    i, j = np.arange(o)[:, None], np.arange(n)
    lo, hi = i * n // o, -(-(i + 1) * n // o)
    return (((j >= lo) & (j < hi)) / (hi - lo)).astype(dtype)


def adaptive_avg_pool2d(x: Tensor, out_hw: tuple) -> Tensor:
    """Average-pool (B, C, H, W) onto an (oh, ow) grid: Ph @ x @ Pw^T.

    Window for output cell i along an axis of length H is
    [floor(i*H/oh), ceil((i+1)*H/oh)); windows overlap when H < oh and are
    never empty, so any input size maps onto any output grid. Ph (oh, H) and
    Pw (ow, W) hold 1/len over each window.
    """
    if x.ndim != 4:
        raise DimensionError(f"adaptive pool expects (B, C, H, W), got {x.shape}")
    ph = _pool_matrix(x.shape[2], out_hw[0], x.data.dtype)
    pw = _pool_matrix(x.shape[3], out_hw[1], x.data.dtype)
    out = ph @ x.data @ pw.T

    def bwd(g, _):
        return (ph.T @ np.asarray(g) @ pw,)

    return _make(out, (x,), bwd)


# ---- fused layer ops ---------------------------------------------------------------
#
# Each layer below is one tape node with a hand-written backward that keeps
# only the op's forward-time inputs (layer_norm adds its per-row std and
# 1/std, attention its pooled keys and values and softmax weights), so a
# conv or a norm costs one node and one saved output.


def _layer_inputs(op: str, x: Tensor, w: Tensor, b: Tensor) -> tuple:
    for t in (w, b):
        _check_same_dtype(x, t, op)
    return x, w, b


# conv2d builds its forward columns in bands of output rows of about this
# many bytes each
_COLUMN_BYTES = 1 << 21


def _im2col(xp: np.ndarray, k: int, stride: int, rows: range, ow: int) -> np.ndarray:
    """(B, k*k*cin, len(rows)*ow) columns of output rows ``rows`` of a conv
    over the already padded xp; row (dy*k + dx)*cin + ci is tap (dy, dx) of
    channel ci. A 1x1 stride-1 conv over all rows needs no copy."""
    bsz, cin = xp.shape[:2]
    n = len(rows)
    if k == 1 and stride == 1 and n == xp.shape[2]:
        return xp.reshape(bsz, cin, n * ow)
    col = np.empty((bsz, k, k, cin, n, ow), dtype=xp.dtype)
    for dy in range(k):
        for dx in range(k):
            col[:, dy, dx] = xp[:, :, dy + rows.start * stride : dy + rows.stop * stride : stride,
                                dx : dx + ow * stride : stride]
    return col.reshape(bsz, k * k * cin, n * ow)


def _pad2d(xd: np.ndarray, pad: int) -> np.ndarray:
    return np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else xd


def _col2im(dcol: np.ndarray, shape: tuple, k: int, stride: int, pad: int,
            oh: int, ow: int) -> np.ndarray:
    """Adjoint of _im2col: scatter-add each tap's column rows back onto x."""
    bsz, cin, h, w = shape
    if k == 1 and stride == 1 and pad == 0:
        return dcol.reshape(shape)
    dcol = dcol.reshape(bsz, k, k, cin, oh, ow)
    gxp = np.zeros((bsz, cin, h + 2 * pad, w + 2 * pad), dtype=dcol.dtype)
    for dy in range(k):
        for dx in range(k):
            gxp[:, :, dy : dy + oh * stride : stride, dx : dx + ow * stride : stride] += dcol[:, dy, dx]
    return gxp[:, :, pad : pad + h, pad : pad + w]


def conv2d(x: Tensor, w: Tensor, b: Tensor, k: int, stride: int = 1,
           pad: int = 0) -> Tensor:
    """k x k convolution of (B, cin, H, W) with zero padding.

    ``w`` is (k*k*cin, cout), row (dy*k + dx)*cin + ci holding tap (dy, dx) of
    input channel ci; ``b`` is (cout,). The output w^T @ im2col(x) lands in
    (B, cout, oh*ow) order, so NCHW needs no transpose. The forward builds
    the columns of one sample's band of output rows at a time, each about
    ``_COLUMN_BYTES`` (a 1x1 stride-1 conv takes all rows as one band, its
    columns a view of x), and writes each band's product straight into the
    output. The bands depend only on one sample's shape, so a sample's
    output does not depend on the batch size, and every output element
    keeps its whole k*k*cin contraction. Backward rebuilds all the columns
    for dw and scatter-adds w @ g back onto x (col2im).
    """
    inputs = _layer_inputs("conv2d", x, w, b)
    if x.ndim != 4:
        raise DimensionError(f"conv2d expects (B, C, H, W), got {x.shape}")
    bsz, cin, h, wd = x.shape
    if w.shape[0] != k * k * cin or b.shape != (w.shape[1],):
        raise DimensionError(f"conv2d: weight {w.shape} / bias {b.shape} "
                             f"do not fit {k}x{k} taps over {cin} channels")
    cout = w.shape[1]
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    if oh < 1 or ow < 1:
        raise DimensionError(f"conv2d: {k}x{k} kernel does not fit input {x.shape} with pad {pad}")
    wt, xp = np.ascontiguousarray(w.data.T), _pad2d(x.data, pad)
    if k == 1 and stride == 1:
        band = oh
    else:
        band = max(1, _COLUMN_BYTES // (k * k * cin * ow * x.data.itemsize))
    out = np.empty((bsz, cout, oh * ow), dtype=x.data.dtype)
    for i in range(bsz):
        for r in range(0, oh, band):
            rows = range(r, min(r + band, oh))
            np.matmul(wt, _im2col(xp[i : i + 1], k, stride, rows, ow)[0],
                      out=out[i, :, r * ow : rows.stop * ow])
    out += b.data[:, None]
    out = out.reshape(bsz, cout, oh, ow)

    def bwd(g, xd, wd, _):
        g = np.asarray(g).reshape(bsz, cout, oh * ow)
        gx = gw = None
        if x.requires_grad:
            gx = _col2im(np.matmul(wd, g), xd.shape, k, stride, pad, oh, ow)
        if w.requires_grad:
            col = _im2col(_pad2d(xd, pad), k, stride, range(oh), ow)
            gw = np.matmul(col, g.transpose(0, 2, 1)).sum(axis=0)
        return gx, gw, (g.sum(axis=(0, 2)) if b.requires_grad else None)

    return _make(out, inputs, bwd)


_BLOCK_BYTES = 1 << 18  # depthwise planes go in blocks of about this many bytes


def _block_planes(a: np.ndarray, n: int) -> int:
    """How many planes of a (B, C, H, W) go in one block: as many n-element
    rows as fit in about ``_BLOCK_BYTES``, at least one, at most B*C."""
    return min(a.shape[0] * a.shape[1], max(1, _BLOCK_BYTES // (n * a.itemsize)))


def _padded_blocks(a: np.ndarray, pad: int, step: int):
    """Yield (r, planes) over the planes of a (B, C, H, W), ``step`` at a
    time: ``planes`` holds planes r, r+1, ... of the flattened B*C, each
    zero-padded by pad (cropped if pad < 0) plus one spare zero row, flat,
    as (rows, (H + 2*pad + 1) * (W + 2*pad)). Every block reuses one
    scratch buffer, valid until the next block is yielded.
    """
    bsz, c, h, w = a.shape
    rows = bsz * c
    src = a.reshape(rows, h, w)
    lo, at = max(0, -pad), max(0, pad)
    # the interior is rewritten for every block and the border stays zero
    buf = np.zeros((step, h + 2 * pad + 1, w + 2 * pad), dtype=a.dtype)
    for r in range(0, rows, step):
        blk = buf[: min(step, rows - r)]
        blk[:, at : at + h - 2 * lo, at : at + w - 2 * lo] = src[r : r + step, lo : h - lo, lo : w - lo]
        yield r, blk.reshape(len(blk), -1)


def _tap_offsets(k: int, wp: int) -> list:
    """Flat offset of tap t = dy*k + dx in planes of width wp."""
    return [(t // k) * wp + t % k for t in range(k * k)]


def _depthwise(xd: np.ndarray, taps: np.ndarray, bias, k: int, pad: int) -> np.ndarray:
    """Depthwise k x k correlation of (B, C, H, W) with (k*k, C) taps.

    On the flat padded planes of width wp, tap (dy, dx) is one contiguous run
    at offset dy*wp + dx. The taps accumulate in place on an (oh, wp) grid,
    whose last k-1 columns wrap around and are cropped as each block of
    planes is written out; planes go in cache-sized blocks, so neither a
    padded copy of x nor a k*k-fold one is built.
    """
    bsz, c, h, w = xd.shape
    wp = w + 2 * pad
    oh, ow = h + 2 * pad - k + 1, wp - k + 1
    n = oh * wp
    step = _block_planes(xd, n)
    wrow = np.tile(taps, bsz)[..., None]             # (k*k, B*C, 1)
    brow = None if bias is None else np.tile(bias, bsz)[:, None]
    out = np.empty((bsz * c, oh, ow), dtype=xd.dtype)
    acc, part = (np.empty((step, n), dtype=xd.dtype) for _ in range(2))
    for r, xf in _padded_blocks(xd, pad, step):
        m = len(xf)
        blk = slice(r, r + m)
        a, p = acc[:m], part[:m]
        a[:] = 0 if brow is None else brow[blk]
        for t, off in enumerate(_tap_offsets(k, wp)):
            np.multiply(xf[:, off : off + n], wrow[t, blk], out=p)
            a += p
        out[blk] = a.reshape(m, oh, wp)[..., :ow]
    return out.reshape(bsz, c, oh, ow)


def depthwise_conv2d(x: Tensor, w: Tensor, b: Tensor, k: int, pad: int) -> Tensor:
    """Per-channel k x k convolution (stride 1, zero padding) of (B, C, H, W);
    ``w`` is (k*k, C) with row dy*k + dx holding tap (dy, dx), ``b`` is (C,).

    Backward: dx is the same op on g with the taps flipped and padding
    k-1-pad; dw is, per tap, a row-wise dot of g with the shifted input.
    """
    inputs = _layer_inputs("depthwise_conv2d", x, w, b)
    if x.ndim != 4:
        raise DimensionError(f"depthwise_conv2d expects (B, C, H, W), got {x.shape}")
    bsz, c, h, wd = x.shape
    if w.shape != (k * k, c) or b.shape != (c,):
        raise DimensionError(f"depthwise_conv2d: weight {w.shape} / bias {b.shape} "
                             f"do not fit {k}x{k} taps over {c} channels")
    wp = wd + 2 * pad
    oh, ow = h + 2 * pad - k + 1, wp - k + 1
    if oh < 1 or ow < 1:
        raise DimensionError(f"depthwise_conv2d: {k}x{k} kernel does not fit input {x.shape}")
    out = _depthwise(x.data, w.data, b.data, k, pad)

    def bwd(g, xd, wdat, _):
        g = np.asarray(g)
        gx = _depthwise(g, wdat[::-1], None, k, k - 1 - pad) if x.requires_grad else None
        gw = None
        if w.requires_grad:
            # per tap, a row-wise dot of g, zero in the wrap-around columns,
            # with the shifted input, one block of planes at a time
            n = oh * wp
            step = _block_planes(xd, n)
            grows = g.reshape(bsz * c, oh, ow)
            gw = np.empty((k * k, bsz * c), dtype=xd.dtype)
            gwide = np.zeros((step, oh, wp), dtype=xd.dtype)
            for r, xf in _padded_blocks(xd, pad, step):
                m = len(xf)
                gwide[:m, :, :ow] = grows[r : r + m]
                gflat = gwide[:m].reshape(m, n)
                for t, off in enumerate(_tap_offsets(k, wp)):
                    np.einsum("rn,rn->r", gflat, xf[:, off : off + n], out=gw[t, r : r + m])
            gw = gw.reshape(k * k, bsz, c).sum(axis=1)
        return gx, gw, (g.sum(axis=(0, 2, 3)) if b.requires_grad else None)

    return _make(out, inputs, bwd)


def causal_conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Depthwise causal convolution of (B, L, C): out[t] = b + sum_j
    x[t - (k-1) + j] * w[j], with x zero before t = 0; ``w`` is (k, C) and
    ``b`` (C,)."""
    inputs = _layer_inputs("causal_conv1d", x, w, b)
    if x.ndim != 3:
        raise DimensionError(f"causal_conv1d expects (B, L, C), got {x.shape}")
    k, c = w.shape
    if c != x.shape[2] or b.shape != (c,):
        raise DimensionError(f"causal_conv1d: weight {w.shape} / bias {b.shape} "
                             f"do not fit {x.shape[2]} channels")
    L = x.shape[1]
    lags = [(j, k - 1 - j) for j in range(k) if k - 1 - j < L]  # tap j reads x[t - lag]
    xd = x.data
    out = np.zeros_like(xd)
    out += b.data
    for j, lag in lags:
        out[:, lag:] += xd[:, : L - lag] * w.data[j]

    def bwd(g, xd, wd, _):
        g = np.asarray(g)
        gx = np.zeros_like(xd) if x.requires_grad else None
        gw = np.zeros_like(wd) if w.requires_grad else None
        for j, lag in lags:
            if gx is not None:
                gx[:, : L - lag] += g[:, lag:] * wd[j]
            if gw is not None:
                gw[j] = np.einsum("blc,blc->c", g[:, lag:], xd[:, : L - lag])
        return gx, gw, (g.sum(axis=(0, 1)) if b.requires_grad else None)

    return _make(out, inputs, bwd)


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, axis: int = -1) -> Tensor:
    """Normalize along one axis to zero mean and unit variance (the variance
    plus ``LAYER_NORM_EPS`` under the root), then scale by gamma and shift by
    beta, both (x.shape[axis],). Keeps its input and the
    per-row std and 1/std; backward recomputes the normalized input, mean
    included, with the forward's own ops."""
    for t in (gamma, beta):
        _check_same_dtype(x, t, "layer_norm")
    axis = axis % x.ndim
    c = x.shape[axis]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(f"layer_norm: gamma {gamma.shape} / beta {beta.shape} "
                             f"do not fit axis {axis} of {x.shape}")
    pshape = (c,) + (1,) * (x.ndim - 1 - axis)
    xd = x.data
    xn = xd - xd.mean(axis=axis, keepdims=True)
    std = np.sqrt(np.mean(xn * xn, axis=axis, keepdims=True) + LAYER_NORM_EPS)
    xn /= std
    rstd = 1.0 / std
    out = xn * gamma.data.reshape(pshape)
    out += beta.data.reshape(pshape)

    def bwd(g, xd, gd, _):
        g = np.asarray(g)
        xn = xd - xd.mean(axis=axis, keepdims=True)
        xn /= std
        rest = tuple(a for a in range(xd.ndim) if a != axis)
        gx = None
        if x.requires_grad:
            gxn = g * gd.reshape(pshape)
            gx = gxn - gxn.mean(axis=axis, keepdims=True)
            gx -= xn * (gxn * xn).mean(axis=axis, keepdims=True)
            gx *= rstd
        ggamma = (g * xn).sum(axis=rest) if gamma.requires_grad else None
        gbeta = g.sum(axis=rest) if beta.requires_grad else None
        return gx, ggamma, gbeta

    return _make(out, (x, gamma, beta), bwd)


def _attention_parts(qd: np.ndarray, heads: int, pooled: int, scale) -> tuple:
    """(q, kp_t, vp, att) of spatial-reduced attention over ``qd``, a
    (B, 3C, H, W) array holding q, k and v as its channel thirds.

    Channel d of head j is j*dh + d. q is the (B, heads, dh, H*W) view of
    the first third. k and v are pooled together onto the pooled^2 grid:
    kp_t is (B, heads, pooled^2, dh) and vp (B, heads, dh, pooled^2). The
    weights att = softmax(scale * (kp_t @ q)), max-shifted over the pooled
    tokens (axis -2), are (B, heads, pooled^2, H*W): H*W stays last, so
    nothing full-resolution is copied. Raises NumericError on a NaN score.
    """
    bsz, c3, h, w = qd.shape
    c = c3 // 3
    dh, n = c // heads, pooled * pooled
    ph, pw = _pool_matrix(h, pooled, qd.dtype), _pool_matrix(w, pooled, qd.dtype)
    kvp = (ph @ qd[:, c:] @ pw.T).reshape(bsz, 2, heads, dh, n)
    kp_t = np.ascontiguousarray(kvp[:, 0].swapaxes(-1, -2))
    q = qd[:, :c].reshape(bsz, heads, dh, h * w)
    att = np.matmul(kp_t, q)
    if scale is not None:
        att *= att.dtype.type(scale)
    if np.isnan(att).any():
        raise NumericError("attention: NaN in scores")
    att -= att.max(axis=-2, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-2, keepdims=True)
    return q, kp_t, kvp[:, 1], att


def attention(qkv: Tensor, heads: int, pooled: int, scale: float | None = None) -> Tensor:
    """Spatial-reduced attention of the q, k, v channel thirds of ``qkv``
    (B, 3C, H, W): vp @ softmax(scale * (kp^T @ q)) over the pooled tokens,
    with k and v adaptively average-pooled to a pooled x pooled grid and
    scale None skipping the product; returns (B, C, H, W).

    One node that keeps ``qkv``, its pooled keys and values and the
    softmax weights: q, k and v are read as views, and backward reuses what
    the forward computed. The forward is the arithmetic of slicing,
    ``adaptive_avg_pool2d``, ``matmul``, ``mul`` and the max-shifted
    softmax, so values equal that chain's. Raises NumericError on a NaN
    score.
    """
    if qkv.ndim != 4 or qkv.shape[1] % 3 or (qkv.shape[1] // 3) % heads:
        raise DimensionError(f"attention needs (B, 3C, H, W) with C divisible by "
                             f"{heads} heads, got {qkv.shape}")
    if pooled < 1:
        raise ContractError(f"attention: pooled must be >= 1, got {pooled}")
    bsz, c3, h, w = qkv.shape
    c, dh = c3 // 3, c3 // 3 // heads
    q, kp_t, vp, att = _attention_parts(qkv.data, heads, pooled, scale)
    out = np.matmul(vp, att).reshape(bsz, c, h, w)

    def bwd(g, qd):
        g = np.asarray(g).reshape(bsz, heads, dh, h * w)
        gkvp = np.empty((bsz, 2, heads, dh, pooled * pooled), dtype=qd.dtype)
        np.matmul(g, att.swapaxes(-1, -2), out=gkvp[:, 1])
        # through the softmax: att * (g_att - sum(g_att * att)), then the scale
        gs = np.matmul(vp.swapaxes(-1, -2), g)
        gs -= (gs * att).sum(axis=-2, keepdims=True)
        gs *= att
        if scale is not None:
            gs *= gs.dtype.type(scale)
        gkvp[:, 0] = np.matmul(gs, q.swapaxes(-1, -2)).swapaxes(-1, -2)
        gqkv = np.empty((bsz, 3, heads, dh, h * w), dtype=qd.dtype)
        np.matmul(kp_t.swapaxes(-1, -2), gs, out=gqkv[:, 0])
        gqkv = gqkv.reshape(bsz, c3, h, w)
        ph, pw = _pool_matrix(h, pooled, qd.dtype), _pool_matrix(w, pooled, qd.dtype)
        gqkv[:, c:] = ph.T @ gkvp.reshape(bsz, 2 * c, pooled, pooled) @ pw
        return (gqkv,)

    return _make(out, (qkv,), bwd)


# ---- recomputation -----------------------------------------------------------------


@contextlib.contextmanager
def _bound(params: tuple, arrays: tuple):
    """Bind each parameter's data to its array in ``arrays`` for the block,
    then rebind the data it had before."""
    now = tuple(p.data for p in params)
    try:
        for p, d in zip(params, arrays):
            p.data = d
        yield
    finally:
        for p, d in zip(params, now):
            p.data = d


def recompute(fn: Callable, inputs: Sequence[Tensor], params: Sequence[Tensor]) -> Tensor:
    """``fn(*inputs)`` as one node that keeps only ``inputs``, where
    ``params`` are the parameters ``fn`` reads: activation checkpointing
    (Chen et al., arXiv 1604.06174).

    Unless the result is to be recorded, this is a plain call of ``fn``.
    Otherwise the forward runs ``fn`` under ``no_grad``, so nothing inside
    it is kept, and records one node when any input or any parameter needs
    grad; a constant input therefore still leaves the parameters a
    gradient. Backward binds each parameter's forward-time data, which the
    node saved with the inputs', back, reruns ``fn`` on fresh leaves over the
    saved inputs under its own ``Tape`` (which records even when backward
    runs under ``no_grad``) and sweeps that tape from the upstream gradient
    exactly as received. The inputs' gradients are the leaves' ``.grad``;
    the parameters receive theirs as leaves of that inner sweep. The rerun
    repeats the forward's arithmetic, so values and gradients equal those of
    recording ``fn``.
    """
    inputs, params = tuple(inputs), tuple(params)
    if not needs_grad(inputs + params):
        return fn(*inputs)
    with no_grad():
        out = fn(*inputs)

    def bwd(g, *saved):
        leaves = tuple(Tensor(d, requires_grad=t.requires_grad) for t, d in zip(inputs, saved))
        with _bound(params, saved[len(inputs):]), Tape():
            _sweep({id(fn(*leaves)): g})
        return tuple(leaf.grad for leaf in leaves) + (None,) * len(params)

    return _make(out.data, inputs + params, bwd)
