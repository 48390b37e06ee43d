"""Minimal dense tensor with reverse-mode automatic differentiation.

The graph is rebuilt on every forward pass (define-by-run), and only
where some input has ``requires_grad`` set: a node records its parents
only then, and so itself requires grad. Every tensor, parameters
included, is created with ``requires_grad=False``; the training phases
mark what they train (``distill.freeze_plan``), so a forward through a
frozen model builds no graph. Reductions delegate to numpy's fixed
left-to-right accumulation, so repeated runs with identical inputs are
bit-identical. A graph computes at its inputs' dtype: a constant operand
of ``add``, ``mul`` or ``div`` takes the Tensor operand's dtype
(``_operands``), so a float32 model's activations, gradients and
optimizer state stay float32.
"""

import math

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}


class GradientError(RuntimeError):
    """Raised on invalid backward() usage."""


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """A dense float array participating in a computation graph.

    Leaf tensors with ``requires_grad=True`` accumulate gradients in
    ``.grad`` when ``backward()`` is called on a downstream scalar.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_backward_done")

    def __init__(self, data, requires_grad=False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(DTYPES.get(dtype, dtype), copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward_fn = None
        self._backward_done = False

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def detach(self):
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.grad is not None})"

    # -- graph machinery ----------------------------------------------------

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        """Accumulate gradients of this scalar into all trainable leaves."""
        if self.data.size != 1:
            raise GradientError(
                f"backward() requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise GradientError(
                "backward() on a tensor with no graph: no input it was "
                "computed from requires grad (parameters are created frozen; "
                "mark the trained ones, e.g. with distill.freeze_plan)")
        if self._backward_done:
            raise GradientError(
                "backward() already called on this tensor; rebuild the graph "
                "or reset before calling again")
        self._backward_done = True

        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(other, mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)


def as_tensor(x, dtype=None):
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


def _make(data, parents, backward_fn):
    """Build a graph node; records the edge only if some parent needs grad."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- arithmetic primitives ----------------------------------------------------

def _operands(a, b):
    """``a`` and ``b`` as Tensors. A constant operand that is not a Tensor
    (a Python or numpy scalar, or a 0-d array) takes the dtype of the other
    operand, so a float32 graph stays float32: numpy >= 2 would otherwise
    promote it to the constant's float64 (NEP 50)."""
    if not isinstance(b, Tensor) and np.ndim(b) == 0:
        a = as_tensor(a)
        return a, Tensor(np.asarray(b, a.dtype))
    if not isinstance(a, Tensor) and np.ndim(a) == 0:
        b = as_tensor(b)
        return Tensor(np.asarray(a, b.dtype)), b
    return as_tensor(a), as_tensor(b)


def add(a, b):
    a, b = _operands(a, b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b):
    a, b = _operands(a, b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def div(a, b):
    a, b = _operands(a, b)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data ** 2), b.data.shape))

    return _make(out_data, (a, b), backward)


def square(a):
    a = as_tensor(a)
    out_data = a.data * a.data

    def backward(g):
        a._accumulate(g * 2.0 * a.data)

    return _make(out_data, (a,), backward)


def sqrt(a):
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        a._accumulate(g * 0.5 / np.sqrt(a.data))

    return _make(out_data, (a,), backward)


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * out_data)

    return _make(out_data, (a,), backward)


def log(a):
    a = as_tensor(a)
    out_data = np.log(a.data)

    def backward(g):
        a._accumulate(g / a.data)

    return _make(out_data, (a,), backward)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            if b.data.ndim == 1:
                ga = np.multiply.outer(g, b.data)
            else:
                ga = g @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            if a.data.ndim == 1:
                gb = np.multiply.outer(a.data, g)
            else:
                gb = np.swapaxes(a.data, -1, -2) @ g
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return _make(out_data, (a, b), backward)


# -- shape primitives ---------------------------------------------------------

def reshape(a, shape):
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return _make(out_data, (a,), backward)


def transpose(a, axes=None):
    a = as_tensor(a)
    out_data = np.transpose(a.data, axes)

    def backward(g):
        inv = None if axes is None else np.argsort(axes)
        a._accumulate(np.transpose(g, inv))

    return _make(out_data, (a,), backward)


def getitem(a, key):
    a = as_tensor(a)
    out_data = a.data[key]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, key, g)
        a._accumulate(full)

    return _make(out_data, (a,), backward)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, s in zip(tensors, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + s)
            if t.requires_grad:
                t._accumulate(g[tuple(sl)])
            offset += s

    return _make(out_data, tuple(tensors), backward)


def split(a, sections, axis=0):
    """Split into equal sections along ``axis``; inverse of concat."""
    a = as_tensor(a)
    n = a.data.shape[axis]
    if n % sections != 0:
        raise ShapeError(f"cannot split axis of size {n} into {sections} sections")
    step = n // sections
    outs = []
    for i in range(sections):
        sl = [slice(None)] * a.data.ndim
        sl[axis] = slice(i * step, (i + 1) * step)
        outs.append(getitem(a, tuple(sl)))
    return outs


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _make(out_data, (a,), backward)


def mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# -- nonlinearities -----------------------------------------------------------

def sigmoid(a):
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


def tanh(a):
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), backward)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a):
    """Exact (erf-based) GELU."""
    from scipy.special import erf  # local import keeps numpy-only fallback easy
    a = as_tensor(a)
    cdf = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
    out_data = a.data * cdf

    def backward(g):
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT2PI
        a._accumulate(g * (cdf + a.data * pdf))

    return _make(out_data, (a,), backward)


def softmax(a, axis=-1):
    """Numerically stabilized softmax along ``axis``."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        a._accumulate(out_data * (g - dot))

    return _make(out_data, (a,), backward)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Per-position normalization over the last axis, then affine."""
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(
            f"layer_norm affine params must have shape ({d},), got "
            f"{gamma.data.shape} and {beta.data.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gamma.data + beta.data

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx = g * gamma.data
            gxhat_mean = gx.mean(axis=-1, keepdims=True)
            gxhat_x_mean = (gx * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(inv * (gx - gxhat_mean - xhat * gxhat_x_mean))

    return _make(out_data, (x, gamma, beta), backward)


def cross_entropy(logits, labels):
    """Mean negative log-likelihood. ``labels`` are integer class ids."""
    logits = as_tensor(logits)
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    lg = np.atleast_2d(logits.data)
    n = lg.shape[0]
    shifted = lg - lg.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    out_data = np.asarray(-logp[np.arange(n), labels].sum() / n)

    def backward(g):
        p = np.exp(logp)
        p[np.arange(n), labels] -= 1.0
        grad = (g * p / n).reshape(logits.data.shape)
        logits._accumulate(grad)

    return _make(out_data, (logits,), backward)


# -- parameter helpers --------------------------------------------------------

def zeros(shape, dtype="f32"):
    return Tensor(np.zeros(shape, dtype=DTYPES[dtype]))


def ones(shape, dtype="f32"):
    return Tensor(np.ones(shape, dtype=DTYPES[dtype]))


def trunc_normal(rng, shape, dtype="f32"):
    """Truncated normal at 2 sigma via resampling."""
    std = 0.02
    vals = rng.normal(0.0, std, size=shape)
    bad = np.abs(vals) > 2 * std
    while bad.any():
        vals[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(vals) > 2 * std
    return Tensor(vals.astype(DTYPES[dtype]))
