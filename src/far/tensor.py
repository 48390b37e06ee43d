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
optimizer state stay float32. ``linear(x, w, b)`` is ``x @ w + b`` as one
node, the bias added in place into the product; its gradients are those
of ``matmul`` followed by ``add``, bit for bit.

The node contract: a node's ``data`` is always a float32 or float64
ndarray, 0-d for a full reduction. ``Tensor(...)`` coerces what a caller
passes, an array of any other dtype to float64; an op's node is built by
``_make`` from a numpy result, which needs no coercion, so a B=1 request
pays for its numpy calls rather than for bookkeeping. Every reduction
inside an op calls the ufunc ``np.add.reduce`` or ``np.maximum.reduce``,
the calls that ``ndarray.sum``/``max``/``mean`` make after a Python
wrapper, and a mean divides that sum by the element count, a Python int.
That is bit-identical to ``ndarray.mean``, which divides by an ``intp``
count: for float32 that quotient is computed in float64 and rounded
once, which equals the correctly rounded float32 quotient of ``/ d``.
"""

import math

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}

# layer_norm's variance offset: torch.nn.LayerNorm's default
LN_EPS = 1e-5

# the ufunc reductions behind ndarray.sum/max, without their Python wrapper
_sum = np.add.reduce
_max = np.maximum.reduce


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

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.grad is not None})"

    # -- graph machinery ----------------------------------------------------

    def _accumulate(self, g):
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient of shape {g.shape} for a tensor of "
                             f"shape {self.data.shape}")
        if self.grad is None:
            # a copy: a backward hands the same g to several parents
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
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

    def __sub__(self, other):
        if not isinstance(other, Tensor) and np.ndim(other) == 0:
            return add(self, -other)  # a constant, so it takes self's dtype
        return add(self, mul(other, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __getitem__(self, key):
        return getitem(self, key)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward_fn):
    """Build a graph node from an op's numpy result; records the edge only
    if some parent needs grad. The result of a float op needs none of
    ``Tensor.__init__``'s coercions, only a full reduction's numpy scalar
    becomes a 0-d array."""
    out = object.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = None
    out._backward_done = False
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
            return out
    out.requires_grad = False
    out._parents = ()
    out._backward_fn = None
    return out


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = _sum(g, axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = _sum(g, axis=axes, keepdims=True)
    return g.reshape(shape)


# -- arithmetic primitives ----------------------------------------------------

def _operands(a, b):
    """``a`` and ``b`` as Tensors. A constant operand that is not a Tensor
    (a Python or numpy scalar, or a 0-d array) takes the dtype of the other
    operand, so a float32 graph stays float32: numpy >= 2 would otherwise
    promote it to the constant's float64 (NEP 50)."""
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        return a, b
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


def _matmul_operands(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    return a, b


def _matmul_grad_a(g, b):
    """Array gradient of ``a @ b`` for ``a``, before unbroadcasting."""
    if b.ndim == 1:
        return np.multiply.outer(g, b)
    return g @ np.swapaxes(b, -1, -2)


def _matmul_grad_b(a, g):
    """Array gradient of ``a @ b`` for ``b``, before unbroadcasting."""
    if a.ndim == 1:
        return np.multiply.outer(a, g)
    return np.swapaxes(a, -1, -2) @ g


def _matmul_backward(a, b, g):
    """Accumulate the gradients of ``a @ b`` given its gradient ``g``."""
    if a.requires_grad:
        a._accumulate(_unbroadcast(_matmul_grad_a(g, b.data), a.data.shape))
    if b.requires_grad:
        b._accumulate(_unbroadcast(_matmul_grad_b(a.data, g), b.data.shape))


def matmul(a, b):
    a, b = _matmul_operands(a, b)

    def backward(g):
        _matmul_backward(a, b, g)

    return _make(a.data @ b.data, (a, b), backward)


def linear(x, w, b):
    """``x @ w + b`` as one node: the bias is added in place into the
    product, and the gradients are exactly those of ``matmul`` followed by
    ``add``."""
    x, w = _matmul_operands(x, w)
    b = as_tensor(b)
    out_data = x.data @ w.data
    out_data += b.data

    def backward(g):
        _matmul_backward(x, w, g)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (x, w, b), backward)


# -- shape primitives ---------------------------------------------------------

def reshape(a, shape):
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return _make(out_data, (a,), backward)


def transpose(a, axes=None):
    a = as_tensor(a)
    out_data = a.data.transpose(axes)

    def backward(g):
        inv = None if axes is None else np.argsort(axes)
        a._accumulate(g.transpose(inv))

    return _make(out_data, (a,), backward)


def _basic_index(key):
    """True if ``key`` holds only slices, integers, ``Ellipsis`` and
    ``None``: such a key never selects one element twice."""
    keys = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice) or
               (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in keys)


def getitem(a, key):
    a = as_tensor(a)
    out_data = a.data[key]

    def backward(g):
        full = np.zeros_like(a.data)
        if _basic_index(key):
            full[key] = g
        else:  # an index array may repeat an element: accumulate
            np.add.at(full, key, g)
        a._accumulate(full)

    return _make(out_data, (a,), backward)


def concat(tensors, axis):
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


def split(a, sections, axis):
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


def tsum(a, axis=None):
    """Sum over ``axis``, or of every element when None; the summed axis
    is dropped."""
    a = as_tensor(a)
    out_data = _sum(a.data, axis=axis)

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _make(out_data, (a,), backward)


def mean(a):
    """Mean of every element: ``tsum`` times the reciprocal of the element
    count."""
    a = as_tensor(a)
    return mul(tsum(a), 1.0 / a.data.size)


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


def _consts(dtype, *values):
    """Constants as 0-d arrays of ``dtype``: numpy dispatches an operation
    on one of them faster than on a Python float, which matters for small
    arrays."""
    return [np.array(v, dtype) for v in values]


# Eigen's float32 erf: x * P(x^2) / Q(x^2) on x clamped to [-4, 4], beyond
# which erf rounds to +-1 in float32. Coefficients from the highest power.
_ERF_P = _consts(np.float32, -2.72614225801306e-10, 2.77068142495902e-08,
                 -2.10102402082508e-06, -5.69250639462346e-05,
                 -7.34990630326855e-04, -2.95459980854025e-03,
                 -1.60960333262415e-02)
_ERF_Q = _consts(np.float32, -1.45660718464996e-05, -2.13374055278905e-04,
                 -1.68282697438203e-03, -7.37332916720468e-03,
                 -1.42647390514189e-02)
_ERF_LO, _ERF_HI = _consts(np.float32, -4, 4)


def _horner(x2, coeffs, out):
    """The polynomial ``coeffs`` at ``x2``, evaluated into ``out``."""
    np.multiply(x2, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= x2
    out += coeffs[-1]
    return out


def erf_f32(x):
    """erf of a float32 array, computed in float32: at most 7.5 ulp from
    the float64 value. Zero keeps its sign, nan stays nan, and erf is
    exactly +-1 for |x| >= 4."""
    z = np.minimum(x, _ERF_HI, out=np.empty_like(x))
    np.maximum(z, _ERF_LO, out=z)
    x2 = z * z
    p = _horner(x2, _ERF_P, np.empty_like(z))
    p *= z
    p /= _horner(x2, _ERF_Q, out=z)
    return p


_math_erf = np.frompyfunc(math.erf, 1, 1)


def _erf_f64(x):
    """erf of a float64 array, ``math.erf`` per element (within 1 ulp of
    the exact value); a Python call per element, so several times slower
    than ``erf_f32``."""
    return _math_erf(x, out=np.empty_like(x), casting="unsafe")


# per dtype: erf, 1/sqrt(2), 1/sqrt(2 pi), -1/2, 1/2 and 1
_GELU = {np.dtype(dt): (erf, *_consts(dt, 1 / math.sqrt(2),
                                      1 / math.sqrt(2 * math.pi), -0.5, 0.5, 1))
         for dt, erf in ((np.float32, erf_f32), (np.float64, _erf_f64))}


def gelu(a):
    """Exact (erf-based) GELU, computed at the input's dtype: a float32
    input with ``erf_f32``, a float64 one with ``math.erf``."""
    a = as_tensor(a)
    x = a.data
    erf, inv_sqrt2, inv_sqrt2pi, minus_half, half, one = _GELU[x.dtype]
    cdf = erf(x * inv_sqrt2)
    cdf += one
    cdf *= half

    def backward(g):
        # g * (cdf + x * pdf(x)), one buffer
        t = np.multiply(x, x, out=np.empty_like(x))
        t *= minus_half
        np.exp(t, out=t)
        t *= inv_sqrt2pi
        t *= x
        t += cdf
        t *= g
        a._accumulate(t)

    return _make(x * cdf, (a,), backward)


def _softmax(x, axis):
    """Softmax of array ``x`` along ``axis``, shifted by its maximum."""
    e = x - _max(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= _sum(e, axis=axis, keepdims=True)
    return e


def _softmax_grad(p, g, axis):
    """Array gradient through a softmax of output ``p`` along ``axis``."""
    return p * (g - _sum(g * p, axis=axis, keepdims=True))


def softmax(a, axis):
    """Numerically stabilized softmax along ``axis``."""
    a = as_tensor(a)
    out_data = _softmax(a.data, axis)

    def backward(g):
        a._accumulate(_softmax_grad(out_data, g, axis))

    return _make(out_data, (a,), backward)


def attention(qkv, heads, head_dim):
    """Multi-head self-attention as one node. ``qkv`` (B, T, 3D), D =
    heads * head_dim, holds queries, keys and values side by side. Returns
    ``(out, attn)``: ``out`` (B, T, D) is each head's
    softmax(q kᵀ / √head_dim) v, heads merged in order; ``attn`` (B, heads,
    T, T) is the weights as data only, with no backward, since no caller
    differentiates through them (attribution reads ``.data``, ``mix`` drops
    them). Output and gradient equal those of split, reshape, transpose,
    matmul, scale and ``softmax`` nodes bit for bit: the backward runs their
    arithmetic in their order on operands of their memory layout, since
    numpy's matmul may take another route for another layout. A ``qkv`` of
    another shape is a ShapeError naming it."""
    qkv = as_tensor(qkv)
    x = qkv.data
    d = heads * head_dim
    if x.ndim != 3 or x.shape[-1] != 3 * d:
        raise ShapeError(
            f"attention of {heads} heads of {head_dim} needs qkv of shape "
            f"(B, T, {3 * d}), got {x.shape}")
    b, t, _ = x.shape
    # (B, heads, T, head_dim) views of the queries, keys and values
    q, k, v = x.reshape(b, t, 3, heads, head_dim).transpose(2, 0, 3, 1, 4)
    kt = k.transpose(0, 1, 3, 2)
    scale = np.asarray(1 / math.sqrt(head_dim), x.dtype)
    scores = q @ kt
    scores *= scale
    attn = _softmax(scores, -1)
    out = (attn @ v).transpose(0, 2, 1, 3).reshape(b, t, d)

    def backward(g):
        # laid out as the copy of the head merge's transposed gradient
        go = np.array(g.reshape(b, t, heads, head_dim).transpose(0, 2, 1, 3))
        gs = _softmax_grad(attn, _matmul_grad_a(go, v), -1)
        gs *= scale
        # q, k and v each add into zeros, as split's three slices would
        gx = np.zeros_like(x)
        gq, gk, gv = gx.reshape(b, t, 3, heads, head_dim).transpose(
            2, 0, 3, 1, 4)
        gq += _matmul_grad_a(gs, kt)
        gk += _matmul_grad_b(q, gs).transpose(0, 1, 3, 2)
        gv += _matmul_grad_b(attn, go)
        qkv._accumulate(gx)

    return _make(out, (qkv,), backward), _make(attn, (), None)


def layer_norm(x, gamma, beta):
    """Per-position normalization over the last axis, then affine; the
    variance is offset by ``LN_EPS``."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(
            f"layer_norm affine params must have shape ({d},), got "
            f"{gamma.data.shape} and {beta.data.shape}")
    mu = _sum(x.data, axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = _sum(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    out_data = xhat * gamma.data + beta.data

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate(_sum((g * xhat).reshape(-1, d), axis=0))
        if beta.requires_grad:
            beta._accumulate(_sum(g.reshape(-1, d), axis=0))
        if x.requires_grad:
            gx = g * gamma.data
            gxhat_mean = _sum(gx, axis=-1, keepdims=True) / d
            gxhat_x_mean = _sum(gx * xhat, axis=-1, keepdims=True) / d
            x._accumulate(inv * (gx - gxhat_mean - xhat * gxhat_x_mean))

    return _make(out_data, (x, gamma, beta), backward)


def cross_entropy(logits, labels):
    """Mean negative log-likelihood. ``labels`` are integer class ids."""
    logits = as_tensor(logits)
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    lg = np.atleast_2d(logits.data)
    n = lg.shape[0]
    shifted = lg - _max(lg, axis=-1, keepdims=True)
    lse = np.log(_sum(np.exp(shifted), axis=-1, keepdims=True))
    logp = shifted - lse
    out_data = -_sum(logp[np.arange(n), labels], axis=None) / n

    def backward(g):
        p = np.exp(logp)
        p[np.arange(n), labels] -= 1.0
        grad = (g * p / n).reshape(logits.data.shape)
        logits._accumulate(grad)

    return _make(out_data, (logits,), backward)


# -- parameter helpers --------------------------------------------------------

def zeros(shape, dtype):
    return Tensor(np.zeros(shape, dtype=DTYPES[dtype]))


def ones(shape, dtype):
    return Tensor(np.ones(shape, dtype=DTYPES[dtype]))


def trunc_normal(rng, shape, dtype):
    """Truncated normal at 2 sigma via resampling."""
    std = 0.02
    vals = rng.normal(0.0, std, size=shape)
    bad = np.abs(vals) > 2 * std
    while bad.any():
        vals[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(vals) > 2 * std
    return Tensor(vals.astype(DTYPES[dtype]))
