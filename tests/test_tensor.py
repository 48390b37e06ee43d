import cProfile
import math
import pstats
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from far import tensor as T
from far.far_block import replace_attention
from far.tensor import GradientError, ShapeError, Tensor
from far.vit import TeacherModel

from conftest import desk_config, random_image


def fd_check(fn, x, h=1e-6, rel=1e-7, samples=None):
    """Central finite differences against the analytic gradient of fn(x).sum-like scalar."""
    x = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
    loss = fn(x)
    loss.backward()
    an = x.grad.ravel()
    flat = x.data.ravel()
    idxs = range(len(flat)) if samples is None else samples
    for i in idxs:
        orig = flat[i]
        flat[i] = orig + h
        lp = fn(Tensor(x.data)).item()
        flat[i] = orig - h
        lm = fn(Tensor(x.data)).item()
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        assert abs(an[i] - fd) / max(1.0, abs(an[i])) <= rel, \
            f"coordinate {i}: analytic {an[i]} vs fd {fd}"


# -- matmul ---------------------------------------------------------------

def test_matmul_identity():
    out = T.matmul(Tensor(np.eye(2)), Tensor([[1., 2.], [3., 4.]]))
    np.testing.assert_array_equal(out.data, [[1., 2.], [3., 4.]])


def test_matmul_hand():
    out = T.matmul(Tensor([[1., 2.]]), Tensor([[3.], [4.]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    expect = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expect[i, j] += a[i, k] * b[k, j]
    out = T.matmul(Tensor(a), Tensor(b))
    assert np.abs(out.data - expect).max() < 1e-12


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_backward():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    T.tsum(T.matmul(a, b)).backward()
    g = np.ones((3, 2))
    np.testing.assert_allclose(a.grad, g @ b.data.T, atol=1e-14)
    np.testing.assert_allclose(b.grad, a.data.T @ g, atol=1e-14)


# -- linear -----------------------------------------------------------------

def _linear_grads(op, x, w, b, g):
    leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
    out = op(*leaves)
    T.tsum(out * Tensor(g)).backward()
    return [out.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("shape", [(5, 4), (2, 5, 4)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_is_bit_identical_to_matmul_then_add(dtype, shape):
    rng = np.random.default_rng(60)
    x, w, b, g = (rng.normal(size=s).astype(dtype)
                  for s in (shape, (4, 3), (3,), shape[:-1] + (3,)))
    got = _linear_grads(T.linear, x, w, b, g)
    want = _linear_grads(lambda x, w, b: T.matmul(x, w) + b, x, w, b, g)
    for a, e in zip(got, want):
        _same_bits(a, e)


def test_linear_is_one_node():
    x, w, b = (Tensor(np.ones(s), requires_grad=True)
               for s in ((2, 4), (4, 3), (3,)))
    out = T.linear(x, w, b)
    assert out._parents == (x, w, b)


def test_linear_backward_fd():
    rng = np.random.default_rng(61)
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=3)
    x = rng.normal(size=(2, 5, 4))
    weight = Tensor(rng.normal(size=(2, 5, 3)))
    fd_check(lambda t: T.tsum(T.linear(t, Tensor(w), Tensor(b)) * weight), x)
    fd_check(lambda t: T.tsum(T.linear(Tensor(x), t, Tensor(b)) * weight), w)
    fd_check(lambda t: T.tsum(T.linear(Tensor(x), Tensor(w), t) * weight), b)


def test_linear_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 5\).*\(4, 3\)"):
        T.linear(Tensor(np.zeros((2, 5))), Tensor(np.zeros((4, 3))),
                 Tensor(np.zeros(3)))


# -- layer_norm -----------------------------------------------------------

def test_layer_norm_constant_row_collapses_to_beta():
    out = T.layer_norm(Tensor([[5., 5., 5., 5.]]), T.ones(4, "f64"),
                       T.zeros(4, "f64"))
    np.testing.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-12)


def test_layer_norm_already_normalized():
    out = T.layer_norm(Tensor([[1., -1.]]), T.ones(2, "f64"),
                       T.zeros(2, "f64"))
    np.testing.assert_allclose(out.data,
                               np.array([[1., -1.]]) / np.sqrt(1 + T.LN_EPS),
                               rtol=0, atol=1e-12)


def test_layer_norm_output_statistics():
    rng = np.random.default_rng(2)
    x = rng.normal(2.0, 3.0, size=(4, 8))
    out = T.layer_norm(Tensor(x), T.ones(8, "f64"), T.zeros(8, "f64")).data
    assert np.abs(out.mean(axis=1)).max() <= 1e-6
    assert np.abs(out.var(axis=1) - 1.0).max() <= 1e-3


def test_layer_norm_dim_mismatch():
    with pytest.raises(ShapeError):
        T.layer_norm(Tensor(np.zeros((2, 4))), T.ones(3, "f64"),
                     T.zeros(3, "f64"))


def test_layer_norm_backward_fd():
    rng = np.random.default_rng(3)
    g = Tensor(rng.normal(size=5) + 1.0, requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)

    def fn(x):
        return T.tsum(T.square(T.layer_norm(x, g, b)))

    fd_check(fn, rng.normal(size=(3, 5)), rel=1e-6)


# -- softmax ----------------------------------------------------------------

def test_softmax_symmetry():
    np.testing.assert_allclose(T.softmax(Tensor([0., 0.]), axis=-1).data,
                               [0.5, 0.5])


def test_softmax_shift_invariance_no_overflow():
    out = T.softmax(Tensor([1000., 1000.]), axis=-1).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, [0.5, 0.5])


def test_softmax_closed_form():
    out = T.softmax(Tensor([0., math.log(3.0)]), axis=-1).data
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_probability_vector(vals):
    out = T.softmax(Tensor(np.array(vals)), axis=-1).data
    assert (out >= 0).all()
    assert abs(out.sum() - 1.0) <= 1e-6


# -- attention ----------------------------------------------------------------

def test_attention_backward_fd():
    rng = np.random.default_rng(12)
    g = rng.normal(size=(2, 5, 6))
    fd_check(lambda x: T.tsum(T.attention(x, 2, 3)[0] * Tensor(g)),
             rng.normal(size=(2, 5, 18)))


def test_attention_weights_are_data_only():
    qkv = Tensor(np.random.default_rng(13).normal(size=(1, 4, 6)),
                 requires_grad=True)
    out, attn = T.attention(qkv, 1, 2)
    assert out.requires_grad and out._parents == (qkv,)
    assert not attn.requires_grad and attn._backward_fn is None
    assert attn.shape == (1, 1, 4, 4)


@pytest.mark.parametrize("shape", [(1, 5, 10), (5, 12), (1, 1, 5, 12)])
def test_attention_of_a_wrongly_shaped_qkv_names_the_shape(shape):
    with pytest.raises(ShapeError, match=re.escape(f"got {shape}")):
        T.attention(Tensor(np.zeros(shape)), 2, 2)


# -- pointwise suite ----------------------------------------------------------

def test_sigmoid_zero():
    assert T.sigmoid(Tensor(0.0)).item() == 0.5


def test_cross_entropy_saturated_match():
    logits = Tensor([[60.0, 0.0, 0.0]])
    assert T.cross_entropy(logits, [0]).item() < 1e-20


def test_cross_entropy_uniform():
    loss = T.cross_entropy(Tensor([[0.0, 0.0, 0.0, 0.0]]), [2])
    np.testing.assert_allclose(loss.item(), math.log(4.0), rtol=1e-12)


def test_tanh_backward_fd():
    x = Tensor(np.array(0.3), requires_grad=True)
    T.tanh(x).backward()
    h = 1e-6
    fd = (math.tanh(0.3 + h) - math.tanh(0.3 - h)) / (2 * h)
    assert abs(x.grad.item() - fd) / max(1.0, abs(x.grad.item())) <= 1e-7


@pytest.mark.parametrize("op", [T.sigmoid, T.tanh, T.gelu, T.exp, T.sqrt,
                                T.square, T.log])
def test_pointwise_backward_fd(op):
    rng = np.random.default_rng(4)
    x = rng.uniform(0.2, 1.5, size=6)  # positive domain covers log/sqrt
    fd_check(lambda t: T.tsum(op(t)), x, rel=1e-6)


def test_cross_entropy_backward_fd():
    rng = np.random.default_rng(5)
    labels = [1, 0, 2]

    def fn(x):
        return T.cross_entropy(x, labels)

    fd_check(fn, rng.normal(size=(3, 4)), rel=1e-6)


# -- backward contract --------------------------------------------------------

def test_backward_sum_gives_ones():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    T.tsum(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_product_rule():
    x = Tensor(2.0, requires_grad=True)
    y = Tensor(3.0, requires_grad=True)
    (x * y).backward()
    assert x.grad.item() == 3.0
    assert y.grad.item() == 2.0


def test_backward_twice_errors():
    x = Tensor(1.0, requires_grad=True)
    loss = x * x
    loss.backward()
    with pytest.raises(GradientError):
        loss.backward()


def test_backward_requires_scalar():
    x = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(GradientError):
        (x * 2).backward()


def test_backward_without_graph_errors():
    from far.far_block import init_lstm_dir
    p = init_lstm_dir(np.random.default_rng(0), 4, 4, "f32")
    loss = T.tsum(T.square(p.w_ih))  # parameters are born frozen
    with pytest.raises(GradientError, match="no graph"):
        loss.backward()
    assert p.w_ih.grad is None


def test_frozen_leaf_receives_no_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    frozen = Tensor(np.ones(3), requires_grad=False)
    T.tsum(x * frozen).backward()
    assert x.grad is not None
    assert frozen.grad is None


def test_shared_node_accumulates():
    x = Tensor(3.0, requires_grad=True)
    y = x * x + x * x  # x used twice via two products
    y.backward()
    assert x.grad.item() == 12.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_each_leaf_gets_its_own_gradient_array(dtype):
    """add hands one gradient array to both parents; every leaf keeps its
    own copy, at its dtype, with the values of zeros-then-add."""
    rng = np.random.default_rng(40)
    a, b = (Tensor(rng.normal(size=(3, 4)).astype(dtype), requires_grad=True)
            for _ in range(2))
    w = rng.normal(size=(3, 4)).astype(dtype)
    T.tsum((a + b) * Tensor(w)).backward()
    assert not np.shares_memory(a.grad, b.grad)
    for leaf in (a, b):
        assert leaf.grad.dtype == dtype
        np.testing.assert_array_equal(leaf.grad, np.zeros_like(w) + w)

    a.grad = b.grad = None
    T.tsum((a + a) * Tensor(w)).backward()
    np.testing.assert_array_equal(a.grad, np.zeros_like(w) + w + w)

    a.grad = b.grad = None
    T.tsum(a * b * Tensor(w)).backward()
    assert not np.shares_memory(a.grad, b.grad)
    np.testing.assert_array_equal(a.grad, np.zeros_like(w) + w * b.data)
    np.testing.assert_array_equal(b.grad, np.zeros_like(w) + w * a.data)


def test_gradient_of_another_shape_is_a_shape_error():
    a = Tensor(np.zeros((3, 4)), requires_grad=True)
    for g in (np.ones((4, 3)), np.ones(4), np.ones((1, 3, 4))):
        with pytest.raises(ShapeError, match=r"gradient of shape .* for a "
                           r"tensor of shape \(3, 4\)"):
            a._accumulate(g)
    assert a.grad is None
    a._accumulate(np.ones((3, 4)))
    with pytest.raises(ShapeError):
        a._accumulate(np.ones(4))  # would broadcast into the sum
    np.testing.assert_array_equal(a.grad, np.ones((3, 4)))


# -- determinism and shape algebra ---------------------------------------------

def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        loss = T.tsum(T.square(T.softmax(T.matmul(T.tanh(x), w), axis=-1)))
        loss.backward()
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3))
def test_concat_split_identity(sections, rows):
    rng = np.random.default_rng(rows * 10 + sections)
    x = Tensor(rng.normal(size=(rows, 6 * sections)))
    parts = T.split(x, sections, axis=1)
    back = T.concat(parts, axis=1)
    assert np.array_equal(back.data, x.data)


def test_split_indivisible_errors():
    with pytest.raises(ShapeError):
        T.split(Tensor(np.zeros((2, 5))), 2, axis=1)


def test_transpose_reshape_roundtrip_grad():
    rng = np.random.default_rng(12)

    def fn(x):
        y = T.transpose(T.reshape(x, (2, 3, 4)), (2, 0, 1))
        return T.tsum(T.square(y))

    fd_check(fn, rng.normal(size=24), rel=1e-6, samples=range(0, 24, 3))


def test_primitive_gradient_property_sweep():
    """Every primitive within rel 1e-5 of central FD at random points (f64)."""
    rng = np.random.default_rng(13)
    w = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
    gam = Tensor(rng.normal(size=5) + 1.0, requires_grad=True)
    bet = Tensor(rng.normal(size=5), requires_grad=True)

    def composite(x):
        y = T.matmul(x, w)
        y = T.layer_norm(y, gam, bet)
        y = T.softmax(y, axis=-1)
        y = T.sigmoid(y) + T.tanh(y) * T.gelu(y)
        z = T.concat(T.split(y, 5, axis=1)[::-1], axis=1)
        return T.mean(T.square(z))

    x0 = rng.normal(size=(10, 5))
    idx = rng.choice(50, size=50, replace=False)
    fd_check(composite, x0, rel=1e-5, samples=idx)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("const", [0.3, np.float64(0.3), np.array(0.3), 3])
@pytest.mark.parametrize("op", ["add", "sub", "mul", "rdiv", "div"])
def test_scalar_constant_takes_the_tensor_dtype(dtype, const, op):
    x = Tensor(np.array([1.5, -2.0, 4.0], dtype), requires_grad=True)
    y = {"add": lambda: x + const, "sub": lambda: x - const,
         "mul": lambda: x * const, "rdiv": lambda: const / x,
         "div": lambda: x / const}[op]()
    assert y.dtype == dtype
    want = {"add": lambda a, c: a + c, "sub": lambda a, c: a - c,
            "mul": lambda a, c: a * c, "rdiv": lambda a, c: c / a,
            "div": lambda a, c: a / c}[op](x.data, dtype(const))
    assert np.array_equal(y.data, want)
    T.tsum(y).backward()
    assert x.grad.dtype == dtype


# -- getitem backward ---------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_getitem_basic_key_grad_equals_add_at(dtype):
    """Slice and integer keys (``split`` pieces, ``classify``'s CLS slice)
    assign their gradient; the result is bit-equal to ``np.add.at``."""
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(4, 5, 6)).astype(dtype), requires_grad=True)
    keys = [(slice(None), slice(None), slice(2 * i, 2 * i + 2))
            for i in range(3)] + [(slice(None), 0, slice(None))]
    parts = T.split(x, 3, axis=-1) + [x[:, 0, :]]
    ws = [rng.normal(size=p.shape).astype(dtype) for p in parts]
    loss = T.tsum(parts[0] * ws[0])
    for p, w in zip(parts[1:], ws[1:]):
        loss = loss + T.tsum(p * w)
    loss.backward()
    want = np.zeros_like(x.data)
    for k, w in zip(keys, ws):
        full = np.zeros_like(x.data)
        np.add.at(full, k, w)
        want += full
    assert x.grad.dtype == dtype
    assert np.array_equal(x.grad, want)


def test_getitem_repeated_array_index_accumulates():
    x = Tensor(np.zeros(4), requires_grad=True)
    T.tsum(x[np.array([1, 1, 3])]).backward()
    assert x.grad.tolist() == [0.0, 2.0, 0.0, 1.0]


# -- float32 erf and GELU ----------------------------------------------------

ERF_ULP = 7.5      # measured 7.07 on the grid below
ERF_ABS = 4.5e-7   # measured 4.2e-7
GELU_ABS = 1.5e-6  # f32 against f64 GELU on [-6, 6]; measured 1.37e-6
GELU_GRAD_ABS = 5e-7  # the same for its gradient; measured 2.7e-7


def _erf_ulps(x):
    from scipy.special import erf
    ref = erf(x.astype(np.float64))
    got = T.erf_f32(x)
    assert got.dtype == np.float32
    err = np.abs(got - ref)
    return err / np.spacing(np.abs(ref).astype(np.float32)), err


def test_erf_f32_within_ulp_bound_of_float64_scipy():
    ulps, err = _erf_ulps(np.linspace(-6, 6, 1_200_001, dtype=np.float32))
    assert ulps.max() <= ERF_ULP
    assert err.max() <= ERF_ABS
    tiny = np.logspace(-37, 0, 20_001, dtype=np.float32)
    assert _erf_ulps(np.concatenate([tiny, -tiny]))[0].max() <= ERF_ULP


def test_erf_f32_special_values():
    x = np.array([0.0, -0.0, 4.0, 4.5, 1e30, np.inf, np.nan], np.float32)
    got = T.erf_f32(np.concatenate([x, -x]))
    pos, neg = got[:7], got[7:]
    assert pos[0] == 0 and not np.signbit(pos[0])
    assert pos[1] == 0 and np.signbit(pos[1])
    assert neg[0] == 0 and np.signbit(neg[0])
    assert (pos[2:6] == 1.0).all() and (neg[2:6] == -1.0).all()
    assert np.isnan(pos[6]) and np.isnan(neg[6])


def test_gelu_f32_close_to_f64_and_f64_is_math_erf():
    """Float64 GELU is x * (1 + math.erf(x / sqrt 2)) / 2 per element, and
    that erf is within 3 ulp of scipy's (measured: 2)."""
    from scipy.special import erf
    x = np.linspace(-6, 6, 120_001)
    y64 = T.gelu(Tensor(x)).data
    z = x * (1 / math.sqrt(2))
    math_erf = np.array([math.erf(v) for v in z])
    assert np.array_equal(y64, x * ((math_erf + 1) * 0.5))
    ref = erf(z)
    assert (np.abs(math_erf - ref) <= 3 * np.spacing(np.abs(ref))).all()
    y32 = T.gelu(Tensor(np.asarray(x, np.float32))).data
    assert y32.dtype == np.float32
    assert np.abs(y32 - y64).max() <= GELU_ABS


def test_gelu_f32_gradient_is_f32_and_close_to_f64():
    x = np.linspace(-6, 6, 120_001)
    grads = []
    for dtype in ("f32", "f64"):
        t = Tensor(np.asarray(x, T.DTYPES[dtype]), requires_grad=True)
        T.tsum(T.gelu(t)).backward()
        grads.append(t.grad)
    assert grads[0].dtype == np.float32
    assert np.abs(grads[0] - grads[1]).max() <= GELU_GRAD_ABS


# -- ufunc reductions: bit-identical to ndarray.mean/sum/max ------------------

def _same_bits(got, want):
    want = np.asarray(want)
    assert type(got) is np.ndarray
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _oracle_layer_norm(x, gamma, beta, g, eps=1e-5):
    """Output and (dx, dgamma, dbeta) written with ndarray.mean and .sum."""
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gx = g * gamma
    dx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
    return (xhat * gamma + beta, dx, (g * xhat).reshape(-1, d).sum(axis=0),
            g.reshape(-1, d).sum(axis=0))


def _upstream(out, g):
    """Backward from ``out`` with upstream gradient exactly ``g``."""
    T.tsum(out * Tensor(g)).backward()


REDUCE_CASES = [(dt, d) for dt in (np.float32, np.float64) for d in (32, 192)]


@pytest.mark.parametrize("dtype,d", REDUCE_CASES)
def test_layer_norm_bit_identical_to_ndarray_mean_oracle(dtype, d):
    rng = np.random.default_rng(d)
    x, gamma, beta, g = (rng.normal(1.5, 2.0, size=s).astype(dtype)
                         for s in ((3, 17, d), (d,), (d,), (3, 17, d)))
    leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
    out = T.layer_norm(*leaves)
    _upstream(out, g)
    want = _oracle_layer_norm(x, gamma, beta, g)
    for got, exp in zip([out.data] + [t.grad for t in leaves], want):
        _same_bits(got, exp)


@pytest.mark.parametrize("dtype,d", REDUCE_CASES)
def test_softmax_bit_identical_to_ndarray_oracle(dtype, d):
    rng = np.random.default_rng(d + 1)
    x, g = (rng.normal(0.0, 3.0, size=(2, 3, 17, d)).astype(dtype)
            for _ in range(2))
    leaf = Tensor(x, requires_grad=True)
    out = T.softmax(leaf, axis=-1)
    _upstream(out, g)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    _same_bits(out.data, p)
    _same_bits(leaf.grad, p * (g - (g * p).sum(axis=-1, keepdims=True)))


@pytest.mark.parametrize("dtype,d", REDUCE_CASES)
@pytest.mark.parametrize("axis,keepdims", [(None, False), (-1, False),
                                           (0, False)])
def test_tsum_and_mean_bit_identical_to_ndarray_oracle(dtype, d, axis,
                                                       keepdims):
    x = np.random.default_rng(d + 2).normal(1.5, 2.0, (3, 17, d)).astype(dtype)
    _same_bits(T.tsum(Tensor(x), axis=axis).data,
               x.sum(axis=axis, keepdims=keepdims))
    if axis is None:
        _same_bits(T.mean(Tensor(x)).data, x.sum() * dtype(1.0 / x.size))


@pytest.mark.parametrize("dtype,d", REDUCE_CASES)
def test_cross_entropy_bit_identical_to_ndarray_oracle(dtype, d):
    rng = np.random.default_rng(d + 3)
    lg = rng.normal(0.0, 3.0, size=(5, d)).astype(dtype)
    labels = rng.integers(0, d, size=5)
    leaf = Tensor(lg, requires_grad=True)
    loss = T.cross_entropy(leaf, labels)
    loss.backward()
    shifted = lg - lg.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    _same_bits(loss.data, -logp[np.arange(5), labels].sum() / 5)
    p = np.exp(logp)
    p[np.arange(5), labels] -= 1.0
    _same_bits(leaf.grad, np.ones((), dtype) * p / 5)


# -- node contract: data is a float ndarray of the inputs' dtype ---------------

_PREC = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
OPS = {
    "add": lambda x: x + x,
    "add_const": lambda x: T.add(2, x),
    "sub": lambda x: x - 0.5,
    "mul": lambda x: x * x,
    "div": lambda x: x / (T.square(x) + 1.0),
    "neg": lambda x: T.mul(x, -1.0),
    "sqrt": lambda x: T.sqrt(T.square(x) + 1.0),
    "exp": T.exp,
    "log": lambda x: T.log(T.exp(x)),
    "matmul": lambda x: T.matmul(x, T.transpose(x)),
    "matmul_vec": lambda x: T.matmul(x, x[0]),
    "linear": lambda x: T.linear(x, T.transpose(x), x[0, :2]),
    "reshape": lambda x: T.reshape(x, (-1,)),
    "getitem_slice": lambda x: x[:, 1:],
    "getitem_element": lambda x: x[1, 2],
    "getitem_array": lambda x: x[np.array([0, 0, 1])],
    "concat": lambda x: T.concat([x, x], axis=1),
    "split": lambda x: T.split(x, 3, axis=1)[1],
    "tsum": T.tsum,
    "tsum_axis": lambda x: T.tsum(x, axis=0),
    "mean": T.mean,
    "sigmoid": T.sigmoid,
    "tanh": T.tanh,
    "gelu": T.gelu,
    "softmax": lambda x: T.softmax(x, axis=-1),
    "layer_norm": lambda x: T.layer_norm(x, T.ones(3, _PREC[x.dtype]),
                                         T.zeros(3, _PREC[x.dtype])),
    "cross_entropy": lambda x: T.cross_entropy(x, [0, 2]),
}


@pytest.mark.parametrize("requires_grad", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(OPS))
def test_every_op_result_is_an_ndarray_of_the_input_dtype(name, dtype,
                                                          requires_grad):
    x = Tensor(np.asarray(np.arange(6.0).reshape(2, 3) / 7, dtype),
               requires_grad=requires_grad)
    out = OPS[name](x)
    assert type(out.data) is np.ndarray and out.data.dtype == dtype
    assert out.requires_grad is requires_grad
    assert (out._parents != ()) is requires_grad


def test_tensor_constructor_still_coerces():
    for value in (3, [1, 2], np.arange(3), [[True]]):
        t = Tensor(value)
        assert type(t.data) is np.ndarray and t.data.dtype == np.float64
        np.testing.assert_array_equal(t.data, np.asarray(value))
    x32 = np.ones(2, np.float32)
    assert Tensor(x32).data is x32
    scalar = Tensor(np.float32(2.0))
    assert type(scalar.data) is np.ndarray and scalar.data.shape == ()
    assert scalar.data.dtype == np.float32


# -- a frozen B=1 forward goes around numpy's Python reduction wrappers -------

@pytest.mark.parametrize("variant", ["teacher", "far"])
def test_frozen_b1_forward_calls_nothing_in_numpy_methods(variant):
    methods = pytest.importorskip("numpy._core._methods")
    cfg = desk_config()
    model = TeacherModel(cfg, seed=5)
    if variant == "far":
        model = replace_attention(model, seed=5)
    image = random_image(cfg, np.random.default_rng(5))
    profile = cProfile.Profile()
    profile.enable()
    logits, _ = model.forward(image)
    profile.disable()
    assert logits.shape == (1, cfg.num_classes)
    calls = {fn: row[1] for (path, _, fn), row in
             pstats.Stats(profile).stats.items() if path == methods.__file__}
    assert calls == {}


# a warmed, frozen B=1 desk FAR forward: 1,036 calls when every scan packed
# its weights again on every call, 740 with shape-planned scans and linear,
# 700 with one scan axis and one GELU body, 696 with one scan list per block,
# 668 with per-shape scan workspaces and the final LN of the CLS row only
FAR_B1_FORWARD_CALLS = 668


def test_warm_frozen_b1_far_forward_makes_no_more_python_calls_than_measured():
    cfg = desk_config()
    far = replace_attention(TeacherModel(cfg, seed=5), seed=5)
    image = random_image(cfg, np.random.default_rng(5))
    far.forward(image)  # plans each block's scans
    profile = cProfile.Profile()
    profile.enable()
    far.forward(image)
    profile.disable()
    calls = pstats.Stats(profile).total_calls
    assert calls <= FAR_B1_FORWARD_CALLS, calls


def _whole_array_trunc_normal(rng, shape, dtype):
    """``trunc_normal`` as it was built, re-testing the whole array each
    round; also returns its number of resampling rounds."""
    std, rounds = 0.02, 0
    vals = rng.normal(0.0, std, size=shape)
    bad = np.abs(vals) > 2 * std
    while bad.any():
        vals[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(vals) > 2 * std
        rounds += 1
    return vals.astype(T.DTYPES[dtype]), rounds


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_trunc_normal_equals_the_whole_array_loop(dtype):
    """The same numbers in the same order: equal bytes, and the generator
    left in the same state."""
    shape = (256, 400)
    a, b = np.random.default_rng(54), np.random.default_rng(54)
    want, rounds = _whole_array_trunc_normal(a, shape, dtype)
    got = T.trunc_normal(b, shape, dtype)
    assert rounds >= 3
    assert got.data.dtype == want.dtype and got.shape == shape
    assert got.data.tobytes() == want.tobytes()
    assert a.bit_generator.state == b.bit_generator.state
    assert np.abs(got.data).max() <= 0.04

