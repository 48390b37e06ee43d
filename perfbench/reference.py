"""Independent float64 forward pass used to check every inference op.

It reads the tensors a checkpoint holds and recomputes the logits with
plain numpy, without the autodiff engine or the model classes, so a fault
in either shows as a mismatch. A pruned hidden unit needs no mask here:
once all of its coupled weights and biases are zero its gates are
i = f = o = 0.5 and g = 0, so with c0 = 0 its h and c stay exactly zero.
The hidden size of each scan is read from the tensor shapes, so a
physically shrunk checkpoint is handled the same way.
"""

import numpy as np
from scipy.special import erf

# Inference check: |logits - reference| <= ATOL + RTOL * max|reference|.
# A float32 forward of the desk models differs from this float64 one by
# less than 1e-7 at logits of about 0.3; the tolerance leaves two orders of
# magnitude for a reordered float32 sum.
ATOL = 1e-5
RTOL = 1e-4


def _layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / np.sqrt(var + eps) * g + b


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _scan(x, w_ih, w_hh, b_ih, b_hh, reverse):
    """LSTM over (B, T, in) with gate order (i, f, g, o); returns (B, T, H)."""
    b, t, _ = x.shape
    hid = w_hh.shape[1]
    pre = x @ w_ih.T + (b_ih + b_hh)
    h = np.zeros((b, hid))
    c = np.zeros((b, hid))
    out = np.zeros((b, t, hid))
    for j in (range(t - 1, -1, -1) if reverse else range(t)):
        gates = pre[:, j] + h @ w_hh.T
        i = _sigmoid(gates[:, :hid])
        f = _sigmoid(gates[:, hid:2 * hid])
        g = np.tanh(gates[:, 2 * hid:3 * hid])
        o = _sigmoid(gates[:, 3 * hid:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[:, j] = h
    return out


def logits(cfg, kind, tensors, images):
    """(B, C, H, W) images -> (B, classes) float64 logits."""
    w = {k: np.asarray(v, dtype=np.float64) for k, v in tensors.items()}
    img = np.asarray(images, dtype=np.float64)
    b = img.shape[0]
    ps, g, d = cfg.patch_size, cfg.image_size // cfg.patch_size, cfg.dim
    patches = img.reshape(b, cfg.channels, g, ps, g, ps).transpose(0, 2, 4, 1, 3, 5)
    tok = patches.reshape(b, g * g, -1) @ w["embed.patch_w"] + w["embed.patch_b"]
    cls = np.broadcast_to(w["embed.cls"], (b, 1, d))
    x = np.concatenate([cls, tok], axis=1) + w["embed.pos"]
    t = x.shape[1]
    for li in range(cfg.layers):
        if kind == "teacher":
            p = f"layer.{li}."
            h = _layer_norm(x, w[p + "ln1_g"], w[p + "ln1_b"])
            qkv = h @ w[p + "qkv_w"] + w[p + "qkv_b"]
            q, k, v = (a.reshape(b, t, cfg.heads, cfg.head_dim).transpose(0, 2, 1, 3)
                       for a in np.split(qkv, 3, axis=-1))
            s = q @ k.transpose(0, 1, 3, 2) / np.sqrt(cfg.head_dim)
            s = np.exp(s - s.max(axis=-1, keepdims=True))
            att = (s / s.sum(axis=-1, keepdims=True)) @ v
            x = x + att.transpose(0, 2, 1, 3).reshape(b, t, d) @ w[p + "proj_w"] + w[p + "proj_b"]
        else:
            p = f"far.{li}."
            u = _layer_norm(x, w[p + "ln_g"], w[p + "ln_b"]) @ w[p + "in_w"] + w[p + "in_b"]
            outs = []
            for hd, sub in enumerate(np.split(u, cfg.heads, axis=-1)):
                for dirn in ("fwd", "rev"):
                    q = f"{p}{hd}.{dirn}."
                    outs.append(_scan(sub, w[q + "w_ih"], w[q + "w_hh"], w[q + "b_ih"],
                                      w[q + "b_hh"], reverse=dirn == "rev"))
            x = x + np.concatenate(outs, axis=-1) @ w[p + "out_w"] + w[p + "out_b"]
        p = f"layer.{li}."
        h = _layer_norm(x, w[p + "ln2_g"], w[p + "ln2_b"]) @ w[p + "fc1_w"] + w[p + "fc1_b"]
        h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
        x = x + h @ w[p + "fc2_w"] + w[p + "fc2_b"]
    h = _layer_norm(x[:, 0], w["final.ln_g"], w["final.ln_b"])
    return h @ w["final.head_w"] + w["final.head_b"]


def logits_match(got, ref):
    """True when float32 logits agree with the float64 reference."""
    got = np.asarray(got, dtype=np.float64)
    return (got.shape == ref.shape and bool(np.isfinite(got).all()) and
            float(np.abs(got - ref).max()) <= ATOL + RTOL * float(np.abs(ref).max()))
