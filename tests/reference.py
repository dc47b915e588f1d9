"""Independent brute-force oracles the test suite checks the library against.

Everything here is written as plainly as possible (explicit loops, 64-bit
floats) and stays independent of the implementation under test.
"""

import numpy as np


def conv2d_naive(x, w, b, stride=1, padding=0):
    """Reference cross-correlation via seven nested loops."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    out = np.zeros((n, cout, ho, wo))
    for nn in range(n):
        for co in range(cout):
            for y in range(ho):
                for xx in range(wo):
                    acc = b[co]
                    for ci in range(cin):
                        for i in range(k):
                            for j in range(k):
                                acc += w[co, ci, i, j] * xp[nn, ci, y * stride + i, xx * stride + j]
                    out[nn, co, y, xx] = acc
    return out


def conv2d_grads_naive(x, w, up, padding=0):
    """Reference gradients of ``conv2d_naive`` at stride 1 with respect to
    ``x`` and ``w``, given the upstream gradient ``up``: each output
    element's gradient flows back to every input element and weight it read."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    up = np.asarray(up, dtype=np.float64)
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for nn in range(n):
        for co in range(cout):
            for y in range(up.shape[2]):
                for xx in range(up.shape[3]):
                    g = up[nn, co, y, xx]
                    for ci in range(cin):
                        for i in range(k):
                            for j in range(k):
                                dw[co, ci, i, j] += g * xp[nn, ci, y + i, xx + j]
                                dxp[nn, ci, y + i, xx + j] += g * w[co, ci, i, j]
    return dxp[:, :, padding:padding + h, padding:padding + wd], dw


def prelu_ref(x, slope):
    """Reference PReLU with one slope per channel of an NCHW array."""
    return np.where(x < 0, np.asarray(slope).reshape(1, -1, 1, 1) * x, x)


def maxpool2d_naive(x):
    """Reference 2x2/stride-2 max pooling via window scans."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2))
    for nn in range(n):
        for cc in range(c):
            for y in range(h // 2):
                for xx in range(w // 2):
                    out[nn, cc, y, xx] = x[nn, cc, 2 * y:2 * y + 2, 2 * xx:2 * xx + 2].max()
    return out


def attention_naive(q, k, v):
    """Reference non-local attention: the full affinity matrix, one row at a
    time, with an explicit per-row max subtraction before the softmax."""
    q, k, v = (np.asarray(x, dtype=np.float64) for x in (q, k, v))
    n, c, h, w = q.shape
    positions = h * w
    qs, ks, vs = (x.reshape(n, c, positions) for x in (q, k, v))
    out = np.zeros((n, c, positions))
    for b in range(n):
        for i in range(positions):
            logits = np.zeros(positions)
            for j in range(positions):
                for ch in range(c):
                    logits[j] += qs[b, ch, i] * ks[b, ch, j]
            logits -= logits.max()
            weights = np.exp(logits)
            weights /= weights.sum()
            for j in range(positions):
                out[b, :, i] += weights[j] * vs[b, :, j]
    return out.reshape(n, c, h, w)


def attention_grads_naive(q, k, v, up):
    """Reference gradients of ``attention_naive`` with respect to q, k and v,
    given the upstream gradient ``up``, one query position i at a time.

    With p the softmaxed affinities of row i and u its upstream vector:
    dV[:, j] += p[j] u, dP[j] = u . V[:, j], dS = p (dP - sum(dP p)),
    dQ[:, i] = sum_j dS[j] K[:, j] and dK[:, j] += dS[j] Q[:, i].
    """
    q, k, v, up = (np.asarray(x, dtype=np.float64) for x in (q, k, v, up))
    n, c, h, w = q.shape
    positions = h * w
    qs, ks, vs, us = (x.reshape(n, c, positions) for x in (q, k, v, up))
    dq, dk, dv = (np.zeros((n, c, positions)) for _ in range(3))
    for b in range(n):
        for i in range(positions):
            logits = ks[b].T @ qs[b, :, i]
            p = np.exp(logits - logits.max())
            p /= p.sum()
            u = us[b, :, i]
            dp = vs[b].T @ u
            ds = p * (dp - (dp * p).sum())
            dv[b] += np.outer(u, p)
            dq[b, :, i] = ks[b] @ ds
            dk[b] += np.outer(qs[b, :, i], ds)
    return tuple(x.reshape(n, c, h, w) for x in (dq, dk, dv))


def ssim_reference(a, b, window=11, sigma=1.5, k1=0.01, k2=0.03):
    """Reference SSIM: explicit Gaussian-weighted window statistics."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    offsets = np.arange(window) - (window - 1) / 2
    g = np.exp(-(offsets ** 2) / (2 * sigma * sigma))
    g /= g.sum()
    kern = np.outer(g, g)
    c1 = k1 ** 2
    c2 = k2 ** 2
    h, w, channels = a.shape
    scores = []
    for ch in range(channels):
        vals = []
        for y in range(h - window + 1):
            for x in range(w - window + 1):
                wa = a[y:y + window, x:x + window, ch]
                wb = b[y:y + window, x:x + window, ch]
                mu_a = (kern * wa).sum()
                mu_b = (kern * wb).sum()
                var_a = (kern * wa * wa).sum() - mu_a ** 2
                var_b = (kern * wb * wb).sum() - mu_b ** 2
                cov = (kern * wa * wb).sum() - mu_a * mu_b
                num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
                den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
                vals.append(num / den)
        scores.append(np.mean(vals))
    return float(np.mean(scores))


def synthetic_pair(size=64, seed=5):
    """A smooth dark/bright image pair for overfit and pipeline tests."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size] / size
    base = np.zeros((size, size, 3))
    for _ in range(4):
        phase = rng.uniform(0, 2 * np.pi)
        freq_y, freq_x = rng.uniform(0.5, 2.5, 2)
        base += (rng.uniform(0.1, 0.4)
                 * np.sin(2 * np.pi * (freq_y * yy + freq_x * xx) + phase)[..., None]
                 * rng.uniform(0.3, 1.0, 3))
    base = (base - base.min()) / (base.max() - base.min())
    dark = (0.05 + 0.30 * base).astype(np.float32)
    bright = np.clip(0.08 + 0.85 * base, 0, 1).astype(np.float32)
    return dark, bright


def png_defilter_naive(raw, width, height, bpp):
    """Reference PNG scanline defilter (W3C PNG §9), one byte at a time with
    Python ints; returns an (H, W, bpp) uint8 array."""
    stride = width * bpp
    out = [[0] * stride for _ in range(height)]
    for y in range(height):
        row = raw[y * (stride + 1):(y + 1) * (stride + 1)]
        ftype = row[0]
        for i in range(stride):
            a = out[y][i - bpp] if i >= bpp else 0
            b = out[y - 1][i] if y > 0 else 0
            c = out[y - 1][i - bpp] if y > 0 and i >= bpp else 0
            if ftype == 0:
                pred = 0
            elif ftype == 1:
                pred = a
            elif ftype == 2:
                pred = b
            elif ftype == 3:
                pred = (a + b) // 2
            elif ftype == 4:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                if pa <= pb and pa <= pc:
                    pred = a
                elif pb <= pc:
                    pred = b
                else:
                    pred = c
            else:
                raise ValueError(f"filter type {ftype} on row {y}")
            out[y][i] = (row[1 + i] + pred) % 256
    return np.array(out, dtype=np.uint8).reshape(height, width, bpp)
