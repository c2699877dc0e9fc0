"""Reference screening utilities, computed from their definitions with numpy only.

HSIC is (n-1)^-2 tr(K H L H) with an explicit centring matrix H, and the
distance correlation comes from double-centred distance matrices. Nothing
here imports survscreen, so a change to the package's scorer cannot change
the values it is checked against.

Small HSIC utilities are a sum of n^2 terms with heavy cancellation, so
any float64 evaluation (the package's or this one) is only accurate to
about 1e-12 of the value itself for them. Utilities are therefore compared
normwise: the largest absolute difference must stay within ``RTOL`` of the
largest utility. Rankings are compared exactly.
"""

from __future__ import annotations

import numpy as np

#: Normwise relative tolerance on a utility vector.
RTOL = 1e-12

#: Kernel entries evaluated per block of columns; bounds the temporaries.
BLOCK_ENTRIES = 1 << 20


def standardize(times, status) -> np.ndarray:
    """(time, status) each centred and scaled to unit sample sd (ddof=1)."""
    cols = []
    for v in (times, status):
        v = np.asarray(v, dtype=np.float64)
        cols.append((v - v.mean()) / v.std(ddof=1))
    return np.column_stack(cols)


def _sq_dist(y: np.ndarray) -> np.ndarray:
    diff = y[:, None, :] - y[None, :, :]
    return (diff * diff).sum(axis=-1)


def _blocks(n: int, p: int):
    width = max(1, BLOCK_ENTRIES // (n * n))
    for start in range(0, p, width):
        yield slice(start, min(p, start + width))


def _double_centre(a: np.ndarray) -> np.ndarray:
    """a_ij - mean_i - mean_j + grand mean over the last two axes, in place.

    Removing the row means and then the column means of the result does
    exactly that, since the column means of the row-centred matrix are
    mean_j - grand mean.
    """
    a -= a.mean(axis=-1, keepdims=True)
    a -= a.mean(axis=-2, keepdims=True)
    return a


def hsic_utilities(covariates, times, status, gamma: float = 2.0) -> np.ndarray:
    """Gaussian-kernel HSIC of each covariate column with the standardized response."""
    Z = np.asarray(covariates, dtype=np.float64)
    n, p = Z.shape
    scale = 1.0 / (2.0 * gamma * gamma)
    L = np.exp(-scale * _sq_dist(standardize(times, status)))
    H = np.eye(n) - 1.0 / n
    # tr(K HLH) = sum_ij K_ij (HLH)_ji: a dot product with HLH transposed
    HLH_T = np.ascontiguousarray((H @ L @ H).T).reshape(-1)
    out = np.empty(p)
    for cols in _blocks(n, p):
        z = Z[:, cols].T[:, :, None]
        K = z - z.transpose(0, 2, 1)
        np.square(K, out=K)
        K *= -scale
        np.exp(K, out=K)
        out[cols] = K.reshape(K.shape[0], -1) @ HLH_T
    return np.maximum(out / ((n - 1) * (n - 1)), 0.0)


def dcor_utilities(covariates, times, status) -> np.ndarray:
    """Distance correlation of each covariate column with the standardized response."""
    Z = np.asarray(covariates, dtype=np.float64)
    n, p = Z.shape
    B = _double_centre(np.sqrt(_sq_dist(standardize(times, status)))).reshape(-1)
    dvar_y = float(B @ B) / (n * n)
    out = np.zeros(p)
    for cols in _blocks(n, p):
        z = Z[:, cols].T[:, :, None]
        A = z - z.transpose(0, 2, 1)
        np.abs(A, out=A)
        A = _double_centre(A).reshape(A.shape[0], -1)
        dvar_x = np.einsum("ki,ki->k", A, A) / (n * n)
        dcov2 = (A @ B) / (n * n)
        ok = (dvar_x > 0.0) & (dvar_y > 0.0)
        r2 = np.zeros_like(dcov2)
        r2[ok] = dcov2[ok] / np.sqrt(dvar_x[ok] * dvar_y)
        out[cols] = np.sqrt(np.clip(r2, 0.0, 1.0))
    return out


def ranking(utilities) -> np.ndarray:
    """Covariate indices by decreasing utility, ties by ascending index."""
    u = np.asarray(utilities, dtype=np.float64)
    return np.lexsort((np.arange(u.shape[0]), -u))


def agree(values, reference, rtol: float = RTOL) -> bool:
    """True when max |values - reference| <= rtol * max |reference|."""
    values = np.asarray(values, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if values.shape != reference.shape:
        return False
    bound = rtol * float(np.max(np.abs(reference), initial=0.0))
    return bool(np.max(np.abs(values - reference), initial=0.0) <= bound)
