"""Kernel functions, Gram matrices, and the empirical HSIC estimator.

The Hilbert-Schmidt independence criterion between samples ``u`` and ``v``
is estimated here in its biased V-statistic form

    HSIC(u, v) = (n-1)^-2 * tr(K H L H)

where ``K`` and ``L`` are the Gram matrices of ``u`` and ``v`` and
``H = I - J/n`` is the centering matrix.  The trace is evaluated as the
Frobenius inner product <K, HLH>, so the expensive centering of the
response Gram can be done once and reused against many covariate Grams
at O(n^2) each instead of O(n^3).

One builder, ``_pairwise``, makes every n x n matrix (each family's Gram
and the distance-correlation baseline's distances) from elementwise terms,
one coordinate at a time. No BLAS routine is called, not even for the
linear kernel, and the Frobenius product is numpy's fixed-order pairwise
sum, so no value here depends on the BLAS library or its thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError

KERNEL_FAMILIES = ("gaussian", "linear", "laplacian")

#: Hard ceiling on sample count so a dense n x n matrix cannot exhaust memory.
DEFAULT_MAX_SAMPLES = 10_000


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth.

    gaussian:  k(x, y) = exp(-||x - y||^2 / (2 gamma^2))
    laplacian: k(x, y) = exp(-||x - y||_1 / gamma)
    linear:    k(x, y) = <x, y>          (gamma unused)
    """

    family: str = "gaussian"
    gamma: float = 2.0

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {KERNEL_FAMILIES}"
            )
        if self.family in ("gaussian", "laplacian"):
            gamma = float(self.gamma)
            if not np.isfinite(gamma) or gamma <= 0.0:
                raise ValueError(f"bandwidth gamma must be a positive real, got {self.gamma}")


#: The default used throughout: Gaussian with bandwidth 2 on every side.
GAUSSIAN_DEFAULT = KernelSpec("gaussian", 2.0)


def _as_points(x) -> np.ndarray:
    """Coerce input to an (n, d) float64 array; 1-d input becomes (n, 1)."""
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"points must be a 1-d or 2-d array, got ndim={pts.ndim}")
    if pts.shape[1] == 0:
        raise ValueError("points must have at least one coordinate")
    return pts


def _pairwise(pts, pair, fold=None, *, out=None, max_samples: int = DEFAULT_MAX_SAMPLES) -> np.ndarray:
    """Sums over coordinates k of fold(pair(x_ik, x_jk)) for every pair i, j.

    ``pts`` is an (n, d) point set or a (..., n, d) stack; the (..., n, n)
    result goes into ``out`` if given. One coordinate at a time, so (i, j)
    and (j, i) see the same float ops and the result is exactly symmetric.
    Raises ValidationError, before allocating, on n above ``max_samples``.
    """
    n = pts.shape[-2]
    if n > max_samples:
        raise ValidationError(
            f"n={n} exceeds the sample cap of {max_samples}; "
            f"one {n}x{n} matrix would need {n * n * 8 / 2**20:.0f} MiB"
        )
    acc = None
    for k in range(pts.shape[-1]):
        x = pts[..., k]
        term = pair(x[..., :, None], x[..., None, :], out=out if acc is None else None)
        if fold is not None:
            fold(term, out=term)
        acc = term if acc is None else np.add(acc, term, out=acc)
    return acc


def _kernel_matrix(pts, spec: KernelSpec, *, out=None, max_samples: int = DEFAULT_MAX_SAMPLES):
    """K[..., i, j] = k(x_i, x_j) for the points ``_pairwise`` takes, into ``out`` if given."""
    if spec.family == "linear":
        return _pairwise(pts, np.multiply, out=out, max_samples=max_samples)
    laplacian = spec.family == "laplacian"
    fold = np.abs if laplacian else np.square
    acc = _pairwise(pts, np.subtract, fold, out=out, max_samples=max_samples)
    acc *= -1.0 / spec.gamma if laplacian else -1.0 / (2.0 * spec.gamma * spec.gamma)
    return np.exp(acc, out=acc)


def gram(points, spec: KernelSpec = GAUSSIAN_DEFAULT, *, max_samples: int = DEFAULT_MAX_SAMPLES) -> np.ndarray:
    """Pairwise kernel matrix K[i, j] = k(points[i], points[j]), symmetric by construction.

    Accepts an (n,) or (n, d) array of points. Raises ValueError on
    non-finite coordinates or fewer than two points, and its subclass
    ValidationError, before allocating, on n above ``max_samples``.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples to form a Gram matrix, got {n}")
    if not np.isfinite(pts).all():
        raise ValueError("points contain NaN or infinite coordinates")
    return _kernel_matrix(pts, spec, max_samples=max_samples)


def center(L: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Center a Gram matrix in feature space: returns H L H.

    Equivalent to subtracting row means, column means, and adding back the
    grand mean. Rows and columns of the result sum to zero (within
    roundoff), and centering is idempotent. ``L`` may also be a stack of
    shape (..., n, n), centred matrix by matrix. The result is written
    into ``out`` when it is given, which may be ``L`` itself.
    """
    L = np.asarray(L, dtype=np.float64)
    if L.ndim < 2 or L.shape[-2] != L.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {L.shape}")
    row_mean = L.mean(axis=-1, keepdims=True)
    col_mean = L.mean(axis=-2, keepdims=True)
    grand_mean = L.mean(axis=(-2, -1), keepdims=True)
    out = np.subtract(L, row_mean, out=out)
    out -= col_mean
    out += grand_mean
    return out


def _frobenius(X: np.ndarray, Y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """<X, Y>_F over the last two axes, with the product written into ``out`` if given."""
    return np.multiply(X, Y, out=out).sum(axis=(-2, -1))


def hsic(K: np.ndarray, Lc: np.ndarray, *, clamp: bool = True, out: np.ndarray | None = None):
    """Empirical HSIC from a Gram matrix and a pre-centered Gram matrix.

    Computes (n-1)^-2 * <K, Lc>_F, which equals (n-1)^-2 tr(K H L H) when
    ``Lc = center(L)``. For PSD kernels the value is nonnegative up to
    roundoff; with ``clamp`` (the default) tiny negatives are clamped to 0.

    ``K`` may also be a stack of shape (..., n, n), each scored against
    the one ``Lc``; the result is then an array of shape ``K.shape[:-2]``
    rather than a float. A value does not depend on the other matrices in
    the stack. ``out``, which may be ``K`` itself, takes the elementwise
    product in place of a temporary.
    """
    K = np.asarray(K, dtype=np.float64)
    Lc = np.asarray(Lc, dtype=np.float64)
    if K.shape[-2:] != Lc.shape or Lc.ndim != 2 or Lc.shape[0] != Lc.shape[1]:
        raise ValueError(f"Gram matrix shapes do not match: {K.shape} vs {Lc.shape}")
    n = Lc.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples, got n={n}")
    value = _frobenius(K, Lc, out) / ((n - 1) * (n - 1))
    if clamp:
        value = np.where(value < 0.0, 0.0, value)
    return float(value) if value.ndim == 0 else value


def hsic_pair(
    u,
    v,
    spec_u: KernelSpec = GAUSSIAN_DEFAULT,
    spec_v: KernelSpec = GAUSSIAN_DEFAULT,
    *,
    clamp: bool = True,
) -> float:
    """Empirical HSIC between two aligned samples.

    ``u`` and ``v`` are (n,) or (n, d) arrays with one row per subject.
    """
    pu = _as_points(u)
    pv = _as_points(v)
    if pu.shape[0] != pv.shape[0]:
        raise ValueError(f"sample sizes differ: {pu.shape[0]} vs {pv.shape[0]}")
    return hsic(gram(pu, spec_u), center(gram(pv, spec_v)), clamp=clamp)
