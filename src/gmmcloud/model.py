"""Core mixture-model types and density evaluation for 3D point clouds.

Shapes are modeled as Gaussian mixtures over R^3. A mixture has one
type, Gmm(weights, means, covariances): stacked arrays of weights (K,),
means (K, 3) and covariances (K, 3, 3), validated once at construction
and read-only afterwards. Fitting, sampling, geodesics and file I/O work
on these arrays. gaussian_log_density and gmm_density evaluate densities
one component at a time, as a reference for the stacked routines.

This module also holds point clouds and AIC-weighted mixture ensembles.
All types are immutable after construction; a pickled copy is rebuilt
through its constructor, so it is validated again and stays read-only.
All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import solve_triangular

LOG_TWO_PI = math.log(2.0 * math.pi)

# Tolerances used by constructor validation.
WEIGHT_SUM_TOL = 1e-9
SYMMETRY_TOL = 1e-12

# Fallback eigenvalue floor when the data covariance itself is degenerate
# (for example a cloud of identical points), where the scale-aware floor
# would collapse to zero.
ABSOLUTE_COV_FLOOR = 1e-12


class DegenerateCovarianceError(ValueError):
    """A covariance matrix is not symmetric positive definite."""


def _transposed(mats: np.ndarray) -> np.ndarray:
    return np.swapaxes(mats, -1, -2)


def checked_spd(matrices) -> np.ndarray:
    """Symmetrized read-only copy of one SPD matrix or a stack of them.

    Takes a (3, 3) matrix or a (K, 3, 3) stack. Every matrix must be
    finite, symmetric to SYMMETRY_TOL and positive definite; for a stack
    the error names the first failing component.
    """
    mats = np.array(matrices, dtype=float)
    if mats.ndim not in (2, 3) or mats.shape[-2:] != (3, 3):
        raise ValueError(f"covariance must be 3x3 or a stack of 3x3, got shape {mats.shape}")
    stack = mats.reshape(-1, 3, 3)

    def where(j: int) -> str:
        return f" (component {j})" if mats.ndim == 3 else ""

    # np.argmax over a boolean vector finds the first failing matrix
    bad = ~np.isfinite(stack).all(axis=(1, 2))
    j = int(np.argmax(bad))
    if bad[j]:
        raise DegenerateCovarianceError(f"covariance must be finite{where(j)}")
    asym = np.abs(stack - _transposed(stack)).max(axis=(1, 2))
    j = int(np.argmax(asym > SYMMETRY_TOL))
    if asym[j] > SYMMETRY_TOL:
        raise DegenerateCovarianceError(
            f"covariance asymmetry {asym[j]:.3e} exceeds {SYMMETRY_TOL:.0e}{where(j)}")
    sym = 0.5 * (mats + _transposed(mats))
    smallest = np.linalg.eigvalsh(sym.reshape(-1, 3, 3))[:, 0]
    j = int(np.argmax(smallest <= 0.0))
    if smallest[j] <= 0.0:
        raise DegenerateCovarianceError(
            f"degenerate covariance: smallest eigenvalue {smallest[j]:.6e}{where(j)}")
    sym.setflags(write=False)
    return sym


def reduce_through_constructor(obj):
    """__reduce__ for the frozen array types: unpickling calls the
    constructor again, so the copy is validated and its arrays are
    read-only like the original's."""
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj))


@dataclass(frozen=True)
class PointCloud:
    """A non-empty set of 3D points, optionally tagged with a class label."""

    points: np.ndarray
    label: str | None = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise ValueError(f"points must be an (N, 3) array with N >= 1, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.n

    __reduce__ = reduce_through_constructor


@dataclass(frozen=True)
class Gmm:
    """A Gaussian mixture as stacked read-only arrays.

    weights (K,) must be finite, >= 0 and sum to one; means (K, 3)
    finite; covariances (K, 3, 3) SPD (see checked_spd). The input is
    validated and copied once, here.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError(f"weights must be a non-empty (K,) vector, got shape {w.shape}")
        bad = ~(np.isfinite(w) & (w >= 0.0))
        if np.any(bad):
            raise ValueError(f"component weight must be finite and >= 0, got {float(w[bad][0])}")
        m = np.array(self.means, dtype=float)
        if m.shape != w.shape + (3,):
            raise ValueError(f"means must have shape {w.shape + (3,)}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("means must be finite")
        covs = np.asarray(self.covariances, dtype=float)
        if covs.shape != w.shape + (3, 3):
            raise ValueError(f"covariances must have shape {w.shape + (3, 3)}, got {covs.shape}")
        covs = checked_spd(covs)
        total = math.fsum(w.tolist())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"component weights sum to {total!r}, expected 1")
        for name, arr in (("weights", w), ("means", m), ("covariances", covs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    __reduce__ = reduce_through_constructor

    @property
    def k(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class EnsembleMember:
    """One mixture in an ensemble with its selection probability p."""

    weight: float
    model: Gmm

    def __post_init__(self):
        w = float(self.weight)
        if not (w > 0.0 and math.isfinite(w)):
            raise ValueError(f"member weight must be finite and > 0, got {self.weight}")
        object.__setattr__(self, "weight", w)


@dataclass(frozen=True)
class GmmEnsemble:
    """AIC-weighted collection of mixtures with distinct component counts."""

    members: tuple[EnsembleMember, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if len(members) < 1:
            raise ValueError("an ensemble needs at least one member")
        total = math.fsum(m.weight for m in members)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"member weights sum to {total!r}, expected 1")
        ks = [m.model.k for m in members]
        if len(set(ks)) != len(ks):
            raise ValueError(f"member component counts must be distinct, got {ks}")
        object.__setattr__(self, "members", members)

    @classmethod
    def single(cls, model: Gmm) -> "GmmEnsemble":
        return cls((EnsembleMember(1.0, model),))


def covariance_floor(points: np.ndarray) -> float:
    """Scale-aware eigenvalue floor for fitted covariances.

    One millionth of the mean per-axis variance of the data, so the floor
    tracks the units of the cloud. Degenerate data falls back to an
    absolute floor.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        return ABSOLUTE_COV_FLOOR
    var = pts.var(axis=0)
    eps = 1e-6 * float(var.sum()) / 3.0
    if not (eps > 0.0 and math.isfinite(eps)):
        return ABSOLUTE_COV_FLOOR
    return eps


def floor_spd(cov: np.ndarray, eps: float) -> np.ndarray:
    """Clamp the eigenvalues of symmetric 3x3 matrices at eps and
    resymmetrize, over any leading axes."""
    lam, q = np.linalg.eigh(0.5 * (cov + _transposed(cov)))
    out = (q * np.maximum(lam, eps)[..., None, :]) @ _transposed(q)
    return 0.5 * (out + _transposed(out))


def gaussian_log_density(points: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Log density of N(mean, cov) at each row of points, shape (N,).

    Evaluated through the Cholesky factor so the quadratic form and the
    determinant stay stable for small covariances.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        checked_spd(cov)
        raise DegenerateCovarianceError("degenerate covariance: Cholesky failed") from None
    diff = pts - np.asarray(mean, dtype=float)
    y = solve_triangular(chol, diff.T, lower=True)
    maha = np.einsum("ij,ij->j", y, y)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (3.0 * LOG_TWO_PI + log_det + maha)


def weighted_log_densities(points: np.ndarray, weights: np.ndarray, means: np.ndarray,
                           covariances: np.ndarray) -> np.ndarray:
    """(N, K) matrix of log(w_j) + log f_j(x_i). Zero weights map to -inf.

    One batched Cholesky factorization covers all K covariances and gives
    the log-determinants; the quadratic forms loop over K so that no
    temporary grows beyond (N, 3).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    try:
        chol = np.linalg.cholesky(covariances)
    except np.linalg.LinAlgError:
        checked_spd(covariances)
        raise DegenerateCovarianceError("degenerate covariance: Cholesky failed") from None
    inv_chol = np.linalg.inv(chol)
    log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    cols = np.full((pts.shape[0], weights.shape[0]), -np.inf)
    for j in np.flatnonzero(weights > 0.0):
        y = (pts - means[j]) @ inv_chol[j].T
        cols[:, j] = (math.log(weights[j]) - 0.5 * (3.0 * LOG_TWO_PI + log_det[j])
                      - 0.5 * np.einsum("ij,ij->i", y, y))
    return cols


def log_sum_exp_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp that maps all -inf rows to -inf without warnings."""
    peak = np.max(matrix, axis=1)
    finite = np.isfinite(peak)
    out = np.full(matrix.shape[0], -np.inf)
    if np.any(finite):
        shifted = matrix[finite] - peak[finite, None]
        out[finite] = peak[finite] + np.log(np.sum(np.exp(shifted), axis=1))
    return out


def gmm_log_density(points: np.ndarray, model: Gmm) -> np.ndarray:
    """Log mixture density at each row of points, shape (N,)."""
    return log_sum_exp_rows(weighted_log_densities(
        points, model.weights, model.means, model.covariances))


def ensemble_log_density(points: np.ndarray, ensemble: GmmEnsemble) -> np.ndarray:
    """Log density of the ensemble mixture sum_k p_k f_k at each point."""
    cols = np.column_stack([
        math.log(m.weight) + gmm_log_density(points, m.model) for m in ensemble.members
    ])
    return log_sum_exp_rows(cols)


def gmm_density(x: np.ndarray, model: Gmm) -> float:
    """Mixture density at a single point, sum_j w_j f_j(x), summed one
    component at a time."""
    x = np.asarray(x, dtype=float).reshape(1, 3)
    return float(math.fsum(
        w * float(np.exp(gaussian_log_density(x, m, c)[0]))
        for w, m, c in zip(model.weights.tolist(), model.means, model.covariances)
    ))


def gmm_log_likelihood(cloud: PointCloud, model: Gmm) -> float:
    """Total log-likelihood of a cloud under a mixture.

    Per-point contributions go through log-sum-exp, so far-outlying
    points underflow to -inf only when the density is exactly zero in
    exact arithmetic.
    """
    return float(np.sum(gmm_log_density(cloud.points, model)))
