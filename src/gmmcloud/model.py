"""Core mixture-model types and density evaluation for 3D point clouds.

Shapes are modeled as Gaussian mixtures over R^3. A mixture has one
representation: stacked arrays of weights (K,), means (K, 3) and
covariances (K, 3, 3), validated once when the mixture is built from
user or file input and read-only afterwards. Fitting, sampling,
geodesics and file I/O work on these arrays; GaussianComponent is the
per-component view, and gaussian_log_density, gaussian_density and
gmm_density evaluate densities through it one component at a time, as
a reference for the stacked routines.

This module also holds point clouds and AIC-weighted mixture ensembles.
All types are immutable after construction. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def checked_components(weights, means, covariances
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated read-only copies of component parameters.

    weights has shape S, means S + (3,) and covariances S + (3, 3), with
    S = () for one component or (K,) for a stack. Weights must be finite
    and >= 0, means finite, and covariances SPD (see checked_spd).
    """
    w = np.array(weights, dtype=float)
    bad = ~(np.isfinite(w) & (w >= 0.0))
    if np.any(bad):
        raise ValueError(f"component weight must be finite and >= 0, got {float(w[bad][0])}")
    m = np.array(means, dtype=float)
    if m.shape != w.shape + (3,):
        raise ValueError(f"means must have shape {w.shape + (3,)}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("means must be finite")
    covs = np.asarray(covariances, dtype=float)
    if covs.shape != w.shape + (3, 3):
        raise ValueError(f"covariances must have shape {w.shape + (3, 3)}, got {covs.shape}")
    w.setflags(write=False)
    m.setflags(write=False)
    return w, m, checked_spd(covs)


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


@dataclass(frozen=True)
class GaussianComponent:
    """One weighted trivariate Gaussian: weight, mean, SPD covariance."""

    weight: float
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        weight, mean, cov = checked_components(self.weight, self.mean, self.covariance)
        object.__setattr__(self, "weight", float(weight))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


@dataclass(frozen=True, init=False)
class Gmm:
    """A Gaussian mixture as stacked read-only arrays; weights sum to one.

    Gmm.from_arrays(weights, means, covariances) validates its input once.
    Gmm(components) stacks already validated GaussianComponents, which
    .components then returns as given; for a mixture built from arrays,
    .components is built on first access.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    _components: tuple[GaussianComponent, ...] | None = field(
        default=None, repr=False, compare=False)

    def __init__(self, components):
        comps = tuple(components)
        if len(comps) < 1:
            raise ValueError("a mixture needs at least one component")
        self._set(np.array([c.weight for c in comps]), np.array([c.mean for c in comps]),
                  np.array([c.covariance for c in comps]), comps)

    @classmethod
    def from_arrays(cls, weights, means, covariances) -> "Gmm":
        """A mixture from weights (K,), means (K, 3) and covariances (K, 3, 3)."""
        weights, means, covariances = checked_components(weights, means, covariances)
        if weights.ndim != 1 or weights.size < 1:
            raise ValueError(f"weights must be a non-empty (K,) vector, got shape {weights.shape}")
        model = cls.__new__(cls)
        model._set(weights, means, covariances, None)
        return model

    def _set(self, weights, means, covariances, components):
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"component weights sum to {total!r}, expected 1")
        for name, arr in (("weights", weights), ("means", means), ("covariances", covariances)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_components", components)

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def components(self) -> tuple[GaussianComponent, ...]:
        if self._components is None:
            object.__setattr__(self, "_components", tuple(
                GaussianComponent(w, m, c)
                for w, m, c in zip(self.weights, self.means, self.covariances)))
        return self._components


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


def gaussian_density(x: np.ndarray, component: GaussianComponent) -> float:
    """Trivariate normal density of a single component at a single point."""
    logd = gaussian_log_density(np.asarray(x, dtype=float).reshape(1, 3),
                                component.mean, component.covariance)
    return float(np.exp(logd[0]))


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
    """Mixture density at a single point: sum_j w_j f_j(x)."""
    return float(math.fsum(
        c.weight * gaussian_density(x, c) for c in model.components
    ))


def gmm_log_likelihood(cloud: PointCloud, model: Gmm) -> float:
    """Total log-likelihood of a cloud under a mixture.

    Per-point contributions go through log-sum-exp, so far-outlying
    points underflow to -inf only when the density is exactly zero in
    exact arithmetic.
    """
    return float(np.sum(gmm_log_density(cloud.points, model)))
