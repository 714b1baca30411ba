"""Core mixture-model types and density evaluation for 3D point clouds.

Shapes are modeled as Gaussian mixtures over R^3. A mixture has one
type, Gmm(weights, means, covariances): stacked arrays of weights (K,),
means (K, 3) and covariances (K, 3, 3), validated once at construction
and read-only afterwards. Fitting, sampling, geodesics and file I/O work
on these arrays.

Densities use the moment (exponential-family) form of a Gaussian
(Bishop, PRML 2.3-2.4 and 9.2). Each point x becomes a column of a
feature table Phi = [1, x, x x^T] (10 rows, the second moments taken
once each), and each weighted component becomes a row of coefficients
built from its precision P, P mu and a constant. Those come from the
eigendecomposition (lam, q) of the covariances, P = q diag(1 / lam) q^T
and log det = sum log lam: an EM M-step gets that factor from floor_spd,
which floors the covariances with it, and a fixed mixture from one
checked_spd per evaluation: the package's one test of positive
definiteness, whose eigh also samples and interpolates a mixture. All K
log-densities at all N points are then one (K, 10) by (10, N) product,
and the moments an M-step needs are one (K, N) by (N, 10) product.
softmax_columns normalises the log-density table in place into the
responsibilities and each point's log density together. The expanded
form cancels when the points sit far from the origin next to a
component's scale, so every table is built from centred points: a fit
centres on the mean of its points, an evaluation on the mean of the
mixture.

This module also holds point clouds and AIC-weighted mixture ensembles.
An ensemble is sampled, scored and embedded as its flat mixture, the
components of every member weighted p_k w_kj (flat_mixture).
All types are immutable after construction; a pickled copy is rebuilt
through its constructor, so it is validated again and stays read-only.
The types that hold arrays compare and hash by identity. All functions
are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

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


def checked_spd(matrices) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Symmetrized read-only copy of one SPD matrix or a stack of them,
    and its eigendecomposition (lam, q), every lam > 0.

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
    lam, q = np.linalg.eigh(sym)
    smallest = lam.reshape(-1, 3)[:, 0]
    j = int(np.argmax(smallest <= 0.0))
    if smallest[j] <= 0.0:
        raise DegenerateCovarianceError(
            f"degenerate covariance: smallest eigenvalue {smallest[j]:.6e}{where(j)}")
    sym.setflags(write=False)
    return sym, (lam, q)


def reduce_through_constructor(obj):
    """__reduce__ for the frozen array types: unpickling calls the
    constructor again, so the copy is validated and its arrays are
    read-only like the original's."""
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj))


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
        covs, _ = checked_spd(covs)
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


def floor_spd(cov: np.ndarray, eps: float
              ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Clamp the eigenvalues of symmetric 3x3 matrices at eps, over any
    leading axes. Returns the resymmetrized floored matrices and their
    factor (lam, q): the eigenvalues, already clamped, and the
    eigenvectors as columns, so that q diag(lam) q^T is the floored
    matrix before resymmetrization."""
    lam, q = np.linalg.eigh(0.5 * (cov + _transposed(cov)))
    lam = np.maximum(lam, eps)
    out = (q * lam[..., None, :]) @ _transposed(q)
    return 0.5 * (out + _transposed(out)), (lam, q)


# Rows of the feature table Phi: 1, the coordinates x, y, z, then the
# second moments xx, yy, zz, xy, xz, yz. SECOND_MOMENT_ROWS maps a 3x3
# second-moment matrix onto those rows.
N_FEATURES = 10
SECOND_MOMENT_ROWS = np.array([[4, 7, 8], [7, 5, 9], [8, 9, 6]])
_PRODUCTS = ((1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3))


def centred_features(points: np.ndarray, centre: np.ndarray) -> np.ndarray:
    """Feature table Phi (10, N) of the points taken relative to centre.

    Column i of Phi is [1, y, y y^T] for y = x_i - centre, the second
    moments in SECOND_MOMENT_ROWS order. The table is filled row by row,
    so no (N, 3, 3) or (N, 10) temporary is made.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    phi = np.empty((N_FEATURES, pts.shape[0]))
    phi[0] = 1.0
    np.subtract(pts.T, centre[:, None], out=phi[1:4])
    # a coordinate beyond 1e154 squares to inf, a density of exactly zero
    with np.errstate(over="ignore"):
        for row, (a, b) in enumerate(_PRODUCTS, start=4):
            np.multiply(phi[a], phi[b], out=phi[row])
    return phi


def feature_log_densities(phi: np.ndarray, weights: np.ndarray, means: np.ndarray,
                          factor: tuple[np.ndarray, np.ndarray],
                          out: np.ndarray | None = None) -> np.ndarray:
    """(K, N) matrix of log(w_j) + log f_j(x_i) from the feature table of
    the points. Zero weights map to -inf.

    means are in Phi's frame, the same centre subtracted. factor is the
    eigendecomposition (lam, q) of the covariances, every lam > 0, as
    floor_spd returns it: the precision is P = q diag(1 / lam) q^T,
    P mu = q (q^T mu / lam), mu^T P mu = sum (q^T mu)^2 / lam and
    log det S = sum log lam. Row j of the coefficients is

        [log w_j - (3 log 2 pi + log det S_j + mu^T P mu) / 2,  P mu,
         -P_xx / 2, -P_yy / 2, -P_zz / 2, -P_xy, -P_xz, -P_yz]

    and the log-densities are coefficients @ Phi, written to out when
    given.
    """
    lam, q = factor
    rotated = (means[:, None, :] @ q)[:, 0]  # q^T mu
    scaled = rotated / lam
    precision = (q / lam[:, None, :]) @ _transposed(q)
    alive = weights > 0.0
    coef = np.empty((weights.shape[0], N_FEATURES))
    coef[:, 0] = (np.log(np.where(alive, weights, 1.0))
                  - 0.5 * (3.0 * LOG_TWO_PI + np.sum(np.log(lam), axis=1)
                           + np.sum(rotated * scaled, axis=1)))
    coef[:, 1:4] = (q @ scaled[:, :, None])[:, :, 0]
    coef[:, 4:7] = -0.5 * np.diagonal(precision, axis1=1, axis2=2)
    coef[:, 7:10] = -precision[:, [0, 0, 1], [1, 2, 2]]
    # -inf stays out of the product, where BLAS could meet it with a zero
    lwd = np.matmul(coef, phi, out=out)
    if not alive.all():
        lwd[~alive] = -np.inf
    return lwd


def weighted_log_densities(points: np.ndarray, weights: np.ndarray, means: np.ndarray,
                           covariances: np.ndarray) -> np.ndarray:
    """(K, N) matrix of log(w_j) + log f_j(x_i). Zero weights map to -inf.

    The covariances are validated and factored by one checked_spd, which
    names the first failing component. Points and means are taken
    relative to the mixture's own mean, the weighted mean of its
    components, so the moment form stays accurate near the mixture
    however far it sits from the origin.
    """
    _, factor = checked_spd(covariances)
    centre = weights @ means
    phi = centred_features(points, centre)
    with np.errstate(invalid="ignore"):  # inf features of far points: NaN, a dead column
        return feature_log_densities(phi, weights, means - centre, factor)


def softmax_columns(lwd: np.ndarray) -> np.ndarray:
    """Turn a (K, N) log-density table into responsibilities in place,
    each column exp(lwd - peak) / sum, and return each column's
    log-sum-exp, peak + log(sum). A column with no finite peak, where
    every density underflowed, gets 1/K and -inf, without warnings."""
    peak = np.max(lwd, axis=0)
    dead = ~np.isfinite(peak)
    any_dead = dead.any()
    if any_dead:
        # zeros exponentiate to ones, which divide to exactly 1/K
        lwd[:, dead] = 0.0
        peak[dead] = 0.0
    np.subtract(lwd, peak, out=lwd)
    np.exp(lwd, out=lwd)
    total = np.sum(lwd, axis=0)
    lwd /= total
    log_sum = np.log(total, out=total)
    log_sum += peak
    if any_dead:
        log_sum[dead] = -np.inf
    return log_sum


def flat_mixture(model: Gmm | GmmEnsemble) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weights, means, covariances) of a mixture, or of an ensemble as
    the one mixture whose components are every member's, weighted p_k w_kj.

    The flat weights are neither checked nor renormalised: they sum to
    one only within the two constructors' tolerances, which together can
    exceed Gmm's own.
    """
    if isinstance(model, Gmm):
        return model.weights, model.means, model.covariances
    members = model.members
    return (np.concatenate([m.weight * m.model.weights for m in members]),
            np.concatenate([m.model.means for m in members]),
            np.concatenate([m.model.covariances for m in members]))


def gmm_log_density(points: np.ndarray, model: Gmm | GmmEnsemble) -> np.ndarray:
    """Log density at each row of points, shape (N,), of a mixture or of
    an ensemble's flat mixture sum_k p_k f_k.

    A point's value can differ in the last bit with the batch it is
    evaluated in: NumPy sends a one-point product to BLAS gemv and a
    larger one to gemm, and the two round differently. The value is
    softmax_columns' log-sum-exp: -inf where every density underflowed.
    """
    return softmax_columns(weighted_log_densities(points, *flat_mixture(model)))


def ensemble_log_density(points: np.ndarray, ensemble: GmmEnsemble) -> np.ndarray:
    """Log density of the ensemble mixture sum_k p_k f_k at each point."""
    return gmm_log_density(points, ensemble)


def gmm_log_likelihood(cloud: PointCloud, model: Gmm) -> float:
    """Total log-likelihood of a cloud under a mixture.

    Per-point contributions go through log-sum-exp, so far-outlying
    points underflow to -inf only when the density is exactly zero in
    exact arithmetic.
    """
    return float(np.sum(gmm_log_density(cloud.points, model)))
