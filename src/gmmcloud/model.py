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
built from its precision P, P mu, its log-determinant and a constant.
feature_log_densities takes the precisions and log-determinants: an EM
fit computes them in closed form from its covariances, and tests
positive definiteness with the same closed form's polynomials in units
of the floor (em.py); scoring derives them from the eigendecomposition
(lam, q) that a Gmm keeps from checked_spd's eigh, which validates
every Gmm, as Gmm.factor: P = q diag(1 / lam) q^T and
log det = sum log lam (factor_precisions). Scoring, sampling and
geodesics read that factor and validate nothing again. All K
log-densities at all N points are then one (K, 10) by (10, N) product,
and the moments an M-step needs are one (K, N) by (N, 10) product.
softmax_columns normalises the log-density table in place into the
responsibilities and each point's log density together. There a
log-density more than 700 nats (EXP_FLOOR) below its column's peak gives
a responsibility of exactly 0, not a subnormal or near-subnormal number,
on which np.exp, the division and the M-step's product leave their fast
paths; the log density keeps its bits. The expanded
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

# Shifted log-densities below this exponentiate to exactly 0 in
# softmax_columns. It sits a margin above log(DBL_MIN) = -708.4, where
# np.exp leaves its vector fast path on x86, so no responsibility is
# subnormal.
EXP_FLOOR = -700.0

# Fallback eigenvalue floor when the data covariance itself is degenerate
# (for example a cloud of identical points), where the scale-aware floor
# would collapse to zero.
ABSOLUTE_COV_FLOOR = 1e-12


class DegenerateCovarianceError(ValueError):
    """A covariance matrix is not symmetric positive definite."""


def _transposed(mats: np.ndarray) -> np.ndarray:
    return mats.swapaxes(-1, -2)


def float_array(name: str, value) -> np.ndarray:
    """value as a float array, copied, if its entries are integers or
    floats; a ragged nesting, or a bool, string or object array, is
    refused by name, not read as numbers."""
    try:
        arr = np.array(value)
    except ValueError:  # NumPy's "inhomogeneous shape", which names no field
        raise ValueError(f"{name} must be a rectangular array of numbers") from None
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be numbers, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def checked_spd(matrices, k: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Symmetrized read-only copy of a (k, 3, 3) stack of SPD matrices and
    its eigendecomposition (lam, q), every lam > 0.

    Every matrix must be finite, symmetric to SYMMETRY_TOL and positive
    definite; the error names the first failing component.
    """
    stack = float_array("covariances", matrices)
    if stack.shape != (k, 3, 3):
        raise ValueError(f"covariances must have shape {(k, 3, 3)}, got {stack.shape}")
    # np.argmax over a boolean vector finds the first failing matrix
    bad = ~np.isfinite(stack).all(axis=(1, 2))
    j = int(np.argmax(bad))
    if bad[j]:
        raise DegenerateCovarianceError(f"covariance must be finite (component {j})")
    asym = np.abs(stack - _transposed(stack)).max(axis=(1, 2))
    j = int(np.argmax(asym > SYMMETRY_TOL))
    if asym[j] > SYMMETRY_TOL:
        raise DegenerateCovarianceError(
            f"covariance asymmetry {asym[j]:.3e} exceeds {SYMMETRY_TOL:.0e} (component {j})")
    sym = 0.5 * (stack + _transposed(stack))
    lam, q = np.linalg.eigh(sym)
    j = int(np.argmax(lam[:, 0] <= 0.0))
    if lam[j, 0] <= 0.0:
        raise DegenerateCovarianceError(
            f"degenerate covariance: smallest eigenvalue {lam[j, 0]:.6e} (component {j})")
    sym.setflags(write=False)
    return sym, (lam, q)


def checked_array(name: str, value, shape: tuple, expected: str) -> np.ndarray:
    """Read-only float copy of value (float_array), if its shape matches
    shape, where None stands for any length >= 1, and every entry is
    finite; otherwise ValueError naming it as "<name> must be <expected>,
    got shape ..." or "<name> must be finite". The rule for every array
    the library takes."""
    arr = float_array(name, value)
    if arr.ndim != len(shape) or any(
            n < 1 if want is None else n != want for n, want in zip(arr.shape, shape)):
        raise ValueError(f"{name} must be {expected}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


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
        object.__setattr__(self, "points", checked_array(
            "points", self.points, (None, 3), "an (N, 3) array with N >= 1"))

    def __len__(self) -> int:
        return self.points.shape[0]

    __reduce__ = reduce_through_constructor


@dataclass(frozen=True, eq=False)
class Gmm:
    """A Gaussian mixture as stacked read-only arrays.

    weights (K,) must be finite, >= 0 and sum to one; means (K, 3)
    finite (checked_array); covariances (K, 3, 3) SPD (checked_spd).
    The input is validated and copied once, here. factor keeps the
    covariances' read-only eigendecomposition (lam, q) from checked_spd;
    it is not a field, so a pickled copy computes it again.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        w = checked_array("weights", self.weights, (None,), "a non-empty (K,) vector")
        if w.min() < 0.0:
            raise ValueError(f"component weight must be >= 0, got {float(w.min())}")
        k = w.shape[0]
        m = checked_array("means", self.means, (k, 3), f"a ({k}, 3) array")
        covs, factor = checked_spd(self.covariances, k)
        total = math.fsum(w.tolist())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"component weights sum to {total!r}, expected 1")
        for arr in factor:
            arr.setflags(write=False)
        for name, arr in (("weights", w), ("means", m), ("covariances", covs), ("factor", factor)):
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
    var = pts.var(axis=0)
    eps = 1e-6 * float(var.sum()) / 3.0
    if not (eps > 0.0 and math.isfinite(eps)):
        return ABSOLUTE_COV_FLOOR
    return eps


def floor_spd(cov: np.ndarray, eps: float
              ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Clamp the eigenvalues of symmetric 3x3 matrices at eps, over any
    leading axes; eigh reads only their lower triangles, so the matrices
    must be exactly symmetric, as an M-step's are. Returns the
    resymmetrized floored matrices and their factor (lam, q): the
    eigenvalues, already clamped, and the eigenvectors as columns, so
    that q diag(lam) q^T is the floored matrix before resymmetrization."""
    lam, q = np.linalg.eigh(cov)
    lam = np.maximum(lam, eps)
    out = (q * lam[..., None, :]) @ _transposed(q)
    return 0.5 * (out + _transposed(out)), (lam, q)


# Rows of the feature table Phi: 1, the coordinates x, y, z, then the
# second moments: the squares xx, yy, zz, and the cross products yz, xz,
# xy, each in the place of the coordinate it leaves out. A symmetric 3x3
# matrix, a precision among them, is given by its six distinct entries in
# that order: SYMMETRIC_ENTRIES are their places in the flattened matrix,
# and SECOND_MOMENT_ROWS maps the matrix onto Phi's rows.
N_FEATURES = 10
SECOND_MOMENT_ROWS = np.array([[4, 9, 8], [9, 5, 7], [8, 7, 6]])
SYMMETRIC_ENTRIES = np.array([0, 4, 8, 5, 2, 1])
_SYMMETRIC_MATRIX = SECOND_MOMENT_ROWS - 4  # the six entries' places in the matrix
_PRODUCTS = ((1, 1), (2, 2), (3, 3), (2, 3), (1, 3), (1, 2))
# the factors that take the six precision entries to the coefficients of
# rows 4-9 of Phi: -P_xx / 2, -P_yy / 2, -P_zz / 2, -P_yz, -P_xz, -P_xy
_PRECISION_SCALE = np.array([-0.5, -0.5, -0.5, -1.0, -1.0, -1.0])


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


def factor_precisions(lam: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Precisions (..., 6), each as its six distinct entries in Phi's
    order (see SYMMETRIC_ENTRIES), and log-determinants (...,) of the
    covariances whose eigendecomposition is (lam, q), every lam > 0:
    P = q diag(1 / lam) q^T and log det S = sum log lam."""
    precision = (q / lam[..., None, :]) @ _transposed(q)
    return (precision.reshape(lam.shape[:-1] + (9,))[..., SYMMETRIC_ENTRIES],
            np.log(lam).sum(axis=-1))


def feature_log_densities(phi: np.ndarray, weights: np.ndarray, means: np.ndarray,
                          precision: np.ndarray, log_det: np.ndarray,
                          out: np.ndarray | None = None) -> np.ndarray:
    """(K, N) matrix of log(w_j) + log f_j(x_i) from the feature table of
    the points. Zero weights map to -inf. Every argument may carry the
    same leading axes, one mixture and table per index: a batch of fits.

    means are in Phi's frame, the same centre subtracted; precision
    (K, 6) holds each component's precision P as its six distinct
    entries in Phi's order (see SYMMETRIC_ENTRIES), and log_det (K,) the
    log-determinants of the covariances. Row j of the coefficients is

        [log w_j - (3 log 2 pi + log det S_j + mu^T P mu) / 2,  P mu,
         -P_xx / 2, -P_yy / 2, -P_zz / 2, -P_yz, -P_xz, -P_xy]

    and the log-densities are coefficients @ Phi, written to out when
    given.
    """
    coef = np.empty(weights.shape + (N_FEATURES,))
    p_mu = np.matmul(precision[..., _SYMMETRIC_MATRIX], means[..., None],
                     out=coef[..., 1:4, None])
    np.multiply(precision, _PRECISION_SCALE, out=coef[..., 4:])
    all_alive = weights.min() > 0.0
    alive = None if all_alive else weights > 0.0
    np.subtract(np.log(weights if all_alive else np.where(alive, weights, 1.0)),
                0.5 * (3.0 * LOG_TWO_PI + log_det + (means[..., None, :] @ p_mu)[..., 0, 0]),
                out=coef[..., 0])
    # -inf stays out of the product, where BLAS could meet it with a zero
    lwd = np.matmul(coef, phi, out=out)
    if not all_alive:
        lwd[~alive] = -np.inf
    return lwd


def weighted_log_densities(points: np.ndarray, model: Gmm | GmmEnsemble) -> np.ndarray:
    """(K, N) matrix of log(w_j) + log f_j(x_i) of a mixture, or of an
    ensemble's flat mixture. Zero weights map to -inf.

    The precisions come from the mixture's own factor (factor_precisions).
    Points and means are taken relative to the mixture's own mean, the
    weighted mean of its components, so the moment form stays accurate
    near the mixture however far it sits from the origin.
    """
    weights, means, factor = flat_mixture(model)
    centre = weights @ means
    phi = centred_features(points, centre)
    with np.errstate(invalid="ignore"):  # inf features of far points: NaN, a dead column
        return feature_log_densities(phi, weights, means - centre, *factor_precisions(*factor))


def softmax_columns(lwd: np.ndarray) -> np.ndarray:
    """Turn a (K, N) log-density table into responsibilities in place,
    each column exp(lwd - peak) / sum, and return each column's
    log-sum-exp, peak + log(sum). A column with no finite peak, where
    every density underflowed, gets 1/K and -inf, without warnings.
    Leading axes, a batch of tables, are kept.

    A shifted entry lwd - peak below EXP_FLOOR exponentiates to exactly
    0, not to a number below e^-700 that is subnormal, or nearly so.
    np.exp (20 to 100 times), the division by the sum and the M-step's
    BLAS product leave their fast paths on such numbers, and a fifth or
    more of a mid-fit table at K = 32 is below the floor. The log-sum-exp
    keeps its bits: every column's sum holds exp(0) = 1, so a term below
    e^-700 changes none of them. A table with no entry below the floor
    pays one min reduction for the rule."""
    peak = lwd.max(axis=-2)
    finite = np.isfinite(peak)
    all_finite = finite.all()
    if not all_finite:
        dead = ~finite
        # zeros exponentiate to ones, which divide to exactly 1/K
        _transposed(lwd)[dead] = 0.0
        peak[dead] = 0.0
    np.subtract(lwd, peak[..., None, :], out=lwd)
    if lwd.min(initial=0.0) < EXP_FLOOR:
        # clamped, exp stays on its vector path; the clamped entries are
        # then multiplied by False, which is 0
        kept = lwd >= EXP_FLOOR
        np.maximum(lwd, EXP_FLOOR, out=lwd)
        np.exp(lwd, out=lwd)
        np.multiply(lwd, kept, out=lwd)
    else:
        np.exp(lwd, out=lwd)
    total = lwd.sum(axis=-2)
    lwd /= total[..., None, :]
    log_sum = np.log(total, out=total)
    log_sum += peak
    if not all_finite:
        log_sum[dead] = -np.inf
    return log_sum


def flat_mixture(model: Gmm | GmmEnsemble
                 ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """(weights, means, factor) of a mixture, or of an ensemble as the
    one mixture whose components are every member's, weighted p_k w_kj,
    and factor the members' factors concatenated.

    The flat weights are neither checked nor renormalised: they sum to
    one only within the two constructors' tolerances, which together can
    exceed Gmm's own.
    """
    if isinstance(model, Gmm):
        return model.weights, model.means, model.factor
    members = model.members
    return (np.concatenate([m.weight * m.model.weights for m in members]),
            np.concatenate([m.model.means for m in members]),
            tuple(np.concatenate(arrays) for arrays in zip(*(m.model.factor for m in members))))


def gmm_log_density(points: np.ndarray, model: Gmm | GmmEnsemble) -> np.ndarray:
    """Log density at each row of points, shape (N,), of a mixture or of
    an ensemble's flat mixture sum_k p_k f_k.

    A point's value can differ in the last bit with the batch it is
    evaluated in: NumPy sends a one-point product to BLAS gemv and a
    larger one to gemm, and the two round differently. The value is
    softmax_columns' log-sum-exp: -inf where every density underflowed.
    """
    return softmax_columns(weighted_log_densities(points, model))


# the name the benchmark's nll_per_point imports; gmm_log_density scores ensembles
ensemble_log_density = gmm_log_density
