"""Maximum-likelihood mixture fitting: k-means++ initialization plus EM.

fit_em sorts the points lexicographically before doing anything else, so
the whole fit is a function of the point multiset: permuting the input
order reproduces the same parameters bit for bit under the same seed.

EM starts from its own M-step on the one-hot partition of the points by
their nearest k-means++ seed (Arthur & Vassilvitskii 2007); no Lloyd
pass refines it, since EM refines the same partition anyway (seeding
as a GMM start: Blömer & Bujna 2016). The seeding builds the partition
as it goes: a new seed takes the points strictly closer to it, so ties
stay with the earlier seed. Every seed is a point at a new position, so
it is its own strict nearest seed and no cluster is empty; a cloud with
fewer than K distinct points raises FitError.

Both EM steps use the moment form of model.py: the E-step is one
product of coefficients with the feature table Phi of the points and
one in-place softmax_columns, the M-step one product of the (K, N)
responsibilities with Phi^T. An EM state is (weights, means,
covariances, factor): the eigendecomposition with which the M-step
floors the covariances is also the factor the next E-step takes its
precisions and log-determinants from, so each EM map runs one eigh and
no Cholesky or inverse. fit_em
accelerates the EM map with SQUAREM and falls back to the plain map
whenever an extrapolated state would lower the log-likelihood; only
the covariance floor can lower it otherwise. A component that
collapses raises FitError; nothing is reseeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    SECOND_MOMENT_ROWS,
    Gmm,
    PointCloud,
    centred_features,
    covariance_floor,
    feature_log_densities,
    floor_spd,
    reduce_through_constructor,
    softmax_columns,
    weighted_log_densities,
)
from .sampling import rng_stream

COLLAPSE_MASS = 1e-12
REL_TOLERANCE = 1e-6
MAX_ITERATIONS = 200
KMEANS_RESTARTS = 4
# SQUAREM step cap: the factor it grows by after an accepted step at the
# cap and shrinks by, not below 1, after a rejected one
STEP_GROWTH = 4.0


class FitError(RuntimeError):
    """A mixture fit could not be completed."""


@dataclass(frozen=True)
class FitConfig:
    """The settable part of fit_em: the k-means++ seed."""

    seed: int = 0


@dataclass(frozen=True, eq=False)
class Responsibilities:
    """Posterior component memberships, one row per point.

    underflow_rows counts points whose density underflowed to zero under
    every component; those rows were assigned uniform 1/K membership.
    """

    gamma: np.ndarray
    underflow_rows: int = 0

    def __post_init__(self):
        g = np.array(self.gamma, dtype=float)
        if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
            raise ValueError(f"gamma must be a non-empty (N, K) array, got shape {g.shape}")
        if np.any(g < 0.0) or np.any(g > 1.0 + 1e-12):
            raise ValueError("responsibilities must lie in [0, 1]")
        rows = g.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-9:
            raise ValueError("responsibility rows must sum to 1")
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)

    __reduce__ = reduce_through_constructor


@dataclass(frozen=True)
class FitResult:
    """Fitted mixture plus the log-likelihood trace of its accepted EM
    states, one entry per iteration; iterations and converged are read
    from the trace.

    The trace is non-decreasing by construction where fit_em can choose:
    an extrapolated SQUAREM state enters it only when its log-likelihood
    is at least that of the plain EM state it replaces. A plain EM map
    never lowers the log-likelihood in exact arithmetic; only the
    covariance floor can, so the test suite asserts the property with a
    small slack rather than fit_em enforcing it.
    """

    model: Gmm
    log_likelihood_trace: tuple[float, ...]

    @property
    def iterations(self) -> int:
        return len(self.log_likelihood_trace)

    @property
    def converged(self) -> bool:
        return _converged(self.log_likelihood_trace)


def _sorted_points(points: np.ndarray) -> np.ndarray:
    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0]))
    return points[order]


def _squared_distances(x: np.ndarray, y: np.ndarray, z: np.ndarray, c: np.ndarray
                       ) -> np.ndarray:
    """Squared distances from the points with coordinate columns x, y, z
    to the centre c: the left-to-right sum of three squares, the same
    bits as np.sum((pts - c) ** 2, axis=1)."""
    return (x - c[..., 0]) ** 2 + (y - c[..., 1]) ** 2 + (z - c[..., 2]) ** 2


def _kmeans_pp_partition(pts: np.ndarray, k: int, rng: np.random.Generator
                         ) -> tuple[np.ndarray, float]:
    """The codes (N,) of each point's nearest k-means++ seed, the first on
    ties, and the seeding's potential: the sum over points of the squared
    distance to the nearest seed."""
    n = pts.shape[0]
    x, y, z = np.ascontiguousarray(pts.T)
    codes = np.zeros(n, dtype=np.intp)
    d2 = _squared_distances(x, y, z, pts[int(rng.integers(n))])
    for j in range(1, k):
        total = float(d2.sum())
        if total == 0.0:
            raise FitError(f"K={k} needs {k} distinct points, the cloud has {j}")
        # side="right" skips the flat cdf steps of points on a seed
        idx = int(np.searchsorted(np.cumsum(d2) / total, rng.random(), side="right"))
        if idx == n:  # the draw fell past the rounded end of the cdf
            idx = int(np.flatnonzero(d2)[-1])
        dj = _squared_distances(x, y, z, pts[idx])
        codes[dj < d2] = j
        d2 = np.minimum(d2, dj)
    return codes, float(d2.sum())


def kmeans_init(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Nearest-seed codes (N,) of the best k-means++ seeding of the points.

    Of KMEANS_RESTARTS seedings, one stream each, the one with the
    lowest potential wins, the first on ties (see the module docstring).
    """
    if k > len(points):
        raise ValueError(f"more components than points: K={k}, N={len(points)}")
    if k < 1:
        raise ValueError(f"component count must be >= 1, got {k}")
    return min((_kmeans_pp_partition(points, k, rng_stream(seed, r))
                for r in range(KMEANS_RESTARTS)), key=lambda seeding: seeding[1])[0]


def e_step(cloud: PointCloud, model: Gmm) -> Responsibilities:
    """Posterior membership of every point in every component, normalised
    by softmax_columns; a point whose log-sum-exp is not finite (every
    density underflowed) gets 1/K and counts in underflow_rows."""
    lwd = weighted_log_densities(cloud.points, model)
    log_sum = softmax_columns(lwd)
    return Responsibilities(lwd.T, int(np.count_nonzero(~np.isfinite(log_sum))))


def _m_step_arrays(phi: np.ndarray, gamma: np.ndarray, eps: float) -> tuple:
    """The EM state (weights, means, covariances, factor) from (K, N)
    responsibilities and the feature table Phi, means in Phi's frame:
    the covariances floored by floor_spd, and factor its (lam, q). A
    component whose mass is below COLLAPSE_MASS has no mean to estimate:
    ValueError."""
    moments = gamma @ phi.T
    mass = moments[:, 0]
    alive = mass >= COLLAPSE_MASS
    if not alive.all():
        j = int(np.argmin(alive))
        raise ValueError(f"component {j} collapsed: mass {mass[j]:.3g} < {COLLAPSE_MASS:g}")
    scaled = moments / mass[:, None]
    means = scaled[:, 1:4]
    covs = scaled[:, SECOND_MOMENT_ROWS] - means[:, :, None] * means[:, None, :]
    covs, factor = floor_spd(covs, eps)
    return mass / mass.sum(), means, covs, factor


def m_step(cloud: PointCloud, resp: Responsibilities) -> Gmm:
    """Weighted-moment parameter update over all points."""
    if resp.gamma.shape[0] != len(cloud):
        raise ValueError(
            f"responsibilities cover {resp.gamma.shape[0]} points, cloud has {len(cloud)}")
    centre = cloud.points.mean(axis=0)
    weights, means, covs, _ = _m_step_arrays(centred_features(cloud.points, centre),
                                             resp.gamma.T, covariance_floor(cloud.points))
    return Gmm(weights, means + centre, covs)


def _responsibilities(phi: np.ndarray, params, out: np.ndarray | None = None
                      ) -> tuple[np.ndarray, float]:
    """The E-step of the fit: (K, N) responsibilities of the EM state
    params, written to out when given, and the log-likelihood of the
    points."""
    weights, means, _, factor = params
    gamma = feature_log_densities(phi, weights, means, factor, out=out)
    return gamma, float(np.sum(softmax_columns(gamma)))


def _em_map(phi: np.ndarray, gamma: np.ndarray, eps: float) -> tuple[tuple, np.ndarray, float]:
    """One EM map: the M-step from the (K, N) responsibilities in gamma,
    then the E-step of its result written over gamma. Returns the new
    EM state, its responsibilities and its log-likelihood."""
    params = _m_step_arrays(phi, gamma, eps)
    gamma, ll = _responsibilities(phi, params, out=gamma)
    return params, gamma, ll


def _converged(trace: list[float] | tuple[float, ...]) -> bool:
    """Whether the last two log-likelihoods differ by less than
    REL_TOLERANCE relative to |L| + 1."""
    return len(trace) >= 2 and abs(trace[-1] - trace[-2]) / (abs(trace[-1]) + 1.0) < REL_TOLERANCE


def _extrapolate(theta0, theta1, theta2, step_max: float):
    """S3 SQUAREM step (Varadhan & Roland 2008) from three consecutive EM
    states, each beginning (weights, means, covariances).

    With r = theta1 - theta0 and v = theta2 - 2 theta1 + theta0 over
    those three arrays, the step is alpha = min(step_max, |r| / |v|) and
    the extrapolated state theta0 + 2 alpha r + alpha^2 v (alpha = 1
    gives theta2). Returns alpha and that state with its own eigh as its
    factor, or None in its place when alpha <= 1 or the state is
    infeasible: a weight below zero, or a covariance with an eigenvalue
    that is not > 0, NaN included.
    """
    theta0, theta1, theta2 = (theta[:3] for theta in (theta0, theta1, theta2))
    r = [b - a for a, b in zip(theta0, theta1)]
    v = [c - 2.0 * b + a for a, b, c in zip(theta0, theta1, theta2)]
    sv2 = sum(float(np.vdot(x, x)) for x in v)
    ratio = math.sqrt(sum(float(np.vdot(x, x)) for x in r) / sv2) if sv2 > 0.0 else math.inf
    alpha = min(step_max, ratio)
    if not alpha > 1.0:
        return alpha, None
    weights, means, covs = (a + 2.0 * alpha * x + alpha * alpha * y
                            for a, x, y in zip(theta0, r, v))
    if not np.all(weights >= 0.0):
        return alpha, None
    lam, q = np.linalg.eigh(covs)
    if not np.all(lam > 0.0):
        return alpha, None
    return alpha, (weights, means, covs, (lam, q))


def fit_em(cloud: PointCloud, k: int, config: FitConfig = FitConfig()) -> FitResult:
    """Fit a K-component mixture by SQUAREM-accelerated EM from the best
    k-means++ seeding.

    The points are sorted, then centred on their mean, and the feature
    table of the centred points and the covariance floor are computed
    once for the fit; the means are fitted in that frame and the centre
    is added back to the final means. Sorting comes first, so the centre
    and the fit do not depend on the input order. The start is the
    M-step on the one-hot partition by kmeans_init's codes.

    Each cycle takes two EM maps, theta0 -> theta1 -> theta2, and then
    the S3 SQUAREM step (see _extrapolate) with the step cap of the
    SQUAREM package (Du & Varadhan 2020): the cap starts at 1, grows
    STEP_GROWTH-fold after an accepted step at the cap and shrinks as
    much, not below 1, after a rejected one. When the step is longer
    than 1, one stabilising EM map is applied to the extrapolated state
    theta', and its result ends the cycle unless theta' is infeasible,
    or theta' or the stabilised state has a lower log-likelihood than
    theta2; then the cycle ends at theta2, whose responsibilities stay
    in place: theta' is evaluated in a second buffer.

    The trace holds the log-likelihood of every accepted EM-map output,
    and iterations is its length. Every EM map counts against
    MAX_ITERATIONS, a rejected stabilising map included, so no fit runs
    more maps than the cap; the start's M-step is not a map. Convergence
    is declared when the relative change |dL| / (|L| + 1) between two
    consecutive trace entries drops below REL_TOLERANCE; otherwise the
    fit stops after MAX_ITERATIONS maps. A collapsed component or a
    non-finite log-likelihood raises FitError naming the iteration, 0
    for the start.
    """
    pts = _sorted_points(cloud.points)
    codes = kmeans_init(pts, k, config.seed)
    eps = covariance_floor(pts)
    centre = pts.mean(axis=0)
    phi = centred_features(pts, centre)
    del pts  # Phi holds the centred points for the rest of the fit
    gamma = (np.arange(k)[:, None] == codes).astype(float)  # the partition, one-hot
    spare = None  # the SQUAREM candidate's responsibilities, made on first use
    trace: list[float] = []
    step_max = 1.0
    m_steps = 0
    stopped = False
    try:
        params = _m_step_arrays(phi, gamma, eps)
        gamma, _ = _responsibilities(phi, params, out=gamma)
        cycle = [params]  # the EM states of the current SQUAREM cycle
        while not stopped:
            m_steps += 1
            params, gamma, ll = _em_map(phi, gamma, eps)
            if not np.isfinite(ll):
                raise FitError(f"non-finite log-likelihood at iteration {m_steps}")
            trace.append(ll)
            stopped = _converged(trace) or m_steps == MAX_ITERATIONS
            cycle.append(params)
            if len(cycle) < 3 or stopped:
                continue
            alpha, candidate = _extrapolate(*cycle, step_max)
            accepted = not alpha > 1.0
            if candidate is not None:
                # gamma keeps theta2's responsibilities unless the candidate wins
                spare, candidate_ll = _responsibilities(phi, candidate, out=spare)
                if candidate_ll >= ll:
                    m_steps += 1
                    stabilised, spare, stabilised_ll = _em_map(phi, spare, eps)
                    accepted = stabilised_ll >= ll
                if accepted:
                    params = stabilised
                    gamma, spare = spare, gamma
                    trace.append(stabilised_ll)
                    stopped = _converged(trace)
                stopped = stopped or m_steps == MAX_ITERATIONS
            if alpha == step_max:
                step_max = step_max * STEP_GROWTH if accepted else max(1.0, step_max / STEP_GROWTH)
            cycle = [params]
        weights, means, covs, _ = params
        model = Gmm(weights, means + centre, covs)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise FitError(f"fit failed at iteration {m_steps}: {exc}") from exc
    return FitResult(model, tuple(trace))
