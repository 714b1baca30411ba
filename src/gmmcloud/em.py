"""Maximum-likelihood mixture fitting: k-means++ initialization plus EM.

fit_em sorts the points lexicographically before doing anything else, so
the whole fit is a function of the point multiset: permuting the input
order reproduces the same parameters bit for bit under the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Gmm,
    PointCloud,
    covariance_floor,
    floor_spd,
    log_sum_exp_rows,
    reduce_through_constructor,
    weighted_log_densities,
)
from .sampling import RngStream

COLLAPSE_MASS = 1e-12
MAX_LLOYD_ITERATIONS = 100


class FitError(RuntimeError):
    """A mixture fit could not be completed."""


@dataclass(frozen=True)
class FitConfig:
    """Knobs for fit_em. Defaults match the standard pipeline settings."""

    max_iterations: int = 200
    rel_tolerance: float = 1e-6
    seed: int = 0
    kmeans_restarts: int = 4

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.rel_tolerance > 0.0:
            raise ValueError(f"rel_tolerance must be > 0, got {self.rel_tolerance}")
        if self.kmeans_restarts < 1:
            raise ValueError(f"kmeans_restarts must be >= 1, got {self.kmeans_restarts}")


@dataclass(frozen=True)
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
    """Fitted mixture plus the per-iteration log-likelihood trace.

    EM with the covariance floor keeps the trace non-decreasing up to a
    small slack; that property is asserted by the test suite rather than
    enforced here, so a pathological fit is still inspectable.
    """

    model: Gmm
    log_likelihood_trace: tuple[float, ...]
    iterations: int
    converged: bool


def _sorted_points(points: np.ndarray) -> np.ndarray:
    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0]))
    return points[order]


def _kmeans_pp_centers(pts: np.ndarray, k: int, rng: RngStream) -> np.ndarray:
    n = pts.shape[0]
    centers = np.empty((k, 3))
    centers[0] = pts[int(rng.integers(n))]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            cdf = np.cumsum(d2) / total
            idx = min(int(np.searchsorted(cdf, rng.random(), side="right")), n - 1)
        else:
            idx = int(rng.integers(n))
        centers[j] = pts[idx]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))
    return centers


def _lloyd(pts: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    n, k = pts.shape[0], centers.shape[0]
    assign = np.full(n, -1)
    for _ in range(MAX_LLOYD_ITERATIONS):
        d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(d2, axis=1)
        counts = np.bincount(new_assign, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            # steal the point farthest from its centroid, preferring donors
            # that keep their cluster non-empty
            dist_own = d2[np.arange(n), new_assign]
            donors = counts[new_assign] > 1
            pool = np.flatnonzero(donors) if np.any(donors) else np.arange(n)
            moved = pool[int(np.argmax(dist_own[pool]))]
            counts[new_assign[moved]] -= 1
            new_assign[moved] = empty
            counts[empty] += 1
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = pts[assign == j]
            if members.shape[0] > 0:
                centers[j] = members.mean(axis=0)
    d2 = np.sum((pts - centers[assign]) ** 2, axis=1)
    return centers, assign, float(d2.sum())


def kmeans_init(cloud: PointCloud, k: int, seed: int, restarts: int = 1) -> Gmm:
    """Cluster-based starting mixture: k-means++ seeding plus Lloyd.

    Weights are cluster fractions, means the centroids, covariances the
    per-cluster sample covariances floored at the data-scale eigenvalue
    floor. With several restarts the lowest within-cluster sum of squares
    wins.
    """
    n = len(cloud)
    if k > n:
        raise ValueError(f"more components than points: K={k}, N={n}")
    if k < 1:
        raise ValueError(f"component count must be >= 1, got {k}")
    pts = _sorted_points(cloud.points)
    best = None
    for r in range(restarts):
        rng = RngStream(seed, stream_id=r)
        centers = _kmeans_pp_centers(pts, k, rng)
        centers, assign, wcss = _lloyd(pts, centers)
        if best is None or wcss < best[2]:
            best = (centers, assign, wcss)
    centers, assign, _ = best
    counts = np.bincount(assign, minlength=k)
    means = centers.copy()
    covs = np.zeros((k, 3, 3))
    for j in np.flatnonzero(counts):
        members = pts[assign == j]
        means[j] = members.mean(axis=0)
        diff = members - means[j]
        covs[j] = diff.T @ diff / counts[j]
    return Gmm(counts / n, means, floor_spd(covs, covariance_floor(pts)))


def _gamma_from_log_densities(lwd: np.ndarray, norm: np.ndarray) -> tuple[np.ndarray, int]:
    dead = ~np.isfinite(norm)
    underflow = int(np.count_nonzero(dead))
    gamma = np.empty_like(lwd)
    live = ~dead
    gamma[live] = np.exp(lwd[live] - norm[live, None])
    if underflow:
        gamma[dead] = 1.0 / lwd.shape[1]
    return gamma, underflow


def e_step(cloud: PointCloud, model: Gmm) -> Responsibilities:
    """Posterior membership of every point in every component."""
    lwd = weighted_log_densities(cloud.points, model.weights, model.means, model.covariances)
    gamma, underflow = _gamma_from_log_densities(lwd, log_sum_exp_rows(lwd))
    return Responsibilities(gamma, underflow)


def _m_step_arrays(pts: np.ndarray, gamma: np.ndarray, eps: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n, k = gamma.shape
    mass = gamma.sum(axis=0)
    weights = mass / mass.sum()
    alive = mass >= COLLAPSE_MASS
    means = (gamma.T @ pts) / np.where(alive, mass, 1.0)[:, None]
    covs = np.zeros((k, 3, 3))
    for j in np.flatnonzero(alive):
        diff = pts - means[j]
        covs[j] = (gamma[:, j] * diff.T) @ diff / mass[j]
    covs[alive] = floor_spd(covs[alive], eps)
    if not alive.all():
        # reseed dead components at the point the surviving mixture
        # explains worst, with the full data covariance
        lwd = weighted_log_densities(pts, mass[alive] / mass[alive].sum(), means[alive],
                                     covs[alive])
        worst = int(np.argmin(log_sum_exp_rows(lwd)))
        means[~alive] = pts[worst]
        covs[~alive] = floor_spd(np.cov(pts.T, ddof=0), eps)
        weights[~alive] = 1.0 / n
        weights = weights / weights.sum()
    return weights, means, covs


def m_step(cloud: PointCloud, resp: Responsibilities) -> Gmm:
    """Weighted-moment parameter update over all points."""
    if resp.gamma.shape[0] != len(cloud):
        raise ValueError(
            f"responsibilities cover {resp.gamma.shape[0]} points, cloud has {len(cloud)}")
    return Gmm(
        *_m_step_arrays(cloud.points, resp.gamma, covariance_floor(cloud.points)))


def fit_em(cloud: PointCloud, k: int, config: FitConfig = FitConfig()) -> FitResult:
    """Fit a K-component mixture by EM from the best k-means++ start.

    Convergence is declared when the relative log-likelihood change
    |dL| / (|L| + 1) drops below config.rel_tolerance; otherwise the loop
    stops at config.max_iterations.
    """
    n = len(cloud)
    if k > n:
        raise ValueError(f"more components than points: K={k}, N={n}")
    if k < 1:
        raise ValueError(f"component count must be >= 1, got {k}")
    pts = _sorted_points(cloud.points)
    eps = covariance_floor(pts)
    model = kmeans_init(cloud, k, config.seed, restarts=config.kmeans_restarts)
    params = (model.weights, model.means, model.covariances)
    lwd = weighted_log_densities(pts, *params)
    norm = log_sum_exp_rows(lwd)
    trace: list[float] = []
    converged = False
    try:
        for it in range(1, config.max_iterations + 1):
            gamma, _ = _gamma_from_log_densities(lwd, norm)
            params = _m_step_arrays(pts, gamma, eps)
            lwd = weighted_log_densities(pts, *params)
            norm = log_sum_exp_rows(lwd)
            ll = float(np.sum(norm))
            if not np.isfinite(ll):
                raise FitError(f"non-finite log-likelihood at iteration {it}")
            trace.append(ll)
            if len(trace) >= 2:
                rel = abs(trace[-1] - trace[-2]) / (abs(trace[-1]) + 1.0)
                if rel < config.rel_tolerance:
                    converged = True
                    break
        model = Gmm(*params)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise FitError(f"fit failed at iteration {it}: {exc}") from exc
    return FitResult(model, tuple(trace), len(trace), converged)
