"""Closed-form geodesics between mixtures on a product manifold.

A K-component mixture maps to a point on S^(K-1) x R^(3xK) x SPD(3)^K:
the square roots of the weights live on the unit sphere, the means in a
flat Euclidean slot, and each covariance on the SPD manifold with the
affine-invariant metric (Pennec, Fillard & Ayache 2006). The geodesic
between two mixtures is the slerp on the sphere slot, the straight line
on the mean slot, and on every covariance slot
S1^(1/2) (S1^(-1/2) S2 S1^(-1/2))^t S1^(1/2). It is built from the two
endpoints' eigendecompositions S_i = A_i A_i^T, A_i = q_i diag(sqrt(lam_i)),
and one SVD U diag(sigma) V^T of B = A1^(-1) A2, which needs no whitened
matrix: the walk is A1 U diag(sigma^(2t)) (A1 U)^T from S1's side for
t <= 1/2 and A2 V diag(sigma^(2t-2)) (A2 V)^T from S2's side beyond, the
distance 2 ||log sigma||. t = 0 and 1 return the endpoints as they are.
product_geodesic maps two mixtures (Gmm) to the mixture at t, reading
the factors they keep (Gmm.factor), and does the square-root lift of the
weights itself. Mixtures of unequal size are first reduced to a common K
by moment-preserving merges and then aligned by an optimal component
matching on mean distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em import FitConfig
from .model import Gmm, GmmEnsemble, PointCloud, _transposed, checked_spd
from .sampling import generate_point_cloud, rng_stream
from .selection import build_ensemble, default_candidate_ks

COLINEAR_THETA = 1e-8

DEFAULT_TS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def _merge_pair(w1, m1, s1, w2, m2, s2):
    """Moment-preserving merge of two weighted components."""
    w = w1 + w2
    if w <= 0.0:
        return 0.0, 0.5 * (m1 + m2), 0.5 * (s1 + s2)
    a, b = w1 / w, w2 / w
    mean = a * m1 + b * m2
    d = m1 - m2
    cov = a * s1 + b * s2 + a * b * np.outer(d, d)
    return w, mean, cov


def project_to_k(model: Gmm, k_target: int) -> Gmm:
    """Reduce a mixture to k_target components by greedy pairwise merges.

    Each step merges the pair whose moment-preserving merge least
    increases the within-mixture covariance, w_i w_j / (w_i + w_j) times
    the squared mean distance, so the overall mixture mean and covariance
    are preserved throughout. Ties go to the first pair in (i, j) order.
    """
    if k_target < 1:
        raise ValueError(f"target component count must be >= 1, got {k_target}")
    if k_target > model.k:
        raise ValueError(f"cannot project K={model.k} up to K={k_target}")
    w, m, s = model.weights.copy(), model.means.copy(), model.covariances.copy()
    while w.size > k_target:
        pair_w = w[:, None] + w[None, :]
        d2 = np.sum((m[:, None, :] - m[None, :, :]) ** 2, axis=2)
        cost = w[:, None] * w[None, :] / np.where(pair_w > 0.0, pair_w, 1.0) * d2
        cost[np.tril_indices(w.size)] = np.inf
        i, j = np.unravel_index(int(np.argmin(cost)), cost.shape)
        w[i], m[i], s[i] = _merge_pair(w[i], m[i], s[i], w[j], m[j], s[j])
        w, m, s = (np.delete(a, j, axis=0) for a in (w, m, s))
    total = math.fsum(w.tolist())
    return Gmm(w / total, m, 0.5 * (s + _transposed(s)))


def match_components(a: Gmm, b: Gmm) -> np.ndarray:
    """Permutation aligning b's components to a's by squared mean distance.

    Returns perm such that component j of a pairs with component perm[j]
    of b, from the optimal (Hungarian) assignment.
    """
    # imported here: scipy.optimize is most of the package's import time,
    # and only interpolation needs it
    from scipy.optimize import linear_sum_assignment

    if a.k != b.k:
        raise ValueError(f"component counts differ: {a.k} vs {b.k}")
    cost = np.sum((a.means[:, None, :] - b.means[None, :, :]) ** 2, axis=2)
    _, perm = linear_sum_assignment(cost)
    return perm


def reorder_components(model: Gmm, perm) -> Gmm:
    """Mixture with components listed in the order perm."""
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(model.k)):
        raise ValueError(f"not a permutation of 0..{model.k - 1}: {perm.tolist()}")
    return Gmm(model.weights[perm], model.means[perm], model.covariances[perm])


def sphere_geodesic(w1: np.ndarray, w2: np.ndarray, t: float) -> np.ndarray:
    """Slerp between two unit vectors with non-negative dot product.

    Nearly colinear endpoints (angle below 1e-8) fall back to a
    renormalized linear blend.
    """
    u = np.asarray(w1, dtype=float)
    v = np.asarray(w2, dtype=float)
    _check_unit(u, "w1")
    _check_unit(v, "w2")
    _check_t(t)
    dot = float(np.clip(u @ v, -1.0, 1.0))
    if dot < 0.0:
        raise ValueError(f"endpoints must satisfy w1 . w2 >= 0, got {dot!r}")
    theta = math.acos(dot)
    if theta < COLINEAR_THETA:
        blend = (1.0 - t) * u + t * v
        return blend / np.linalg.norm(blend)
    s = math.sin(theta)
    return (math.sin((1.0 - t) * theta) * u + math.sin(t * theta) * v) / s


def _check_unit(vec: np.ndarray, name: str):
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"{name} must be a unit vector, norm is {norm!r}")


def _check_t(t: float):
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"interpolation parameter must lie in [0, 1], got {t}")


def _check_shapes(s1: np.ndarray, s2: np.ndarray):
    if s1.shape != s2.shape:
        raise ValueError(f"covariance shapes differ: {s1.shape} vs {s2.shape}")


def _pencil(factor1, factor2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A1 U, A2 V, sigma) from the endpoints' factors (lam_i, q_i), slot by
    slot for stacks: U diag(sigma) V^T is the SVD of B = A1^(-1) A2 with
    A_i = q_i diag(sqrt(lam_i)), so S1 = (A1 U)(A1 U)^T, S2 = (A2 V)(A2 V)^T
    and A2 V = A1 U diag(sigma). Each side's matrices come from its own
    factor, so a near-singular endpoint needs no whitened matrix."""
    (lam1, q1), (lam2, q2) = factor1, factor2
    root1 = np.sqrt(lam1)[..., None, :]
    a2 = q2 * np.sqrt(lam2)[..., None, :]
    u, sigma, vt = np.linalg.svd(_transposed(q1 / root1) @ a2)
    return (q1 * root1) @ u, a2 @ _transposed(vt), sigma


def _covariance_geodesic(s1: np.ndarray, factor1, s2: np.ndarray, factor2,
                         t: float) -> np.ndarray:
    """The walk between validated covariances (or equal stacks) and their
    factors: from S1's side up to t = 1/2, from S2's side beyond."""
    _check_t(t)
    _check_shapes(s1, s2)
    if t in (0.0, 1.0):
        return (s2 if t else s1).copy()
    c1, c2, sigma = _pencil(factor1, factor2)
    c, power = (c1, 2.0 * t) if t <= 0.5 else (c2, 2.0 * t - 2.0)
    out = (c * (sigma ** power)[..., None, :]) @ _transposed(c)
    return 0.5 * (out + _transposed(out))


def spd_geodesic(s1: np.ndarray, s2: np.ndarray, t: float) -> np.ndarray:
    """Affine-invariant geodesic between SPD matrices, or between two equally
    long (K, 3, 3) stacks of them, slot by slot. Both endpoints are validated
    by checked_spd; t = 0 and 1 return copies of them."""
    (s1, factor1), (s2, factor2) = checked_spd(s1), checked_spd(s2)
    return _covariance_geodesic(s1, factor1, s2, factor2, t)


def _sphere_point(model: Gmm) -> np.ndarray:
    """The mixture's weights lifted onto the unit sphere S^(K-1)."""
    sq = np.sqrt(model.weights)
    return sq / np.linalg.norm(sq)


def product_geodesic(a: Gmm, b: Gmm, t: float) -> Gmm:
    """Mixture at t on the product-manifold geodesic from a to b.

    The weights follow the great circle between the square-root weight
    vectors (squared and renormalized on the way back), the means the
    straight line, and each covariance its affine-invariant geodesic.
    """
    # checks t and that the Ks agree
    covs = _covariance_geodesic(a.covariances, a.factor, b.covariances, b.factor, t)
    w = sphere_geodesic(_sphere_point(a), _sphere_point(b), t) ** 2
    means = (1.0 - t) * a.means + t * b.means
    return Gmm(w / w.sum(), means, covs)


@dataclass(frozen=True)
class InterpolationResult:
    """Frames sampled along the geodesic plus the models behind them."""

    ts: tuple[float, ...]
    frames: tuple[PointCloud, ...]
    models: tuple[Gmm, ...]
    source: Gmm
    target: Gmm


def dominant_member(ensemble: GmmEnsemble) -> Gmm:
    """The member with the highest selection probability, ties to smaller K."""
    best = max(ensemble.members, key=lambda m: (m.weight, -m.model.k))
    return best.model


def interpolate_point_clouds(x: PointCloud, y: PointCloud, ts=DEFAULT_TS,
                             n_out: int | None = None, candidate_ks=None, seed: int = 0
                             ) -> InterpolationResult:
    """Morph between two clouds along the product-manifold geodesic.

    Both clouds get an AIC ensemble over candidate_ks (None: the standard
    candidates for each cloud's size); the dominant member of each is
    reduced to the smaller component count, the components are matched on
    mean distances, and one cloud is sampled per requested t with an
    independent stream per frame. seed drives the fits and the frames.
    """
    ts = tuple(float(t) for t in ts)
    if not ts:
        raise ValueError("need at least one interpolation parameter")
    for t in ts:
        _check_t(t)
    if n_out is None:
        n_out = len(x)
    if n_out < 1:
        raise ValueError(f"output cloud size must be >= 1, got {n_out}")
    fit = FitConfig(seed=seed)
    ks_x = default_candidate_ks(len(x)) if candidate_ks is None else candidate_ks
    ks_y = default_candidate_ks(len(y)) if candidate_ks is None else candidate_ks
    ensemble_x, _ = build_ensemble(x, ks_x, fit)
    ensemble_y, _ = build_ensemble(y, ks_y, fit)
    gx = dominant_member(ensemble_x)
    gy = dominant_member(ensemble_y)
    k = min(gx.k, gy.k)
    source = project_to_k(gx, k)
    target = project_to_k(gy, k)
    target = reorder_components(target, match_components(source, target))
    models = tuple(product_geodesic(source, target, t) for t in ts)
    frames = tuple(
        generate_point_cloud(m, n_out, rng_stream(seed, i))
        for i, m in enumerate(models)
    )
    return InterpolationResult(ts, frames, models, source, target)
