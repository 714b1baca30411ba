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
product_geodesic, the one geodesic, maps two mixtures (Gmm) of equal K
to the mixture at t, reading the factors they keep (Gmm.factor), and
does the square-root lift of the weights itself. Mixtures of unequal
size are first reduced to a common K by moment-preserving merges and
then aligned by an optimal component matching on mean distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em import FitConfig
from .model import Gmm, GmmEnsemble, PointCloud, _transposed
from .sampling import checked_integer, generate_point_cloud, is_real, rng_stream
from .selection import _checked_ks, build_ensemble, default_candidate_ks

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
    k_target = checked_integer("target component count", k_target, 1)
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
    return Gmm(w / total, m, s)


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost perfect matching of a square
    cost matrix: shortest augmenting paths with row and column potentials
    (Kuhn 1955, Munkres 1957; the form of Jonker & Volgenant 1987).

    Rows join in index order. Each grows a Dijkstra tree over the columns
    in reduced costs: the open column nearest the tree is settled next,
    the lowest index first among equal distances, and a column keeps the
    row that first reached it unless another row reaches it strictly
    nearer. The first free column settled ends the augmenting path.
    """
    k = len(cost)
    u, v = np.zeros(k), np.zeros(k)
    row_of = np.full(k, -1)
    col_of = np.full(k, -1)
    for start in range(k):
        dist = np.full(k, np.inf)
        via = np.zeros(k, dtype=int)
        settled = np.zeros(k, dtype=bool)
        i, reach = start, 0.0
        while True:
            reduced = reach + cost[i] - u[i] - v
            nearer = (reduced < dist) & ~settled
            dist[nearer] = reduced[nearer]
            via[nearer] = i
            open_dist = np.where(settled, np.inf, dist)
            j = int(np.argmin(open_dist))
            reach = open_dist[j]
            if reach == np.inf:
                raise ValueError("no assignment of finite cost")
            settled[j] = True
            if row_of[j] < 0:
                break
            i = row_of[j]
        # shift the potentials so that reduced costs stay >= 0 and the
        # settled tree's edges, the new path among them, cost 0
        cols = np.flatnonzero(settled)
        v[cols] -= reach - dist[cols]
        held = cols[row_of[cols] >= 0]
        u[row_of[held]] += reach - dist[held]
        u[start] += reach
        while True:
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return col_of


def match_components(a: Gmm, b: Gmm) -> np.ndarray:
    """Permutation aligning b's components to a's by squared mean distance.

    Returns perm such that component j of a pairs with component perm[j]
    of b, from a minimum-cost assignment. Where several assignments cost
    the least, the solver's order picks one: a's components join in index
    order, and each one's augmenting path visits b's components nearest
    first in reduced cost, the lowest index first among equal ones.
    """
    if a.k != b.k:
        raise ValueError(f"component counts differ: {a.k} vs {b.k}")
    cost = np.sum((a.means[:, None, :] - b.means[None, :, :]) ** 2, axis=2)
    return _min_cost_assignment(cost)


def _check_t(t) -> float:
    """t as a float, if it is a real number (is_real) in [0, 1]."""
    if not (is_real(t) and 0.0 <= t <= 1.0):
        raise ValueError(f"interpolation parameter must lie in [0, 1], got {t!r}")
    return float(t)


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


def _sphere_point(model: Gmm) -> np.ndarray:
    """The mixture's weights lifted onto the unit sphere S^(K-1)."""
    sq = np.sqrt(model.weights)
    return sq / np.linalg.norm(sq)


def product_geodesic(a: Gmm, b: Gmm, t: float) -> Gmm:
    """Mixture at t on the product-manifold geodesic from a to b.

    The weights follow the great circle between the square-root weight
    vectors (squared and renormalized on the way back), a renormalized
    linear blend where these lie closer than COLINEAR_THETA; the means
    the straight line, and each covariance its affine-invariant geodesic.
    """
    t = _check_t(t)
    if a.k != b.k:
        raise ValueError(f"component counts differ: {a.k} vs {b.k}")
    u, v = _sphere_point(a), _sphere_point(b)
    theta = math.acos(float(np.clip(u @ v, -1.0, 1.0)))
    if theta < COLINEAR_THETA:
        root = (1.0 - t) * u + t * v
        root = root / np.linalg.norm(root)
    else:
        root = (math.sin((1.0 - t) * theta) * u + math.sin(t * theta) * v) / math.sin(theta)
    if t in (0.0, 1.0):
        covs = (b if t else a).covariances
    else:
        c1, c2, sigma = _pencil(a.factor, b.factor)
        c, power = (c1, 2.0 * t) if t <= 0.5 else (c2, 2.0 * t - 2.0)
        covs = (c * (sigma ** power)[..., None, :]) @ _transposed(c)
        covs = 0.5 * (covs + _transposed(covs))
    w = root ** 2
    return Gmm(w / w.sum(), (1.0 - t) * a.means + t * b.means, covs)


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
    candidates for each cloud's size; given ones are checked against both
    clouds before either is fitted); the dominant member of each is
    reduced to the smaller component count, the components are matched on
    mean distances, and one cloud is sampled per requested t with an
    independent stream per frame. seed drives the fits and the frames.
    """
    ts = tuple(_check_t(t) for t in ts)
    if not ts:
        raise ValueError("need at least one interpolation parameter")
    n_out = checked_integer("output cloud size", len(x) if n_out is None else n_out, 1)
    fit = FitConfig(seed=seed)
    ks = None if candidate_ks is None else _checked_ks(candidate_ks, [x, y])  # read once
    ks_x = default_candidate_ks(len(x)) if ks is None else ks
    ks_y = default_candidate_ks(len(y)) if ks is None else ks
    ensemble_x, _ = build_ensemble(x, ks_x, fit)
    ensemble_y, _ = build_ensemble(y, ks_y, fit)
    gx = dominant_member(ensemble_x)
    gy = dominant_member(ensemble_y)
    k = min(gx.k, gy.k)
    source = project_to_k(gx, k)
    target = project_to_k(gy, k)
    perm = match_components(source, target)
    target = Gmm(target.weights[perm], target.means[perm], target.covariances[perm])
    models = tuple(product_geodesic(source, target, t) for t in ts)
    frames = tuple(
        generate_point_cloud(m, n_out, rng_stream(seed, i))
        for i, m in enumerate(models)
    )
    return InterpolationResult(ts, frames, models, source, target)
