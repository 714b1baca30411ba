"""Maximum-likelihood mixture fitting: k-means++ initialization plus EM.

fit_em_candidates fits many Ks to many clouds at once, and fit_em is its
call for one cloud at one K. A fit sorts the points lexicographically
before doing anything else, so it is a function of the point multiset:
permuting the input order reproduces the same parameters bit for bit
under the same seed.

EM starts from its own M-step on the one-hot partition of the points by
their nearest k-means++ seed (Arthur & Vassilvitskii 2007); no Lloyd
pass refines it, since EM refines the same partition anyway (seeding
as a GMM start: Blömer & Bujna 2016). Each seeding partitions the
points as it draws its seeds: a new seed takes the points strictly
closer to it, so ties stay with the earlier seed. Every seed is a point
at a new position, so it is its own strict nearest seed and no cluster
is empty; a cloud with fewer than K distinct points fails with FitError.
The first K seeds of a seeding from a stream are the K-seed seeding from
it, and the seeding loop computes each prefix's potential and partition
anyway, so one seeding per restart to the largest K seeds every smaller K.

A cloud of more than SUBSAMPLE_ABOVE points starts elsewhere: its
points take fewer EM maps from a start that is nearly fitted than from
a partition, and a map on a subsample costs a fraction of one on the
cloud (learning-curve sampling: Meek, Thiesson & Heckerman 2002).
SUBSAMPLE_POINTS of its sorted points, drawn without replacement from
rng_stream(seed, SUBSAMPLE_STREAM), are fitted as a cloud of their own,
from k-means++; the E-step of that subsample's mixture on all the points
is the cloud's start responsibilities, and no seeding of the cloud
itself is drawn. The draw is from the sorted points, so the fit is still
a function of the multiset. A K that the subsample's fit fails fails the
cloud's fit with a FitError that says so. Either start is a (K, N)
responsibility array, and EM starts from its own M-step on it.

Both EM steps use the moment form of model.py: the E-step is one
product of coefficients with the feature table Phi of the points and
one in-place softmax_columns, the M-step one product of the (K, N)
responsibilities with Phi^T. An EM state is the mixture's own three
arrays, the parameters theta: weights (K,), means (K, 3) and covariances
(K, 3, 3). The E-step reads each covariance's precision and
log-determinant, which the M-step computes in closed form from the
adjugate and determinant of the 3x3 (_closed_form): a fixed number of
NumPy calls at any batch size and K. The same arithmetic tests whether
S - eps I is positive definite, and only the covariances that fail that
floor test go through floor_spd's eigh (_floor), so a map runs no eigh
unless the floor binds. The M-step computes the parts of a state as
contiguous arrays, and the E-step of the same map reads them: on the
small arrays of a fit at N = 600 the cost of a map is the count of its
NumPy calls, and a call on a view that strides over the batch costs
more. SQUAREM extrapolates theta part by part, its step length from the
norms of the three parts together, and falls back to the plain map
whenever an extrapolated state is infeasible (a weight below zero, or a
covariance that fails the closed form's test of positive definiteness)
or would lower the log-likelihood; only the covariance floor can lower
it otherwise. A component that collapses fails the fit; nothing is
reseeded.

The fits of clouds of one size N run in lockstep: every array of a
batch has a leading axis over its fits, the feature tables (B, 10, N),
the responsibilities (B, K, N) and the parts of the EM states, weights
(B, K), means (B, K, 3) and covariances (B, K, 3, 3), and each step is
one NumPy call over the batch. Products work slice by slice,
and the closed form and eigh matrix by matrix, so each fit gets the
bits it gets alone; step lengths, acceptance, convergence, the cap and
failures are decided fit by fit. A batch holds at most BATCH_FITS
fits, which all start together. Each step runs over every fit, and the
fits that finished or failed in it leave together at its end; the batch
ends with its last fit, and no cloud joins a running batch. A cloud is
prepared once for all its Ks: its sort, floor, feature table and
seedings, or its subsample's fits, serve one batch per K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    SECOND_MOMENT_ROWS,
    SYMMETRIC_ENTRIES,
    Gmm,
    PointCloud,
    centred_features,
    checked_array,
    covariance_floor,
    factor_precisions,
    feature_log_densities,
    floor_spd,
    softmax_columns,
    weighted_log_densities,
)
from .sampling import checked_integer, rng_stream

COLLAPSE_MASS = 1e-12
REL_TOLERANCE = 1e-6
MAX_ITERATIONS = 200
KMEANS_RESTARTS = 4
# SQUAREM step cap: the factor it grows by after an accepted step at the
# cap and shrinks by, not below 1, after a rejected one
STEP_GROWTH = 4.0
# the most fits a lockstep batch holds: enough to share NumPy's overhead
# per call, few enough that its arrays stay small (one batch of all 69
# refits of eval-paper-pipeline raised its peak RSS by about 30 %)
BATCH_FITS = 16
# a cloud of more than SUBSAMPLE_ABOVE points starts each fit from the
# fit of SUBSAMPLE_POINTS of its points (see the module docstring), drawn
# from the stream id SUBSAMPLE_STREAM, which rng_stream takes as 2**64 - 1:
# every other draw counts its stream ids up from 0. At K = 8 the
# subsample's start was already faster at 12 000 points (six tubes: 0.36
# against 0.48 s); three subsamples' worth keeps the fits of smaller
# clouds, every pipeline and interpolate fit among them, on k-means++
SUBSAMPLE_POINTS = 6_000
SUBSAMPLE_ABOVE = 3 * SUBSAMPLE_POINTS
SUBSAMPLE_STREAM = -1


class FitError(RuntimeError):
    """A mixture fit could not be completed."""


@dataclass(frozen=True)
class FitConfig:
    """The settable part of fit_em: the k-means++ seed, an integer."""

    seed: int = 0

    def __post_init__(self):
        checked_integer("seed", self.seed)


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
    """The points in lexicographic order. A stable sort on x alone gives
    that order when no two x are equal (-0.0 == 0.0 counts as equal), and
    costs a fraction of np.lexsort, which then orders the ties."""
    x = points[:, 0]
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    if (ordered[1:] == ordered[:-1]).any():
        order = np.lexsort((points[:, 2], points[:, 1], x))
    return points[order]


def _squared_distances(x: np.ndarray, y: np.ndarray, z: np.ndarray, c: np.ndarray
                       ) -> np.ndarray:
    """Squared distances from the points with coordinate columns x, y, z
    to the centre c: the left-to-right sum of three squares, the same
    bits as np.sum((pts - c) ** 2, axis=1)."""
    return (x - c[..., 0]) ** 2 + (y - c[..., 1]) ** 2 + (z - c[..., 2]) ** 2


def _kmeans_pp_seeds(pts: np.ndarray, ks, rng: np.random.Generator
                     ) -> tuple[list[int], list[float], dict[int, np.ndarray]]:
    """A k-means++ seeding to the largest K of ks: the indices of its
    seeds, the potential of each prefix (potentials[j] is the sum over
    points of the squared distance to the nearest of the first j + 1
    seeds) and, for each K of ks it reaches, the codes (N,) of each
    point's nearest of the first K seeds, kept as the seeds are drawn
    (see the module docstring). The seeding stops early, with fewer than
    K seeds, once every point lies on a seed."""
    n, wanted, last = pts.shape[0], set(ks), max(ks)
    x, y, z = np.ascontiguousarray(pts.T)
    seeds = [int(rng.integers(n))]
    d2 = _squared_distances(x, y, z, pts[seeds[0]])
    codes = np.zeros(n, dtype=np.intp)
    potentials, partitions = [], {}
    while True:
        potentials.append(float(d2.sum()))
        if len(seeds) in wanted:
            partitions[len(seeds)] = codes.copy()
        if len(seeds) == last or potentials[-1] == 0.0:
            return seeds, potentials, partitions
        # side="right" skips the flat cdf steps of points on a seed
        idx = int((d2.cumsum() / potentials[-1]).searchsorted(rng.random(), side="right"))
        if idx == n:  # the draw fell past the rounded end of the cdf
            idx = int(np.flatnonzero(d2)[-1])
        dj = _squared_distances(x, y, z, pts[idx])
        codes[dj < d2] = len(seeds)
        np.minimum(d2, dj, out=d2)
        seeds.append(idx)


def _check_component_count(k: int, n: int):
    if checked_integer("component count", k, 1) > n:
        raise ValueError(f"more components than points: K={k}, N={n}")


def _check_extent(pts: np.ndarray):
    """Raise FitError for sorted points whose squared distances could
    overflow: their extent, squared and summed over the coordinates and
    the points, is not finite. The x extent is the first and last rows',
    y's and z's their columns'. Python floats give inf here without a
    warning."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    extent = [x[-1].item() - x[0].item()] + [c.max().item() - c.min().item() for c in (y, z)]
    if not math.isfinite(len(pts) * sum(e * e for e in extent)):
        raise FitError(f"coordinate extent {max(extent):.3g} too large: the squared "
                       f"distances of {len(pts)} points overflow")


def kmeans_init(points: np.ndarray, ks, seed: int) -> list[np.ndarray | FitError]:
    """For each K of the sequence ks, the nearest-seed codes (N,) of the
    best k-means++ seeding of the points at that K, or its FitError when
    the points run out of distinct positions before K.

    Each of KMEANS_RESTARTS streams draws one seeding to the largest K,
    which partitions the points at every K of ks. A K takes the codes of
    the restart whose K-seed potential is lowest, the first on ties, and
    fails when a restart stops short of K seeds, naming the seeds it drew.
    """
    seedings = [_kmeans_pp_seeds(points, ks, rng_stream(seed, r))
                for r in range(KMEANS_RESTARTS)]
    results = []
    for one in ks:
        short = [len(seeds) for seeds, _, _ in seedings if len(seeds) < one]
        if short:
            results.append(FitError(
                f"K={one} needs {one} distinct points, the cloud has {short[0]}"))
        else:
            _, _, codes = min(seedings, key=lambda seeding: seeding[1][one - 1])
            results.append(codes[one])
    return results


def e_step(cloud: PointCloud, model: Gmm) -> np.ndarray:
    """The (N, K) responsibilities: the posterior membership of every
    point in every component, normalised by softmax_columns in a fresh
    array that the caller owns; a point whose log-sum-exp is not finite
    (every density underflowed) gets 1/K."""
    lwd = weighted_log_densities(cloud.points, model)
    softmax_columns(lwd)
    return lwd.T


def _take(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The given rows of a batch's array, or the array itself when they are all."""
    return a if len(rows) == len(a) else a[rows]


# The closed form of a symmetric 3x3 S. Its six distinct entries in
# Phi's order (SYMMETRIC_ENTRIES) are v = (a, b, c, f, e, d) for
# S_xx, S_yy, S_zz, S_yz, S_xz and S_xy, and its adjugate A has, in the
# same order, bc - ff, ac - ee, ab - dd, ed - af, fd - be and fe - cd:
# the products of the entries of v that _ADJUGATE_FACTORS picks, the
# first six less the last six. The diagonal of adj(A) = det S * S is
# A_yy A_zz - A_yz^2 and so on: the products that _TRACE_FACTORS picks
# from A, the first three less the last three, sum to N = tr adj(A).
_ADJUGATE_FACTORS = np.array([1, 0, 0, 4, 3, 3, 3, 4, 5, 0, 1, 2,
                              2, 2, 1, 5, 5, 4, 3, 4, 5, 3, 4, 5])
_TRACE_FACTORS = np.array([1, 2, 0, 3, 4, 5, 2, 0, 1, 3, 4, 5])
# where _closed_form gathers v and the factors from a flattened matrix
_ENTRIES = np.concatenate([SYMMETRIC_ENTRIES, SYMMETRIC_ENTRIES[_ADJUGATE_FACTORS]])


def _closed_form(covs: np.ndarray, eps: np.ndarray, shift: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Precisions (B, K, 6), as feature_log_densities reads them, and
    log-determinants (B, K) of the covariances (B, K, 3, 3) of a batch of
    fits, each matrix taken in units of its fit's floor eps (B,): the
    closed form costs the same few NumPy calls at any B and K, and in
    those units it neither overflows nor depends on the cloud's scale.

    The precision is A / det S, from the adjugate A, and det S =
    tr adj(A) / tr S (see _ADJUGATE_FACTORS). Unlike the cofactor
    expansion along a row, whose error grows with the product of two
    condition numbers when two eigenvalues are small, that determinant
    is as accurate as eigh's: adj(A) = det S * S, and the sum of its
    diagonal is dominated by the largest entry.

    The third value is None when every S - shift I is positive definite,
    else the (B, K) mask of the matrices that fail that test, whose
    precisions and log-determinants are placeholders: shift is 1.0 for
    the M-step's floor test, 0.0 for a SQUAREM candidate's. With e1 =
    tr S, e2 = tr A and e3 = N / e1, the real eigenvalues of S - s I have
    the elementary symmetric polynomials t1 = e1 - 3 s, t2 = e2 - 2 s e1
    + 3 s^2 and t3 = e3 - s e2 + s^2 e1 - s^3, all > 0 exactly when S - s I
    is positive definite; once t1 > 0, e1 t3 = N - e1 s (e2 - s e1 + s^2)
    has t3's sign. Each sum runs left to right, e1 as (a + b) + c, in one
    formula for both shifts, so a NaN fails either test, as does a matrix
    whose N is not finite. Shifted by eps, the floor test is robust: eps
    is far above the rounding of the polynomials, so no matrix whose
    smallest eigenvalue is below eps by more than that rounding passes.
    """
    lead = covs.shape[:-2]
    v = covs.reshape(lead + (9,))[..., _ENTRIES] / eps.reshape(eps.shape + (1, 1))
    products = v[..., 6:18] * v[..., 18:30]
    adjugate = products[..., :6] - products[..., 6:]
    factors = adjugate[..., _TRACE_FACTORS]
    p = factors[..., :6] * factors[..., 6:]
    a_xx, a_yy, a_zz = adjugate[..., 0], adjugate[..., 1], adjugate[..., 2]
    e1 = v[..., 0] + v[..., 1] + v[..., 2]
    n = p[..., 0] + p[..., 1] + p[..., 2] - p[..., 3] - p[..., 4] - p[..., 5]
    t1 = e1 - 3.0 * shift
    t2 = -2.0 * shift * e1 + a_xx + a_yy + a_zz + 3.0 * shift ** 2
    e1t3 = n - e1 * (shift * (-shift * e1 + a_xx + a_yy + a_zz + shift ** 2))
    lowest = np.minimum(np.minimum(t1, t2), e1t3)
    failing = None
    if not (lowest.min() > 0.0 and n.max() < math.inf):  # NaN included
        failing = ~((lowest > 0.0) & (n < math.inf))
        e1[failing] = n[failing] = 1.0
    det = n / e1
    precision = adjugate / (det * eps[..., None])[..., None]
    log_det = np.log(det)
    log_det += 3.0 * np.log(eps)[..., None]
    return precision, log_det, failing


def _floor(covs: np.ndarray, eps: np.ndarray, binding: np.ndarray, precision: np.ndarray,
           log_det: np.ndarray, failed: dict):
    """Floor the covariances (B, K, 3, 3) of a batch of fits that the
    mask binding (B, K) selects at their fits' eps (B,) with floor_spd,
    in place, with their precisions and log-determinants from its factor.
    eigh raises LinAlgError for the whole stack when one matrix fails;
    then the matrices go one by one, and a failing matrix's error goes
    to failed under its fit's position and its values are NaN, which
    scores -inf."""
    fits = np.nonzero(binding)[0]
    stack, floors = covs[binding], eps[fits, None]
    try:
        floored, (lam, q) = floor_spd(stack, floors)
    except np.linalg.LinAlgError:
        floored, lam, q = (np.full(stack.shape, np.nan), np.full(stack.shape[:-1], np.nan),
                           np.full(stack.shape, np.nan))
        for i, b in enumerate(fits.tolist()):
            try:
                one, (lam[i:i + 1], q[i:i + 1]) = floor_spd(stack[i:i + 1], floors[i:i + 1])
            except np.linalg.LinAlgError as exc:
                failed.setdefault(b, exc)
                continue
            floored[i] = one[0]
    covs[binding] = floored
    precision[binding], log_det[binding] = factor_precisions(lam, q)


def _m_step_arrays(phi: np.ndarray, gamma: np.ndarray, eps: np.ndarray
                   ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], dict]:
    """The EM states of a batch of fits, as contiguous arrays weights
    (B, K), means (B, K, 3) and covariances (B, K, 3, 3), from their
    (B, K, N) responsibilities and (B, 10, N) feature tables, means in
    Phi's frame: the covariances floored at each fit's eps (B,). Only the
    matrices that fail the floor test of _closed_form go through
    floor_spd (_floor); the others keep their moments.

    Returns the states, the E-step's parts (weights, means, precisions,
    log-determinants) and the fits that failed, each error under its
    batch position: a component whose mass is below COLLAPSE_MASS has no
    mean to estimate (ValueError), or the floor's eigh failed
    (LinAlgError). A failed fit's rows are placeholders.
    """
    moments = gamma @ phi.swapaxes(-1, -2)
    mass = moments[..., 0]
    failed = {}
    if not mass.min() >= COLLAPSE_MASS:  # NaN included
        alive = mass >= COLLAPSE_MASS
        for b in np.flatnonzero(~alive.all(axis=1)).tolist():
            j = int(np.argmin(alive[b]))
            failed[b] = ValueError(
                f"component {j} collapsed: mass {mass[b, j]:.3g} < {COLLAPSE_MASS:g}")
        mass = np.where(alive, mass, 1.0)
    scaled = moments / mass[..., None]
    weights = mass / mass.sum(axis=-1, keepdims=True)
    means = np.ascontiguousarray(scaled[..., 1:4])
    # exactly symmetric, as floor_spd needs: SECOND_MOMENT_ROWS is, and
    # mu_i mu_j = mu_j mu_i
    covs = scaled[..., SECOND_MOMENT_ROWS] - means[..., :, None] * means[..., None, :]
    precision, log_det, binding = _closed_form(covs, eps, 1.0)
    if binding is not None:
        _floor(covs, eps, binding, precision, log_det, failed)
    return (weights, means, covs), (weights, means, precision, log_det), failed


def m_step(cloud: PointCloud, gamma) -> Gmm:
    """Weighted-moment parameter update over all points from their (N, K)
    responsibilities gamma, checked here as the library's input: finite
    numbers (checked_array) in [0, 1], each row summing to 1."""
    gamma = checked_array("responsibilities", gamma, (len(cloud), None),
                          f"a ({len(cloud)}, K) array with K >= 1")
    if np.any(gamma < 0.0) or np.any(gamma > 1.0 + 1e-12):
        raise ValueError("responsibilities must lie in [0, 1]")
    if np.max(np.abs(gamma.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("responsibility rows must sum to 1")
    centre = cloud.points.mean(axis=0)
    (weights, means, covs), _, failed = _m_step_arrays(
        centred_features(cloud.points, centre)[None], gamma.T[None],
        np.array([covariance_floor(cloud.points)]))
    if failed:
        raise failed[0]
    return Gmm(weights[0], means[0] + centre, covs[0])


def _responsibilities(phi: np.ndarray, parts: tuple[np.ndarray, ...],
                      out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The E-step of a batch of fits: the (B, K, N) responsibilities of
    their EM states, given by their parts (weights, means, precisions,
    log-determinants) as _m_step_arrays or _extrapolate returns them,
    written to out when given, and the log-likelihoods (B,) of their
    points."""
    gamma = feature_log_densities(phi, *parts, out=out)
    return gamma, softmax_columns(gamma).sum(axis=-1)


def _em_map(phi: np.ndarray, gamma: np.ndarray, eps: np.ndarray):
    """One EM map of a batch of fits: the M-step from the (B, K, N)
    responsibilities in gamma, then the E-step of its result written over
    gamma. Every fit takes both steps; one whose M-step fails is evaluated
    at its placeholder state, which its caller discards.

    Returns the new EM states, responsibilities and log-likelihoods, and
    the errors of the failed fits by position.
    """
    state, parts, failed = _m_step_arrays(phi, gamma, eps)
    gamma, ll = _responsibilities(phi, parts, out=gamma)
    return state, gamma, ll, failed


def _converged(trace: list[float] | tuple[float, ...]) -> bool:
    """Whether the last two log-likelihoods differ by less than
    REL_TOLERANCE relative to |L| + 1."""
    return len(trace) >= 2 and abs(trace[-1] - trace[-2]) / (abs(trace[-1]) + 1.0) < REL_TOLERANCE


def _extrapolate(theta0, theta1, theta2, step_max, eps):
    """S3 SQUAREM steps (Varadhan & Roland 2008) of a batch of fits from
    three consecutive EM states, each the triple (weights, means,
    covariances) that _m_step_arrays returns, each fit's step cap in
    step_max and its covariance floor in eps (B,).

    With r = theta1 - theta0 and v = theta2 - 2 theta1 + theta0, a fit's
    step is alpha = min(step_max, |r| / |v|), each norm the sum of
    np.vdot over the fit's own weights, means and covariances, in that
    order, and its extrapolated state theta0 + 2 alpha r + alpha^2 v
    (alpha = 1 gives theta2); r, v and the state are formed part by part.
    A state is infeasible with a weight below zero, or a covariance that
    is not positive definite by the closed form's test at shift 0, NaN
    included.

    Returns the list of steps alpha, one per fit, the positions of the
    fits whose alpha > 1 gives a feasible state, and those states' parts
    (see _responsibilities): weights and means are the extrapolated
    theta's, precisions and log-determinants its closed form.
    """
    r = [b - a for a, b in zip(theta0, theta1)]
    v = [c - 2.0 * b + a for a, b, c in zip(theta0, theta1, theta2)]
    alpha = []
    for i, cap in enumerate(step_max):
        sr2, sv2 = (sum(float(np.vdot(part[i], part[i])) for part in x) for x in (r, v))
        alpha.append(min(cap, math.sqrt(sr2 / sv2) if sv2 > 0.0 else math.inf))
    rows = np.array([i for i, step in enumerate(alpha) if step > 1.0], dtype=np.intp)
    if not len(rows):
        return alpha, rows, ()
    steps, candidate = np.array(alpha)[rows], []
    for a, b, c in zip(theta0, r, v):
        step = steps.reshape(steps.shape + (1,) * (a.ndim - 1))
        candidate.append(_take(a, rows) + 2.0 * step * _take(b, rows)
                         + step * step * _take(c, rows))
    weights, means, covs = candidate
    precision, log_det, failing = _closed_form(covs, _take(eps, rows), 0.0)
    feasible = (weights >= 0.0).all(axis=-1)
    if failing is not None:
        feasible &= ~failing.any(axis=-1)
    feasible = np.flatnonzero(feasible)
    return alpha, rows[feasible], tuple(_take(part, feasible)
                                        for part in (weights, means, precision, log_det))


@dataclass(eq=False)
class _Fit:
    """A fit's own part of a lockstep batch: its cloud's position in the
    input, the centre of its frame, its trace, its EM maps so far and its
    SQUAREM step cap."""

    index: int
    centre: np.ndarray
    trace: list
    m_steps: int = 0
    step_max: float = 1.0


class _Lockstep:
    """The fits of one lockstep batch, at one K over clouds of one size N.

    Every array has a leading axis over the fits, in the order of fits:
    the feature tables phi (B, 10, N), the covariance floors eps (B,),
    the responsibilities gamma (B, K, N) of the latest accepted states,
    and states, the EM states of the current SQUAREM cycle, each the
    triple (weights, means, covariances) of _m_step_arrays. The states
    are what SQUAREM extrapolates and a finishing fit is read from; each
    E-step reads the precisions and log-determinants its M-step or
    _extrapolate returned. The fits all start in the constructor and none
    joins later. Every step ends in _settle, where the fits that finished
    or failed leave together, to done as (input position, FitResult or
    FitError).
    """

    def __init__(self, fits: list[_Fit], phi: np.ndarray, eps: np.ndarray, gamma: np.ndarray):
        """Start the fits, given with their feature tables phi, floors eps
        and start responsibilities gamma (B, K, N), which the batch takes
        over: the M-step on them and the E-step, written over gamma."""
        self.fits, self.phi, self.eps = fits, phi, eps
        self.done: list[tuple[int, FitResult | FitError]] = []
        state, self.gamma, _, failed = _em_map(phi, gamma, eps)
        self.states = [state]
        self._settle(failed, set())

    def cycle(self):
        """One SQUAREM cycle of every fit (see fit_em): two EM maps, then
        the extrapolation. A fit that finishes or fails leaves."""
        for _ in range(2):
            if not self.fits:
                return
            ll = self._map()
        if self.fits:
            self._squarem(ll)

    def _settle(self, failed: dict, stopped: set):
        """End a step: a stopped fit finishes at the latest state, unless
        Gmm rejects it; a fit with an error in failed fails, with a
        FitError as it is and any other error as one naming the map; the
        rest stay."""
        stay = []
        for b, fit in enumerate(self.fits):
            if b in stopped and b not in failed:
                weights, means, covs = (part[b] for part in self.states[-1])
                try:
                    model = Gmm(weights, means + fit.centre, covs)
                except (ValueError, np.linalg.LinAlgError) as exc:
                    failed[b] = exc
                else:
                    self.done.append((fit.index, FitResult(model, tuple(fit.trace))))
            if b in failed:
                error = failed[b]
                if not isinstance(error, FitError):
                    error = FitError(f"fit failed at iteration {fit.m_steps}: {error}")
                    error.__cause__ = failed[b]
                self.done.append((fit.index, error))
            elif b not in stopped:
                stay.append(b)
        if len(stay) < len(self.fits):
            self.fits = [self.fits[b] for b in stay]
            self.phi, self.eps, self.gamma = self.phi[stay], self.eps[stay], self.gamma[stay]
            self.states = [tuple(part[stay] for part in state) for state in self.states]

    def _map(self) -> np.ndarray:
        """One EM map of every fit. A fit that fails, converges or reaches
        MAX_ITERATIONS leaves; returns the log-likelihoods of the rest."""
        for fit in self.fits:
            fit.m_steps += 1
        state, self.gamma, ll, failed = _em_map(self.phi, self.gamma, self.eps)
        self.states.append(state)
        stopped = set()
        for b, (fit, value) in enumerate(zip(self.fits, ll.tolist())):
            if not math.isfinite(value):
                # a fit whose M-step failed keeps that error
                failed.setdefault(b, FitError(
                    f"non-finite log-likelihood at iteration {fit.m_steps}"))
            elif b not in failed:
                fit.trace.append(value)
                if _converged(fit.trace) or fit.m_steps == MAX_ITERATIONS:
                    stopped.add(b)
        self._settle(failed, stopped)
        return np.array([fit.trace[-1] for fit in self.fits])

    def _squarem(self, ll: np.ndarray):
        """Every fit's SQUAREM step from the cycle's three states, the
        candidate's E-step, its stabilising map where the candidate does
        not score below theta2, and the step cap's update. A fit that
        fails, converges or reaches MAX_ITERATIONS leaves."""
        fits, state = self.fits, self.states[-1]
        alpha, rows, candidate = _extrapolate(*self.states, [fit.step_max for fit in fits],
                                              self.eps)
        accepted = [not step > 1.0 for step in alpha]
        failed, stopped = {}, set()
        if len(rows):
            phi, ll = _take(self.phi, rows), ll[rows]
            # the candidates' responsibilities in a fresh array: self.gamma
            # keeps theta2's unless a candidate wins
            gamma, candidate_ll = _responsibilities(phi, candidate)
            better = np.flatnonzero(candidate_ll >= ll)
            stable, ll = rows[better], ll[better]
            for b in stable.tolist():
                fits[b].m_steps += 1
                if fits[b].m_steps == MAX_ITERATIONS:
                    stopped.add(b)
            if len(stable):
                stabilised, gamma, stabilised_ll, lost = _em_map(
                    _take(phi, better), _take(gamma, better), self.eps[stable])
                failed = {int(stable[b]): exc for b, exc in lost.items()}
                won = np.flatnonzero(stabilised_ll >= ll)
                winners = stable[won]
                if len(winners) == len(fits):
                    # every fit won: the batch adopts the candidates' arrays
                    state, self.gamma = stabilised, gamma
                elif len(winners):  # the winners' rows, in place
                    for part, new in zip(state + (self.gamma,), stabilised + (gamma,)):
                        part[winners] = new[won]
                for b, value in zip(winners.tolist(), stabilised_ll[won].tolist()):
                    accepted[b] = True
                    fits[b].trace.append(value)
                    if _converged(fits[b].trace):
                        stopped.add(b)
        for fit, step, ok in zip(fits, alpha, accepted):
            if step == fit.step_max:
                fit.step_max = (fit.step_max * STEP_GROWTH if ok
                                else max(1.0, fit.step_max / STEP_GROWTH))
        self.states = [state]
        self._settle(failed, stopped)


def _subsample_starts(subsamples: list[PointCloud], ks: list[int], config: FitConfig
                      ) -> list[list[Gmm | FitError]]:
    """Per K of ks, each subsample's fitted mixture or FitError, from one
    fit_em_candidates call: a failed fit's error says that it was the
    subsample's, and a K above SUBSAMPLE_POINTS fails without a fit."""
    fitted = iter(fit_em_candidates(subsamples, [k for k in ks if k <= SUBSAMPLE_POINTS], config))
    per_k = []
    for k in ks:
        if k > SUBSAMPLE_POINTS:
            per_k.append([FitError(f"K={k} needs more than the {SUBSAMPLE_POINTS} points "
                                   f"of the subsample that starts its fit")
                          for _ in subsamples])
            continue
        per_k.append([])
        for result in next(fitted):
            if isinstance(result, FitResult):
                per_k[-1].append(result.model)
                continue
            error = FitError(f"the fit of the {SUBSAMPLE_POINTS}-point subsample failed: "
                             f"{result}")
            error.__cause__ = result
            per_k[-1].append(error)
    return per_k


def _prepared(chunk: list[tuple[int, PointCloud]], ks: list[int], config: FitConfig):
    """What every K shares of the fits of a chunk of clouds of one size N,
    given with their input positions: each cloud is sorted and its
    extent checked, then its centre, floor and feature table computed.
    Up to SUBSAMPLE_ABOVE points, its seedings are drawn by one
    kmeans_init call for all of ks. Above, SUBSAMPLE_POINTS of its sorted
    points are drawn from rng_stream(seed, SUBSAMPLE_STREAM), and the
    subsamples of the chunk are fitted at every K by one fit_em_candidates
    call (_subsample_starts).

    Returns the (position, FitError) pairs of the clouds that fail the
    extent check and, for the others, their (position, centre) pairs,
    stacked feature tables (B, 10, N) and floors (B,), and per K of ks
    the list of their starts: k-means++ codes (N,), the subsample's
    fitted Gmm, or a FitError."""
    failed, starts, phis, floors, seeded, subsamples = [], [], [], [], [], []
    for index, cloud in chunk:
        pts = _sorted_points(cloud.points)
        try:
            _check_extent(pts)
        except FitError as exc:
            failed.append((index, exc))
            continue
        starts.append((index, pts.mean(axis=0)))
        floors.append(covariance_floor(pts))
        phis.append(centred_features(pts, starts[-1][1]))
        if len(pts) > SUBSAMPLE_ABOVE:
            rows = rng_stream(config.seed, SUBSAMPLE_STREAM).choice(
                len(pts), SUBSAMPLE_POINTS, replace=False, shuffle=False)
            subsamples.append(PointCloud(pts[rows]))
        else:
            seeded.append(kmeans_init(pts, ks, config.seed))
    per_k = (_subsample_starts(subsamples, ks, config) if subsamples
             else [[codes[i] for codes in seeded] for i in range(len(ks))])
    return failed, starts, np.stack(phis) if phis else None, np.array(floors), per_k


def _start(phi: np.ndarray, centres: list[np.ndarray], begun: list, k: int) -> np.ndarray:
    """The (B, K, N) start responsibilities of a batch of fits with the
    feature tables phi, each fit's frame centred on its entry of centres,
    from each fit's start in begun: the one-hot partition by its k-means++
    codes, or its subsample's Gmm's E-step on all its points."""
    if isinstance(begun[0], np.ndarray):
        return (np.arange(k)[:, None] == np.stack(begun)[:, None, :]).astype(float)
    lam, q = (np.stack(part) for part in zip(*(model.factor for model in begun)))
    parts = (np.stack([model.weights for model in begun]),
             np.stack([model.means - centre for model, centre in zip(begun, centres)]),
             *factor_precisions(lam, q))
    return _responsibilities(phi, parts)[0]


def fit_em_candidates(clouds, ks, config: FitConfig = FitConfig()
                      ) -> list[list[FitResult | FitError]]:
    """fit_em of every cloud at every K of ks: per K, in the order of ks,
    the result of each cloud in input order, or the FitError its fit_em
    would raise.

    Clouds are grouped by size, and each group is taken in chunks of at
    most BATCH_FITS clouds, in input order. A chunk's clouds are
    prepared once for all Ks (_prepared): one sort, floor and feature
    table per cloud, and either one seeding per restart to the largest
    K or, above SUBSAMPLE_ABOVE points, one fit of a subsample at every
    K, and their starts come back as one list per K. Each K runs one
    lockstep batch of the clouds whose start at K exists, on their rows
    of the chunk's tables, from start
    responsibilities built in the array the batch owns (_start): its
    fits start together and it runs until its last fit leaves (see the
    module docstring). Every fit is bit-identical to its fit_em. A K
    outside 1..N of some cloud raises ValueError before any fit starts;
    no Ks give no results.
    """
    clouds, ks = list(clouds), list(ks)
    if not ks:
        return []
    for cloud in clouds:
        for k in ks:
            _check_component_count(k, len(cloud))
    groups: dict[int, list[tuple[int, PointCloud]]] = {}
    for index, cloud in enumerate(clouds):
        groups.setdefault(len(cloud), []).append((index, cloud))
    results: list[list] = [[None] * len(clouds) for _ in ks]
    for group in groups.values():
        for start in range(0, len(group), BATCH_FITS):
            failed, starts, phi, eps, per_k = _prepared(
                group[start:start + BATCH_FITS], ks, config)
            for i, (k, begun) in enumerate(zip(ks, per_k)):
                done = failed + [(index, b) for (index, _), b in zip(starts, begun)
                                 if isinstance(b, FitError)]
                rows = np.array([row for row, b in enumerate(begun)
                                 if not isinstance(b, FitError)], dtype=np.intp)
                if len(rows):
                    tables = _take(phi, rows)
                    batch = _Lockstep([_Fit(*starts[row], []) for row in rows], tables,
                                      _take(eps, rows),
                                      _start(tables, [starts[row][1] for row in rows],
                                             [begun[row] for row in rows], k))
                    # only the batch holds its tables, and the last batch
                    # the chunk's: its fits leaving free them, as in a
                    # batch of one K; the batch has read K's starts
                    del tables
                    begun.clear()
                    if i == len(ks) - 1:
                        del phi
                    while batch.fits:
                        batch.cycle()
                    done += batch.done
                for index, result in done:
                    results[i][index] = result
    return results


def fit_em(cloud: PointCloud, k: int, config: FitConfig = FitConfig()) -> FitResult:
    """Fit a K-component mixture by SQUAREM-accelerated EM from the best
    k-means++ seeding: fit_em_candidates of one cloud at one K, whose
    FitError it raises.

    The points are sorted, then centred on their mean, and the feature
    table of the centred points and the covariance floor are computed
    once for the fit; the means are fitted in that frame and the centre
    is added back to the final means. Sorting comes first, so the centre
    and the fit do not depend on the input order. The start is the
    M-step on the one-hot partition by the codes that kmeans_init gives
    for K; a cloud with fewer than K distinct points fails there. Above
    SUBSAMPLE_ABOVE points it is the M-step on the E-step, on all the
    points, of the K-component fit_em of SUBSAMPLE_POINTS of the sorted
    points (see the module docstring), whose FitError fails the fit by
    name; only that subsample is seeded by kmeans_init.

    Each cycle takes two EM maps, theta0 -> theta1 -> theta2, and then
    the S3 SQUAREM step (see _extrapolate) with the step cap of the
    SQUAREM package (Du & Varadhan 2020): the cap starts at 1, grows
    STEP_GROWTH-fold after an accepted step at the cap and shrinks as
    much, not below 1, after a rejected one. When the step is longer
    than 1, one stabilising EM map is applied to the extrapolated state
    theta', and its result ends the cycle unless theta' is infeasible,
    or theta' or the stabilised state has a lower log-likelihood than
    theta2; then the cycle ends at theta2, whose responsibilities stay
    in place: theta' is evaluated in a fresh array, which the batch
    adopts whole when every fit's stabilised state wins, and no second
    buffer is kept.

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
    (result,), = fit_em_candidates([cloud], (k,), config)
    if isinstance(result, FitError):
        raise result
    return result
