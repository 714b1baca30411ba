"""Shared fixtures and oracle-side helpers.

Oracle sampling goes through numpy's own generator, never through the
package's sampling stack, so the code under test is not used to
validate itself.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import settings

from gmmcloud import em
from gmmcloud.em import FitConfig, fit_em
from gmmcloud.geodesics import _check_shapes, _pencil
from gmmcloud.model import (
    LOG_TWO_PI,
    SYMMETRIC_ENTRIES,
    EnsembleMember,
    Gmm,
    GmmEnsemble,
    PointCloud,
    checked_spd,
    flat_mixture,
    floor_spd,
)
from gmmcloud.sampling import generate_point_cloud, rng_stream
from gmmcloud.shapes import make_bent_tube, tube_spec_for_class

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")

# When a property test fails, Hypothesis' pytest plugin imports this module
# to print a patch, and it imports libcst, which raises a DeprecationWarning
# from mypy_extensions on import. Under the suite's warnings-as-errors that
# ends the session in INTERNALERROR, and later tests never run. Import it
# once here with only DeprecationWarning ignored; without libcst there is
# nothing to import.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# Generating parameters for the two-component recovery benchmark.
RECOVERY_WEIGHTS = np.array([0.6, 0.4])
RECOVERY_MEANS = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
RECOVERY_COVS = np.array([np.eye(3), np.eye(3)])


def sample_mixture(rng, n, weights, means, covs):
    """Mixture samples drawn with a plain numpy generator."""
    weights = np.asarray(weights, dtype=float)
    means = np.asarray(means, dtype=float)
    covs = np.asarray(covs, dtype=float)
    idx = rng.choice(weights.size, size=n, p=weights / weights.sum())
    out = np.empty((n, 3))
    for j in range(weights.size):
        mask = idx == j
        if np.any(mask):
            out[mask] = rng.multivariate_normal(means[j], covs[j], size=int(mask.sum()))
    return out


def recovery_cloud(n=5000, seed=11):
    rng = np.random.default_rng(seed)
    return PointCloud(sample_mixture(rng, n, RECOVERY_WEIGHTS, RECOVERY_MEANS,
                                     RECOVERY_COVS))


def random_spd(rng, scale=1.0):
    a = rng.normal(size=(3, 3))
    return scale * (a @ a.T + 0.5 * np.eye(3))


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def near_singular_spd(rng):
    """A random rotation of the eigenvalues +-10^u (u uniform in -20..-13),
    1 and one uniform in 0.5..2, symmetrized: whether rounding leaves it
    positive definite is down to its last bits."""
    smallest = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-20.0, -13.0)
    rot = random_rotation(rng)
    mat = (rot * [smallest, 1.0, rng.uniform(0.5, 2.0)]) @ rot.T
    return 0.5 * (mat + mat.T)


def random_gmm(rng, k, spread=4.0, scale=1.0):
    w = rng.dirichlet(np.ones(k))
    # draw order per component: its mean, then its covariance
    means, covs = zip(*((rng.normal(scale=spread, size=3), random_spd(rng, scale))
                        for _ in range(k)))
    return Gmm(w, means, covs)


def unit_gmm(weights=(1.0,), means=((0.0, 0.0, 0.0),)):
    """Mixture of identity-covariance components."""
    return Gmm(weights, means, np.stack([np.eye(3)] * len(weights)))


GRID = 3.0


def grid_ensemble(member_weights, component_weights):
    """Ensemble whose member k puts its component j at (GRID j, GRID k, 0)
    with covariance 1e-6 I, so the (member, component) a draw came from
    can be read off its position."""
    return GmmEnsemble(tuple(
        EnsembleMember(p, Gmm(w, [[GRID * j, GRID * k, 0.0] for j in range(len(w))],
                              [1e-6 * np.eye(3)] * len(w)))
        for k, (p, w) in enumerate(zip(member_weights, component_weights))))


def drawn_indices(ensemble, n, seed):
    """(member, component) indices of n points that generate_point_cloud
    draws from a grid_ensemble on rng_stream(seed)."""
    pts = generate_point_cloud(ensemble, n, rng_stream(seed)).points
    return np.rint(pts[:, 1] / GRID).astype(int), np.rint(pts[:, 0] / GRID).astype(int)


def best_match(fitted_means, true_means):
    """Brute-force assignment of fitted components onto true components."""
    k = len(true_means)
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(k)):
        cost = sum(float(np.sum((fitted_means[p] - true_means[j]) ** 2))
                   for j, p in enumerate(perm))
        if cost < best_cost:
            best, best_cost = perm, cost
    return best


def mixture_moments(model):
    """Analytic mean and covariance of a mixture, or of an ensemble's flat
    mixture sum_k p_k f_k."""
    w, means, covs, _ = flat_mixture(model)
    mean = w @ means
    second = np.einsum("k,kij->ij", w, covs)
    second += np.einsum("k,ki,kj->ij", w, means, means)
    return mean, second - np.outer(mean, mean)


def sphere_distance(w1, w2):
    """Great-circle angle between two unit vectors."""
    return math.acos(float(np.clip(np.asarray(w1) @ np.asarray(w2), -1.0, 1.0)))


def spd_distance(s1, s2):
    """Affine-invariant distance ||log mu||, mu = sigma^2 the eigenvalues of
    S1^(-1) S2, from the geodesic's own pencil; between (K, 3, 3) stacks,
    the root of the summed squared slot distances. Both endpoints are
    validated as spd_geodesic validates them."""
    (s1, factor1), (s2, factor2) = checked_spd(s1), checked_spd(s2)
    _check_shapes(s1, s2)
    _, _, sigma = _pencil(factor1, factor2)
    return 2.0 * float(np.linalg.norm(np.log(sigma)))


def cloud_moments(points):
    pts = np.asarray(points, dtype=float)
    mean = pts.mean(axis=0)
    diff = pts - mean
    return mean, diff.T @ diff / pts.shape[0]


def assert_moments_close(points_a, points_b, rel=0.05):
    """Scale-relative moment comparison between two clouds.

    The mean offset is measured against the overall spread of the
    reference cloud, the covariance gap in relative Frobenius norm.
    """
    mean_a, cov_a = cloud_moments(points_a)
    mean_b, cov_b = cloud_moments(points_b)
    scale = float(np.sqrt(np.trace(cov_b)))
    mean_err = float(np.linalg.norm(mean_a - mean_b)) / scale
    cov_err = float(np.linalg.norm(cov_a - cov_b)) / float(np.linalg.norm(cov_b))
    assert mean_err < rel, f"mean offset {mean_err:.4f} of spread exceeds {rel}"
    assert cov_err < rel, f"covariance gap {cov_err:.4f} relative exceeds {rel}"


@pytest.fixture(scope="session")
def fitted_tube():
    """A bent tube and a 4-component fit of it, shared across tests."""
    cloud = make_bent_tube(tube_spec_for_class("nondemented", n_points=500), seed=3)
    result = fit_em(cloud, 4, FitConfig(seed=0))
    return cloud, result.model


# ------------------------------------------------- loop-form EM oracle
#
# The E- and M-steps one component at a time, as gmmcloud computed them
# before the moment-form core: (N, K) log-densities from each component's
# Cholesky factor, and each covariance from the weighted outer products
# of the points about its mean.


def loop_log_densities(points, weights, means, covariances):
    """(N, K) matrix of log w_j + log f_j(x_i); zero weights map to -inf."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    chol = np.linalg.cholesky(covariances)
    inv_chol = np.linalg.inv(chol)
    log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    cols = np.full((pts.shape[0], weights.shape[0]), -np.inf)
    for j in np.flatnonzero(weights > 0.0):
        y = (pts - means[j]) @ inv_chol[j].T
        cols[:, j] = (math.log(weights[j]) - 0.5 * (3.0 * LOG_TWO_PI + log_det[j])
                      - 0.5 * np.einsum("ij,ij->i", y, y))
    return cols


# A covariance's precision and log-determinant, computed in closed form
# (em._closed_form), by eigh (model.factor_precisions) or by LU
# (np.linalg.inv, slogdet), all lose digits in proportion to its
# condition number kappa: each agrees with the others within
# PRECISION_TOL * kappa, relative to the largest precision entry and
# absolutely on the log-determinant.
PRECISION_TOL = 256 * np.finfo(float).eps


# The rounding up to which the floor holds: a covariance S that an M-step
# floored at eps, or that passed its floor test, has its eigvalsh minimum
# at least eps - FLOOR_TEST_TOL * |S|_2.
FLOOR_TEST_TOL = 16 * np.finfo(float).eps


def assert_precisions_match(precision, log_det, covs):
    """precision (..., 6), in Phi's order (model.SYMMETRIC_ENTRIES), and
    log_det (...,) of the covariances (..., 3, 3) within PRECISION_TOL
    times each one's condition number of np.linalg.inv and slogdet."""
    lam = np.linalg.eigvalsh(covs)
    kappa = lam[..., -1] / lam[..., 0]
    inverse = np.linalg.inv(covs).reshape(covs.shape[:-2] + (9,))[..., SYMMETRIC_ENTRIES]
    sign, oracle = np.linalg.slogdet(covs)
    assert np.all(sign == 1.0)
    gap = np.abs(precision - inverse).max(axis=-1)
    assert np.all(gap <= PRECISION_TOL * kappa * np.abs(inverse).max(axis=-1))
    assert np.all(np.abs(log_det - oracle) <= PRECISION_TOL * kappa)


def loop_log_sum_exp_rows(matrix):
    peak = np.max(matrix, axis=1)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        return shift + np.log(np.sum(np.exp(matrix - shift[:, None]), axis=1))


def loop_m_step(pts, gamma, eps):
    """Weights, means and floored covariances from (N, K) responsibilities."""
    k = gamma.shape[1]
    mass = gamma.sum(axis=0)
    means = (gamma.T @ pts) / mass[:, None]
    covs = np.zeros((k, 3, 3))
    for j in range(k):
        diff = pts - means[j]
        covs[j] = (gamma[:, j] * diff.T) @ diff / mass[j]
    return mass / mass.sum(), means, floor_spd(0.5 * (covs + covs.swapaxes(1, 2)), eps)[0]


def counted_steps(monkeypatch):
    """Count, per fit, the E-steps, M-steps and SQUAREM candidates of the
    fits that follow (each call adds its batch size, so in a batch of one
    they count calls), and the E-step and M-step calls themselves."""
    counts = dict.fromkeys(("e", "m", "candidates", "e_calls", "m_calls"), 0)
    feature_log_densities, m_step_arrays, extrapolate = (
        em.feature_log_densities, em._m_step_arrays, em._extrapolate)

    def e_counted(phi, *args, **kwargs):
        counts["e"] += phi.shape[0]
        counts["e_calls"] += 1
        return feature_log_densities(phi, *args, **kwargs)

    def m_counted(phi, *args):
        counts["m"] += phi.shape[0]
        counts["m_calls"] += 1
        return m_step_arrays(phi, *args)

    def extrapolate_counted(*args):
        alpha, rows, parts = extrapolate(*args)
        counts["candidates"] += len(rows)
        return alpha, rows, parts

    monkeypatch.setattr(em, "feature_log_densities", e_counted)
    monkeypatch.setattr(em, "_m_step_arrays", m_counted)
    monkeypatch.setattr(em, "_extrapolate", extrapolate_counted)
    return counts


def loop_gamma(lwd, norm):
    dead = ~np.isfinite(norm)
    with np.errstate(invalid="ignore"):
        gamma = np.exp(lwd - norm[:, None])
    gamma[dead] = 1.0 / lwd.shape[1]
    return gamma


def loop_is_spd(covs):
    try:
        np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        return False
    return True


def loop_fit(pts, start, eps, rel_tolerance=em.REL_TOLERANCE):
    """EM by the loop-form steps from the start mixture's arrays, on
    fit_em's SQUAREM schedule, convergence rule and M-step cap; returns
    the trace of accepted log-likelihoods.

    Each cycle: two EM maps theta0 -> theta1 -> theta2, the step
    alpha = min(step_max, |r| / |v|), and for alpha > 1 one EM map from
    theta' = theta0 + 2 alpha r + alpha^2 v, kept only if theta' is
    feasible and neither it nor its image scores below theta2.
    """
    trace = []
    maps = 0

    def log_likelihood(params):
        return float(np.sum(loop_log_sum_exp_rows(loop_log_densities(pts, *params))))

    def em_map(params):
        nonlocal maps
        maps += 1
        lwd = loop_log_densities(pts, *params)
        new = loop_m_step(pts, loop_gamma(lwd, loop_log_sum_exp_rows(lwd)), eps)
        return new, log_likelihood(new)

    def stops():
        return (not math.isfinite(trace[-1]) or maps == em.MAX_ITERATIONS
                or (len(trace) >= 2
                    and abs(trace[-1] - trace[-2]) / (abs(trace[-1]) + 1.0) < rel_tolerance))

    theta, step_max = start, 1.0
    while True:
        theta1, ll1 = em_map(theta)
        trace.append(ll1)
        if stops():
            break
        theta2, ll2 = em_map(theta1)
        trace.append(ll2)
        if stops():
            break
        r = [b - a for a, b in zip(theta, theta1)]
        v = [c - 2.0 * b + a for a, b, c in zip(theta, theta1, theta2)]
        sv2 = sum(float(np.sum(x * x)) for x in v)
        ratio = math.sqrt(sum(float(np.sum(x * x)) for x in r) / sv2) if sv2 > 0 else math.inf
        alpha = min(step_max, ratio)
        accepted = alpha <= 1.0
        if not accepted:
            moved = tuple(a + 2.0 * alpha * x + alpha ** 2 * y for a, x, y in zip(theta, r, v))
            if (np.all(moved[0] >= 0.0) and loop_is_spd(moved[2])
                    and log_likelihood(moved) >= ll2):
                theta3, ll3 = em_map(moved)
                accepted = ll3 >= ll2
        if alpha == step_max:
            step_max = step_max * 4.0 if accepted else max(1.0, step_max / 4.0)
        if accepted and alpha > 1.0:
            theta = theta3
            trace.append(ll3)
        else:
            theta = theta2
        if stops():
            break
    return trace
