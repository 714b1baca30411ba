"""Shared fixtures and oracle-side helpers.

Oracle sampling goes through numpy's own generator, never through the
package's sampling stack, so the code under test is not used to
validate itself.
"""

import itertools

import numpy as np
import pytest
from hypothesis import settings

from gmmcloud.em import FitConfig, fit_em
from gmmcloud.model import Gmm, PointCloud
from gmmcloud.shapes import make_bent_tube, tube_spec_for_class

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")

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


def random_gmm(rng, k, spread=4.0, scale=1.0):
    w = rng.dirichlet(np.ones(k))
    # draw order per component: its mean, then its covariance
    means, covs = zip(*((rng.normal(scale=spread, size=3), random_spd(rng, scale))
                        for _ in range(k)))
    return Gmm(w, means, covs)


def unit_gmm(weights=(1.0,), means=((0.0, 0.0, 0.0),)):
    """Mixture of identity-covariance components."""
    return Gmm(weights, means, np.stack([np.eye(3)] * len(weights)))


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
