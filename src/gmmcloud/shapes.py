"""Synthetic bent-tube point clouds for the two-class benchmark.

A tube is a circular arc of given radius and bend angle, thickened by a
uniform disk offset in the plane normal to the arc and blurred with
isotropic Gaussian jitter. The two stock classes differ in bend angle
and tube thickness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PointCloud, checked_array
from .sampling import checked_integer, checked_real, rng_stream

DEMENTED = "demented"
NONDEMENTED = "nondemented"

# points per stock cloud, for tube_spec_for_class and the pipeline's ExperimentConfig
STOCK_N_POINTS = 600

CLASS_PARAMETERS = {
    NONDEMENTED: dict(arc_radius=10.0, bend_angle=0.8 * math.pi, tube_radius=1.0,
                      noise_sigma=0.15),
    DEMENTED: dict(arc_radius=10.0, bend_angle=0.6 * math.pi, tube_radius=1.3,
                   noise_sigma=0.15),
}


@dataclass(frozen=True)
class TubeSpec:
    arc_radius: float
    bend_angle: float
    tube_radius: float
    noise_sigma: float
    n_points: int
    class_label: str | None = None

    def __post_init__(self):
        for name in ("arc_radius", "bend_angle", "tube_radius"):
            checked_real(name, getattr(self, name))
        checked_real("noise_sigma", self.noise_sigma, 0.0)
        if not self.arc_radius > 0.0:
            raise ValueError(f"arc_radius must be > 0, got {self.arc_radius}")
        if not 0.0 < self.bend_angle <= 2.0 * math.pi:
            raise ValueError(f"bend_angle must lie in (0, 2pi], got {self.bend_angle}")
        if not 0.0 <= self.tube_radius < self.arc_radius:
            raise ValueError(
                f"tube_radius must satisfy 0 <= r < arc_radius, got {self.tube_radius}")
        checked_integer("n_points", self.n_points, 1)


def tube_spec_for_class(label: str, n_points: int = STOCK_N_POINTS) -> TubeSpec:
    """Stock parameters for the two benchmark classes."""
    if label not in CLASS_PARAMETERS:
        raise ValueError(f"unknown class {label!r}, expected one of {sorted(CLASS_PARAMETERS)}")
    return TubeSpec(n_points=n_points, class_label=label, **CLASS_PARAMETERS[label])


def make_bent_tube(spec: TubeSpec, seed: int) -> PointCloud:
    """Sample a bent tube: arc position, disk offset, Gaussian jitter.

    The arc lies in the z = 0 plane, centered on the angle bisector, so
    clouds with the same arc radius share a canonical pose.
    """
    rng = rng_stream(seed)
    n = spec.n_points
    phi = (rng.random(n) - 0.5) * spec.bend_angle
    radial = np.column_stack([np.cos(phi), np.sin(phi), np.zeros(n)])
    arc = spec.arc_radius * radial
    # uniform draw over the disk in the (radial, z) plane normal to the arc
    r = spec.tube_radius * np.sqrt(rng.random(n))
    psi = 2.0 * math.pi * rng.random(n)
    offset = (r * np.cos(psi))[:, None] * radial
    offset[:, 2] += r * np.sin(psi)
    jitter = spec.noise_sigma * rng.standard_normal((n, 3))
    return PointCloud(arc + offset + jitter, label=spec.class_label)


def add_outliers(cloud: PointCloud, fraction: float, bounds: np.ndarray,
                 seed: int) -> PointCloud:
    """Replace floor(fraction * N) random points with uniform box draws."""
    fraction = checked_real("outlier fraction", fraction, 0.0)
    if fraction >= 1.0:
        raise ValueError(f"outlier fraction must lie in [0, 1), got {fraction}")
    box = checked_array("bounds", bounds, (2, 3), "(2, 3) lo/hi rows")
    if np.any(box[1] < box[0]):
        raise ValueError("bounds must be (2, 3) lo/hi rows with lo <= hi")
    n = len(cloud)
    count = int(fraction * n)
    rng = rng_stream(seed)
    replace = rng.choice(n, size=count, replace=False)
    pts = cloud.points.copy()
    pts[replace] = box[0] + rng.random((count, 3)) * (box[1] - box[0])
    return PointCloud(pts, label=cloud.label)
