"""Open target regions Omega in standardized estimator coordinates.

A region enters twice: membership tests on standardized deviations
W = I(theta0)^{1/2} (estimate - theta_gen) / u_n, and the closed-form rate
functional inf_{x in Omega} |x|^2 that the measured normalized log-rates
are compared against.  Supported shapes keep both operations exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class RegionSpec:
    """One of: half_space(a, c), complement_ball(r), box(lo, hi), complement_box(lo, hi).

    half_space is {x : a.x > c} with |a| = 1; complement_ball is {x : |x| > r};
    box is the open box; complement_box its open exterior.
    """

    shape: str
    d: int = 1
    a: Optional[np.ndarray] = None
    c: float = 0.0
    r: float = 0.0
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.shape not in ("half_space", "complement_ball", "box", "complement_box"):
            raise DomainError(f"unknown region shape {self.shape!r}")
        if self.shape == "half_space":
            a = np.atleast_1d(np.asarray(self.a, dtype=float))
            if a.size != self.d:
                raise DomainError("half_space direction has wrong dimension")
            if abs(np.linalg.norm(a) - 1.0) > 1e-12:
                raise DomainError("half_space direction must be a unit vector")
            object.__setattr__(self, "a", a)
        elif self.shape == "complement_ball":
            if not self.r > 0:
                raise DomainError("complement_ball needs r > 0")
        else:
            lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
            hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
            if lo.size != self.d or hi.size != self.d or np.any(lo >= hi):
                raise DomainError("box region needs lo < hi of dimension d")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)

    # -- membership ---------------------------------------------------------
    def contains(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership for points shaped (..., d). Open everywhere."""
        p = np.asarray(points, dtype=float)
        if p.ndim == 1 and self.d == 1:
            p = p[:, None]
        if p.shape[-1] != self.d:
            raise DomainError("points have wrong dimension")
        if self.shape == "half_space":
            return p @ self.a > self.c
        if self.shape == "complement_ball":
            return np.einsum("...i,...i->...", p, p) > self.r**2
        inside = np.all(p > self.lo, axis=-1) & np.all(p < self.hi, axis=-1)
        if self.shape == "box":
            return inside
        return ~(np.all(p >= self.lo, axis=-1) & np.all(p <= self.hi, axis=-1))

    # -- geometry -----------------------------------------------------------
    def nearest_points(self) -> list[np.ndarray]:
        """Points of the closure nearest to the origin (tilt anchors).

        half_space and box have a unique nearest point; complement_ball and
        complement_box can have several symmetric ones, all returned so tilted
        sampling can mix over them.
        """
        if self.shape == "half_space":
            return [max(self.c, 0.0) * self.a]
        if self.shape == "complement_ball":
            pts = []
            for i in range(self.d):
                e = np.zeros(self.d)
                e[i] = self.r
                pts.append(e.copy())
                pts.append(-e)
            return pts
        if self.shape == "box":
            return [np.clip(np.zeros(self.d), self.lo, self.hi)]
        # complement_box: if the origin is outside the closed box it is its own
        # nearest point; otherwise exit through the closest face.
        origin = np.zeros(self.d)
        if np.any(origin < self.lo) or np.any(origin > self.hi):
            return [origin]
        # every face as near as the nearest one, across both ends and all
        # axes: one tilt per face, or the other faces' share of the event
        # goes unsampled
        faces = np.concatenate((self.lo, self.hi))
        gaps = np.abs(faces)
        pts = []
        for k in np.flatnonzero(gaps <= gaps.min() * (1.0 + 1e-12)):
            e = np.zeros(self.d)
            e[k % self.d] = faces[k]
            pts.append(e)
        return pts


def rate_functional(region: RegionSpec) -> float:
    """inf over the region of |x|^2, in closed form."""
    if region.shape == "half_space":
        return max(region.c, 0.0) ** 2
    if region.shape == "complement_ball":
        return region.r**2
    if region.shape == "box":
        dist = np.where(region.lo > 0, region.lo, np.where(region.hi < 0, -region.hi, 0.0))
        return float(np.sum(dist**2))
    # complement_box: zero unless the origin is interior to the closed box,
    # in which case the nearest exit is through the closest face.
    if np.any(np.zeros(region.d) <= region.lo) or np.any(np.zeros(region.d) >= region.hi):
        return 0.0
    gaps = np.minimum(-region.lo, region.hi)
    return float(np.min(gaps) ** 2)


def rate_functional_grid_oracle(region: RegionSpec, half_width: float = 5.0, step: float = 1e-3) -> float:
    """Brute-force grid search for inf |x|^2; test oracle for rate_functional."""
    axes = [np.arange(-half_width, half_width + step, step) for _ in range(region.d)]
    if region.d == 1:
        pts = axes[0][:, None]
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
    mask = region.contains(pts)
    if not np.any(mask):
        return float("inf")
    sq = np.einsum("ij,ij->i", pts, pts)
    return float(np.min(sq[mask]))
