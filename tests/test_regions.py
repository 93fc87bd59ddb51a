"""Region membership, nearest points, and the rate functional."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modev import DomainError, RegionSpec, rate_functional, rate_functional_grid_oracle


def test_rate_functional_closed_forms():
    assert rate_functional(RegionSpec("half_space", d=1, a=np.array([1.0]), c=1.0)) == 1.0
    assert rate_functional(RegionSpec("half_space", d=1, a=np.array([1.0]), c=-2.0)) == 0.0
    assert rate_functional(
        RegionSpec("half_space", d=2, a=np.array([1.0, 0.0]), c=2.0)
    ) == 4.0
    assert rate_functional(RegionSpec("complement_ball", d=2, r=1.5)) == 2.25
    assert rate_functional(RegionSpec("box", d=1, lo=np.array([2.0]), hi=np.array([5.0]))) == 4.0
    assert rate_functional(RegionSpec("box", d=1, lo=np.array([-1.0]), hi=np.array([5.0]))) == 0.0
    # origin interior to the removed box: exit through the closest face
    assert rate_functional(
        RegionSpec("complement_box", d=2, lo=np.array([-1.0, -3.0]), hi=np.array([2.0, 4.0]))
    ) == 1.0
    # origin already outside the closed box
    assert rate_functional(
        RegionSpec("complement_box", d=1, lo=np.array([1.0]), hi=np.array([2.0]))
    ) == 0.0


@pytest.mark.parametrize(
    "region",
    [
        RegionSpec("half_space", d=1, a=np.array([1.0]), c=1.0),
        RegionSpec("half_space", d=2, a=np.array([0.6, 0.8]), c=1.3),
        RegionSpec("complement_ball", d=1, r=0.7),
        RegionSpec("complement_ball", d=2, r=1.5),
        RegionSpec("box", d=1, lo=np.array([0.5]), hi=np.array([2.0])),
        RegionSpec("box", d=2, lo=np.array([0.5, -1.0]), hi=np.array([2.0, 1.0])),
        RegionSpec("complement_box", d=2, lo=np.array([-0.8, -0.6]), hi=np.array([1.2, 2.0])),
    ],
)
def test_rate_functional_matches_grid_oracle(region):
    exact = rate_functional(region)
    oracle = rate_functional_grid_oracle(region, half_width=4.0, step=0.002)
    assert exact == pytest.approx(oracle, abs=2e-2)


def test_membership_is_open():
    hs = RegionSpec("half_space", d=1, a=np.array([1.0]), c=1.0)
    assert not hs.contains(np.array([[1.0]]))[0]
    assert hs.contains(np.array([[1.0 + 1e-12]]))[0]
    ball = RegionSpec("complement_ball", d=2, r=1.0)
    assert not ball.contains(np.array([[1.0, 0.0]]))[0]
    assert ball.contains(np.array([[1.0 + 1e-9, 0.0]]))[0]
    box = RegionSpec("box", d=1, lo=np.array([0.0]), hi=np.array([1.0]))
    assert not box.contains(np.array([[0.0]]))[0]
    assert box.contains(np.array([[0.5]]))[0]
    cbox = RegionSpec("complement_box", d=1, lo=np.array([0.0]), hi=np.array([1.0]))
    assert not cbox.contains(np.array([[1.0]]))[0]  # boundary belongs to the closure
    assert cbox.contains(np.array([[1.0 + 1e-12]]))[0]


def test_membership_vectorized_shapes():
    ball = RegionSpec("complement_ball", d=2, r=1.0)
    pts = np.zeros((3, 4, 2))
    pts[1, 2] = [2.0, 0.0]
    mask = ball.contains(pts)
    assert mask.shape == (3, 4)
    assert mask[1, 2] and mask.sum() == 1
    # 1-d convenience: a flat vector of scalars
    hs = RegionSpec("half_space", d=1, a=np.array([1.0]), c=0.5)
    np.testing.assert_array_equal(hs.contains(np.array([0.0, 1.0])), [False, True])


def test_nearest_points():
    hs = RegionSpec("half_space", d=2, a=np.array([0.6, 0.8]), c=1.5)
    (p,) = hs.nearest_points()
    np.testing.assert_allclose(p, 1.5 * np.array([0.6, 0.8]))
    ball = RegionSpec("complement_ball", d=2, r=2.0)
    pts = ball.nearest_points()
    assert len(pts) == 4
    assert all(abs(np.linalg.norm(p) - 2.0) < 1e-12 for p in pts)
    box = RegionSpec("box", d=1, lo=np.array([1.0]), hi=np.array([3.0]))
    np.testing.assert_allclose(box.nearest_points()[0], [1.0])
    cbox = RegionSpec("complement_box", d=2, lo=np.array([-1.0, -3.0]), hi=np.array([2.0, 4.0]))
    (p,) = cbox.nearest_points()
    np.testing.assert_allclose(p, [-1.0, 0.0])


def test_complement_box_returns_every_nearest_face():
    # both ends of an axis, and faces of different axes, at the same distance
    sym = RegionSpec("complement_box", d=1, lo=np.array([-1.0]), hi=np.array([1.0]))
    assert sorted(float(p[0]) for p in sym.nearest_points()) == [-1.0, 1.0]
    square = RegionSpec("complement_box", d=2, lo=np.array([-1.0, -1.0]), hi=np.array([1.0, 3.0]))
    got = sorted(tuple(p) for p in square.nearest_points())
    assert got == [(-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)]
    for p in square.nearest_points():
        assert float(p @ p) == rate_functional(square)


@settings(max_examples=60, deadline=None)
@given(c=st.floats(-1.0, 3.0), x=st.floats(-4.0, 4.0))
def test_half_space_rate_is_attained(c, x):
    region = RegionSpec("half_space", d=1, a=np.array([1.0]), c=c)
    rate = rate_functional(region)
    if region.contains(np.array([[x]]))[0]:
        assert x * x >= rate - 1e-12


def test_region_validation():
    with pytest.raises(DomainError):
        RegionSpec("wedge", d=1)
    with pytest.raises(DomainError):
        RegionSpec("half_space", d=1, a=np.array([2.0]), c=0.0)  # not unit length
    with pytest.raises(DomainError):
        RegionSpec("half_space", d=2, a=np.array([1.0]), c=0.0)  # wrong dimension
    with pytest.raises(DomainError):
        RegionSpec("complement_ball", d=1, r=0.0)
    with pytest.raises(DomainError):
        RegionSpec("box", d=1, lo=np.array([1.0]), hi=np.array([1.0]))
    with pytest.raises(DomainError):
        RegionSpec("half_space", d=1, a=np.array([1.0]), c=0.0).contains(np.zeros((3, 2)))
