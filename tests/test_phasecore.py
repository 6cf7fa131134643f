import math

import numpy as np
import pytest

from scfqkd.phasecore import PortIntensities, binary_entropy, interfere, minor_angle


def test_minor_angle_known_values():
    assert minor_angle(0.0) == 0.0
    assert minor_angle(math.pi) == pytest.approx(math.pi)
    assert minor_angle(2 * math.pi + 0.3) == pytest.approx(0.3)
    assert minor_angle(-15 * math.pi / 8) == pytest.approx(math.pi / 8)
    assert minor_angle(3 * math.pi) == pytest.approx(math.pi)


def test_minor_angle_periodicity_and_symmetry():
    rng = np.random.default_rng(7)
    x = rng.uniform(-50, 50, size=500)
    base = minor_angle(x)
    assert np.all(base >= 0)
    assert np.all(base <= math.pi + 1e-12)
    for k in (-3, -1, 1, 4):
        np.testing.assert_allclose(minor_angle(x + 2 * math.pi * k), base, atol=1e-9)
    np.testing.assert_allclose(minor_angle(-x), base, atol=1e-12)


def test_minor_angle_scalar_matches_array():
    xs = [-9.7, -0.2, 0.0, 1.0, 3.3, 12.9]
    arr = minor_angle(np.array(xs))
    for x, a in zip(xs, arr):
        assert minor_angle(x) == pytest.approx(a, abs=1e-12)


def test_minor_angle_rejects_non_finite():
    with pytest.raises(ValueError):
        minor_angle(float("nan"))
    with pytest.raises(ValueError):
        minor_angle(np.array([0.0, np.inf]))


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)


def test_binary_entropy_known_value():
    # direct formula at x = 0.0213
    x = 0.0213
    expect = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    assert binary_entropy(x) == pytest.approx(expect, rel=1e-12)
    assert binary_entropy(x) == pytest.approx(0.1487, abs=1e-4)


def test_binary_entropy_symmetry_and_bounds():
    rng = np.random.default_rng(11)
    for x in rng.uniform(0, 1, size=200):
        h = binary_entropy(x)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1 - x), rel=1e-12, abs=1e-15)


def test_binary_entropy_monotone_below_half():
    xs = np.linspace(1e-6, 0.5, 300)
    hs = [binary_entropy(x) for x in xs]
    assert all(b > a for a, b in zip(hs, hs[1:]))


def test_binary_entropy_domain():
    for bad in (-0.01, 1.01, float("nan")):
        with pytest.raises(ValueError):
            binary_entropy(bad)


def test_interfere_constructive_destructive():
    out = interfere(1.0, 1.0, 0.0)
    assert out.left == pytest.approx(2.0)
    assert out.right == pytest.approx(0.0, abs=1e-15)
    out = interfere(1.0, 1.0, math.pi)
    assert out.left == pytest.approx(0.0, abs=1e-15)
    assert out.right == pytest.approx(2.0)


def test_interfere_single_input_splits_evenly():
    for delta in (0.0, 0.4, math.pi, 5.1):
        out = interfere(1.0, 0.0, delta)
        assert out.left == pytest.approx(0.5)
        assert out.right == pytest.approx(0.5)


def test_interfere_energy_conservation():
    """left + right must equal the input power for any visibility and phase."""
    rng = np.random.default_rng(3)
    for _ in range(300):
        a, b = rng.uniform(0, 2, size=2)
        delta = rng.uniform(-10, 10)
        vis = rng.uniform(0, 1)
        out = interfere(a, b, delta, visibility=vis)
        assert out.left >= 0
        assert out.right >= 0
        assert out.total == pytest.approx(a + b, rel=1e-12, abs=1e-15)
        assert out.left - out.right == pytest.approx(
            2 * math.sqrt(a * b) * vis * math.cos(delta), abs=1e-12
        )


def test_interfere_zero_visibility_splits_evenly():
    out = interfere(0.8, 0.3, 1.234, visibility=0.0)
    assert out.left == pytest.approx(0.55)
    assert out.right == pytest.approx(0.55)


def test_interfere_array_broadcast():
    deltas = np.linspace(0, 2 * math.pi, 17)
    out = interfere(0.5, 0.5, deltas)
    np.testing.assert_allclose(np.asarray(out.left) + np.asarray(out.right), 1.0)
    # scalar call returns plain floats
    scalar = interfere(0.5, 0.5, float(deltas[3]))
    assert isinstance(scalar.left, float)
    assert scalar.left == pytest.approx(out.left[3])


def test_interfere_validation():
    with pytest.raises(ValueError):
        interfere(-1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        interfere(1.0, 0.5, 0.0, visibility=1.5)
    with pytest.raises(ValueError):
        interfere(1.0, float("inf"), 0.0)


def test_port_intensities_total():
    p = PortIntensities(0.25, 0.5)
    assert p.total == pytest.approx(0.75)


def test_interfere_per_row_visibility():
    a, b, phase = np.array([[0.8], [0.3]]), np.array([[0.2], [0.3]]), np.array([0.0, 1.0, 2.5])
    vis = np.array([[0.9], [0.4]])
    out = interfere(a, b, phase, visibility=vis)
    for i in range(2):
        row = interfere(a[i], b[i], phase, visibility=float(vis[i, 0]))
        assert np.array_equal(out.left[i], row.left)
        assert np.array_equal(out.right[i], row.right)
    for bad in (np.array([[0.5], [math.nan]]), np.array([1.0, 1.5]), np.array(-0.2)):
        with pytest.raises(ValueError, match=r"visibility must lie in \[0, 1\], got"):
            interfere(1.0, 0.5, 0.0, visibility=bad)
