import numpy as np
import pytest

from wavelab.core import sine_profile, zero_function
from wavelab.oracle import (
    _fold, dalembert, dalembert_riemann, even_extension, modal_rate,
    odd_extension,
)


class TestFolding:
    def test_identity_on_unit_interval(self):
        y = np.array([0.0, 0.25, 1.0])
        m, s = _fold(y)
        np.testing.assert_array_equal(m, y)
        np.testing.assert_array_equal(s, np.ones(3))

    def test_reflection_and_sign(self):
        m, s = _fold(np.array([1.5]))
        assert m[0] == 0.5 and s[0] == -1.0

    def test_two_periodicity(self):
        y = np.linspace(-3, 3, 25)
        m1, s1 = _fold(y)
        m2, s2 = _fold(y + 2.0)
        np.testing.assert_allclose(m1, m2, atol=1e-14)
        np.testing.assert_array_equal(s1, s2)

    def test_dyadic_arguments_exact(self):
        # folding uses only mod-2 and 2 - y, both exact on dyadics
        y = np.array([0.375, 1.375, 2.375, -0.625])
        m, _ = _fold(y)
        np.testing.assert_array_equal(m, [0.375, 0.625, 0.375, 0.625])

    def test_extensions(self):
        f = lambda x: np.asarray(x) ** 2
        assert odd_extension(f, np.array(-0.5)) == pytest.approx(-0.25)
        assert even_extension(f, np.array(-0.5)) == pytest.approx(0.25)


class TestDalembert:
    def test_standing_wave(self):
        z0, z1 = sine_profile(1), zero_function()
        for t, x in [(0.3, 0.4), (1.7, 0.25), (4.1, 0.8)]:
            assert dalembert(z0.value, z1.value, t, x) == pytest.approx(
                np.cos(np.pi * t) * np.sin(np.pi * x), abs=1e-10)

    def test_velocity_data_mode(self):
        z0, z1 = zero_function(), sine_profile(1)
        for t, x in [(0.3, 0.4), (0.9, 0.6)]:
            assert dalembert(z0.value, z1.value, t, x) == pytest.approx(
                np.sin(np.pi * t) * np.sin(np.pi * x) / np.pi, abs=1e-9)

    def test_initial_condition_reproduced(self):
        z0, z1 = sine_profile(2, amplitude=0.7), zero_function()
        x = np.linspace(0, 1, 33)
        np.testing.assert_allclose(dalembert(z0.value, z1.value, 0.0, x),
                                   np.asarray(z0.value(x)), atol=1e-12)

    def test_two_periodic_in_time(self):
        z0, z1 = sine_profile(1), sine_profile(3, amplitude=0.2)
        x = np.linspace(0.1, 0.9, 9)
        a = dalembert(z0.value, z1.value, 0.8, x)
        b = dalembert(z0.value, z1.value, 2.8, x)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_riemann_consistent_with_zt(self):
        # (rho - xi)/2 is z_t of the d'Alembert solution: a centered time
        # difference of z reproduces it
        z0, z1 = sine_profile(1, amplitude=0.5), sine_profile(2, amplitude=0.3)
        x = np.linspace(0, 1, 17)
        rho, xi = dalembert_riemann(z0.deriv, z1.value, 0.6, x)
        h = 1e-4
        z_t = (dalembert(z0.value, z1.value, 0.6 + h, x)
               - dalembert(z0.value, z1.value, 0.6 - h, x)) / (2 * h)
        np.testing.assert_allclose(z_t, 0.5 * (rho - xi), atol=1e-6)

    def test_riemann_initial_values(self):
        z0, z1 = sine_profile(1), sine_profile(2, amplitude=0.4)
        x = np.linspace(0, 1, 33)
        rho, xi = dalembert_riemann(z0.deriv, z1.value, 0.0, x)
        np.testing.assert_allclose(rho, np.asarray(z0.deriv(x)) + np.asarray(z1.value(x)),
                                   atol=1e-14)
        np.testing.assert_allclose(xi, np.asarray(z0.deriv(x)) - np.asarray(z1.value(x)),
                                   atol=1e-14)


class TestModalRate:
    def test_underdamped_rate_is_a0(self):
        lp, lm, rate = modal_rate(0.5, 1)
        assert lp.imag != 0.0  # genuinely oscillatory
        assert rate == pytest.approx(0.5, rel=1e-14)

    def test_overdamped_frozen_value(self):
        _, _, rate = modal_rate(10.0, 1)
        assert rate == pytest.approx(2.22043816171871, rel=1e-12)

    def test_roots_solve_characteristic_polynomial(self):
        for a0, k in [(0.5, 1), (10.0, 1), (3.0, 2)]:
            lp, lm, _ = modal_rate(a0, k)
            for lam in (lp, lm):
                resid = lam * lam + a0 * lam + (k * np.pi) ** 2
                assert abs(resid) <= 1e-9

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            modal_rate(1.0, 0)
