import numpy as np
import pytest

from wavelab.core import (
    bump_profile, cumulative_trapezoid, sine_profile, zero_function,
)
from wavelab.oracle import _fold, dalembert_riemann, modal_rate


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
        # the odd and the even extension of f at -0.5, by the fold and in
        # d'Alembert's formula at t = 0: rho = z0' + z1, xi = z0' - z1
        f = lambda x: np.asarray(x) ** 2
        zero = lambda x: np.zeros_like(np.asarray(x))
        m, s = _fold(np.array(-0.5))
        assert s * f(m) == pytest.approx(-0.25)
        assert f(m) == pytest.approx(0.25)
        assert dalembert_riemann(zero, f, 0.0, np.array(-0.5)) == pytest.approx((-0.25, 0.25))
        assert dalembert_riemann(f, zero, 0.0, np.array(-0.5)) == pytest.approx((0.25, 0.25))


class TestDalembert:
    def test_standing_wave(self):
        # z = cos(pi t) sin(pi x): rho = z_x + z_t, xi = z_x - z_t
        z0, z1 = sine_profile(1), zero_function()
        for t, x in [(0.3, 0.4), (1.7, 0.25), (4.1, 0.8)]:
            z_x = np.pi * np.cos(np.pi * t) * np.cos(np.pi * x)
            z_t = -np.pi * np.sin(np.pi * t) * np.sin(np.pi * x)
            rho, xi = dalembert_riemann(z0.deriv, z1.value, t, x)
            assert rho == pytest.approx(z_x + z_t, abs=1e-12)
            assert xi == pytest.approx(z_x - z_t, abs=1e-12)

    def test_velocity_data_mode(self):
        # z = sin(pi t) sin(pi x) / pi from velocity data alone
        z0, z1 = zero_function(), sine_profile(1)
        for t, x in [(0.3, 0.4), (0.9, 0.6)]:
            z_x = np.sin(np.pi * t) * np.cos(np.pi * x)
            z_t = np.cos(np.pi * t) * np.sin(np.pi * x)
            rho, xi = dalembert_riemann(z0.deriv, z1.value, t, x)
            assert rho == pytest.approx(z_x + z_t, abs=1e-12)
            assert xi == pytest.approx(z_x - z_t, abs=1e-12)

    def test_initial_condition_reproduced(self):
        # at t = 0 the invariants give back z1 = z_t and, integrated in x,
        # the displacement z0 (to the trapezoid rule's error)
        z0, z1 = bump_profile(0.4, 0.1, amplitude=0.7), sine_profile(3, amplitude=0.2)
        x = np.linspace(0, 1, 2049)
        rho, xi = dalembert_riemann(z0.deriv, z1.value, 0.0, x)
        np.testing.assert_allclose(0.5 * (rho - xi), np.asarray(z1.value(x)),
                                   atol=1e-14)
        z = cumulative_trapezoid(0.5 * (rho + xi), x[1] - x[0])
        np.testing.assert_allclose(z, np.asarray(z0.value(x)), atol=1e-5)

    def test_two_periodic_in_time(self):
        z0, z1 = sine_profile(1), sine_profile(3, amplitude=0.2)
        x = np.linspace(0.1, 0.9, 9)
        a = dalembert_riemann(z0.deriv, z1.value, 0.8, x)
        b = dalembert_riemann(z0.deriv, z1.value, 2.8, x)
        np.testing.assert_allclose(a, b, atol=1e-13)

    def test_riemann_consistent_with_zt(self):
        # z0 = A sin(pi x), z1 = B sin(2 pi x) is the standing wave
        # z = A cos(pi t) sin(pi x) + B sin(2 pi t) sin(2 pi x) / (2 pi); its
        # closed-form z_x and z_t give rho = z_x + z_t and xi = z_x - z_t
        a, b = 0.5, 0.3
        z0, z1 = sine_profile(1, amplitude=a), sine_profile(2, amplitude=b)
        x = np.linspace(0, 1, 17)
        for t in (0.0, 0.3, 0.6, 1.7, 2.45, 5.1):
            z_x = (a * np.pi * np.cos(np.pi * t) * np.cos(np.pi * x)
                   + b * np.sin(2 * np.pi * t) * np.cos(2 * np.pi * x))
            z_t = (-a * np.pi * np.sin(np.pi * t) * np.sin(np.pi * x)
                   + b * np.cos(2 * np.pi * t) * np.sin(2 * np.pi * x))
            rho, xi = dalembert_riemann(z0.deriv, z1.value, t, x)
            np.testing.assert_allclose(rho, z_x + z_t, rtol=0, atol=1e-13)
            np.testing.assert_allclose(xi, z_x - z_t, rtol=0, atol=1e-13)

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

    @pytest.mark.parametrize("a0", [1e155, 1e200])
    def test_large_a0_gives_a_finite_rate(self, a0):
        # a0 * a0 overflows here; the slow root is about -(k pi)^2 / a0
        lp, lm, rate = modal_rate(a0, 1)
        assert all(np.isfinite(v) for v in (lp.real, lm.real, rate))
        assert rate == pytest.approx(2.0 * np.pi ** 2 / a0, rel=1e-14)

    @pytest.mark.parametrize("a0", [1e3, 1e200])
    def test_real_roots_solve_characteristic_polynomial_to_roundoff(self, a0):
        # lam (lam + a0) + (k pi)^2 does not overflow; the residual is taken
        # relative to a0 |lam|, the size of the terms that cancel in it
        for k in (1, 3):
            for lam in modal_rate(a0, k)[:2]:
                assert lam.imag == 0.0
                resid = lam.real * (lam.real + a0) + (k * np.pi) ** 2
                assert abs(resid) / a0 / abs(lam.real) <= 1e-14

    @pytest.mark.parametrize("k", [3 * 10 ** 153, 4 * 10 ** 153])
    def test_mode_whose_four_w2_overflows_has_a_finite_frequency(self, k):
        # (k pi)^2 is finite but 4 (k pi)^2 is not: the imaginary part is
        # still about k pi, and the rate a0
        assert np.isfinite((k * np.pi) ** 2) and not np.isfinite(4.0 * (k * np.pi) ** 2)
        lp, lm, rate = modal_rate(0.5, k)
        assert lp.imag == pytest.approx(k * np.pi, rel=1e-15)
        assert lm == lp.conjugate() and lp.real == -0.25
        assert rate == 0.5

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            modal_rate(1.0, 0)

    @pytest.mark.parametrize("zeros", [160, 400])
    def test_mode_past_the_float_range_rejected(self, zeros):
        # (k pi)^2 overflows at 10^160, and k pi itself at 10^400
        k = 10 ** zeros
        with pytest.raises(ValueError, match=r"\(k pi\)\^2 is not a finite float$"):
            modal_rate(1.0, k)
        _, _, rate = modal_rate(1.0, 10 ** 150)
        assert rate == 1.0
