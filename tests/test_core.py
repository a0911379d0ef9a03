import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavelab.core import (
    Grid, HypothesisViolation, NONLINEARITIES, arctan_damping, bump_profile,
    constant_profile, cubic_damping, cumulative_trapezoid, identity_damping,
    indicator_profile, make_localization, nonmonotone_example, nu_ratio, regime,
    saturating_damping, signed_power, sine_profile, smooth_indicator_profile,
    zero_function,
)
from wavelab.solver import InitialData

finite_floats = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)


class TestGrid:
    def test_basic_geometry(self):
        g = Grid(8)
        assert g.dx == pytest.approx(0.125)
        assert len(g.nodes) == 9
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            Grid(2)


class TestSignedPower:
    def test_frozen_values(self):
        np.testing.assert_allclose(
            signed_power(np.array([-2.0, 0.0, 3.0]), 2.0), [-4.0, 0.0, 9.0])

    def test_p_one_is_sign(self):
        # exponent 0 with the sgn(0) = 0 selection
        out = signed_power(np.array([-0.5, 0.0, 2.0]), 0.0)
        np.testing.assert_allclose(out, [-1.0, 0.0, 1.0])

    @given(x=finite_floats, r=st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=50)
    def test_odd_symmetry(self, x, r):
        a = float(signed_power(np.array(x), r))
        b = float(signed_power(np.array(-x), r))
        assert a == pytest.approx(-b, abs=1e-12)


REGIME_PS = [1.01, 1.5, 2.0, 4.0]


class TestRegime:
    def test_frozen_value_at_one(self):
        f, _, big_f = regime(1.5)
        assert float(f(np.array(1.0))) == pytest.approx(0.41421356237309515, rel=1e-14)
        assert float(big_f(np.array(1.0))) == pytest.approx(0.2189514164974602, rel=1e-13)

    @pytest.mark.parametrize("p", REGIME_PS)
    def test_vanishes_at_zero(self, p):
        f, _, big_f = regime(p)
        assert float(f(np.array(0.0))) == 0.0 and float(big_f(np.array(0.0))) == 0.0

    @pytest.mark.parametrize("p", REGIME_PS)
    @given(y=finite_floats)
    @settings(max_examples=50)
    def test_derivative_consistency(self, p, y):
        # F' = f and f' the derivative of f, checked by central differences
        f, fprime, big_f = regime(p)
        h = 1e-6
        up, down = np.array(y + h), np.array(y - h)
        assert (float(big_f(up)) - float(big_f(down))) / (2 * h) == pytest.approx(
            float(f(np.array(y))), abs=1e-6, rel=1e-6)
        assert (float(f(up)) - float(f(down))) / (2 * h) == pytest.approx(
            float(fprime(np.array(y))), abs=1e-6, rel=1e-6)

    @pytest.mark.parametrize("p", REGIME_PS)
    def test_prime_nonnegative_and_integrand_convex(self, p):
        _, fprime, big_f = regime(p)
        slopes = fprime(np.linspace(-10, 10, 101))
        assert np.all(slopes >= 0) and (p >= 2.0 or np.all(slopes > 0))
        assert np.all(np.diff(big_f(np.linspace(-5.0, 5.0, 501)), 2) >= -1e-12)

    @pytest.mark.parametrize("p", [1.01, 1.25, 1.5, 1.75])
    def test_halves_equal_the_surrogate(self, p):
        y = np.random.default_rng(2).normal(scale=3.0, size=257)
        ay = np.abs(y)
        f, fprime, big_f = regime(p)
        assert f(y).tobytes() == (np.sign(y) * ((ay + 1.0) ** (p - 1.0) - 1.0)).tobytes()
        assert fprime(y).tobytes() == ((p - 1.0) * (ay + 1.0) ** (p - 2.0)).tobytes()
        assert big_f(y).tobytes() == (((ay + 1.0) ** p - 1.0) / p - ay).tobytes()

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_power_pair_from_two_on(self, p):
        y = np.random.default_rng(3).normal(scale=3.0, size=257)
        f, fprime, big_f = regime(p)
        assert f(y).tobytes() == signed_power(y, p - 1.0).tobytes()
        assert fprime(y).tobytes() == ((p - 1.0) * np.abs(y) ** (p - 2.0)).tobytes()
        assert big_f(y).tobytes() == (np.abs(y) ** p / p).tobytes()

    @pytest.mark.parametrize("p", [1.0, 0.5, -2.0, float("nan")])
    def test_needs_p_above_one(self, p):
        with pytest.raises(ValueError, match="p > 1"):
            regime(p)


class TestNonlinearities:
    @pytest.mark.parametrize("name", ["identity", "arctan", "cubic", "saturating"])
    def test_shipped_pass_lattice(self, name):
        NONLINEARITIES[name]().validate()

    def test_nonmonotone_rejected(self):
        with pytest.raises(HypothesisViolation):
            nonmonotone_example().validate()

    def test_nu_ratio_arctan(self):
        g = arctan_damping()
        assert nu_ratio(1.0, g) == pytest.approx(np.pi / 4, rel=1e-14)
        # continuation by g'(0) at the origin
        assert nu_ratio(0.0, g) == pytest.approx(1.0)

    def test_nu_sandwich(self):
        # nu(x) between g'(|M|)-type lower and g'(0) upper bound on [-M, M]
        g = arctan_damping()
        m = 2.0
        x = np.linspace(-m, m, 401)
        nu = nu_ratio(x, g)
        assert np.all(nu <= 1.0 + 1e-15)
        assert np.all(nu >= np.arctan(m) / m - 1e-15)

    def test_linear_slope_marker(self):
        assert identity_damping().linear_slope == 1.0
        assert cubic_damping().linear_slope is None
        assert saturating_damping().linear_slope is None


#: g and g' of the shipped nonlinearities as written with Python-float
#: constants, before the step path's 0-d array constants
PYTHON_FLOAT_FORMS = {
    "identity": (lambda s: s, lambda s: np.ones_like(np.asarray(s, dtype=float))),
    "arctan": (np.arctan, lambda s: 1.0 / (1.0 + np.square(s))),
    "cubic": (lambda s: s + s * s * s, lambda s: 1.0 + 3.0 * np.square(s)),
    "saturating": (lambda s: s / (1.0 + np.abs(s)), lambda s: 1.0 / (1.0 + np.abs(s)) ** 2),
}
#: signed zeros, subnormals, the ends of the normal range, +-1e150 (the
#: cubic overflows), infinities and NaN
G_LATTICE = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-8, -0.5, 1.0,
                      -3.0, 7.25, 1e150, -1e150, 1.7e308, np.inf, -np.inf, np.nan])


def _assert_same_bits(got, ref):
    assert type(got) is type(ref)
    assert np.shape(got) == np.shape(ref)
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("name", sorted(PYTHON_FLOAT_FORMS))
def test_shipped_g_equal_their_python_float_forms(name):
    g = NONLINEARITIES[name]()
    with np.errstate(all="ignore"):
        for new, old in zip((g.value, g.derivative), PYTHON_FLOAT_FORMS[name]):
            for s in (G_LATTICE, G_LATTICE.reshape(1, -1).repeat(3, axis=0) * [[1.0], [-2.0], [0.5]],
                      *map(np.array, G_LATTICE)):  # 1-d, (B, m) and 0-d
                _assert_same_bits(new(s), old(s))
            # Nonlinearity.validate and nu_ratio evaluate np.array(0.0) and Python floats
            for s in (np.array(0.0), 0.0, -0.0, 0.75, -2.0):
                _assert_same_bits(new(s), old(s))


def _nu_reference(x, g):
    """nu_ratio as a gather of the nonzero nodes and a scatter of g(x)/x."""
    out = np.full(x.shape, float(g.derivative(np.array(0.0))))
    nz = x != 0.0
    out[nz] = g.value(x[nz]) / x[nz]
    return out


@pytest.mark.parametrize("name", sorted(PYTHON_FLOAT_FORMS))
def test_nu_ratio_is_the_gather_of_the_nonzero_nodes(name):
    # one masked divide, bit for bit, on a record block with signed zeros;
    # a 0-d x gives a float
    g = NONLINEARITIES[name]()
    rng = np.random.default_rng(31)
    x = rng.normal(size=(31, 513)) * rng.choice([1e-8, 1.0, 50.0], size=(31, 1))
    x[rng.random(x.shape) < 0.2] = 0.0
    x[rng.random(x.shape) < 0.1] = -0.0
    _assert_same_bits(nu_ratio(x, g), _nu_reference(x, g))
    for v in (0.0, -0.0, 1e-300, 0.3, -7.25):
        _assert_same_bits(nu_ratio(v, g), float(_nu_reference(np.array([v]), g)[0]))


class TestDampingProfiles:
    def test_indicator_values(self):
        a = indicator_profile(0.7, 1.0, 2.0)
        x = np.array([0.0, 0.69, 0.71, 1.0])
        np.testing.assert_allclose(a.value(x), [0.0, 0.0, 2.0, 2.0])

    def test_smooth_indicator_ramp(self):
        a = smooth_indicator_profile(0.7, 1.0, 2.0, 0.05)
        x = np.linspace(0, 1, 2001)
        v = np.asarray(a.value(x))
        assert v.min() >= 0.0 and v.max() == pytest.approx(2.0)
        assert np.all(v[x <= 0.7] == 0.0)
        assert np.all(v[x >= 0.75] == pytest.approx(2.0))

    def test_zero_profile_fails_active_requirement(self):
        from wavelab.core import zero_profile
        zero_profile().validate(require_active=False)
        with pytest.raises(HypothesisViolation):
            zero_profile().validate(require_active=True)

    def test_constant_is_active_everywhere(self):
        constant_profile(1.0).validate(require_active=True)

    def test_nan_a0_fails_active_requirement(self):
        with pytest.raises(HypothesisViolation, match="a0 = nan"):
            indicator_profile(0.7, 1.0, float("nan")).validate(require_active=True)

    @pytest.mark.parametrize("a", [indicator_profile(1.0, 1.0, 2.0),
                                   smooth_indicator_profile(0.7, 1.0, 2.0, 0.3)],
                             ids=["indicator", "smooth_indicator-ramp-fills-omega"])
    def test_empty_active_interval_fails_active_requirement(self, a):
        # omega = (1, 1): a is active at x = 1 alone, where z_t = 0
        assert a.omega == (1.0, 1.0)
        a.validate(require_active=False)
        with pytest.raises(HypothesisViolation, match=r"omega = \(1, 1\) must be nonempty"):
            a.validate(require_active=True)


class TestProfiles:
    @pytest.mark.parametrize("width", [0.0, -0.1])
    def test_bump_width_must_be_positive(self, width):
        with pytest.raises(ValueError, match="width must be > 0"):
            bump_profile(width=width)

    @pytest.mark.parametrize("profile", [sine_profile(2, amplitude=0.7),
                                         bump_profile()])
    def test_derivatives_match_finite_differences(self, profile):
        x = np.linspace(0.05, 0.95, 19)
        h = 1e-6
        d_fd = (np.asarray(profile.value(x + h)) -
                np.asarray(profile.value(x - h))) / (2 * h)
        np.testing.assert_allclose(np.asarray(profile.deriv(x)), d_fd,
                                   atol=1e-7, rtol=1e-7)
        dd_fd = (np.asarray(profile.deriv(x + h)) -
                 np.asarray(profile.deriv(x - h))) / (2 * h)
        np.testing.assert_allclose(np.asarray(profile.second(x)), dd_fd,
                                   atol=1e-6, rtol=1e-6)

    def test_dirichlet_compatibility(self):
        for profile in (sine_profile(1), sine_profile(3), bump_profile(),
                        zero_function()):
            assert float(np.asarray(profile.value(np.array(0.0)))) == pytest.approx(0.0, abs=1e-14)
            assert float(np.asarray(profile.value(np.array(1.0)))) == pytest.approx(0.0, abs=1e-14)


class TestStateConversions:
    def test_round_trip(self):
        g = Grid(64)
        z0, z1 = sine_profile(2, amplitude=0.3), sine_profile(1, amplitude=0.1)
        state = InitialData(z0, z1).riemann(g)
        assert state.boundary_defect() <= 1e-10
        # z_x and z_t are exact samples of the profiles, z comes from
        # trapezoid quadrature of z_x
        z = cumulative_trapezoid(state.z_x, g.dx)
        np.testing.assert_allclose(state.z_x, np.asarray(z0.deriv(g.nodes)), atol=1e-15)
        np.testing.assert_allclose(state.z_t, np.asarray(z1.value(g.nodes)), atol=1e-15)
        np.testing.assert_allclose(z, np.asarray(z0.value(g.nodes)), atol=1e-3)
        assert abs(z[-1]) <= 1e-3  # z(1) = 0 at the wall


def _closure_weights(b, epsilons, grid):
    """Reference: the six weights from the closure-built psi, phi, beta and
    (x psi)' of the cutoffs q = b + e, as the multiplier terms read them."""
    if epsilons is None:
        epsilons = tuple((1.0 - b) * (4 - i) / 8 for i in range(3))
    e0, e1, e2 = epsilons
    q0, q1, q2 = b + e0, b + e1, b + e2

    def ramp(x, x0, x1, y0, y1):
        s = np.clip((np.asarray(x, dtype=float) - x0) / (x1 - x0), 0.0, 1.0)
        return y0 + (y1 - y0) * s

    def psi(x):
        return ramp(x, q1, q0, 1.0, 0.0)

    def phi(x):
        return ramp(x, q2, q1, 0.0, 1.0)

    def beta(x):
        return ramp(x, b, q2, 0.0, 1.0)

    def xpsi_x(x):
        x = np.asarray(x, dtype=float)
        on_ramp = (x > q1) & (x < q0)
        return np.where(x <= q1, 1.0,
                        np.where(on_ramp, psi(x) - x / (e0 - e1), 0.0))

    xs = grid.nodes
    return {"beta": beta(xs), "phi": phi(xs), "q1_mask": xs > q1, "q2_mask": xs > q2,
            "xpsi": xs * psi(xs), "one_minus": np.abs(1.0 - xpsi_x(xs))}


class TestLocalization:
    @pytest.mark.parametrize("epsilons", [None, (0.2, 0.12, 0.05)],
                             ids=["default", "explicit"])
    @pytest.mark.parametrize("a", [indicator_profile(0.7, 1.0, 2.0),
                                   smooth_indicator_profile(0.7, 1.0, 2.0, 0.05),
                                   constant_profile(1.0)],
                             ids=["indicator", "smooth_indicator", "constant"])
    @pytest.mark.parametrize("n_cells", [4, 64, 100, 4096])
    def test_weights_equal_the_closure_forms(self, n_cells, a, epsilons):
        g = Grid(n_cells)
        w = make_localization(a.omega[0], epsilons, g)
        ref = _closure_weights(a.omega[0], epsilons, g)
        assert w._fields == tuple(ref)
        for name, value in ref.items():
            _assert_same_bits(getattr(w, name), value)

    def test_default_geometry(self):
        g = Grid(128)
        b = 0.7
        w = make_localization(b, None, g)
        q0, q1, q2 = (b + (1.0 - b) * k / 8 for k in (4, 3, 2))
        x = g.nodes
        assert b < q2 < q1 < q0 < 1.0
        np.testing.assert_array_equal(w.q1_mask, x > q1)
        np.testing.assert_array_equal(w.q2_mask, x > q2)
        # Q1 is inside Q2 and both hold nodes short of x = 1
        assert w.q2_mask[w.q1_mask].all() and w.q2_mask.sum() > w.q1_mask.sum() > 1
        # psi = 1 up to q1, falls to 0 across [q1, q0]; there (x psi)' = 1
        assert (w.xpsi[x <= q1] == x[x <= q1]).all()
        assert w.xpsi[x >= q0].max() == 0.0
        assert (w.one_minus[x <= q1] == 0.0).all()
        assert (np.diff(w.xpsi[x > q1] / x[x > q1]) <= 0.0).all()
        # phi rises 0 -> 1 across [q2, q1], beta across [b, q2]
        assert w.phi[x <= q2].max() == 0.0
        assert w.phi[x >= q1].min() == pytest.approx(1.0)
        assert w.beta[x <= b].max() == 0.0
        assert w.beta[x >= q2].min() == pytest.approx(1.0)
        assert (np.diff(w.phi) >= 0.0).all() and (np.diff(w.beta) >= 0.0).all()

    def test_bad_epsilon_order_rejected(self):
        g = Grid(128)
        with pytest.raises(ValueError, match=r"^epsilons must satisfy 0 < e2 < e1 < e0 "
                           r"< 1 - b, got \(0.05, 0.1, 0.2\)$"):
            make_localization(0.7, (0.05, 0.1, 0.2), g)

    def test_cutoffs_that_round_together_rejected(self):
        with pytest.raises(ValueError, match=r"^epsilons \(3e-308, 2e-308, 1e-308\) give "
                           r"cutoffs b \+ e that are not distinct floats at b = 0.7$"):
            make_localization(0.7, (3e-308, 2e-308, 1e-308), Grid(128))
