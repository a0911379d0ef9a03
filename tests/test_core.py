import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavelab.core import (
    Grid, HypothesisViolation, NONLINEARITIES, arctan_damping, bump_profile,
    constant_profile, cubic_damping, cumulative_trapezoid, identity_damping,
    indicator_profile, make_localization, modified_big_g, modified_fg_prime,
    modified_g, nonmonotone_example, nu_ratio,
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


class TestModifiedPair:
    def test_frozen_value_at_one(self):
        g1, G1 = modified_g(np.array(1.0), 1.5), modified_big_g(np.array(1.0), 1.5)
        assert float(g1) == pytest.approx(0.41421356237309515, rel=1e-14)
        assert float(G1) == pytest.approx(0.2189514164974602, rel=1e-13)

    def test_vanishes_at_zero(self):
        g0, G0 = modified_g(np.array(0.0), 1.5), modified_big_g(np.array(0.0), 1.5)
        assert float(g0) == 0.0 and float(G0) == 0.0

    @given(y=finite_floats)
    @settings(max_examples=50)
    def test_derivative_consistency(self, y):
        # G' = g, checked by central differences
        p = 1.5
        h = 1e-6
        gp = modified_g(np.array(y), p)
        Gp = modified_big_g(np.array(y + h), p)
        Gm = modified_big_g(np.array(y - h), p)
        assert (float(Gp) - float(Gm)) / (2 * h) == pytest.approx(
            float(gp), abs=1e-6, rel=1e-6)

    def test_prime_positive(self):
        y = np.linspace(-10, 10, 101)
        assert np.all(modified_fg_prime(y, 1.5) > 0)

    @pytest.mark.parametrize("p", [1.25, 1.5, 1.75])
    def test_halves_equal_the_pair(self, p):
        y = np.random.default_rng(2).normal(scale=3.0, size=257)
        ay = np.abs(y)
        g_ref = np.sign(y) * ((ay + 1.0) ** (p - 1.0) - 1.0)
        big_g_ref = ((ay + 1.0) ** p - 1.0) / p - ay
        assert modified_g(y, p).tobytes() == g_ref.tobytes()
        assert modified_big_g(y, p).tobytes() == big_g_ref.tobytes()
        assert type(modified_g(0.5, p)) is float
        assert type(modified_big_g(0.5, p)) is float
        with pytest.raises(ValueError):
            modified_g(y, 2.0)
        with pytest.raises(ValueError):
            modified_big_g(y, 1.0)


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


class TestLocalization:
    def test_default_geometry(self):
        g = Grid(128)
        triple = make_localization((0.7, 1.0), None, g)
        b = 0.7
        assert b < triple.q2[0] < triple.q1[0] < triple.q0[0] < 1.0
        psi = triple.psi_nodes
        # psi = 1 up to q1, falls to 0 across [q1, q0]
        assert psi[g.nodes <= triple.q1[0]].min() == pytest.approx(1.0)
        assert psi[g.nodes >= triple.q0[0]].max() == 0.0
        phi = triple.phi_nodes
        assert phi[g.nodes <= triple.q2[0]].max() == 0.0
        assert phi[g.nodes >= triple.q1[0]].min() == pytest.approx(1.0)

    def test_bad_epsilon_order_rejected(self):
        g = Grid(128)
        with pytest.raises(ValueError):
            make_localization((0.7, 1.0), (0.05, 0.1, 0.2), g)
