"""wavelab: a numerical laboratory for the 1D damped wave equation
z_tt - z_xx + a(x) g(z_t) = 0 on (0,1) with Dirichlet walls, integrated
in Riemann-invariant form at unit CFL."""

from .core import (
    DampingProfile, Grid, HypothesisViolation, Nonlinearity, Profile, RiemannState,
    arctan_damping, bump_profile, constant_profile, cubic_damping,
    identity_damping, indicator_profile, make_localization, nu_ratio, regime,
    saturating_damping, signed_power,
    sine_profile, smooth_indicator_profile, zero_function, zero_profile,
)
from .energy import (
    DecayFit, EnergyReport, decay_fit, dissipation_rate, energy_p,
    observability_ratio, phi_functional, sobolev_margin, window_rows,
)
from .multipliers import MultiplierStream, elliptic_solve, multiplier_terms
from .oracle import dalembert_riemann, modal_rate
from .solver import (
    EnergyMonotonicityError, InitialData, Scenario, ThetaField, Trajectory,
    run_auxiliary, run_auxiliary_rerun, run_derivative_system, run_family,
    run_simulation, step, theta_from_run, transport_shift,
)

__version__ = "0.1.0"
