"""krlab: a desk-scale laboratory for Kantorovich-Rubinstein transport
distances with bounded concave costs and for stability estimates of the
continuity equation on the periodic torus."""

from .cost import CostKind, CostSpec, bounded_log, cost_derivative, cost_eval, cost_sup, \
    truncated_linear
from .measures import Grid, SignedDensity, density_from_function, jordan_decompose, lq_norm, \
    mass, mean_zero_projection
from .transport import Potential, TransportPlan, duality_gap, kr_distance, \
    potential_gradient_on_support, solve_dual, solve_primal, w_neg11_norm
from .fields import ConstantField, E1StepField, OscillatoryField, PowerCuspField, SmoothShear2D, \
    VelocityField, modulus, psi_one
from .pde import AprioriReport, CauchyData, SolutionTrajectory, apriori_lq_check, \
    eulerian_solve, lagrangian_solve
from .estimates import StabilityInstance, build_eta, check_derivative_identity, check_prop1, \
    check_rate_bounds, frame_plans, lemma4_combine, stability_rate, track_kr, uniqueness_drive

__version__ = "0.1.0"
