"""Classical laboratory for Carleman linearisation with rescaling.

Pipeline: discretise a reaction-diffusion PDE (or take a nonlinear ODE
directly), rescale it, lift it to the truncated block-linear system, evolve
with a truncated Taylor propagator, and compare the extracted solution level
against the reference integrator and the closed-form truncation bounds.
"""

from .bounds import (
    component_error_bound,
    f_closed,
    f_quadrature,
    global_error_bound,
    make_bound_report,
    maxnorm_error_bound,
    refined_carleman_order,
    required_carleman_order,
)
from .carleman import (
    CarlemanMatrix,
    CarlemanVector,
    assemble,
    initial_vector,
    lambda_value,
)
from .cost import (
    CostEstimate,
    amplification_factor,
    ode_cost_estimate,
    pde_cost_estimate,
    prior_work_comparison,
)
from .errors import NumericFailure, SizeLimitError, ValidationError
from .nonlinear_ode import (
    NonlinearODE,
    RescaledODE,
    kron_power,
    lambda0,
    max_stable_gamma,
    r_ratio,
    reference_solve,
    rescale,
)
from .pde import (
    FourierForm,
    ReactionDiffusionProblem,
    discretisation_error_bound,
    discretize,
    estimate_derivative_bound,
    fourier_form,
    required_grid_points,
    stability_report,
)
from .propagator import (
    PropagationConfig,
    evolve,
    success_probability,
    taylor_matrix,
    taylor_step,
)
from .stencil import (
    LaplacianOperator,
    StencilTable,
    build_laplacian_1d,
    build_laplacian_dd,
    convergence_study,
    g_kappa,
    laplacian_eigenvalues_periodic,
    stencil_coefficients,
)

__version__ = "0.1.0"
