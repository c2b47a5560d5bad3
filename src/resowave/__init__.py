"""resowave: periodic solutions of completely resonant nonlinear wave equations.

Spectral machinery for u_tt - u_xx + f(u) = 0 with Dirichlet conditions on
(0, pi): frequency admissibility, contraction solution of the range equation,
variational search on the resonant kernel, solution records, a time-domain
integrator, and a verification suite for every identity the construction uses.
"""

__version__ = "0.1.0"

from .fields import (
    SpectralField,
    PhysicalGrid,
    NormBundle,
    synthesize,
    analyze,
    apply_nonlinearity,
    integrate_poly,
    norms,
    inner_h1,
    inner_l2,
    sup_norm,
)
from .kernel import (
    KernelVector,
    embed,
    project_V,
    project_W,
    rescale,
    minimal_time_period_index,
)
from .nonlinearity import NonlinearitySpec, classify, parse_coeff_string
from .frequency import (
    FrequencyContext,
    make_context,
    omega_for_eps,
    truncated_gamma,
    minimal_n,
    side_required,
    admissible,
    max_admissible_n,
    scan_frequencies,
)
from .psolve import PSolveReport, apply_L_inv, solve_P
from .reduced import g_recipe, phi, grad_phi, G_eval, U_eval, linv_qform
from .linv_forms import (
    BiperiodicMap,
    decompose_m,
    l_inv_quadratic_form,
    kernel_M_oracle,
    closed_form_qform_p2,
    kappa_ratio,
    square_wave_vector,
)
from .search import (
    SearchDiagnostics,
    NewtonReport,
    SolutionRecord,
    BranchResult,
    maximize_U,
    branch_prediction,
    initial_guess,
    refine,
    galerkin_residual,
    build_solution,
    partner_record,
    solve_branch,
)
from .evolve import EvolutionConfig, EvolutionResult, integrate, return_error
from .verify import CheckReport, run_suite, suite_names
from .errors import (
    ResowaveError,
    ResonanceError,
    ConvergenceError,
    ClassificationError,
    ConfigError,
)
