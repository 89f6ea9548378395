"""Numerical toolkit for fully anisotropic elliptic Dirichlet problems
with Orlicz-type growth: Young-function calculus, measure-average and
conjugate constructions, sharp embedding profiles, rearrangements and
quasinorms, closed-form symmetrized radial solutions, a finite-
difference minimizer, and a catalog of worked example families.
"""

from .anisotropic import (
    AnisotropicYoungFunction,
    CustomPhi,
    LinearCombinationPhi,
    RadialPhi,
    SplitPhi,
    phi_circ,
    phi_diamond,
    radial_extent,
    sublevel_measure,
    unit_ball_volume,
)
from .catalog import (
    EXAMPLE_IDS,
    ExampleRecord,
    expected_regularity,
    make_record,
    verify_asymptotics,
)
from .embedding import (
    DichotomyError,
    EmbeddingProfile,
    classify_integral,
    growth_conditions,
    hat_phi_circ,
    sobolev_conjugate,
    tail_exponents,
)
from .grid import (
    GridField,
    OperatorSpec,
    SolveError,
    approximable_sequence,
    cell_gradients,
    point_mass_field,
    solve,
)
from .radial import (
    RadialSolution,
    calibrate_c1,
    calibrate_kappa2,
    gradient_l1_bound,
    level_set_bound_grad,
    level_set_bound_u,
    solve_radial,
    truncation_energy_check,
)
from .rearrangement import (
    RearrangedFunction,
    boundedness_criterion,
    data_admissibility,
    improper_integral,
    marcinkiewicz_quasinorm,
)
from .young import (
    ExpMinusLinearYoung,
    ExpMinusOneYoung,
    ExpPowerYoung,
    InverseRangeError,
    LegendreConjugate,
    LinearSplicedYoung,
    MonotoneFunction,
    NotConvexError,
    PowerLogYoung,
    PowerYoung,
    SampledYoungFunction,
    ScalarYoungFunction,
    YoungFunctionError,
    parse_scalar_function,
    psi_of,
    solve_increasing,
    theta_diamond,
)

__version__ = "0.1.0"
