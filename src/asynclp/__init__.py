"""Linear programming by asynchronous fixed-point iteration.

A linear program is rewritten as a stationarity condition on an orthogonal
linear operator composed with coordinatewise nonlinear maps.  The resulting
fixed-point system can be iterated synchronously, one coordinate at a time,
or by fully asynchronous distributed workers, and converges to an optimal
point of the original program.
"""

from .distributed import (
    AssocArray,
    WorkerReport,
    init_array,
    run_distributed,
    worker_update,
)
from .engine import (
    ScheduleConfig,
    SolverState,
    Trajectory,
    async_tick,
    constant_gamma,
    empirical_lipschitz,
    geometric_ramp,
    incremental_step,
    init_state,
    make_gamma,
    power_ramp,
    run,
    simultaneous_sweep_step,
    sweep_step,
    sync_step,
)
from .formulation import (
    AsyncFormProblem,
    Kind,
    Role,
    StandardLP,
    VariableSpec,
    load_problem,
    save_problem,
    to_asynchronous_form,
    validate_async_form,
)
from .oracle import (
    OracleSolution,
    solve_chebyshev_reference,
    solve_inequality_form,
    solve_vertex_enum,
)
from .problems import (
    BasisPursuitInstance,
    ChebyshevInstance,
    basis_pursuit_encode,
    basis_pursuit_recover,
    chebyshev_encode,
    chebyshev_recover,
    gen_basis_pursuit,
    gen_chebyshev,
)
from .stationarity import (
    ReductionSingularError,
    StationaritySystem,
    apply_nonlinearity,
    build_G,
    build_G_factored,
    build_R,
    build_system,
    m1,
    reduce,
)

__version__ = "0.1.0"

__all__ = [
    "AssocArray",
    "AsyncFormProblem",
    "BasisPursuitInstance",
    "ChebyshevInstance",
    "Kind",
    "OracleSolution",
    "ReductionSingularError",
    "Role",
    "ScheduleConfig",
    "SolverState",
    "StandardLP",
    "StationaritySystem",
    "Trajectory",
    "VariableSpec",
    "WorkerReport",
    "apply_nonlinearity",
    "async_tick",
    "basis_pursuit_encode",
    "basis_pursuit_recover",
    "build_G",
    "build_G_factored",
    "build_R",
    "build_system",
    "chebyshev_encode",
    "chebyshev_recover",
    "constant_gamma",
    "empirical_lipschitz",
    "gen_basis_pursuit",
    "gen_chebyshev",
    "geometric_ramp",
    "incremental_step",
    "init_array",
    "init_state",
    "load_problem",
    "m1",
    "make_gamma",
    "power_ramp",
    "reduce",
    "run",
    "run_distributed",
    "save_problem",
    "simultaneous_sweep_step",
    "solve_chebyshev_reference",
    "solve_inequality_form",
    "solve_vertex_enum",
    "sweep_step",
    "sync_step",
    "to_asynchronous_form",
    "validate_async_form",
    "worker_update",
]
