"""Exact procurement lot-sizing.

A single product with constant consumption intensity must be procured from a
set of suppliers, each charging a fixed cost per delivery plus a linear unit
price, with per-supplier volume limits {0} union [m, M].  Holding a batch in
stock costs quadratically in its size.  The solvers here return exact rational
optima, cross-checked by independent oracles.
"""

from .closed_form import (
    lemma1_solution,
    marginal_costs,
    multi_delivery_cost,
)
from .dp import (
    DPTable,
    Grid,
    HTrace,
    SolveReport,
    backtrack,
    build_grid,
    multi_h_limit,
    solve,
    solve_fixed_H,
    solve_multi,
)
from .errors import (
    FeasibilityError,
    InfeasibleInstanceError,
    InvalidInstanceError,
    LotSizingError,
    ResourceLimitError,
    SchemaError,
    VolumeBoundsError,
)
from .generate import bench_instance, random_instance
from .model import (
    MULTI,
    SINGLE,
    Delivery,
    Instance,
    Solution,
    Supplier,
    ValidationReport,
    Violation,
    as_rational,
    delivery_cost,
    holding_cost,
    instance_from_json,
    instance_to_json,
    make_solution,
    rational_from_json,
    rational_to_json,
    require_valid,
    solution_cost,
    solution_to_json,
    validate_instance,
)
from .oracle import duplication_oracle, grid_oracle, structural_oracle
from .schedule import (
    Timeline,
    TimelineEvent,
    build_schedule,
    holding_integral,
    schedule_deliveries,
    stock_at,
)

__version__ = "0.1.0"
