"""Numerical engine for two-player switching games of BSDEs on exact discrete
Brownian filtrations: the obliquely reflected system, its penalization route,
and game-theoretic verification oracles."""

from .bsde import DriverFn, solve_system
from .errors import (
    ConvergenceError,
    DataError,
    ScenarioError,
    SizingError,
    SwitchGameError,
)
from .game import (
    FeedbackStrategy,
    brute_force_value,
    eval_switched,
    extract_saddle,
    solve_lower_reflected,
    verify_saddle,
)
from .lattice import PathTree, RecombiningTree, build_tree
from .model import (
    CostTables,
    GameSpec,
    GeneratorSpec,
    TerminalSpec,
    check_loop_costs,
    enumerate_primary_loops,
    in_Qbar,
    project_oblique,
    validate_cost_matrices,
)
from .penalty import penalization_report, solve_double_penalized, solve_penalized
from .reflected import RbsdeSolution, check_minimality, solve_rbsde
from .runner import Scenario, parse_scenario, run

__version__ = "0.1.0"
