"""Cross-check the direct solver against exhaustive strategy enumeration.

The value admits a representation as the minimum over Player-I strategies of
a lower-reflected system (Player II's constraints enforced by projection,
Player I's choices fixed by the strategy).  On a 2-step tree all six
j-independent decision slots can be enumerated outright, giving an oracle
that never touches the direct reflected solver.
"""

import numpy as np

from switchgame import build_tree, solve_rbsde
from switchgame.game import (
    FeedbackStrategy,
    brute_force_value,
    enumerate_feedback_strategies,
    solve_lower_reflected,
)
from switchgame.model import CostTables, GameSpec, GeneratorSpec, TerminalSpec

spec = GameSpec(
    costs=CostTables(k=[[0.0, 1.0], [1.0, 0.0]], l=[[0.0, 0.8], [0.8, 0.0]]),
    generator=GeneratorSpec("mode_constant", 2, 2, c=[[2.0, -2.0], [-2.0, 2.0]]),
    terminal=TerminalSpec("affine", 2, 2,
                          alpha=[[0.3, 0.9], [-0.4, 0.4]],
                          beta=[[1.0, 1.0], [0.9, 0.9]]),
    horizon=0.24,
)
tree = build_tree(N=2, d=1, T=spec.horizon)

direct = solve_rbsde(spec, tree).root
# j-independent Player-I tables: one mode per (node, i), as if Player II had one mode
count = sum(1 for _ in enumerate_feedback_strategies(tree, "I", 2, 1))
print(f"enumerating {count} Player-I feedback strategies on the 2-step tree")

best = brute_force_value(spec, tree)
print("\ndirect solver root:")
print(np.array_str(direct, precision=6))
print("strategy-enumeration minimum:")
print(np.array_str(best, precision=6))
print(f"max difference: {np.abs(best - direct).max():.2e}")

# one individual strategy for illustration: always hold mode 1
hold = FeedbackStrategy.constant("I", tree, 2, 2, 0)
U = solve_lower_reflected(spec, tree, hold)
print("\nvalue of 'always hold row 1' (upper envelope of the minimum):")
print(np.array_str(U[0][0], precision=6))
print("every entry is >= the direct value, as it must be:",
      bool(np.all(U[0][0] >= direct - 1e-12)))
