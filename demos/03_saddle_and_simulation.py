"""Extract the saddle-point strategies and play the game forward.

From the solved value field the candidate equilibrium is read off directly:
Player I switches wherever Y sits on its upper barrier, Player II wherever
it sits on its lower barrier (Player I wins simultaneous triggers).  The
verification then solves each player's best reply to the other's candidate
exactly, by backward induction: if neither best reply beats the value, no
deviation can, and the catalog of opponent strategies need not be played.
"""

import numpy as np

from switchgame import build_tree, solve_rbsde
from switchgame.game import extract_saddle, simulate_path, verify_saddle
from switchgame.model import CostTables, GameSpec, GeneratorSpec, TerminalSpec

spec = GameSpec(
    costs=CostTables(k=[[0.0, 1.0], [1.0, 0.0]], l=[[0.0, 0.8], [0.8, 0.0]]),
    generator=GeneratorSpec("mode_constant", 2, 2, c=[[2.0, -2.0], [-2.0, 2.0]]),
    terminal=TerminalSpec("affine", 2, 2,
                          alpha=[[0.3, 0.9], [-0.4, 0.4]],
                          beta=[[1.0, 1.0], [0.9, 0.9]]),
    horizon=0.24,
)
tree = build_tree(N=8, d=1, T=spec.horizon)
sol = solve_rbsde(spec, tree)

report = verify_saddle(sol, catalog_size=200, seed=0)
print("best replies: Player I gains at most", f"{report.reply_slack_I:.2e},",
      "Player II at most", f"{report.reply_slack_II:.2e}",
      f"(rounding margin {report.certificate_margin:.1e})")
print("certified:", report.certified, "- the", report.catalog_size_I, "Player-I and",
      report.catalog_size_II, "Player-II catalog strategies",
      "cannot beat the value" if report.certified else "were evaluated")
print("saddle inequalities:", "all hold" if report.ok
      else f"{len(report.violations)} violations")
print("worst |U(a*,b*) - Y(root)| over start pairs:",
      f"{max(report.value_gap.values()):.2e}")

# forward play along one path
a_star, b_star = extract_saddle(sol)
rng = np.random.default_rng(42)
branches = rng.integers(0, 2, tree.N)
nodes, modes, A, B = simulate_path(spec, tree, a_star, b_star, (0, 1), branches)

print("\nequilibrium play from start modes (1,2) along a random path:")
print(f"{'step':>4}  {'modes':>7}  {'cost I':>7}  {'cost II':>7}")
for t in range(tree.N + 1):
    i, j = modes[t]
    print(f"{t:>4}  ({i + 1},{j + 1})  {A[t]:>7.2f}  {B[t]:>7.2f}")
print(f"\nPlayer II collects {B[-1]:.2f} in switch credits on this path, "
      f"Player I pays {A[-1]:.2f}.")
