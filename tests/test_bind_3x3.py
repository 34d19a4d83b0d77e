"""The bundled bind_3x3 scenario: a 3x3 game whose barriers bind end to end.

It is perf_3x3 with the terminal's alpha doubled and the driver's c tripled.
The terminal stays in the region at every leaf (beta is uniform), about a
quarter of the interior nodes carry a push, and the saddle strategies switch,
in same-instant cascades of up to three switches.  The report digests were
recorded with the catalog sweep alone, before the best-reply certificate
existed; the certified run must reproduce them.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from switchgame import game
from switchgame.cli import main as cli_main
from switchgame.game import extract_saddle, simulate_path, verify_saddle
from switchgame.reflected import check_minimality, domain_report, solve_rbsde
from switchgame.runner import parse_scenario

SCENARIO = Path(__file__).resolve().parents[1] / "src" / "switchgame" / "scenarios" / "bind_3x3.json"

DIGESTS = {
    "fields.csv": "aba5b51f34678d992572d8d4701ed08540d6c2e88ea2eff2bc3fc83c450ca38c",
    "penalize.csv": "81e69cbd47b9fc837a20274e5ca93dcd7d48eefe36033f5b0063b16fb9d019c9",
    "saddle.csv": "9464fbb3086103ce76907d1f61d348750d2e27e2752e2290b8012541f5a43467",
    "solve_direct.csv": "4bb97e79af633dc77d259873c62b4eec57f58a69940268306884daa41a8cf329",
    "validate.csv": "a3cbdd9cd4fb00b09ce12e5c753fbdea1d2daa855222ef23facb08bc768af906",
}


@pytest.fixture(scope="module")
def solved():
    scenario = parse_scenario(SCENARIO)
    tree = scenario.build_tree()
    return scenario.spec, tree, solve_rbsde(scenario.spec, tree)


@pytest.mark.parametrize("seed", [0, 1])
def test_reports_match_the_pinned_digests(tmp_path, seed):
    # the seed draws only the saddle catalog, which reaches the CSVs through
    # violations alone, so the pinned digests hold for every seed
    out = tmp_path / "bind"
    assert cli_main(["solve", str(SCENARIO), "--out", str(out), "--seed", str(seed)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
    assert digests == DIGESTS


def test_solution_stays_in_the_domain_with_minimal_pushes(solved):
    spec, tree, sol = solved
    assert domain_report(sol).ok
    assert check_minimality(sol).ok
    active = sum(int(((dk > 0.0) | (dl > 0.0)).reshape(dk.shape[0], -1).any(axis=1).sum())
                 for dk, dl in zip(sol.dK, sol.dL))
    assert active >= 1000


def test_saddle_is_certified_and_the_saddle_strategies_switch(solved):
    spec, tree, sol = solved
    report = verify_saddle(sol, catalog_size=200, seed=0)
    assert report.ok and report.certified
    a_star, b_star = extract_saddle(sol)
    assert sum(int((a != np.arange(3)[:, None]).sum()) for a in a_star.actions) >= 1000
    ones = np.ones((3, 3))
    longest = max(int((nA + nB).max()) for nA, nB in (
        game._resolve_modes(a, b, 3, 3, ones, ones)[1:]
        for a, b in zip(a_star.actions, b_star.actions)))
    assert longest >= 2


def test_forward_play_agrees_with_the_backward_values(solved):
    # along a path, the value at each visited node and start pair is the
    # implicit step at the settled pair plus this step's switch costs
    spec, tree, sol = solved
    a_star, b_star = extract_saddle(sol)
    U = game.eval_switched(spec, tree, a_star, b_star).U
    c = spec.generator.c
    rng = np.random.default_rng(7)
    switched = 0
    for start in [(0, 0), (1, 2), (2, 1)]:
        for _ in range(4):
            branches = rng.integers(0, 2, tree.N)
            nodes, modes, A, B = simulate_path(spec, tree, a_star, b_star, start, branches)
            for t in range(tree.N):
                E = tree.expect_next(t, U[t + 1])[nodes[t]]
                (i, j), (p, q) = modes[t], modes[t + 1]
                expected = (E[p, q] + tree.dt * c[p, q]) + (A[t + 1] - A[t]) - (B[t + 1] - B[t])
                assert U[t][nodes[t], i, j] == pytest.approx(expected, abs=1e-12)
                switched += (i, j) != (p, q)
    assert switched > 0
