"""Fuzz `switchgame solve` on small scenarios: every case ends in exit 0, 1 or 2.

Hypothesis draws scenario documents with m1, m2 in 1..3, N <= 4, costs at
and past the edges of admissibility, single-mode players, every generator and
terminal family, and task parameters inside and outside their rules; in half
of the documents it also writes `NaN`, `Infinity`, booleans and other wrong
tokens into random fields.
Each case runs `cli.main` in-process under a `signal.alarm` budget, so a hang
fails the case instead of the suite.  The test starts no thread or process.
"""

import json
import math
import random
import signal
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from switchgame.cli import main as cli_main
from switchgame.game import BRUTE_FORCE_MAX_MODES, BRUTE_FORCE_MAX_STEPS

BUDGET_S = 120
TOKENS = [math.nan, math.inf, -math.inf, True, False, None, "x", "", -1, 0, 1.5, [], {}]
VALUES = [-3.0, -0.7, -0.2, 0.0, 0.1, 0.3, 1.5]
SMALL = [-0.2, -0.1, 0.0, 0.1, 0.2]
# zero, negative, triangle-breaking and loop-cancelling off-diagonal costs
EDGE_COSTS = [0.0, -0.1, 0.5, 0.8, 1.0, 2.6]
TASKS = ["validate", "solve_direct", "penalize", "double_penalize", "saddle", "brute_force",
         "export"]


class _Random(random.Random):
    """A seeded Random that marks half of the documents faulty; only those
    get wrong values, each with its own rate."""

    def __init__(self, seed):
        super().__init__(seed)
        self.faulty = self.random() < 0.5

    def fault(self, rate):
        return self.faulty and self.random() < rate


def _matrix(rnd, rows, cols, values):
    return [[rnd.choice(values) for _ in range(cols)] for _ in range(rows)]


def _costs(rnd, m):
    """Jittered costs in [0.8, 1.3], which are admissible, or edge costs."""
    if rnd.fault(0.2):
        table = _matrix(rnd, m, m, EDGE_COSTS)
    else:
        table = [[round(rnd.uniform(0.8, 1.3), 3) for _ in range(m)] for _ in range(m)]
    for i in range(m):
        table[i][i] = 0.0
    return table


def _either(rnd, inside, outside):
    """A value inside the rule, or in a faulty document one time in eight
    a value outside it."""
    return rnd.choice(outside) if rnd.fault(1 / 8) else inside()


def _task(rnd, name):
    ints = lambda: [rnd.randint(1, 4) for _ in range(rnd.randint(1, 3))]  # noqa: E731
    bad_ints = [[], [0], [True], "x", math.nan, [1.5]]
    bad_int = [0, -3, "x", True, math.nan, 1.5]
    rules = {
        "penalize": {"n_list": (ints, bad_ints)},
        "double_penalize": {"n": (lambda: rnd.randint(1, 4), bad_int),
                            "m_list": (ints, bad_ints)},
        "saddle": {"catalog_size": (lambda: rnd.randint(0, 5), bad_int),
                   "seed": (lambda: rnd.randint(0, 9), bad_int)},
        "brute_force": {"max_steps": (lambda: rnd.randint(1, BRUTE_FORCE_MAX_STEPS), bad_int),
                        "max_modes": (lambda: rnd.randint(1, BRUTE_FORCE_MAX_MODES), bad_int)},
    }.get(name, {})
    # optional parameters are left out half the time; required ones go
    # missing one time in ten in a faulty document
    required = name in ("penalize", "double_penalize")
    params = {key: _either(rnd, *rule) for key, rule in rules.items()
              if (not rnd.fault(0.1) if required else rnd.random() < 0.5)}
    if rnd.fault(0.05):
        params["surprise"] = 1
    if not params and rnd.random() < 0.5:
        return name
    return {"task": name, **params}


def scenario(rnd):
    """A small scenario document drawn from `rnd`."""
    m1, m2, d, N = rnd.randint(1, 3), rnd.randint(1, 3), rnd.randint(1, 2), rnd.randint(1, 4)
    recombining = rnd.random() < 0.5
    generator = {"family": rnd.choice(["zero", "mode_constant", "saturated_affine"])}
    if generator["family"] != "zero":
        generator["c"] = _matrix(rnd, m1, m2, VALUES)
    if generator["family"] == "saturated_affine":
        generator.update(a=rnd.choice(VALUES), b=[rnd.choice(VALUES) for _ in range(d)],
                         M=rnd.choice([0.5, 1.0, 2.0]))
    terminal = {"family": rnd.choice(["constant", "affine", "leaf_table"])}
    if terminal["family"] == "leaf_table":
        leaves = (N + 1) ** d if recombining else 2 ** (d * N)
        leaves += rnd.fault(0.2)     # a table for another tree
        terminal["table"] = [_matrix(rnd, m1, m2, SMALL) for _ in range(leaves)]
    else:
        terminal["alpha"] = _matrix(rnd, m1, m2, SMALL)
    if terminal["family"] == "affine":
        terminal["beta"] = _matrix(rnd, m1, m2, [0.0, 0.05, 0.1])
    doc = {
        "schema": 1,
        "name": "fuzz",
        "costs": {"k": _costs(rnd, m1), "l": _costs(rnd, m2)},
        "generator": generator,
        "terminal": terminal,
        "horizon": rnd.choice([0.1, 0.25, 0.5]),
        "d": d,
        "tree": {"N": N, "recombining": recombining},
        "tasks": [_task(rnd, name) for name in _plan(rnd)],
    }
    if rnd.random() < 0.5:
        keys = rnd.sample(["picard", "projection", "saddle", "match"], rnd.randint(1, 4))
        doc["tolerances"] = {key: _either(rnd, lambda: rnd.choice([1e-12, 1e-8, 1e-3]), TOKENS)
                             for key in keys}
    for _ in range(rnd.choice([0, 1, 1, 2]) if rnd.faulty else 0):
        _corrupt(rnd, doc)
    return doc


def _plan(rnd):
    """Tasks in pipeline order, solve_direct nearly always among them; a
    shuffled plan, which can break a task's dependency, is a fault."""
    plan = [name for name in TASKS
            if rnd.random() < (0.9 if name == "solve_direct" else 0.4)] or ["validate"]
    if rnd.fault(0.1):
        rnd.shuffle(plan)
    return plan


def _corrupt(rnd, doc):
    """Write a wrong token at a random place of the document."""
    places = []

    def walk(node):
        for key in (node if isinstance(node, dict) else range(len(node))):
            places.append((node, key))
            if isinstance(node[key], (dict, list)):
                walk(node[key])

    walk(doc)
    node, key = rnd.choice(places)
    node[key] = rnd.choice(TOKENS)


class _OverBudget(Exception):
    pass


def _on_alarm(signum, frame):
    raise _OverBudget(f"case ran past its {BUDGET_S} s budget")


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
# a seeded Random keeps the weights above; Hypothesis skews its own draws
# toward edge values
@given(doc=st.integers(0, 2 ** 32 - 1).map(lambda s: scenario(_Random(s))),
       seed=st.integers(0, 3))
def test_every_small_scenario_exits_0_1_or_2(doc, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(BUDGET_S)
        try:
            code = cli_main(["solve", str(path), "--out", str(Path(tmp) / "out"),
                             "--seed", str(seed)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
