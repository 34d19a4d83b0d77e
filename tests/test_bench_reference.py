"""The benchmark's recorded direct-solve roots, reproduced bit for bit, one
short pass of its refinement ladder and one pass of its bundled pipeline,
each with every check it makes.

`bench/reference.json` holds the roots of `solve_rbsde` on the seeded
instances of the `direct_path_3x3` workload.  Solving the N=12 ones here makes
a barrier or projection change that moves a number fail in this suite,
before the benchmark runs; so does a penalization change that breaks the
ladder's monotone or gap checks, and a report change that moves a bundled
scenario's CSV digests or fails one of its tasks.  The benchmark's module is
loaded from its file and only read from.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from switchgame import solve_rbsde

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1])
def test_direct_path_roots_equal_the_recorded_reference(workloads, seed):
    workload = workloads.DirectPath3x3(seed, None, sizes=((12, "small", 1),))
    assert workload.reference_checked
    for q in range(3):
        [(N, _, _, tree, spec)] = workload.instance(q)
        np.testing.assert_array_equal(solve_rbsde(spec, tree).root,
                                      np.asarray(workload.roots[f"{q}.{N}"]))


def test_a_short_refinement_ladder_passes_its_checks(workloads):
    recorder = workloads.Recorder()
    workloads.run_pass(workloads.RefineLattice2x2(0, None, ladder=(10, 20)), recorder)
    assert recorder.attempted == 4 and recorder.failed == 0, recorder.failures


def test_a_bundled_pipeline_pass_passes_its_checks(workloads, tmp_path):
    recorder = workloads.Recorder()
    workloads.run_pass(workloads.PipelineBundled(0, tmp_path), recorder)
    scenarios = len(workloads.PipelineBundled.SCENARIOS)
    assert recorder.attempted == scenarios and recorder.failed == 0, recorder.failures
