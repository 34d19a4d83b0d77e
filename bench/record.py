"""Record the reference outputs the benchmark checks against.

    python3 bench/record.py

Writes bench/reference.json with
  * the sha256 of every CSV report of ``switchgame solve`` on both bundled
    scenarios (run seed 0; the reports do not depend on the seed), and
  * the root matrix of every direct_path_3x3 instance for each seed in
    ``workloads.REFERENCE_SEEDS``.

Run it only on a commit whose outputs are trusted; the benchmark then fails
any operation whose output differs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out" / "record"


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import switchgame
    from workloads import (REFERENCE_PATH, REFERENCE_SEEDS, DirectPath3x3, PipelineBundled,
                           _sha256)

    digests = {}
    scenario_dir = Path(switchgame.__file__).parent / "scenarios"
    for name in dict(PipelineBundled.SCENARIOS):
        out = OUT / name
        code = switchgame.cli.main(["solve", str(scenario_dir / f"{name}.json"),
                                    "--out", str(out), "--seed", "0"])
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}; nothing recorded")
        digests[name] = {p.name: _sha256(p) for p in sorted(out.glob("*.csv"))}
    shutil.rmtree(OUT, ignore_errors=True)

    roots = {}
    for seed in REFERENCE_SEEDS:
        workload = DirectPath3x3(seed, OUT)
        roots[str(seed)] = {
            f"{q}.{N}": switchgame.solve_rbsde(spec, tree).root.tolist()
            for q in range(workload.INSTANCES)
            for N, _, _, tree, spec in workload.instance(q)
        }
        print(f"seed {seed} recorded", flush=True)

    REFERENCE_PATH.write_text(json.dumps(
        {"pipeline_bundled": digests, "direct_path_3x3": roots}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
