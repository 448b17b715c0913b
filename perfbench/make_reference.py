"""Regenerate the reference records that record_drift compares against.

    python3 perfbench/make_reference.py SEED [SEED ...]

Runs every workload once per candidate seed, from the root of a checkout,
and rewrites perfbench/reference/. A seed joins the pool only when every
record of every workload passes; the others are kept in seeds.json under
"rejected" with the records that failed, so the pool's choice stays visible.
The first seed given should be the default seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import ROOT, child_env, execute  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS, invocations  # noqa: E402

_KEEP = ("name", "lhs", "rhs", "std_err", "tolerance", "gap", "passed")


def main(argv) -> int:
    seeds = [int(s) for s in argv]
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    env = child_env()
    refs = {w: {} for w in WORKLOADS}
    pool, rejected = [], {}
    for seed in seeds:
        failing = []
        for workload in WORKLOADS:
            rel = f".perfbench/reference-{workload}"
            work = ROOT / rel
            shutil.rmtree(work, ignore_errors=True)
            (work / "configs").mkdir(parents=True)
            invs = invocations(workload, seed, rel)
            for inv in invs:
                (ROOT / inv.config_path).write_text(json.dumps(inv.config))
            ex = execute(invs, work, env, False, 600.0)
            if ex["result"] is None:
                raise RuntimeError(f"{workload} crashed at seed {seed}")
            refs[workload][str(seed)] = [{k: r[k] for k in _KEEP}
                                         for r in ex["records"]]
            failed = [r["name"] for r in ex["records"] if not r["passed"]]
            failing += failed
            print(f"seed {seed} {workload}: {ex['result']['wall_s']:.1f} s, "
                  f"{len(ex['records'])} records, failed {failed}", flush=True)
        if failing:
            rejected[str(seed)] = failing
            for workload in WORKLOADS:
                del refs[workload][str(seed)]
        else:
            pool.append(seed)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, by_seed in refs.items():
        (REFERENCE_DIR / f"{workload}.json").write_text(
            json.dumps(by_seed, indent=1) + "\n")
    (REFERENCE_DIR / "seeds.json").write_text(json.dumps(
        {"pool": pool, "rejected": rejected}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
