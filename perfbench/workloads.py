"""The three benchmark workloads, generated as wcalc-run-v1 configs.

A workload is a list of CLI invocations run back to back in one fresh
process. Every config is built from a single workload seed; the program
under test receives nothing but these config files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
DEFAULT_SEED = 20260815

# The reference pipeline config of calib/calibration.json, scaled so that one
# run fits the benchmark's per-run time limit: the integrand tables cost
# 1025 y-points x quad_order x 289 mollifier nodes per knot, so quad_order is
# the knob that sets their size (32 in the reference config, about 270 s).
PIPELINE_PATHS = 10000
PIPELINE_KNOBS = {"dyadic_level": 3, "truncation_level": 6.0,
                  "mollify_eps": 0.1, "positivity_floor": 0.1,
                  "step_count": 8, "inner_mc": 16, "quad_order": 3}
N_STEPS = 16

# (command, check, n_paths) for each invocation, in run order.
WORKLOADS: Dict[str, List[Tuple[str, str, int]]] = {
    "pipeline-ref": [("pipeline", "", PIPELINE_PATHS)],
    "second-order": [("verify", "second-order", 20000)],
    "batteries": [("verify", "chain-rule", 100000),
                  ("verify", "girsanov", 20000),
                  ("verify", "clark-ocone", 20000),
                  ("verify", "lemma34", 20000),
                  ("verify", "bensoussan", 20000)],
}


@dataclass(frozen=True)
class Invocation:
    label: str
    config_path: str   # relative to the checkout root
    out_dir: str       # relative to the checkout root
    argv: Tuple[str, ...]
    config: dict


def reference_seeds() -> List[int]:
    """Workload seeds that have committed reference records, default first."""
    with open(REFERENCE_DIR / "seeds.json") as fh:
        return [int(s) for s in json.load(fh)["pool"]]


def resolve_seed(seed: int, pool: List[int]) -> int:
    """A reference seed is used as given; any other seed picks one from the
    pool, so every run has reference records and vetted inputs."""
    return seed if seed in pool else pool[seed % len(pool)]


def invocations(workload: str, seed: int, work_dir: str) -> List[Invocation]:
    out = []
    for command, check, n_paths in WORKLOADS[workload]:
        label = check or command
        cfg_path = f"{work_dir}/configs/{label}.json"
        out_dir = f"{work_dir}/out/{label}"
        cfg = {"schema": "wcalc-run-v1", "command": command, "seed": seed,
               "n_paths": n_paths, "grid": {"n_steps": N_STEPS},
               "out_dir": out_dir}
        if command == "pipeline":
            cfg.update({"curve": {"kind": "scalar-exponential",
                                  "lam_lo": 0.0, "lam_hi": 1.0},
                        "lam": 0.3, "lam_prime": 0.5,
                        "pipeline": dict(PIPELINE_KNOBS), "ladders": True})
            argv = ("pipeline", "--config", cfg_path)
        else:
            cfg["check"] = check
            argv = ("verify", check, "--config", cfg_path)
        out.append(Invocation(label, cfg_path, out_dir, argv, cfg))
    return out


def working_set(workload: str) -> Dict[str, Dict[str, object]]:
    """Sizes of the main arrays, computed from the configs (not measured)."""
    sizes = {}
    for command, check, n_paths in WORKLOADS[workload]:
        label = check or command
        sizes[f"{label}: increments {n_paths}x{N_STEPS} float64"] = \
            n_paths * N_STEPS * 8
    if workload == "pipeline-ref":
        q = PIPELINE_KNOBS["quad_order"]
        # one knot of integrand_tables: 1025 y-points x q nodes, each shifted
        # over the 17 mollifier nodes per parameter node
        sizes[f"integrand_tables: 1025x{q}x17 points per kernel call"] = \
            1025 * q * 17 * 8
    if workload == "second-order":
        # the representation check: 4000 paths, 12**4 tensor nodes per row,
        # chunks of 2**22 // 12**4 paths over 4 columns
        nodes = 12 ** 4
        rows = ((1 << 22) // nodes) * nodes
        sizes[f"gaussian_smooth: tensor chunk {rows}x4 float64"] = rows * 4 * 8
    return {k: {"bytes": v} for k, v in sizes.items()}
