"""The benchmark's workloads, as plain data.

Each workload is one serial campaign (or, for the store sweep, one
growing series of campaigns) run in one fresh child process.  The
benchmark's ``--seed`` only selects the window of phase-offset seeds;
the program receives the resulting ``CampaignSpec`` and nothing else.

Every workload draws its runs from one *reference table*: a campaign
shape (configs, stages, run parameters) whose per-run results were
recorded over seeds ``0 .. seeds-1`` (see ``verify.py``).  Window
placement is chosen so that every window of every seed lies inside its
table's recorded range.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Windows repeat with this period in the benchmark seed, which bounds
#: the seed range the reference tables must cover.
WINDOWS = 16

VARIANTS = ("full", "tiny")

#: The six write-direction stages of Figs. 9 and 11, in figure order.
WRITE_STAGES = (
    "aw_stage_error",
    "w_stage_timeout",
    "w_datapath_error",
    "data_transfer_error",
    "wlast_bvalid_error",
    "b_handshake_ready_missing",
)

#: All thirteen injection stages, writes then reads.
ALL_STAGES = WRITE_STAGES[:5] + (
    "b_handshake_id_mismatch",
    "b_handshake_ready_missing",
    "ar_stage_error",
    "r_stage_timeout",
    "r_data_transfer_error",
    "r_id_mismatch",
    "r_last_dropped",
    "r_handshake_ready_missing",
)

#: Campaign shapes whose results ``reference.json`` records.
TABLES: Dict[str, Dict[str, Any]] = {
    "fig11": {
        "kind": "system", "variants": VARIANTS, "stages": WRITE_STAGES,
        "beats": 250, "size": 3, "outstanding": 1, "reorder_depth": 0,
        "seeds": 587,
    },
    "fig9": {
        "kind": "ip", "variants": VARIANTS, "stages": WRITE_STAGES,
        "beats": 8, "size": 3, "outstanding": 1, "reorder_depth": 0,
        "seeds": 505,
    },
    "darkcorner": {
        "kind": "ip", "variants": VARIANTS, "stages": ALL_STAGES,
        "beats": 16, "size": 1, "outstanding": 8, "reorder_depth": 4,
        "seeds": 69,
    },
}

#: Fig. 11 at seed 0 (the paper's figure): Full-Counter latencies per
#: stage in Fig. 11's convention, and the Tiny-Counter's whole budget.
FIG11_GOLDEN_FC = (10, 20, 10, 250, 10, 20)
FIG11_GOLDEN_TC = 320


def _window(seed: int, stride: int, width: int, first: int = 0) -> List[int]:
    base = first + stride * (seed % WINDOWS)
    return list(range(base, base + width))


def _fig11_steps(seed: int) -> List[dict]:
    # Seed 0 is the figure's canonical phase and rides along in every
    # window so the golden Fc/Tc values are asserted on every run.
    seeds = [0] + _window(seed, stride=3, width=39, first=1)
    return [{"table": "fig11", "seeds": seeds}]


def _fig9_steps(seed: int) -> List[dict]:
    return [{"table": "fig9", "seeds": _window(seed, stride=7, width=400)}]


def _darkcorner_steps(seed: int) -> List[dict]:
    return [{"table": "darkcorner", "seeds": _window(seed, stride=3, width=24)}]


def _sweep_steps(seed: int) -> List[dict]:
    # Each step is a superset of the previous one, so only its frontier
    # (the newly added seeds) simulates; the rest come from the store.
    return [
        {
            "table": "fig11",
            "seeds": _window(seed, stride=5, width=width),
            "batch_lanes": 64,
            "store": True,
        }
        for width in (64, 128, 256, 512)
    ]


#: name -> the campaign steps it runs, as a function of the benchmark
#: seed.  Why each was chosen is recorded next to it in ``BENCHMARK.json``.
WORKLOADS = {
    "fig11_system": _fig11_steps,
    "fig9_ip": _fig9_steps,
    "darkcorner_rw_ip": _darkcorner_steps,
    "sweep_store_batched": _sweep_steps,
}


def frontier_runs(steps: List[dict]) -> int:
    """Runs the executor must see: per step, the seeds no earlier step
    covered.  Steps that share a store see each other's results; without
    a store every run of every step reaches the executor.
    """
    seen: set = set()
    total = 0
    for step in steps:
        fresh = [seed for seed in step["seeds"] if seed not in seen]
        if step.get("store"):
            seen.update(step["seeds"])
        total += run_count(dict(step, seeds=fresh))
    return total


def run_count(step: dict) -> int:
    """Runs in one step's campaign."""
    table = TABLES[step["table"]]
    return len(table["variants"]) * len(table["stages"]) * len(step["seeds"])


def build_spec(step: dict):
    """The program's ``CampaignSpec`` for one step (imports ``repro``)."""
    from repro.orchestrate import CampaignSpec
    from repro.faults.types import InjectionStage
    from repro.tmu.config import TmuConfig, Variant

    table = TABLES[step["table"]]
    variants = [Variant(name) for name in table["variants"]]
    stages = [InjectionStage(name) for name in table["stages"]]
    axes = {key: table[key] for key in ("beats", "size", "outstanding", "reorder_depth")}
    if table["kind"] == "system":
        return CampaignSpec.system(variants, stages, seeds=step["seeds"], **axes)
    configs = [TmuConfig(variant=variant) for variant in variants]
    return CampaignSpec.ip(configs, stages, seeds=step["seeds"], **axes)
