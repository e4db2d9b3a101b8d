"""Correctness check: every run of a campaign against a recorded reference.

``reference.json`` holds, per reference table (see ``workloads.TABLES``),
the table's canonical spec without its seeds and a short digest of every
run's exported result entry over the table's whole seed range.  The
digest covers the entry exactly as ``write_campaign_json`` exports it;
the scheduler diagnostics (the ``scheduler`` block, and the
``sim_leaps``/``sim_cycles_leaped`` result fields it aggregates) are not
part of an entry and are ignored, since they describe how the kernel
simulated, not what it measured.

A run fails when its entry's digest differs from the reference, when it
was not detected, or when it did not recover.  On top of the digests,
the Fig. 11 seed-0 golden values (Fc 10/20/10/250/10/20, Tc 320) are
asserted directly whenever a campaign contains seed 0 of that table.

Regenerate the reference (serial executor, no batching, no store) with::

    PYTHONPATH=src python3 perfbench/verify.py --record
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import io
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from workloads import FIG11_GOLDEN_FC, FIG11_GOLDEN_TC, TABLES, build_spec

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Bytes of SHA-256 kept per run: a wrong entry passes with odds 2**-24.
DIGEST_BYTES = 3


def entry_digest(entry: dict) -> bytes:
    blob = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).digest()[:DIGEST_BYTES]


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, dict]:
    tables = json.loads(path.read_text())["tables"]
    return {
        name: {
            "spec": table["spec"],
            "seeds": table["seeds"],
            "digests": {
                key: base64.b64decode(blob)
                for key, blob in table["digests"].items()
            },
        }
        for name, table in tables.items()
    }


def expected_spec(reference: Dict[str, dict], step: dict) -> dict:
    """The canonical spec the program must embed for *step*."""
    return dict(reference[step["table"]]["spec"], seeds=list(step["seeds"]))


def _run_total(spec: dict) -> int:
    return len(spec["configs"]) * len(spec["stages"]) * len(spec["seeds"])


def _canonical_runs(spec: dict):
    """(config index, stage, seed) per run, in the engine's run order."""
    for index in range(len(spec["configs"])):
        for stage in spec["stages"]:
            for seed in spec["seeds"]:
                yield index, stage, seed


def _golden_failures(spec: dict, entries: List[dict]) -> Dict[int, str]:
    """Runs of seed 0 that miss the Fig. 11 golden latencies."""
    seeds = spec["seeds"]
    if 0 not in seeds:
        return {}
    failures = {}
    per_config = len(spec["stages"]) * len(seeds)
    for ci, config in enumerate(spec["configs"]):
        for si, stage in enumerate(spec["stages"]):
            position = ci * per_config + si * len(seeds) + seeds.index(0)
            entry = entries[position]
            if config["variant"] == "full":
                field, want = "fig11_latency", FIG11_GOLDEN_FC[si]
            else:
                field, want = "latency_from_start", FIG11_GOLDEN_TC
            if entry.get(field) != want:
                failures[position] = (
                    f"golden {config['variant']}/{stage} seed 0: "
                    f"{field}={entry.get(field)!r}, want {want}"
                )
    return failures


def check_campaign(
    payload: dict, step: dict, reference: Dict[str, dict]
) -> Tuple[int, int, List[str]]:
    """Check one exported campaign; returns (attempted, failed, problems).

    A structurally wrong export (other spec, wrong counts) fails every
    run it should have held.
    """
    table = reference[step["table"]]
    spec = expected_spec(reference, step)
    attempted = _run_total(spec)
    entries = payload.get("results")
    if payload.get("spec") != spec:
        return attempted, attempted, ["exported spec differs from the workload's"]
    if not isinstance(entries, list) or len(entries) != attempted:
        return attempted, attempted, ["wrong number of result entries"]
    if (
        payload.get("runs") != attempted
        or payload.get("detected") != sum(bool(e.get("detected")) for e in entries)
        or payload.get("recovered") != sum(bool(e.get("recovered")) for e in entries)
    ):
        return attempted, attempted, ["aggregate counts disagree with entries"]
    problems: Dict[int, str] = {}
    if step["table"] == "fig11":
        problems.update(_golden_failures(spec, entries))
    for position, (ci, stage, seed) in enumerate(_canonical_runs(spec)):
        entry = entries[position]
        if not entry.get("detected"):
            problems.setdefault(position, f"{ci}/{stage} seed {seed}: missed detection")
        elif not entry.get("recovered"):
            problems.setdefault(position, f"{ci}/{stage} seed {seed}: not recovered")
        else:
            digests = table["digests"][f"{ci}/{stage}"]
            at = seed * DIGEST_BYTES
            if entry_digest(entry) != digests[at : at + DIGEST_BYTES]:
                problems.setdefault(
                    position, f"{ci}/{stage} seed {seed}: differs from reference"
                )
    return attempted, len(problems), [problems[p] for p in sorted(problems)]


def check_file(path: Path, step: dict, reference: Dict[str, dict]):
    """:func:`check_campaign` on an exported JSON file."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        attempted = _run_total(expected_spec(reference, step))
        return attempted, attempted, [f"{path.name}: unreadable ({exc})"]
    return check_campaign(payload, step, reference)


def record(path: Path = REFERENCE_PATH) -> None:
    """Simulate every table's full seed range serially and store digests."""
    from repro.analysis.export import write_campaign_json
    from repro.orchestrate import run_campaign_spec

    tables = {}
    for name, table in TABLES.items():
        step = {"table": name, "seeds": list(range(table["seeds"]))}
        spec = build_spec(step)
        results = run_campaign_spec(spec, workers=1)
        stream = io.StringIO()
        write_campaign_json(results, stream, spec=spec)
        payload = json.loads(stream.getvalue())
        entries = payload["results"]
        bad = [e for e in entries if not (e["detected"] and e["recovered"])]
        golden = _golden_failures(payload["spec"], entries) if name == "fig11" else {}
        if bad or golden:
            raise SystemExit(
                f"{name}: {len(bad)} runs undetected/unrecovered, "
                f"golden failures {sorted(golden.values())}"
            )
        digests: Dict[str, bytearray] = {}
        for (ci, stage, _seed), entry in zip(_canonical_runs(payload["spec"]), entries):
            digests.setdefault(f"{ci}/{stage}", bytearray()).extend(entry_digest(entry))
        base = dict(payload["spec"])
        del base["seeds"]
        tables[name] = {
            "spec": base,
            "seeds": table["seeds"],
            "digests": {
                key: base64.b64encode(bytes(blob)).decode()
                for key, blob in digests.items()
            },
        }
        print(f"{name}: {len(entries)} runs recorded", file=sys.stderr)
    path.write_text(json.dumps({"tables": tables}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", action="store_true", required=True)
    parser.parse_args()
    record()
