"""The repository benchmark: serial fault campaigns timed end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig11_system --seed 3 --seconds 25 --trace 0

Each workload (``workloads.py``; why each was chosen is in
``BENCHMARK.json``) is a closed loop of one serial campaign in one fresh
child process (``child.py``), repeated until ``--seconds`` have passed.
The seed selects the window of phase-offset seeds the campaign sweeps.

``--trace 0`` reports the end-to-end host metrics of untraced children,
each the median over the children of the run:

* ``setup_s`` - child launch until the engine hands out the first run
  (interpreter start, ``import repro.cli``, planning, store open);
* ``wall_s`` - child launch until the campaign JSON is written;
* ``runs_per_s`` - runs handed to the executor (all of them, except on
  the store sweep, where only each step's frontier) per second of
  campaign phase: the executor's first run until the engine returns;
* ``peak_rss_mb`` - the child's peak resident memory.

``--trace 1`` repeats triples of (untraced, traced, profiled) children
and reports per-layer metrics: spans around each layer's public entry
points (``layers.py``), the batch and store counters of the engine's
``metrics=`` registry, cProfile self-time shares by module (attribution
only, never a gate) and ``trace.overhead_frac``, the traced child's
wall-time excess over the untraced one of the same triple.  The last
traced child's spans are kept in ``.perfbench/spans-<workload>-s<seed>.jsonl``.

Every child's exported campaign is checked run by run against
``reference.json`` (``verify.py``).  A run fails when its result differs,
it was not detected or it did not recover; ``failed``/``attempted`` in
the result line, and the printed ``failed_frac``, count them.  The last
stdout line is the JSON result; the line before it is the host
fingerprint (recorded only, never used to rescale anything).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from verify import check_file, load_reference  # noqa: E402
from workloads import WORKLOADS, frontier_runs, run_count  # noqa: E402

#: End-to-end metrics (untraced runs) and their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "orchestrate.plan_s": "s",
    "orchestrate.runs_executed": "count",
    "orchestrate.run_ms.p50": "ms",
    "orchestrate.run_ms.p99": "ms",
    "orchestrate.engine_self_s": "s",
    "faults.harness_builds": "count",
    "faults.harness_build_s": "s",
    "soc.builds": "count",
    "soc.build_s": "s",
    "sim.run_s": "s",
    "sim.stepped_cycles": "count",
    "sim.leaps": "count",
    "sim.cycles_leaped": "count",
    "sim.stepped_cycles_per_run": "count",
    "sim.us_per_stepped_cycle": "us",
    "sim.stepped_cycles_per_s": "1/s",
    "batch.simulated": "count",
    "batch.derived": "count",
    "batch.derived_share": "frac",
    "store.open_s": "s",
    "store.gets": "count",
    "store.get_s": "s",
    "store.puts": "count",
    "store.put_s": "s",
    "store.hit_share": "frac",
    "store.frontier_runs": "count",
    "analysis.export_s": "s",
    **{
        f"profile.self_share.{group}": "frac"
        for group in (
            "sim.kernel", "sim.signal", "sim.component", "axi", "tmu",
            "soc", "faults", "orchestrate", "analysis",
        )
    },
    "profile.calls.sim.signal": "count",
    "profile.calls.axi.memory": "count",
    "trace.overhead_frac": "frac",
}

#: Untraced children per run at least, whatever ``--seconds`` says, so a
#: median exists.
MIN_CHILDREN = 3

#: A child taking longer than this is killed and its runs count failed.
CHILD_TIMEOUT_S = 120


def host_fingerprint() -> dict:
    """Python, core count, CPU model and a pure-Python calibration time."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - started)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "calibration_ms": round(best * 1e3, 3),
    }


class Bench:
    """Runs children for one workload and checks what they export."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.steps = WORKLOADS[workload](seed)
        self.frontier = frontier_runs(self.steps)
        self.reference = load_reference()
        self.work = root / ".perfbench" / f"{workload}-s{seed}-{os.getpid()}"
        self.spans = root / ".perfbench" / f"spans-{workload}-s{seed}.jsonl"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), self.env.get("PYTHONPATH")])
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._children = 0

    def warm_up(self) -> None:
        """Compile the program's bytecode once, outside any timing."""
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            env=self.env, cwd=self.root, timeout=CHILD_TIMEOUT_S,
        )

    def child(self, mode: str) -> dict | None:
        """Run one child; returns its report, or None if it failed."""
        out = self.work / f"child{self._children}"
        self._children += 1
        out.mkdir(parents=True)
        job = json.dumps(self.steps)
        launched = time.monotonic()
        proc = None
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), mode, str(out),
                 repr(launched), job],
                env=self.env, cwd=self.root, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            pass
        report = None
        if proc is not None and proc.returncode == 0:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        elif proc is not None:
            self.problems.append(f"{mode} child exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-400:]}")
        else:
            self.problems.append(f"{mode} child timed out")
        for index, step in enumerate(self.steps):
            attempted, failed, problems = check_file(
                out / f"step{index}.json", step, self.reference
            )
            self.attempted += attempted
            self.failed += failed
            self.problems.extend(problems[:5])
        if (out / "spans.jsonl").exists():
            # The latest traced child's spans outlive the run.
            (out / "spans.jsonl").replace(self.spans)
        shutil.rmtree(out, ignore_errors=True)
        return report

    def end_to_end(self, report: dict) -> dict:
        steps = report["steps"]
        launched = report["launched"]
        campaign = sum(s["returned"] - s["first_run"] for s in steps)
        return {
            "setup_s": steps[0]["first_run"] - launched,
            "wall_s": steps[-1]["written"] - launched,
            "runs_per_s": self.frontier / campaign,
            "peak_rss_mb": report["maxrss_kb"] / 1024,
        }

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _medians(samples: list, units: dict) -> dict:
    """name -> (median over *samples*, unit), for every name in *units*."""
    if not samples:
        return {}
    return {
        name: (statistics.median(sample[name] for sample in samples), unit)
        for name, unit in units.items()
    }


def measure(bench: Bench, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + seconds
    plain, layers = [], []
    while True:
        report = bench.child("plain")
        if report is not None:
            plain.append(bench.end_to_end(report))
        if trace:
            traced = bench.child("trace")
            profiled = bench.child("profile")
            if report is not None and traced is not None and profiled is not None:
                wall = plain[-1]["wall_s"]
                layers.append({
                    **traced["layers"],
                    **profiled["layers"],
                    "cli.import_s": traced["import_s"],
                    "cli.import_numpy_s": traced["import_numpy_s"],
                    "trace.overhead_frac":
                        (bench.end_to_end(traced)["wall_s"] - wall) / wall,
                })
        done = len(layers) >= 1 if trace else len(plain) >= MIN_CHILDREN
        if bench.problems or (done and time.monotonic() >= deadline):
            break
    return _medians(layers, PER_LAYER) if trace else _medians(plain, END_TO_END)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout holding "
              "src/repro", file=sys.stderr)
        return 2

    # A terminated run raises SystemExit instead of dying outright, so
    # subprocess.run kills and reaps the running child on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(root, args.workload, args.seed)
    try:
        bench.warm_up()
        metrics = measure(bench, args.seconds, bool(args.trace))
    finally:
        bench.close()
    correct = bool(metrics) and bench.failed == 0 and not bench.problems
    for problem in bench.problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    runs = sum(run_count(step) for step in bench.steps)
    print(f"workload {args.workload}: {runs} runs per child, "
          f"{bench.frontier} through the executor")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    failed_frac = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"  {'failed_frac':34s} {failed_frac:14.6g} frac "
          f"({bench.failed}/{bench.attempted})")
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
