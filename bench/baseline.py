"""Record a baseline of the benchmark into bench/baseline.json.

    python3 bench/baseline.py RUNS SEED [SEED ...]

Runs every workload RUNS times untraced at each seed, plus one traced run
at the first seed, and records each end-to-end metric's median and
quartiles (statistics.quantiles, n=4) with the run count, Python version
and the number of usable CPUs.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} errors\n{proc.stdout}")
    return result


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv) -> int:
    runs, seeds = int(argv[0]), [int(s) for s in argv[1:]]
    doc = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": SPEC["run_seconds"],
        "runs_per_seed": runs,
        "unmeasured": "frolicher: no CLI command or workload reaches it",
        "workloads": {},
    }
    for w in SPEC["workloads"]:
        name = w["name"]
        entry = {}
        for seed in seeds:
            results = [run_once(name, seed, 0) for _ in range(runs)]
            entry[f"seed {seed}"] = {
                m["name"]: summary([r["metrics"][m["name"]]["value"] for r in results])
                for m in SPEC["end_to_end"]
            }
        traced = run_once(name, seeds[0], 1)["metrics"]
        entry[f"traced, seed {seeds[0]}"] = {k: v["value"] for k, v in traced.items()}
        doc["workloads"][name] = entry
        print(name, "done", flush=True)
    (BENCH / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
