"""Write results/baseline.json: one untraced and one traced run of every
workload at `run_seconds`, with the facts of the machine they ran on.

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    runs = {}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(trace)], capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            path = os.path.join(ROOT, ".perfbench", "results",
                                f"{workload}-seed{SEED}-trace{trace}.json")
            with open(path, encoding="utf-8") as fh:
                runs[f"{workload}/trace{trace}"] = json.load(fh)
            print(f"{workload} trace {trace}: {proc.stdout.strip().splitlines()[-2]}")
    record = {
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "sympy", "jsonschema")},
        },
        "run_seconds": bench["run_seconds"],
        "runs": runs,
    }
    with open(os.path.join(HERE, "results", "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
