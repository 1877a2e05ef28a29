"""Smoke test of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload's pipeline on the tiny configs in configs/smoke with
--trace 1 (an untraced and a traced process per command, the output checks
and the byte comparison between them), one untraced run of `cover` for the
end-to-end metric names, and the wrapper-map guard.  Exits 1 on the first
failure.  The `cubes` config cannot shrink below three cube levels (five
window kernels), so at the seed commit that workload dominates the time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_CONFIGS = os.path.join(HERE, "configs", "smoke")


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--configs", SMOKE_CONFIGS],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} trace {trace}: not correct\n{proc.stdout}")
    return result


def _check_guard() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from attractorlab import geometry
    from layers import WRAPS, TraceMapError, Tracer

    original = geometry.box_count
    table = WRAPS + [("geometry", "PointCloud.no_such_method", "geometry.missing", None, None)]
    try:
        Tracer().install(table)
    except TraceMapError:
        pass
    else:
        raise SystemExit("a missing wrapped name did not raise TraceMapError")
    if geometry.box_count is not original:
        raise SystemExit("a failed install left wrappers behind")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    layer_names = {m["name"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        got = set(_run(workload, 1)["metrics"])
        if got != layer_names:
            raise SystemExit(f"{workload}: per-layer metrics differ: {sorted(got ^ layer_names)}")
        print(f"ok  {workload} traced")
    got = set(_run("cover", 0)["metrics"])
    if got != {m["name"] for m in bench["end_to_end"]}:
        raise SystemExit(f"cover: end-to-end metrics are {sorted(got)}")
    print("ok  cover untraced")
    _check_guard()
    print("ok  wrapper-map guard")
    return 0


if __name__ == "__main__":
    sys.exit(main())
