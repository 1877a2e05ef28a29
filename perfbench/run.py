"""Benchmark of the attractorlab CLI: four workloads, end-to-end and
per-layer metrics.  See perfbench/README.md for the workloads and metrics.

    python3 perfbench/run.py --workload cubes --seed 1 --seconds 30 --trace 0

Each command of a workload runs in a fresh Python process
(perfbench/child.py), one at a time and with `--threads 1`.  An iteration
runs every command of the workload once; iterations repeat until the next
one would end after --seconds, but at least two run, so outputs compare
byte for byte within the run.  With --trace 1 iterations alternate between
untraced and traced processes and the per-layer metrics come from the
traced ones.  Every command process is bracketed by a pass of the fixed
loop of perfbench/reference.py, and its times are scaled to the box's
reference speed.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

from gen_cover import write_cover_cloud
from layers import layer_metrics, layer_totals
from reference import REF_S, reference_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(HERE, "configs")
WORK = os.path.join(ROOT, ".perfbench")

# workload -> (config file in perfbench/configs, commands run per iteration)
WORKLOADS = {
    "dynamics": ("dynamics.json", ("gap-check", "floquet", "simulate")),
    "cubes": ("cubes.json", ("dimension",)),
    "section4": ("section4.json", ("dimension",)),
    "cover": ("cover.json", ("dimension",)),
}
MIN_ITERATIONS = 2  # so every run compares its outputs byte for byte
SETUP_SAMPLES = 5  # set-ups per command and run; --setup-only spawns top up the count
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s
# no command may start more threads than the one it runs on
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class CommandFailed(Exception):
    """A command run exited non-zero or its outputs failed a check."""


def _prepare_config(workload: str, run_dir: str, seed: int,
                    config_root: str) -> tuple[str, dict, dict]:
    """Copy the workload's config into the run directory; the cover workload
    first generates its seeded cloud there and points the config at it.
    Returns the copy's path, the resolved config and facts for the record."""
    from attractorlab.config import resolve_config

    name = WORKLOADS[workload][0]
    with open(os.path.join(config_root, name), encoding="utf-8") as fh:
        raw = json.load(fh)
    info = {}
    if workload == "cover":
        cloud_path = os.path.join(run_dir, "cover_cloud.csv")
        info["cover_points"] = write_cover_cloud(cloud_path, seed)
        raw["geometry"]["cloud"]["path"] = cloud_path
    path = os.path.join(run_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2)
    return path, resolve_config(raw), info


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CommandFailed(f"{os.path.basename(path)} is empty")
    return rows[0], rows[1:]


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise CommandFailed(message)


def check_outputs(command: str, out: str, cfg: dict) -> dict[str, str]:
    """Verdicts against the configured expectations and structural checks
    of every CSV; returns the SHA-256 of each CSV for byte comparisons."""
    from attractorlab.config import parse_scales

    report_path = os.path.join(out, f"{command}_report.json")
    _check(os.path.exists(report_path), f"{command} wrote no report")
    with open(report_path, encoding="utf-8") as fh:
        verdicts = json.load(fh)["verdicts"]
    key = command.replace("-", "_")
    _check(key in verdicts, f"{command} report has no {key} verdict")
    want = cfg["expectations"].get(key)
    _check(want is None or verdicts[key] == want,
           f"{command} verdict {verdicts[key]!r}, paper-backed expectation {want!r}")

    if command == "floquet":
        header, rows = _read_csv(os.path.join(out, "floquet_iterates.csv"))
        _check(header == ["N", "lognorm"], f"floquet header {header}")
        _check(len(rows) >= 5 and [int(r[0]) for r in rows] == list(range(len(rows))),
               "floquet iterates are not N = 0..n with n >= 4")
        logs = [float(r[1]) for r in rows]
        _check(all(math.isfinite(v) for v in logs) and all(b < a for a, b in zip(logs, logs[1:])),
               "floquet iterate log-norms are not finite and decreasing")
    elif command == "simulate":
        header, rows = _read_csv(os.path.join(out, "pair_distance.csv"))
        _check(header == ["t", "log_distance"], f"pair_distance header {header}")
        _check(len(rows) == cfg["dynamics"]["n_periods"] + 1,
               f"pair_distance has {len(rows)} rows, want n_periods + 1")
        logs = [float(r[1]) for r in rows]
        _check(all(math.isfinite(v) for v in logs) and all(b < a for a, b in zip(logs, logs[1:])),
               "pair log-distances are not finite and decreasing")
        header, rows = _read_csv(os.path.join(out, "pair_trajectory.csv"))
        _check(header == ["t", "mode_index", "sign", "logmag"] and rows,
               "pair_trajectory is empty or has the wrong header")
    elif command == "dimension":
        _, cloud_rows = _read_csv(os.path.join(out, "cloud.csv"))
        n_points = len({r[0] for r in cloud_rows})
        header, rows = _read_csv(os.path.join(out, "dimension_scan.csv"))
        _check(header == ["s", "eps", "log_eps", "n_eps", "d_eps", "local_slope"],
               f"dimension_scan header {header}")
        geo = cfg["geometry"]
        if geo["cloud"]["kind"] == "bad_cubes":
            dyn = cfg["dynamics"]
            want_rows = dyn["kick_max_level"] - dyn["n0"] + 1
            _check(len(rows) == want_rows and all(float(r[0]) == 0.0 for r in rows),
                   f"dimension_scan has {len(rows)} rows, want one per cube level ({want_rows})")
        else:
            log_scales = sorted((math.log(e) for e in parse_scales(geo["scales"])), reverse=True)
            want = [(float(s), le) for s in geo["s_list"] for le in log_scales]
            got = [(float(r[0]), float(r[2])) for r in rows]
            _check(got == want, "dimension_scan rows are not every (s, scale) pair in order")
            if geo["include_doubling"]:
                _check(all(r[4] and int(r[4]) >= 1 for r in rows), "d_eps < 1 or missing")
        _check(all(1 <= int(r[3]) <= n_points for r in rows),
               f"n_eps outside [1, |cloud| = {n_points}]")
    return {name: _sha256(os.path.join(out, name))
            for name in sorted(os.listdir(out)) if name.endswith(".csv")}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_command(command: str, config: str, out: str, deadline: float,
                trace_file: str | None = None, setup_only: bool = False) -> dict:
    """One fresh-process run of `command`; returns its timings.  Raises
    CommandFailed when the process fails or runs past the deadline."""
    os.makedirs(out, exist_ok=True)
    argv = [sys.executable, os.path.join(HERE, "child.py"),
            "--config", config, "--out", out, "--command", command]
    if trace_file:
        argv += ["--trace", trace_file]
    if setup_only:
        argv.append("--setup-only")
    err_path = os.path.join(out, "child.err")
    with open(err_path, "w", encoding="utf-8") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, text=True,
                                env={**os.environ, **CHILD_ENV})
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
            line = proc.stdout.readline() if ready else ""
            setup_s = time.perf_counter() - spawned
            if line.strip() == "ready":
                tail, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            line = ""
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        with open(err_path, encoding="utf-8") as fh:
            detail = fh.read().strip().splitlines()[-1:] or ["timed out or died before ready"]
        raise CommandFailed(f"{command}: child failed: {detail[0]}")
    if setup_only:
        return {"setup_s": setup_s}
    result = json.loads(tail.strip().splitlines()[-1])
    if result["rc"] != 0:
        with open(os.path.join(out, "cli.log"), encoding="utf-8") as fh:
            detail = fh.read().strip().splitlines()[-1:] or [""]
        raise CommandFailed(f"{command}: exit code {result['rc']}: {detail[0]}")
    result["setup_s"] = setup_s
    return result


def scaled(sample: dict, key: str) -> float:
    """A sample's time in seconds at the box's reference speed."""
    return sample[key] * REF_S / sample["ref_s"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="seeds the cover cloud; the other workloads are fixed configs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--configs", default=CONFIGS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.configs)


def run(workload: str, seed: int, seconds: float, trace: bool, config_root: str = CONFIGS) -> int:
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "attractorlab", "cli.py")):
        print(f"no attractorlab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)

    run_dir = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    results = os.path.join(WORK, "results")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(results, exist_ok=True)
    try:
        config, cfg, info = _prepare_config(workload, run_dir, seed, config_root)
        commands = WORKLOADS[workload][1]
        deadline = started + HARD_LIMIT_S
        samples = {cmd: {"untraced": [], "traced": [], "setup": []} for cmd in commands}
        traces: list[dict] = []
        first_hashes: dict[str, dict] = {}
        problems: list[str] = []
        attempted = failed = 0
        durations = {"untraced": [], "traced": []}
        top_self: list = []  # span names by self time in the last traced iteration
        reference_s()  # first pass warms the loop's caches and allocator
        refs = [reference_s()]  # loop times; the last one precedes the next process
        iteration = 0
        while True:
            mode = "traced" if trace and iteration % 2 else "untraced"
            if iteration >= MIN_ITERATIONS:
                expected_end = (time.perf_counter() - started
                                + statistics.median(durations[mode] or durations["untraced"]))
                if expected_end > seconds:
                    break
            it_started = time.perf_counter()
            totals, spans_self = {}, {}
            for cmd in commands:
                out = os.path.join(run_dir, f"i{iteration}-{mode}", cmd)
                trace_file = os.path.join(out, "trace.json") if mode == "traced" else None
                attempted += 1
                try:
                    sample = run_command(cmd, config, out, deadline, trace_file)
                    refs.append(reference_s())
                    sample["ref_s"] = (refs[-2] + refs[-1]) / 2
                    hashes = check_outputs(cmd, out, cfg)
                    if first_hashes.setdefault(cmd, hashes) != hashes:
                        raise CommandFailed(f"{cmd}: CSVs differ from the first run "
                                            f"({mode} iteration {iteration})")
                except CommandFailed as exc:
                    failed += 1
                    problems.append(str(exc))
                    continue
                samples[cmd][mode].append(sample)
                if trace_file:
                    with open(trace_file, encoding="utf-8") as fh:
                        dump = json.load(fh)
                    for k, v in layer_totals(dump).items():
                        totals[k] = totals.get(k, 0) + v
                    for k, v in dump["self_s"].items():
                        spans_self[k] = spans_self.get(k, 0.0) + v
                    shutil.copy(trace_file, os.path.join(results, f"{workload}-seed{seed}-{cmd}-spans.json"))
            durations[mode].append(time.perf_counter() - it_started)
            if totals:
                traces.append(totals)
                top_self = sorted(spans_self.items(), key=lambda kv: -kv[1])[:8]
            iteration += 1
            if time.perf_counter() > deadline:
                problems.append("hard time limit reached")
                break

        for cmd in commands:
            setups = samples[cmd]["setup"] = [scaled(s, "setup_s") for s in samples[cmd]["untraced"]]
            for k in range(0 if trace else SETUP_SAMPLES - len(setups)):
                try:
                    sample = run_command(cmd, config, os.path.join(run_dir, f"setup{k}", cmd),
                                         deadline, setup_only=True)
                    setups.append(scaled({**sample, "ref_s": refs[-1]}, "setup_s"))
                except CommandFailed as exc:
                    problems.append(f"set-up only: {exc}")

        def summed(mode: str, key: str) -> float:
            return sum(statistics.median([scaled(s, key) for s in samples[c][mode]])
                       for c in commands if samples[c][mode])

        untraced_ok = all(samples[c]["untraced"] for c in commands)
        if trace:
            metrics = layer_metrics({k: statistics.median(t[k] for t in traces)
                                     for k in traces[0]}) if traces else {}
            if traces and untraced_ok:
                metrics["trace.overhead_s"] = summed("traced", "run_s") - summed("untraced", "run_s")
            units = {k: "s" if k.endswith(("_s", ".s")) else "B" if k.endswith("_bytes")
                     else "ratio" if k.endswith(("_frac", "_call")) else "count" for k in metrics}
        else:
            metrics = {
                "run_s": summed("untraced", "run_s"),
                "cpu_s": summed("untraced", "cpu_s"),
                "setup_s": sum(statistics.median(samples[c]["setup"])
                               for c in commands if samples[c]["setup"]),
                "peak_rss_mb": max((s["maxrss_kb"] for c in commands for s in samples[c]["untraced"]),
                                   default=0) / 1024.0,
                "ok_frac": (attempted - failed) / attempted,
            }
            units = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                     "ok_frac": "ratio"}
        correct = not problems and untraced_ok and (not trace or bool(traces))
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "iterations": iteration, "attempted": attempted, "failed": failed,
            "problems": problems, "samples": samples, "metrics": metrics,
            "top_self_s": top_self, "ref_s": {"nominal": REF_S, "median": statistics.median(refs)},
            **info,
        }
        result_path = os.path.join(results, f"{workload}-seed{seed}-trace{int(trace)}.json")
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in problems:
        print(f"problem: {problem}")
    print(f"workload {workload} seed {seed} trace {int(trace)}: {iteration} iterations, "
          f"{attempted} command runs, {failed} failed; record {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
