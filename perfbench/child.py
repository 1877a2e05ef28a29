"""Run one attractorlab CLI command in this fresh process, as a user does,
and report its cost to perfbench/run.py.

    python3 perfbench/child.py --config C --out DIR --command floquet [--trace FILE | --setup-only]

Standard output carries two lines.  "ready" comes once the interpreter is
up, `attractorlab` is imported from this checkout's src/ and the config is
loaded and schema-validated: run.py times set-up up to that line.  The
last line is JSON with the exit code of `cli.main`, the wall and CPU seconds
spent inside it, and the process's peak RSS since exec.  The command's own
output goes to DIR/cli.log.  With --trace the layer wrappers of
perfbench/layers.py are installed around the call and their spans are
written to FILE.  With --setup-only the process exits after "ready", which
gives run.py extra set-up samples at little cost.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _peak_rss_kb() -> int:
    """Peak resident set of this process, in KiB.  ru_maxrss carries the
    parent's peak across fork and exec, so the kernel's VmHWM of this
    process's own memory comes first."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--command", required=True)
    parser.add_argument("--trace", help="write layer spans and counters to this JSON file")
    parser.add_argument("--setup-only", action="store_true", help="exit once ready")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import attractorlab
    from attractorlab import cli
    from attractorlab.config import load_config

    if not os.path.abspath(attractorlab.__file__).startswith(SRC + os.sep):
        print(f"attractorlab imported from {attractorlab.__file__}, not {SRC}", file=sys.stderr)
        return 1
    load_config(args.config)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    argv = ["--config", args.config, "--out", args.out, "--threads", "1", args.command]
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "cli.log"), "w", encoding="utf-8") as log, \
            redirect_stdout(log), redirect_stderr(log):
        before = resource.getrusage(resource.RUSAGE_SELF)
        started = time.perf_counter()
        rc = cli.main(argv)
        run_s = time.perf_counter() - started
        after = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace)
    cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    print(json.dumps({"rc": rc, "run_s": run_s, "cpu_s": cpu_s, "maxrss_kb": _peak_rss_kb()}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
