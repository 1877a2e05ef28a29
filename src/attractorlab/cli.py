"""Scenario runner: each command resolves its JSON config, calls the
command's library entry point, prints the summary lines it returns, and
writes its tables and a JSON report through one writer.  Every verdict,
every table row and the choice of each cloud kind's pipeline are made in
the library; this module names none of them.

Exit discipline: 0 when every verdict matches the configured expectation,
2 when an experiment ran cleanly but its verdict contradicts the expected
baseline (a finding, not a crash), 1 on operational failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import simulate as sim
from .config import (ConfigError, config_hash, dimension_from_config, drive_from_config,
                     load_config, scenario_from_config, spectrum_from_config)
from .phases import floquet_check
from .reports import unmet_expectation, write_csv, write_json
# gap_check calls c1_obstruction_check; perfbench/layers.py wraps this binding too
from .spectral import c1_obstruction_check, gap_check  # noqa: F401

__all__ = ["main"]


def _run(cfg, args, command: str, entry) -> int:
    """Call `entry` for the command's Outcome, write its tables, print its
    summary, and write <command>_report.json: the scenario hash, the
    verdict, the constants, the files written, the expectation and the
    wall clock, which lives only there.  Returns the exit code."""
    started = time.time()
    outcome = entry()
    out = args.out or cfg["output"]["dir"]
    key = command.replace("-", "_")
    want = cfg["expectations"].get(key)
    expected = {key: want} if want else {}
    verdicts = {key: outcome.verdict}
    files = [write_csv(os.path.join(out, name), header, rows)
             for name, header, rows in outcome.tables]
    for line in outcome.summary:
        print(line)
    path = write_json(os.path.join(out, f"{command}_report.json"), {
        "scenario_hash": config_hash(cfg), "command": command, "verdicts": verdicts,
        "constants": outcome.constants, "files": files, "expected": expected,
        "wall_clock_s": time.time() - started})
    print(f"[{command}] verdicts: {verdicts}")
    print(f"[{command}] report: {path}")
    if unmet_expectation(expected, verdicts) is not None:
        print(f"[{command}] verdict contradicts configured expectation", file=sys.stderr)
        return 2
    return 0


def cmd_gap_check(cfg, args) -> int:
    return _run(cfg, args, "gap-check",
                lambda: gap_check(spectrum_from_config(cfg), cfg["dynamics"]["L"]))


def cmd_floquet(cfg, args) -> int:
    dyn = cfg["dynamics"]
    return _run(cfg, args, "floquet", lambda: floquet_check(
        spectrum_from_config(cfg), drive_from_config(cfg), dyn["n_trunc"], dyn["L"]))


def cmd_dimension(cfg, args) -> int:
    return _run(cfg, args, "dimension", lambda: dimension_from_config(cfg))


def cmd_simulate(cfg, args) -> int:
    return _run(cfg, args, "simulate", lambda: sim.pair_check(
        scenario_from_config(cfg), cfg["dynamics"]["n_periods"]))


def cmd_report(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    print(f"command: {payload.get('command')}  hash: {payload.get('scenario_hash')}")
    verdicts = payload.get("verdicts", {})
    for key, val in sorted(verdicts.items()):
        print(f"  {key}: {val}")
    for key, val in sorted(payload.get("constants", {}).items()):
        if isinstance(val, (int, float, bool, str)):
            print(f"  {key} = {val}")
    expected = payload.get("expected", {})
    key = unmet_expectation(expected, verdicts)
    if key is not None:
        print(f"  expectation violated: {key} = {verdicts.get(key)}, expected {expected[key]}",
              file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="attractorlab",
        description="deterministic experiments on spectral-gap counterexample systems",
    )
    parser.add_argument("--config", help="JSON experiment configuration")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; sweeps run serially")
    handlers = {"gap-check": cmd_gap_check, "floquet": cmd_floquet,
                "dimension": cmd_dimension, "simulate": cmd_simulate}
    sub = parser.add_subparsers(dest="command", required=True)
    for name in handlers:
        sub.add_parser(name)
    sub.add_parser("report").add_argument("report_file")
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.report_file)
        if not args.config:
            parser.error(f"{args.command} requires --config")
        cfg = load_config(args.config)
        return handlers[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # operational failure -> exit 1 with diagnostics
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
