"""Scenario runner: deterministic experiments driven by a JSON config.

Exit discipline: 0 when every verdict matches the configured expectation,
2 when an experiment ran cleanly but its verdict contradicts the expected
baseline (a finding, not a crash), 1 on operational failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import floquet as fl
from . import geometry as geo
from . import simulate as sim
from .config import (ConfigError, config_hash, drive_from_config, load_config,
                     parse_scales, scenario_from_config, spectrum_from_config)
from .reports import (RunReport, cloud_rows, fmt17, geometry_rows, load_cloud_csv,
                      trajectory_rows, write_csv)
from .spectral import c1_obstruction_check, spectral_gap

__all__ = ["main"]


def _out_dir(cfg, args) -> str:
    return args.out or cfg["output"]["dir"]


def _finish(report: RunReport, out_dir: str, started: float) -> int:
    report.wall_clock_s = time.time() - started
    path = report.to_json(os.path.join(out_dir, f"{report.command}_report.json"))
    report.files.append(path)
    ok = report.verdict_matches_expectation()
    print(f"[{report.command}] verdicts: {report.verdicts}")
    print(f"[{report.command}] report: {path}")
    if not ok:
        print(f"[{report.command}] verdict contradicts configured expectation", file=sys.stderr)
        return 2
    return 0


def cmd_gap_check(cfg, args) -> int:
    started = time.time()
    out = _out_dir(cfg, args)
    spec = spectrum_from_config(cfg)
    coupling = cfg["dynamics"]["L"]
    gap = spectral_gap(spec)
    report = RunReport(config_hash(cfg), "gap-check",
                       expected=_expected(cfg, "gap_check"))
    print(f"spectral gap: {'unbounded' if math.isinf(gap) else fmt17(gap)}")
    if math.isinf(gap):
        report.verdicts["gap_check"] = "unbounded_gap"
        print("unbounded gap: the gap condition holds beyond any fixed Lipschitz "
              "budget, inertial-manifold regime at every L beyond the gap")
        return _finish(report, out, started)
    verdict = c1_obstruction_check(spec, coupling)
    report.verdicts["gap_check"] = (
        "obstruction" if verdict.parity_contradiction else "no_obstruction"
    )
    report.constants.update({
        "L0": gap,
        "L": coupling,
        "minus_real_count": verdict.minus_real_count,
        "plus_real_count": verdict.plus_real_count,
    })
    print(f"{'site':>8} {'truncation':>10} {'real eigs':>9}")
    print(f"{'minus':>8} {verdict.minus_truncation:>10} {verdict.minus_real_count:>9}")
    print(f"{'plus':>8} {verdict.plus_truncation:>10} {verdict.plus_real_count:>9}")
    print(verdict.note)
    return _finish(report, out, started)


def cmd_floquet(cfg, args) -> int:
    started = time.time()
    out = _out_dir(cfg, args)
    spec = spectrum_from_config(cfg)
    drive = drive_from_config(cfg)
    n_trunc = min(cfg["dynamics"]["n_trunc"], spec.n_max - 2)
    op = fl.make_periodic_operator(spec, drive)
    predicted = fl.poincare_predicted(spec, drive.half_period)
    numeric = fl.poincare_numeric(op, n_trunc)
    match = fl.shift_match_report(numeric, predicted)
    n_iter = max(4, min(12, (spec.n_max - 3) // 2))
    cert = fl.decay_certificate(predicted, 2, n_iter)
    report = RunReport(config_hash(cfg), "floquet", expected=_expected(cfg, "floquet"))
    report.verdicts["floquet"] = "pattern_ok" if (
        match["pattern_ok"] and cert.passes
    ) else "pattern_broken"
    report.constants.update({
        "pattern_ok": match["pattern_ok"],
        "max_log_rel_err": match["max_log_rel_err"],
        "max_off_pattern": match["max_off_pattern"],
        "beta": cert.beta,
        "epsilon": op.epsilon,
    })
    path = write_csv(os.path.join(out, "floquet_iterates.csv"),
                     ["N", "lognorm"],
                     [(k, -cert.lognorms[k]) for k in range(len(cert.lognorms))])
    report.files.append(path)
    print(f"shift pattern ok: {match['pattern_ok']}  "
          f"max log rel err: {fmt17(match['max_log_rel_err'])}  "
          f"off-pattern: {fmt17(match['max_off_pattern'])}")
    print(f"decay beta: {fmt17(cert.beta)}, certified: {cert.passes}")
    return _finish(report, out, started)


def _expected(cfg, key):
    want = cfg.get("expectations", {}).get(key)
    return {key: want} if want else {}


def _build_cloud(cfg):
    gcfg = cfg["geometry"]["cloud"]
    kind = gcfg.get("kind", "section4")
    if kind == "file":
        return load_cloud_csv(gcfg["path"]), {"kind": "file"}
    if kind == "bad_cubes":
        scen = scenario_from_config(cfg)
        shift = fl.poincare_predicted(scen.spectrum, scen.drive.half_period)
        cloud, meta = sim.bad_cube_cloud(scen, shift)
        meta["kind"] = "bad_cubes"
        return cloud, meta
    spec = spectrum_from_config(cfg)
    laws = sim.thm44_laws() if gcfg.get("laws", "thm44") == "thm44" else sim.smooth_forcing_laws(
        gcfg.get("n_max", 48)
    )
    cloud, meta = sim.section4_attractor(laws, spec, gcfg.get("n_max", 48),
                                         beta_scale=cfg["dynamics"]["beta_scale"])
    meta["kind"] = "section4"
    return cloud, meta


def cmd_dimension(cfg, args) -> int:
    started = time.time()
    out = _out_dir(cfg, args)
    report = RunReport(config_hash(cfg), "dimension", expected=_expected(cfg, "dimension"))
    cloud, meta = _build_cloud(cfg)
    scales = parse_scales(args.scales or cfg["geometry"]["scales"])
    if meta.get("kind") == "bad_cubes":
        cube = geo.cube_doubling_report(cloud, meta["levels"])
        report.verdicts["dimension"] = cube["log_doubling"]["verdict"]
        report.constants["levels"] = [
            {k: v for k, v in lvl.items()} for lvl in cube["levels"]
        ]
        report.constants["log_doubling_estimate"] = cube["log_doubling"]["estimate"]
        report.constants["all_bounds_ok"] = cube["all_bounds_ok"]
        rows = [
            {"s": 0.0, "log_eps": lvl["log_eps"], "n_eps": lvl["n_half_cover"],
             "d_eps": None, "local_slope": lvl["log2_doubling_bound"]}
            for lvl in cube["levels"]
        ]
    else:
        s_list = cfg["geometry"]["s_list"]
        result = geo.dimension_vs_s_scan(
            cloud, s_list, log_scales=[math.log(e) for e in scales],
            include_doubling=cfg["geometry"]["include_doubling"])
        scans, rows = result["scans"], result["rows"]
        growing = any(
            len(scan.local_slopes) >= 3 and scan.local_slopes[-1] > scan.local_slopes[0] + 0.5
            for scan in scans.values()
        )
        report.verdicts["dimension"] = "diverging" if growing else "finite"
        report.constants["slopes"] = {str(s): scans[s].slope for s in s_list}
    path = write_csv(os.path.join(out, "dimension_scan.csv"),
                     ["s", "eps", "log_eps", "n_eps", "d_eps", "local_slope"],
                     geometry_rows(rows))
    report.files.append(path)
    cloud_path = write_csv(os.path.join(out, "cloud.csv"),
                           ["point_id", "tag", "mode_index", "sign", "logmag"],
                           cloud_rows(cloud))
    report.files.append(cloud_path)
    return _finish(report, out, started)


def cmd_simulate(cfg, args) -> int:
    started = time.time()
    out = _out_dir(cfg, args)
    scen = scenario_from_config(cfg)
    result = sim.trajectory_pair_experiment(scen, n_periods=cfg["dynamics"]["n_periods"])
    report = RunReport(config_hash(cfg), "simulate", expected=_expected(cfg, "simulate"))
    report.verdicts["simulate"] = (
        "exponential_only" if result["exponential_only"] else "superexponential")
    record = result["record"]
    d_logs = [record.lognorm(k) for k in range(len(record.times))]
    a_logs = [record.a_lognorm(k) for k in range(len(record.times))]
    mod_half = sim.log_lipschitz_modulus(d_logs, a_logs, 0.5)
    mod_zero = sim.log_lipschitz_modulus(d_logs, a_logs, 0.0)
    report.constants.update({
        "kappa_fit": result["kappa_fit"],
        "r2": result["r_squared"],
        "kappa_expected": result["kappa_expected"],
        "consistent_with_shift": result["consistent_with_shift"],
        "modulus_half_verdict": mod_half["verdict"],
        "modulus_zero_verdict": mod_zero["verdict"],
        "epsilon": result["epsilon"],
    })
    path = write_csv(os.path.join(out, "pair_distance.csv"),
                     ["t", "log_distance"],
                     zip(record.times, d_logs))
    report.files.append(path)
    tpath = write_csv(os.path.join(out, "pair_trajectory.csv"),
                      ["t", "mode_index", "sign", "logmag"],
                      trajectory_rows(record))
    report.files.append(tpath)
    print(f"kappa_fit {fmt17(result['kappa_fit'])}  R2 {result['r_squared']:.6f}  "
          f"expected {fmt17(result['kappa_expected'])}")
    print(f"log-Lipschitz gamma=1/2: {mod_half['verdict']}; gamma=0: {mod_zero['verdict']}")
    return _finish(report, out, started)


def cmd_report(cfg, args) -> int:
    import json

    with open(args.report_file, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    print(f"command: {payload.get('command')}  hash: {payload.get('scenario_hash')}")
    for key, val in sorted(payload.get("verdicts", {}).items()):
        print(f"  {key}: {val}")
    for key, val in sorted(payload.get("constants", {}).items()):
        if isinstance(val, (int, float, bool, str)):
            print(f"  {key} = {val}")
    expected = payload.get("expected", {})
    for key, want in expected.items():
        got = payload.get("verdicts", {}).get(key)
        if got != want:
            print(f"  expectation violated: {key} = {got}, expected {want}",
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
    parser.add_argument("--scales", help="geometric scale ladder a:b:n")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gap-check", "floquet", "dimension", "simulate"):
        sub.add_parser(name)
    rep = sub.add_parser("report")
    rep.add_argument("report_file")
    args = parser.parse_args(argv)

    handlers = {
        "gap-check": cmd_gap_check,
        "floquet": cmd_floquet,
        "dimension": cmd_dimension,
        "simulate": cmd_simulate,
        "report": cmd_report,
    }
    try:
        if args.command == "report":
            return cmd_report(None, args)
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
