"""Command-line front end: fom, sweep, tolerance, precode subcommands.

Every subcommand reads an optional JSON config, runs the corresponding
module, and emits deterministic CSV (LF line endings, '.' decimals) with
a header comment carrying the config hash, seed, and package version.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, TextIO

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .precoding import run_study
from .sweep import run_sweep
from .testzone import TIERS, evaluate_fom
from .tolerance import tolerance_search


def _emit(out: TextIO, cfg: RunConfig, header: str, rows: Sequence[str]) -> None:
    out.write(f"# config_hash={cfg.config_hash()} seed={cfg.tolerance.rng_seed} "
              f"version={__version__}\n")
    out.write(header + "\n")
    for row in rows:
        out.write(row + "\n")


def _fmt(x: float) -> str:
    return format(x, ".6f")


def cmd_fom(cfg: RunConfig, args, out: TextIO) -> None:
    lam = cfg.wavelength
    ies = args.ies_lambda * lam
    d = args.d_lambda * lam
    limits = TIERS[args.tier - 1] if args.tier else cfg.limits
    layout = cfg.chamber.layout(ies)
    rep = evaluate_fom(layout, cfg.wave, cfg.chamber.zone(cfg.wave, d), limits)
    row = ",".join([
        _fmt(args.ies_lambda), _fmt(layout.length / lam), _fmt(args.d_lambda),
        _fmt(rep.r_mag), _fmt(rep.sigma_mag), _fmt(rep.r_phs),
        str(rep.passed).lower(), ";".join(rep.failing_foms)])
    _emit(out, cfg, "ies_lambda,L_lambda,D_lambda,R_mag_dB,sigma_mag_dB,R_phs_deg,pass,failing_foms",
          [row])


def cmd_sweep(cfg: RunConfig, args, out: TextIO) -> None:
    lam = cfg.wavelength
    cmap = run_sweep(cfg.grid, cfg.wave, cfg.chamber)
    rows = []
    for c in cmap.cells:
        rows.append(",".join([
            _fmt(c.ies / lam), _fmt(c.length / lam), _fmt(c.d / lam),
            _fmt(c.r_mag), _fmt(c.sigma_mag), _fmt(c.r_phs)]
            + [str(r.passed).lower() for r in c.reports]))
    _emit(out, cfg, "ies_lambda,L_lambda,D_lambda,R_mag_dB,sigma_mag_dB,R_phs_deg,"
          "pass_tier1,pass_tier2,pass_tier3", rows)


def cmd_tolerance(cfg: RunConfig, args, out: TextIO) -> None:
    lam = cfg.wavelength
    tol = cfg.tolerance
    rows = []
    for ies, d in cfg.geometries:
        res = tolerance_search(ies, d, cfg.wave, tol, cfg.chamber)
        fom = res.first_failing_fom if res.first_failing_fom else "exceeds_cap"
        rows.append(",".join([
            _fmt(cfg.chamber.layout(ies).length / lam), _fmt(ies / lam), _fmt(d / lam),
            _fmt(res.tolerated_sigma_db), fom, str(tol.n_mc), str(tol.rng_seed)]))
    _emit(out, cfg, "L_lambda,ies_lambda,D_lambda,tolerated_sigma_db,failing_fom,n_mc,seed",
          rows)


def cmd_precode(cfg: RunConfig, args, out: TextIO) -> None:
    lam = cfg.wavelength
    points = run_study(cfg.geometries, cfg.wave, cfg.study, cfg.chamber)
    rows = [",".join([
        _fmt(p.length / lam), _fmt(p.distance / lam), _fmt(p.alpha_deg), p.precoder,
        _fmt(p.snr_db), _fmt(p.sigma_dut_db), format(p.avg_sum_rate, ".8f"),
        str(cfg.study.n_mc), str(cfg.study.rng_seed)]) for p in points]
    _emit(out, cfg, "L_lambda,D_lambda,alpha_deg,precoder,snr_db,sigma_dut_db,"
          "avg_sum_rate,n_mc,seed", rows)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="otazone",
                                description="Random-LOS OTA test-zone simulator")
    p.add_argument("--config", help="JSON config file; omitted keys take defaults")
    p.add_argument("-o", "--output", help="output CSV path (default stdout)")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fom", help="figures of merit for one (ies, D)")
    f.add_argument("--ies-lambda", type=float, required=True)
    f.add_argument("--d-lambda", type=float, required=True)
    f.add_argument("--tier", type=int, choices=(1, 2, 3),
                   help="use a standard limit tier instead of config limits")
    f.set_defaults(func=cmd_fom)

    s = sub.add_parser("sweep", help="compliance map over the (ies, D) grid")
    s.set_defaults(func=cmd_sweep)

    t = sub.add_parser("tolerance", help="excitation-error tolerance per geometry")
    t.set_defaults(func=cmd_tolerance)

    pr = sub.add_parser("precode", help="MF/ZF sum-rate study under weight errors")
    pr.set_defaults(func=cmd_precode)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(path=args.config)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.output:
            with open(args.output, "w", newline="") as fh:
                args.func(cfg, args, fh)
        else:
            args.func(cfg, args, sys.stdout)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, FloatingPointError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
