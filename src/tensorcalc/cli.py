"""Command-line verification harness.

Three subcommands: ``verify`` runs a named suite and writes a JSON report,
``convergence`` sweeps quadrature order and difference steps into a CSV
(it takes only the options it reads: ``--fd``, ``--panels``, ``--out``
and ``--config``), and ``list`` prints the available suites and
geometries.

``--config FILE`` names a flat ``key = value`` file.  Each entry is read as
the flag ``--key=value`` (underscores become dashes), placed after the
command name and before the command line's own flags, so one parser checks
both and the command line wins.  Flags and keys must name an option of the
subcommand in full; ``config`` is not a key.

Exit code 0 means all checks passed, 1 means at least one failed (the
report is still written), and 2 means the invocation itself was unusable:
a bad flag or file entry ends in argparse's usage message, and a setting
that ``SuiteConfig`` or the run rejects prints one ``error:`` line.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import Dict, List, Optional

import numpy as np

from .builtins import available, get_case
from .operators import DiffConfig, mean_curvature
from .quadrature import integrate
from .report import convergence_csv
from .suites import SUITE_NAMES, SuiteConfig, SuiteError, run_suite

__all__ = ["main", "build_parser"]


def _parse_mapping(text: str) -> Dict[str, float]:
    """``K=V[,K=V...]`` as a dict of floats: the type of a mapping option."""
    out: Dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, raw = item.partition("=")
        if not eq:
            raise argparse.ArgumentTypeError(f"bad entry '{item}' (expected key=value)")
        try:
            out[key.strip()] = float(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad value '{raw.strip()}' for key '{key.strip()}'") from None
    return out


def _read_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> List[str]:
    """The entries of ``args.config`` as flags of ``args.command``; '#'
    starts a comment, blank lines are skipped."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        parser.error(f"cannot read config file {args.config}: {exc}")
    flags = []
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            parser.error(f"{args.config}:{lineno}: expected key=value, got '{line}'")
        dest = key.replace("-", "_")
        if dest in ("command", "config") or not hasattr(args, dest):
            parser.error(f"unknown config key '{key}' for '{args.command}'")
        flags.append(f"--{dest.replace('_', '-')}={value}")
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorcalc",
        description="verify extrinsic tensor-calculus identities on embedded submanifolds",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):  # flags and config keys name an option in full
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def add_common(p):  # the options that both commands read
        p.add_argument("--panels", type=int, help="panels per chart axis")
        p.add_argument("--fd", choices=("fd2", "fd4", "analytic"),
                       help="difference mode for derivative operators")
        p.add_argument("--out", metavar="FILE", help="write the output here instead of stdout")
        p.add_argument("--config", metavar="FILE",
                       help="flat key=value file, each entry read as a flag (CLI flags win)")

    verify = command("verify", "run a suite and emit a JSON report")
    verify.add_argument("--suite", choices=SUITE_NAMES,
                        help="which check suite to run (default: all)")
    verify.add_argument("--geometry", help="geometry override for the suite's generic checks")
    verify.add_argument("--geom-params", type=_parse_mapping, metavar="K=V[,K=V...]",
                        help="geometry parameters, e.g. radius=2.0")
    verify.add_argument("--order", type=int, help="Gauss-Legendre points per panel axis")
    verify.add_argument("--hx", type=float, help="spatial step")
    verify.add_argument("--ht", type=float, help="temporal step")
    verify.add_argument("--tol", type=_parse_mapping, metavar="ID=TOL[,ID=TOL...]",
                        help="per-check tolerance overrides")
    verify.add_argument("--seed", type=int, help="random seed")
    add_common(verify)
    add_common(command("convergence", "sweep order and step size into CSV"))
    command("list", "print known suites and geometries")
    return parser


def _suite_config(args: argparse.Namespace) -> SuiteConfig:
    """The run's settings: the parsed options that are set, over the defaults."""
    names = {f.name for f in fields(SuiteConfig)}
    return SuiteConfig(**{k: v for k, v in vars(args).items() if k in names and v is not None})


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(_suite_config(args))
    _emit(report.to_json() + "\n", args.out)
    if args.out:
        for line in report.summary_lines():
            print(line)
    return 0 if report.passed else 1


def _area_rows(panels: int) -> List[dict]:
    case = get_case("sphere")
    want = case.closed_forms["area"]
    rows = []
    for order in (2, 3, 4, 5, 6):
        area = float(integrate(case.atlas(order, panels), lambda x, t: 1.0))
        rows.append({
            "quantity": "sphere-area",
            "parameter": "order",
            "value": float(order),
            "residual": abs(area - want) / want,
        })
    return rows


def _curvature_rows(mode: str) -> List[dict]:
    case = get_case("sphere")
    points = case.sample_points(4, seed=0)
    rows = []
    for hx in (1e-3, 3e-4, 1e-4, 3e-5, 1e-5):
        d = DiffConfig(mode=mode, hx=hx)
        kap = mean_curvature(case.geometry, d).values(points)
        worst = float(np.max(np.linalg.norm(kap - case.curvature(points), axis=-1)))
        rows.append({
            "quantity": "curvature-sphere",
            "parameter": "hx",
            "value": hx,
            "residual": worst,
        })
    return rows


def cmd_convergence(args: argparse.Namespace) -> int:
    cfg = _suite_config(args)
    rows = _area_rows(cfg.panels) + _curvature_rows(cfg.fd)
    _emit(convergence_csv(rows), args.out)
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    print("suites:")
    for name in SUITE_NAMES:
        print(f"  {name}")
    print("geometries:")
    for name in available():
        case = get_case(name)
        params = ", ".join(f"{k}={v:g}" for k, v in case.params.items())
        print(f"  {name} ({params}): {case.blurb}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if getattr(args, "config", None):  # the file's flags go first, so the command line's win
        args = parser.parse_args(argv[:1] + _read_config(parser, args) + argv[1:])
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "convergence":
            return cmd_convergence(args)
        return cmd_list(args)
    except SuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
