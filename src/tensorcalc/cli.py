"""Command-line verification harness.

Three subcommands: ``verify`` runs a named suite and writes a JSON report,
``convergence`` sweeps quadrature order and difference steps into a CSV
(it takes only the options it reads: ``--fd``, ``--ht``, ``--panels``,
``--out`` and ``--config``), and ``list`` prints the available suites and
geometries.  Exit code 0 means all
checks passed, 1 means at least one failed (the report is still written),
and 2 means the invocation itself was unusable.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from typing import Dict, List, Optional

import numpy as np

from .builtins import available, get_case
from .operators import DiffConfig, mean_curvature
from .quadrature import integrate
from .report import convergence_csv
from .suites import SUITE_NAMES, SuiteConfig, SuiteError, run_suite

__all__ = ["main", "build_parser"]

class UsageError(ValueError):
    pass


def _parse_mapping(text: str, what: str, cast=float) -> Dict[str, float]:
    out: Dict[str, float] = {}
    if not text:
        return out
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"bad {what} entry '{item}' (expected key=value)")
        key, _, raw = item.partition("=")
        try:
            out[key.strip()] = cast(raw.strip())
        except ValueError:
            raise UsageError(f"bad {what} value '{raw.strip()}' for key '{key.strip()}'")
    return out


def _read_config(path: str) -> Dict[str, str]:
    """Flat key=value file; '#' starts a comment, blank lines are skipped."""
    out: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got '{line}'")
                key, _, value = line.partition("=")
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    return out


def _coerce(key: str, raw: str):
    try:
        if key in ("order", "panels", "seed"):
            return int(raw)
        if key in ("hx", "ht"):
            return float(raw)
    except ValueError:
        raise UsageError(f"bad {key} value '{raw}'")
    if key == "geom_params":
        return _parse_mapping(raw, "geom-params")
    if key == "tol":
        return _parse_mapping(raw, "tol")
    return raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorcalc",
        description="verify extrinsic tensor-calculus identities on embedded submanifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):  # the options that both commands read
        p.add_argument("--panels", type=int, default=None, help="panels per chart axis")
        p.add_argument("--fd", choices=("fd2", "fd4", "analytic"), default=None,
                       help="difference mode for derivative operators")
        p.add_argument("--ht", type=float, default=None, help="temporal step")
        p.add_argument("--out", default=None, metavar="FILE",
                       help="write the output here instead of stdout")
        p.add_argument("--config", default=None, metavar="FILE",
                       help="flat key=value config file (CLI flags win)")

    verify = sub.add_parser("verify", help="run a suite and emit a JSON report")
    verify.add_argument("--suite", choices=SUITE_NAMES, default=None,
                        help="which check suite to run (default: all)")
    verify.add_argument("--geometry", default=None,
                        help="geometry override for the suite's generic checks")
    verify.add_argument("--geom-params", default=None, metavar="K=V[,K=V...]",
                        help="geometry parameters, e.g. radius=2.0")
    verify.add_argument("--order", type=int, default=None,
                        help="Gauss-Legendre points per panel axis")
    verify.add_argument("--hx", type=float, default=None, help="spatial step")
    verify.add_argument("--tol", default=None, metavar="ID=TOL[,ID=TOL...]",
                        help="per-check tolerance overrides")
    verify.add_argument("--seed", type=int, default=None, help="random seed")
    add_common(verify)
    add_common(sub.add_parser("convergence", help="sweep order and step size into CSV"))
    sub.add_parser("list", help="print known suites and geometries")
    return parser


def _merge_options(args: argparse.Namespace) -> Dict[str, object]:
    """SuiteConfig defaults plus the CLI's own ``out``, then the config
    file, then flags."""
    merged: Dict[str, object] = {**asdict(SuiteConfig()), "out": None}
    if getattr(args, "config", None):
        for key, raw in _read_config(args.config).items():
            if key not in merged or not hasattr(args, key):  # the subcommand has no such option
                raise UsageError(f"unknown config key '{key}' for '{args.command}'")
            merged[key] = _coerce(key, raw)
    for key in merged:
        flag = getattr(args, key, None)
        if flag is None:
            continue
        if key in ("geom_params", "tol"):
            merged[key] = _parse_mapping(flag, key.replace("_", "-"))
        else:
            merged[key] = flag
    try:  # the parser checks neither config-file values nor the signs of hx, ht
        DiffConfig(mode=merged["fd"], hx=merged["hx"], ht=merged["ht"])
    except ValueError as exc:
        raise UsageError(exc.args[0])
    return merged


def _suite_config(merged: Dict[str, object]) -> SuiteConfig:
    if merged["geometry"] is not None and merged["geometry"] not in available():
        raise UsageError(
            f"unknown geometry '{merged['geometry']}' (known: {', '.join(available())})"
        )
    return SuiteConfig(**{k: v for k, v in merged.items() if k != "out"})


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args: argparse.Namespace) -> int:
    merged = _merge_options(args)
    cfg = _suite_config(merged)
    report = run_suite(cfg)
    _emit(report.to_json() + "\n", merged["out"])
    if merged["out"]:
        for line in report.summary_lines():
            print(line)
    return 0 if report.passed else 1


def _area_rows(panels: int) -> List[dict]:
    rows = []
    want = 4.0 * math.pi
    for order in (2, 3, 4, 5, 6):
        atlas = get_case("sphere").atlas(order, panels)
        area = float(integrate(atlas, lambda x, t: 1.0))
        rows.append({
            "quantity": "sphere-area",
            "parameter": "order",
            "value": float(order),
            "residual": abs(area - want) / want,
        })
    return rows


def _curvature_rows(mode: str, ht: float) -> List[dict]:
    case = get_case("sphere")
    points = case.sample_points(4, seed=0)
    rows = []
    for hx in (1e-3, 3e-4, 1e-4, 3e-5, 1e-5):
        d = DiffConfig(mode=mode, hx=hx, ht=ht)
        kap = mean_curvature(case.geometry, d).values(points)
        worst = float(np.max(np.linalg.norm(kap - 2.0 * points, axis=-1)))
        rows.append({
            "quantity": "curvature-sphere",
            "parameter": "hx",
            "value": hx,
            "residual": worst,
        })
    return rows


def cmd_convergence(args: argparse.Namespace) -> int:
    merged = _merge_options(args)
    mode = str(merged["fd"])
    rows = _area_rows(int(merged["panels"]))
    rows += _curvature_rows(mode, float(merged["ht"]))
    _emit(convergence_csv(rows), merged["out"])
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
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "convergence":
            return cmd_convergence(args)
        return cmd_list(args)
    except (UsageError, SuiteError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
