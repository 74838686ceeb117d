"""Command-line interface.

Subcommands:

    trace      Kerr rotation vs probe delay for one configuration
    sweep      pump-phase, field or pump-wavelength sweep
    fit        extract parameters from a CSV dataset (sine | gauss2)
    figures    write the bundled preset panels to a directory
    validate   audit the excitation energy scales

Every subcommand accepts ``--config FILE`` plus repeatable ``--set key=value``
overrides; overrides are applied after the file, and the result is checked
before any work starts.  Every subcommand but ``figures`` writes one CSV to
``--out`` (default stdout); ``figures`` builds all six panels before it
writes one to ``--outdir``, so a failing panel leaves no file.  ``trace``,
``sweep`` and ``figures`` print one ``warning:`` line to stderr after a run
whose configuration fails the ``validate`` energy hierarchy; output and exit
code stay the same.  Exit codes: 0 success, 1 failed validation, 2
configuration, input or model errors (any other package error) and files
that cannot be read or written, 3 fit did not converge.
"""
from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from .config import config_text_items, parse_config_items
from .errors import ConfigError, FitDivergedError, InsufficientDataError, PolspinError
from .experiment import (
    FIGURE_PANELS,
    SWEEP_KINDS,
    emit_csv,
    run_dataset,
    run_panel,
    vsystem_report,
)
from .fitting import fit_damped_sine, fit_two_gaussian


def _add_common(p: argparse.ArgumentParser, out: bool = True) -> None:
    p.add_argument("--config", metavar="FILE", help="configuration file (key = value lines)")
    p.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override a single key; repeatable",
    )
    if out:
        p.add_argument("--out", metavar="FILE", help="output CSV path (default: stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polspin",
        description="simulate and analyze polarization-driven electron spin precession",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # no abbreviations: an unknown option must not prefix-match a real one
    p_trace = sub.add_parser("trace", help="Kerr trace for one configuration", allow_abbrev=False)
    p_trace.set_defaults(kind="trace")
    _add_common(p_trace)

    p_sweep = sub.add_parser("sweep", help="parameter sweep", allow_abbrev=False)
    p_sweep.add_argument("--kind", choices=SWEEP_KINDS, required=True)
    _add_common(p_sweep)

    p_fit = sub.add_parser("fit", help="fit a CSV dataset", allow_abbrev=False)
    p_fit.add_argument("model", choices=("sine", "gauss2"))
    p_fit.add_argument("--in", dest="infile", metavar="FILE", required=True,
                       help="two-column CSV with a header line")
    _add_common(p_fit)

    p_fig = sub.add_parser("figures", help="write all preset panels", allow_abbrev=False)
    p_fig.add_argument("--outdir", metavar="DIR", required=True)
    _add_common(p_fig, out=False)

    p_val = sub.add_parser("validate", help="check the excitation energy hierarchy",
                           allow_abbrev=False)
    _add_common(p_val)

    return parser


def _load_config(args):
    """File items first, then --set items, so overrides win."""
    items = []
    if args.config:
        try:
            items = config_text_items(Path(args.config).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config} is not UTF-8 text: {exc}") from exc
    for raw in args.overrides:
        if "=" not in raw:
            raise ConfigError(f"--set expects KEY=VALUE, got {raw!r}")
        key, value = raw.split("=", 1)
        items.append((key.strip(), value.strip(), f"--set {key.strip()}"))
    return parse_config_items(items)


def _read_xy_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        with warnings.catch_warnings():
            # an empty table is reported below as one error line
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise InsufficientDataError(f"{path} is not a two-column numeric CSV: {exc}") from exc
    if data.shape[0] == 0:
        raise InsufficientDataError(f"{path} has no data rows")
    if data.shape[1] < 2:
        raise InsufficientDataError(f"{path} needs at least two columns")
    return data[:, 0], data[:, 1]


def _warn_vsystem(cfg) -> None:
    rep = vsystem_report(cfg)
    if not rep.overall_ok:
        print("warning: the V-system hierarchy electron splitting < pump bandwidth < "
              f"light-hole splitting fails ({rep.delta_e_electron_ev:.3g}, "
              f"{rep.delta_e_pump_ev:.3g}, {rep.delta_e_lh_ev:.3g} eV); see polspin validate",
              file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "figures":
            outdir = Path(args.outdir)
            outputs = {outdir / f"{panel}.csv": run_panel(panel, cfg) for panel in FIGURE_PANELS}
            outdir.mkdir(parents=True, exist_ok=True)  # only once every panel is built
        elif args.command in ("trace", "sweep"):
            outputs = {args.out or sys.stdout: run_dataset(args.kind, cfg)}
        elif args.command == "fit":
            x, y = _read_xy_csv(args.infile)
            if args.model == "sine":
                dataset = fit_damped_sine(x, y)
            else:
                # the field is a fit input only when the user gave one
                b = cfg.field.bx_tesla if args.config or args.overrides else None
                dataset = fit_two_gaussian(x, y, b_tesla=b)
            outputs = {args.out or sys.stdout: dataset}
        else:
            outputs = {args.out or sys.stdout: vsystem_report(cfg)}
        for dest, dataset in outputs.items():
            emit_csv(dataset, dest)
            if args.command == "figures":
                print(dest)
        if args.command not in ("fit", "validate"):
            _warn_vsystem(cfg)
        return 1 if args.command == "validate" and not dataset.overall_ok else 0
    except FitDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PolspinError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
