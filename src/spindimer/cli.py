"""Command-line front end: fits, sweeps, and critical-field queries.

Exit codes: 0 success, 2 usage error (argparse or invalid ranges), 3 data
error (bad files, unphysical inputs), 4 numeric failure (underflow, oracle
disagreement, unconverged fit).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from .constants import OERSTED_PER_TESLA, TOOL_VERSION, constants_summary
from .core import Basis, DimerParams
from .errors import DataError, NumericError
from .fitting import coherence_series, fit_bleaney_bowers, load_series
from .models import ChiUnit, critical_field
from .sweep import PressureTable, SweepSpec, SweepVariable, pressure_to_j, run_sweep
from .tables import SweepTable, emit, render_table

OUT_DIR_ENV = "SPINDIMER_OUT_DIR"

_UNIT_BY_FLAG = {"emu": ChiUnit.EMU_PER_MOL, "si": ChiUnit.SI_M3_PER_MOL}


def _resolve_out(out: str | None) -> Path | None:
    """Relative --out paths land in $SPINDIMER_OUT_DIR when it is set."""
    if out is None:
        return None
    path = Path(out)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _deliver(table: SweepTable, args: argparse.Namespace) -> None:
    out = _resolve_out(args.out)
    if out is None:
        sys.stdout.write(render_table(table, args.format))
    else:
        emit(table, args.format, out)
        print(f"wrote {out}")


def _cmd_critical_field(args: argparse.Namespace) -> int:
    bc = critical_field(args.j_kelvin, args.g)
    print(f"B_c = {bc.tesla!r} T")
    print(f"B_c = {bc.oersted!r} Oe")
    # The label predates the level-gap oracle; the benchmark verifier parses it.
    print(f"bisection agreement: {abs(bc.tesla - bc.tesla_oracle):.3e} T")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    unit = _UNIT_BY_FLAG[args.unit]
    series = load_series(args.csv, unit)
    init = None
    if args.init_j is not None or args.init_g is not None:
        if args.init_j is None or args.init_g is None:
            raise ValueError("--init-j and --init-g must be given together")
        init = (args.init_j, args.init_g)
    fit = fit_bleaney_bowers(series, init)
    # Built before the first print: a refused sample id leaves stdout empty.
    table = None
    if fit.converged and args.out is not None:
        table = coherence_series(series, fit)
    print(f"sample = {series.sample_id} ({len(series)} points)")
    print(f"J/k_B = {fit.j_over_kb!r} +/- {fit.stderr_j:.3g} K")
    print(f"g = {fit.g!r} +/- {fit.stderr_g:.3g}")
    print(f"rss = {fit.rss!r} ({args.unit} units squared)")
    print(f"iterations = {fit.iterations}, converged = {fit.converged}")
    if not fit.converged:
        raise NumericError("fit did not converge within the iteration budget")
    if table is not None:
        _deliver(table, args)
    return 0


_SWEEP_VARIABLES = {
    "temp": SweepVariable.TEMPERATURE,
    "field": SweepVariable.FIELD,
    "pressure": SweepVariable.PRESSURE,
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run the sweep of any leaf. Each leaf's parser defaults the values it
    holds fixed or lacks, so one spec builder serves all three."""
    variable = _SWEEP_VARIABLES[args.sweep_variable]
    pressures, j_kelvin = None, args.j_kelvin
    if variable is SweepVariable.PRESSURE:
        # Table and J at p_min come first, so a range outside the table is a
        # data error even when the range is also invalid.
        pressures = PressureTable.from_csv(args.pressure_table)
        j_kelvin = pressure_to_j(pressures, args.minimum)
    b_field = 0.0 if args.b_tesla is None else args.b_tesla
    if args.b_oe is not None:
        b_field = args.b_oe / OERSTED_PER_TESLA
    scale = 1.0 if args.field_unit == "tesla" else 1.0 / OERSTED_PER_TESLA
    fixed = DimerParams(j_kelvin, args.g, args.t_kelvin, b_field)
    spec = SweepSpec(
        variable, args.minimum * scale, args.maximum * scale, args.steps, fixed,
        Basis(args.basis),
    )
    _deliver(run_sweep(spec, pressures), args)
    return 0


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument(
        "--out",
        help=f"output file; relative paths resolve under ${OUT_DIR_ENV}",
    )


def _add_range_flags(parser: argparse.ArgumentParser, axis: str) -> None:
    """--{axis}-min, --{axis}-max and --{axis}-steps, parsed as minimum,
    maximum and steps."""
    for word, dest, kind in (
        ("min", "minimum", float), ("max", "maximum", float), ("steps", "steps", int)
    ):
        parser.add_argument(
            f"--{axis}-{word}", dest=dest, metavar=f"{axis}_{word}".upper(),
            type=kind, required=True,
        )


def _add_fixed_field_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--b-tesla", type=float, help="held field in tesla")
    group.add_argument("--b-oe", type=float, help="held field in oersted")


# argparse reads an argument that starts with "-" as a value only when it
# looks like -1 or -1.5, so `--j-kelvin -2.5e3` would find an unknown option
# where its value should be. This pattern also takes the exponent form.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads any finite negative float as a value.
    Subparsers are built with the class of their parent, so the whole tree
    shares the rule."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spindimer",
        description="Thermal coherence of a spin-1/2 dimer: sweeps and fits.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"spindimer {TOOL_VERSION}\n{constants_summary()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cf = sub.add_parser("critical-field", help="singlet/triplet crossing field")
    p_cf.add_argument("--j-kelvin", type=float, required=True)
    p_cf.add_argument("--g", type=float, default=2.0)
    p_cf.set_defaults(func=_cmd_critical_field)

    p_fit = sub.add_parser("fit", help="fit (J, g) to a chi(T) CSV")
    p_fit.add_argument("csv", help="input file per the T_kelvin,chi contract")
    p_fit.add_argument("--unit", choices=("emu", "si"), default="emu")
    p_fit.add_argument("--init-j", type=float, help="starting J/k_B in kelvin")
    p_fit.add_argument("--init-g", type=float, help="starting g-factor")
    _add_output_flags(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_sweep = sub.add_parser("sweep", help="grid evaluation of the coherence")
    sweep_sub = p_sweep.add_subparsers(dest="sweep_variable", required=True)

    p_temp = sweep_sub.add_parser("temp", help="sweep temperature at fixed field")
    _add_range_flags(p_temp, "t")
    p_temp.add_argument("--j-kelvin", type=float, required=True)
    p_temp.add_argument("--g", type=float, default=2.0)
    p_temp.add_argument("--basis", choices=("z", "x"), default="z")
    _add_fixed_field_flags(p_temp)
    _add_output_flags(p_temp)
    # run_sweep ignores the held temperature of a temperature sweep.
    p_temp.set_defaults(func=_cmd_sweep, t_kelvin=1.0, field_unit="tesla")

    p_field = sweep_sub.add_parser("field", help="sweep field at fixed temperature")
    _add_range_flags(p_field, "b")
    p_field.add_argument("--field-unit", choices=("tesla", "oe"), default="tesla")
    p_field.add_argument("--t-kelvin", type=float, required=True)
    p_field.add_argument("--j-kelvin", type=float, required=True)
    p_field.add_argument("--g", type=float, default=2.0)
    p_field.add_argument("--basis", choices=("z", "x"), default="z")
    _add_output_flags(p_field)
    p_field.set_defaults(func=_cmd_sweep, b_tesla=None, b_oe=None)

    p_press = sweep_sub.add_parser(
        "pressure", help="sweep pressure through a J(P) table"
    )
    _add_range_flags(p_press, "p")
    p_press.add_argument("--pressure-table", required=True)
    p_press.add_argument("--t-kelvin", type=float, required=True)
    p_press.add_argument("--g", type=float, default=2.0)
    p_press.add_argument("--basis", choices=("z", "x"), default="z")
    _add_fixed_field_flags(p_press)
    _add_output_flags(p_press)
    p_press.set_defaults(func=_cmd_sweep, j_kelvin=None, field_unit="tesla")

    return parser


def _leaf_parsers(
    parser: argparse.ArgumentParser, words: tuple[str, ...] = ()
) -> dict[tuple[str, ...], argparse.ArgumentParser]:
    """The parsers at the leaves of `parser`'s tree, keyed by the command
    words that select them, such as ("sweep", "temp") or ("fit",)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {
                key: leaf
                for name, sub in action.choices.items()
                for key, leaf in _leaf_parsers(sub, (*words, name)).items()
            }
    return {words: parser}


# Built by the first `main` call and reused by every later one: building
# the tree costs more than most requests, and parsing leaves it as it was.
# A request whose command words select a leaf is parsed by that leaf alone,
# which is what the full tree would hand it to; everything else, and any
# request the leaf leaves arguments over from, goes through the full tree,
# so usage errors read as they always did.
_parser: argparse.ArgumentParser | None = None
_leaves: dict[tuple[str, ...], argparse.ArgumentParser] = {}


def _parse(argv: list[str]) -> argparse.Namespace:
    for key in (tuple(argv[:2]), tuple(argv[:1])):
        leaf = _leaves.get(key)
        if leaf is None:
            continue
        args, extras = leaf.parse_known_args(argv[len(key):])
        if extras:
            break
        args.command = key[0]
        if len(key) == 2:
            args.sweep_variable = key[1]
        return args
    return _parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    global _parser, _leaves
    if _parser is None:
        _parser = build_parser()
        _leaves = _leaf_parsers(_parser)
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
