"""Command-line interface.

Exit codes: 0 success, 1 usage or domain error, 2 internal
inconsistency (two routes that must agree disagreed), 141 output pipe
closed early (128 + SIGPIPE, as when piped into `head`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .census import diag_distribution, exceptional_pairs
from .counting import diag_count_reduction, diag_count_string, diag_count_tree
from .diagonals import diag_count_naive
from .errors import CapExceededError, InconsistencyError
from .hamiltonicity import (
    check_cell_cap,
    hamiltonian_witness,
    is_hamiltonian_brute,
    is_hamiltonian_fast,
)
from .surface import GridParams
from .verify import run_verify


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _at_least(low: int):
    def integer(value: str) -> int:
        number = int(value)
        if number < low:
            bound = "a positive integer" if low == 1 else f"an integer >= {low}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return number

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bitorus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_diag = sub.add_parser("diag", help="number of diagonals of the (n, m) grid")
    p_diag.add_argument("n", type=_at_least(1))
    p_diag.add_argument("m", type=_at_least(1))
    p_diag.add_argument(
        "--method",
        choices=("auto", "naive", "string", "reduction", "tree"),
        default="auto",
    )

    p_ham = sub.add_parser("ham", help="is the (n, m) grid Hamiltonian?")
    p_ham.add_argument("n", type=_at_least(1))
    p_ham.add_argument("m", type=_at_least(1))
    p_ham.add_argument("--method", choices=("auto", "brute", "link"), default="auto")
    p_ham.add_argument(
        "--witness",
        action="store_true",
        help="print an orientation string and cycle when Hamiltonian",
    )

    p_table = sub.add_parser(
        "table", help="coprime pairs with several diagonals but no Hamiltonian cycle"
    )
    p_table.add_argument("--max", type=_at_least(2), required=True, dest="max_m")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")

    p_census = sub.add_parser("census", help="diagonal-count distribution over coprime pairs")
    p_census.add_argument("--max", type=_at_least(2), required=True, dest="max_h")
    p_census.add_argument("--format", choices=("csv", "json"), default="csv")

    p_verify = sub.add_parser("verify", help="run the internal cross-check suites")
    p_verify.add_argument("--max", type=_at_least(2), default=10, dest="max_k")

    return parser


_DIAG_METHODS = {
    "auto": diag_count_tree,
    "naive": diag_count_naive,
    "string": diag_count_string,
    "reduction": diag_count_reduction,
    "tree": diag_count_tree,
}


def _cmd_diag(args) -> int:
    print(_DIAG_METHODS[args.method](args.n, args.m))
    return 0


def _cmd_ham(args) -> int:
    if args.n == 1 or args.m == 1:
        print(
            f"note: size-1 grids are outside the construction's stated domain; "
            f"({args.n},{args.m}) reported anyway",
            file=sys.stderr,
        )
    if args.method == "brute":
        verdict, witness = is_hamiltonian_brute(args.n, args.m)
    else:
        verdict = is_hamiltonian_fast(args.n, args.m)
        witness = None
        if args.witness and verdict:
            # refused before the walk and the verdict line, so a refused witness prints nothing
            check_cell_cap(GridParams(args.n, args.m))
            witness = hamiltonian_witness(args.n, args.m)
    print("true" if verdict else "false")
    if args.witness and verdict:
        print(witness.orientation)
        sys.stdout.flush()
        for flat in witness.path.batches():
            _write_cells(sys.stdout.buffer, flat, 2 * args.m)
    return 0


def _write_cells(out, flat: np.ndarray, cols: int) -> None:
    """One line "row,col" per flat cell index, byte for byte as "%d,%d" % divmod(i, cols)."""
    row, col = np.divmod(flat, cols)
    row_width, col_width = _widths(row), _widths(col)
    ends = np.cumsum(row_width + col_width + 2)
    text = np.empty(int(ends[-1]), dtype=np.uint8)
    text[ends - 1] = ord("\n")
    comma = ends - col_width - 2
    text[comma] = ord(",")
    _put_digits(text, row, comma)
    _put_digits(text, col, ends - 1)
    out.write(text)


def _widths(values: np.ndarray) -> np.ndarray:
    """Decimal digits of each value >= 0."""
    width = np.ones(len(values), dtype=np.intp)
    for digits in range(1, len(str(int(values.max())))):
        width += values >= 10**digits
    return width


def _put_digits(text: np.ndarray, values: np.ndarray, stops: np.ndarray) -> None:
    """Write each value >= 0 in decimal into `text`, its last digit just before its stop."""
    pos = stops - 1
    while True:
        text[pos] = values % 10 + ord("0")
        values = values // 10
        more = values > 0
        if not more.any():
            return
        pos, values = pos[more] - 1, values[more]


def _csv_field(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def _print_rows(rows: list[dict], fmt: str, columns: list[str]) -> None:
    """CSV of `columns` under a header, or each whole row as one JSON line."""
    if fmt == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(_csv_field(row[col]) for col in columns))
    else:
        for row in rows:
            print(json.dumps(row))


def _cmd_table(args) -> int:
    rows = [asdict(rec) for rec in exceptional_pairs(args.max_m)]
    _print_rows(rows, args.format, ["n", "m", "diag", "hamiltonian"])
    return 0


def _cmd_census(args) -> int:
    report = diag_distribution(args.max_h)
    row = asdict(report) | {p: float(getattr(report, p)) for p in ("p1", "p2", "p3")}
    _print_rows([row], args.format, list(row))
    return 0


def _cmd_verify(args) -> int:
    results = run_verify(args.max_k)
    failed = False
    for res in results:
        mark = "ok" if res.ok else "FAIL"
        print(f"{mark} {res.name} ({res.detail}) {res.seconds:.2f} s")
        failed = failed or not res.ok
    if failed:
        print("internal inconsistency detected", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "diag": _cmd_diag,
    "ham": _cmd_ham,
    "table": _cmd_table,
    "census": _cmd_census,
    "verify": _cmd_verify,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = cli_main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left; point stdout at devnull so shutdown's flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
