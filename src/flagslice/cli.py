"""
Batch command surface: deterministic JSON/CSV tables for the enumeration,
intersection-point, counting and homology operations, plus a ``verify`` mode
that replays the oracle cross-checks.  Every table comes from ``forms``, and
``verify`` reads the same words, counts and ``points`` rows through it.

Exit codes: 0 success, 2 configuration error, 3 verification failure,
4 internal error (an ArithmeticError or AssertionError inside the library),
141 when the reader closes stdout before the output ends (``| head``), with
nothing on stderr.
Output depends only on the arguments and ``--seed``.  ``enumerate`` and
``points`` write each row as soon as it is built, through ``tables``, the
row-table writer, which only they execute; the other commands render their
whole payload first, through ``json.dumps`` or ``csv.writer``, except that
``homology`` splices its JSON class list into the rendered payload as one
join.  Only ``render``'s CSV path imports ``csv``.

``COMMANDS`` lists each command's help and options.  The parser that
``build_parser`` gives reads a well-formed command line from it; any other
line, and a request for help, goes to the ``argparse`` parser built from
the same table, which is imported only then and prints the help, or the
usage and the error.
``points`` executes ``flags`` and its form's module, and ``gaussian`` only
for slmh (``forms.points``'s one rank check per request); only ``verify``
executes ``geometry``.
"""

from __future__ import annotations

import io
import json
import os
import sys
from itertools import chain, repeat
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

from . import _lazy, forms
from .permutations import blocks, format_blocks, format_word, parse_dims, parse_ints, word_text

homology, supq, tables = _lazy("homology"), _lazy("supq"), _lazy("tables")


class ConfigError(Exception):
    pass


# The exit code when the reader of stdout goes away before the output ends:
# the code a shell reports for a program that SIGPIPE ends, 128 + 13.
EXIT_OUTPUT_CLOSED = 141

# Per option: its name, its type (None: the text itself; bool: a flag that
# takes no value), its choices, its default and its help.
_OUTPUT_OPTIONS = (
    ("format", None, ("json", "csv"), "json", None),
    ("seed", int, None, 0, None),
    ("out", None, None, None, "write output to a file instead of stdout"),
)
_REQUEST_OPTIONS = (
    ("form", None, forms.FORMS, None, "real form"),
    ("n", int, None, None, "ambient dimension (slnr, slmh)"),
    ("p", int, None, None, "positive signature size (supq)"),
    ("q", int, None, None, "negative signature size (supq)"),
    ("dims", None, None, None, "dimension sequence, e.g. 2,4,3"),
    ("orbit", None, None, None, "sign sequence, e.g. '(-+)(-+++)(-++)'"),
) + _OUTPUT_OPTIONS
# Each command, in the order of the help, with its help and its options.
COMMANDS = {
    "enumerate": ("list the Schubert words meeting the cycle(s)", _REQUEST_OPTIONS),
    "points": ("list the varieties with their intersection flags", _REQUEST_OPTIONS),
    "count": ("print the number of varieties", _REQUEST_OPTIONS),
    "homology": ("print the cycle class expansion", _REQUEST_OPTIONS),
    "verify": ("run the exact-geometry cross-check suites", (
        ("samples", int, None, 20, "sampling trials per cell (escalates x5 before failing)"),
        ("fast", bool, None, False, "skip the randomized sampling checks"),
    ) + _OUTPUT_OPTIONS),
}


class Parser:
    """The command-line parser of ``COMMANDS``.  ``parse_args`` reads a
    command and its options, each spelled in full as ``--opt value`` or
    ``--opt=value`` (a flag as ``--opt``), with a value of the option's
    type and choices that does not start with ``-``, and returns the
    namespace ``argparse`` would, every option not given at its default.
    Any other line goes to the ``argparse`` parser of the same table: its
    namespace, or its help, or its usage, error and exit, is the outcome."""

    def parse_args(self, argv: Sequence[str] | None = None):
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _parse_table(argv)
        return _argparse_parser().parse_args(argv) if args is None else args


def _parse_table(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of a line ``Parser`` reads itself, or else None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = COMMANDS[argv[0]][1]
    values = {name: default for name, _, _, default, _ in options}
    values["command"] = argv[0]
    kinds = {"--" + name: (name, kind, choices) for name, kind, choices, _, _ in options}
    tokens = iter(argv[1:])
    for token in tokens:
        option, eq, value = token.partition("=")
        if option not in kinds:
            return None
        name, kind, choices = kinds[option]
        if kind is bool:
            if eq:
                return None
            values[name] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[name] = value
    return SimpleNamespace(**values)


def _argparse_parser():
    """The ``argparse`` parser of ``COMMANDS``."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="flagslice",
        description="Schubert varieties meeting base cycles in flag domains: "
                    "enumeration, intersection points, counts, homology, verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in COMMANDS.items():
        # Without abbreviations, an option a command lacks cannot pass as the
        # prefix of one it has (verify --form as --format).
        cmd = sub.add_parser(command, help=text, allow_abbrev=False)
        for name, kind, choices, default, option_help in options:
            if kind is bool:
                cmd.add_argument("--" + name, action="store_true", help=option_help)
            else:
                cmd.add_argument("--" + name, type=kind, choices=choices, default=default,
                                 help=option_help)
    return parser


def build_parser() -> Parser:
    return Parser()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _parse(option: str, parse, text: str):
    """``parse(text)``, with a ValueError turned into one naming the option."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{option}: {exc}") from None


def _request(args) -> forms.Request:
    """The request of an enumerate, count, points or homology command line.

    An --orbit value is either a sign sequence or block counts in the form
    ``a=3,1;b=2,5``.  Block counts name an open orbit on the flag manifold of
    their own dimension sequence, so they fix the flag type when --dims is
    absent.
    """
    _require(args.form is not None, "--form is required")
    # The library takes the definite case q = 0; the command line does not.
    _require(args.form != "supq" or None in (args.p, args.q) or args.p >= args.q >= 1,
             "supq requires p >= q >= 1")
    dims = None if args.dims is None else _parse("--dims", parse_dims, args.dims)
    orbit = args.orbit
    if orbit is not None and ("a=" in orbit or "b=" in orbit):
        _require(args.form == "supq" and None not in (args.p, args.q),
                 "--orbit block counts need --form supq, --p and --q")
        pieces = dict(part.partition("=")[::2] for part in orbit.split(";") if part)
        _require(set(pieces) == {"a", "b"},
                 "--orbit counts need the form a=...;b=...")
        a, b = (_parse("--orbit", parse_ints, pieces[key]) for key in "ab")
        desc = supq.OrbitDescriptor(args.p, args.q, a, b)
        _require(dims in (None, desc.dims), "--orbit block counts disagree with --dims")
        orbit, dims = supq.sign_sequence_of(desc), desc.dims
    req = forms.Request(args.form, n=args.n, p=args.p, q=args.q, dims=dims, orbit=orbit)
    # ``count`` enumerates only a request with no closed count.
    if args.command != "count" or forms.closed_count(req) is None:
        forms.check_size(req, points=args.command == "points")
    return req


def _word_row(word, length: int, dims) -> dict:
    """The row of one word; ``length`` is the request's ``forms.length``,
    the same for every word.  Nothing in the package calls it:
    ``tables.row_texts`` writes the same row without building it.  It is the
    reference row the tests compare those texts with, and a name
    ``perfbench/tracer.py`` wraps."""
    text = word_text(word)
    row = {"word": text, "length": length}
    if dims is not None:
        parts = blocks(word, dims)
        row["display"] = format_blocks(parts, len(word) <= 9)
        row["blocks"] = [list(b) for b in parts]
    else:
        # Past 9 letters the display is space-separated: the word text.
        row["display"] = format_word(word) if len(word) <= 9 else text
    return row


def cmd_enumerate(args) -> int:
    req = _request(args)
    header, texts = tables.row_texts(req, req.dims, forms.words(req), args.format)
    _write(args, tables.table("enumerate", _config_echo(args), args.format, header, texts))
    return 0


def cmd_count(args) -> int:
    total, limit = forms.count(_request(args)), forms.printable_digits()
    _require(not limit or total < 10 ** limit,
             f"the count has more than {limit} digits, past Python's limit for "
             "printing an integer")
    _write_payload(args, {"command": "count", "config": _config_echo(args),
                          "rows": [{"count": total}]})
    return 0


def cmd_points(args) -> int:
    header, texts = tables.point_texts(_request(args), args.format)
    _write(args, tables.table("points", _config_echo(args), args.format, header, texts))
    return 0


def cmd_homology(args) -> int:
    req = _request(args)
    if req.form == "supq" and req.orbit is None:
        expansion = homology.total_cycle_class_su(req.p, req.q)
    else:
        expansion = homology.base_cycle_class(req.form, n=req.n, p=req.p, q=req.q,
                                              dims=req.dims, orbit=req.orbit)
    row = expansion.to_json()
    payload = {"command": "homology", "config": _config_echo(args), "rows": [row]}
    if args.format == "csv" or not row["classes"]:
        _write_payload(args, payload)
        return 0
    # The class texts hold only digits and spaces, so each is its JSON text
    # in quotes: the list is spliced in at the indent of the row's keys
    # where "\0" stands, as ``tables.flag_text`` does for columns.
    classes, row["classes"] = row["classes"], "\0"
    head, tail = render(payload, "json").split('"\\u0000"')
    inner = "\n        "
    listed = "[" + inner + '"' + ('",' + inner + '"').join(classes) + '"\n      ]'
    _write(args, iter((head + listed + tail,)))
    return 0


def cmd_verify(args) -> int:
    # Fewer than one trial per cell would make every sampling check report a
    # predicted open orbit as never hit.
    _require(args.samples >= 1, f"--samples must be at least 1, got {args.samples}")
    # The cross-check suites load only here: no other command runs the oracle.
    from . import checks
    if args.fast:
        results = checks.fast_suite()
    else:
        results = checks.full_suite(seed=args.seed, samples=args.samples)
    rows = [{"check": r.name, "scope": r.scope,
             "status": "pass" if r.passed else "fail", "detail": r.detail}
            for r in results]
    failed = sum(1 for r in results if not r.passed)
    _write_payload(args, {"command": "verify", "config": _config_echo(args), "rows": rows,
                          "summary": {"passed": len(results) - failed, "failed": failed}})
    return 3 if failed else 0


def _config_echo(args) -> dict:
    echo = {"form": getattr(args, "form", None), "seed": args.seed}
    for key in ("n", "p", "q", "dims", "orbit"):
        value = getattr(args, key, None)
        if value is not None:
            echo[key] = value
    if args.command == "verify":
        echo["samples"] = getattr(args, "samples", None)
        echo["fast"] = getattr(args, "fast", False)
    return echo


def _json_list(items: Iterable[str], pad: str | None) -> str:
    """``json.dumps(items, sort_keys=True, indent=2)`` of a nonempty list,
    as it stands on a line at ``pad``, with its items given as their texts
    at ``pad + "  "``; for ``pad`` None, compact."""
    if pad is None:
        return "[" + ", ".join(items) + "]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def render(payload: dict, fmt: str) -> str:
    """The whole output text: for JSON, ``json.dumps(payload,
    sort_keys=True, indent=2) + "\\n"``; for CSV, one line per row under the
    sorted union of the row keys, with list and dict values as compact
    JSON.  ``count``, ``homology`` and ``verify`` write their payloads
    with it."""
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    rows = payload.get("rows", [])
    buffer = io.StringIO()
    if rows:
        import csv
        keys = sorted({k for row in rows for k in row})
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows(
            [json.dumps(v, sort_keys=True) if isinstance(v, (list, dict)) else v
             for v in map(row.get, keys, repeat(""))] for row in rows)
    return buffer.getvalue()


def _write(args, chunks: Iterator[str]) -> None:
    """Write the chunks to --out, or else to stdout.  The first chunk is
    built before anything is opened, so a request that fails up front
    leaves no output and no file."""
    first = next(chunks, "")
    if not args.out:
        try:
            write = sys.stdout.write
            write(first)
            for chunk in chunks:
                write(chunk)
            sys.stdout.flush()
        except OSError as exc:
            # As the Python docs' note on SIGPIPE advises: point stdout at
            # devnull, so that the interpreter's flush at exit stays quiet.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if isinstance(exc, BrokenPipeError):
                raise
            raise ConfigError(f"cannot write the output: {exc}") from None
        return
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            for chunk in chain((first,), chunks):
                handle.write(chunk)
    except OSError as exc:
        raise ConfigError(f"cannot write --out: {exc}") from None


def _write_payload(args, payload: dict) -> None:
    _write(args, iter((render(payload, args.format),)))


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Looked up by name on each call, so a wrapper set on the module sees it.
        return globals()["cmd_" + args.command](args)
    except BrokenPipeError:
        return EXIT_OUTPUT_CLOSED
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError) as exc:
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
