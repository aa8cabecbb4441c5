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
``points`` write each row as soon as it is built; the other commands render
their whole payload first, through ``json.dumps`` or ``csv.writer``, except
that ``homology`` splices its JSON class list into the rendered payload as
one join.
``enumerate`` and ``points`` write each row straight from its word into one
text template made once per request; ``points`` fills in its further fields
and its flags too, each flag joined from column texts made once per
request.  Only ``render``'s CSV path imports ``csv``.  ``points`` executes
``flags`` and its form's module, and ``gaussian`` only for slmh (the public
``FlagMatrix`` constructor's rank re-check); only ``verify`` executes
``geometry``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from functools import cache
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

from . import _lazy, forms
from .permutations import (blocks, format_blocks, format_word, parse_dims,
                           parse_ints, prefix_sums, word_text)

flags, homology, supq = _lazy("flags"), _lazy("homology"), _lazy("supq")


class ConfigError(Exception):
    pass


# The exit code when the reader of stdout goes away before the output ends:
# the code a shell reports for a program that SIGPIPE ends, 128 + 13.
EXIT_OUTPUT_CLOSED = 141


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagslice",
        description="Schubert varieties meeting base cycles in flag domains: "
                    "enumeration, intersection points, counts, homology, verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("enumerate", "list the Schubert words meeting the cycle(s)"),
        ("points", "list the varieties with their intersection flags"),
        ("count", "print the number of varieties"),
        ("homology", "print the cycle class expansion"),
        ("verify", "run the exact-geometry cross-check suites"),
    ):
        # Without abbreviations, an option a command lacks cannot pass as the
        # prefix of one it has (verify --form as --format).
        cmd = sub.add_parser(name, help=text, allow_abbrev=False)
        if name == "verify":
            cmd.add_argument("--samples", type=int, default=20,
                             help="sampling trials per cell (escalates x5 before failing)")
            cmd.add_argument("--fast", action="store_true",
                             help="skip the randomized sampling checks")
        else:
            cmd.add_argument("--form", choices=forms.FORMS, help="real form")
            cmd.add_argument("--n", type=int, help="ambient dimension (slnr, slmh)")
            cmd.add_argument("--p", type=int, help="positive signature size (supq)")
            cmd.add_argument("--q", type=int, help="negative signature size (supq)")
            cmd.add_argument("--dims", help="dimension sequence, e.g. 2,4,3")
            cmd.add_argument("--orbit", help="sign sequence, e.g. '(-+)(-+++)(-++)'")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--out", help="write output to a file instead of stdout")
    return parser


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
    if args.command != "count":
        forms.check_size(req, points=args.command == "points")
    return req


def _word_row(word, length: int, dims) -> dict:
    """The row of one word; ``length`` is the request's ``forms.length``,
    the same for every word.  Nothing in the package calls it:
    ``_row_texts`` writes the same row without building it.  It is the
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


def _row_texts(req: forms.Request, dims, rows, fmt: str,
               fields: tuple[str, ...] | None = None) -> tuple[str, Iterator[str]]:
    """The CSV header and the row texts of ``enumerate`` and ``points``: for
    each word, the text ``_table`` takes for ``_word_row(word,
    forms.length(req), dims)``, with the keys ``fields`` and ``points``
    added for ``points``.

    For ``enumerate``, ``rows`` are the words.  For ``points``, they are
    triples: a word, the texts of its values of ``fields`` (``_dumps`` at
    the indent of the row's keys, or ``_csv_field``) and a list of the
    texts of its flags, at least one (their quotes doubled for CSV).  The
    row is one join of the flags' texts, the rest joined to the first and
    the last.

    One template per request holds the keys, the indentation, the
    request's one length and the brackets of the lists; each word fills in
    its ``word_text``, its display (``format_word`` or ``format_blocks``)
    and, under ``dims``, its blocks, from a text per block made once.
    Words and displays hold only digits, spaces and parentheses, so neither
    needs a JSON escape or CSV quotes.  ``csv.writer`` quotes a field that
    holds a comma or a quote: a block list when the words have two letters
    or more, and a list of flags always.
    """
    further = () if fields is None else (*fields, "points")
    keys = ("blocks",) * (dims is not None) + ("display", "length", *further, "word")
    if list(keys) != sorted(set(keys)):
        raise AssertionError(f"the row keys {keys} are not in sorted order")
    length = int.__repr__(forms.length(req))
    # "\0" marks where the texts of a row go: a field's value is one, and
    # the items of the blocks and the points are joined by sep.
    if fmt == "json":
        listed = "[\n        \0\n      ]"
        slots = {"blocks": listed, "display": '"\0"', "length": length,
                 "points": listed, "word": '"\0"'}
        template = ",\n    {" + ",".join(
            "\n      " + json.dumps(key) + ": " + slots.get(key, "\0")
            for key in keys) + "\n    }"
        sep, pad = ",\n        ", "        "  # A block at the indent of the items.
    else:
        quote = '"' if req.size > 1 else ""
        slots = {"blocks": quote + "[\0]" + quote, "display": "\0",
                 "length": length, "points": '"[\0]"', "word": "\0"}
        template = ",".join(slots.get(key, "\0") for key in keys) + "\n"
        sep, pad = ", ", None
    block = cache(lambda part: _json_list(map(int.__repr__, part), pad))
    header = ",".join(keys) + "\n"
    compact = req.size <= 9
    cuts = None if dims is None else [
        slice(end - d, end) for d, end in zip(dims, prefix_sums(dims))]
    if fields is not None:
        head, *backs, closing, tail = template.split("\0")

        def filled() -> Iterator[str]:
            for word, values, items in rows:
                text = word_text(word)
                if cuts is None:
                    cells = [format_word(word) if compact else text, *values]
                else:
                    parts = [word[cut] for cut in cuts]
                    cells = [sep.join(map(block, parts)), format_blocks(parts, compact),
                             *values]
                items[0] = "".join([head, *chain.from_iterable(zip(cells, backs)), items[0]])
                items[-1] = "".join((items[-1], closing, text, tail))
                yield sep.join(items)
        return header, filled()
    if cuts is None:
        head, middle, tail = template.split("\0")
        # Past 9 letters the display is space-separated: the word text.  Each
        # word is read once, so ``rows`` may be a one-shot iterator.
        return header, ("".join((head, format_word(word) if compact else text, middle,
                                 text, tail))
                        for word in rows for text in (word_text(word),))
    head, middle, inner, tail = template.split("\0")

    def texts() -> Iterator[str]:
        for word in rows:
            parts = [word[cut] for cut in cuts]
            yield "".join((head, sep.join(map(block, parts)), middle,
                           format_blocks(parts, compact), inner, word_text(word), tail))
    return header, texts()


def cmd_enumerate(args) -> int:
    req = _request(args)
    header, texts = _row_texts(req, req.dims, forms.words(req), args.format)
    _write(args, _table("enumerate", _config_echo(args), args.format, header, texts))
    return 0


def cmd_count(args) -> int:
    total = forms.count(_request(args))
    # The interpreter refuses to print an int past this many digits (0: no
    # limit, as before Python 3.10.7).
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    _require(not limit or total < 10 ** limit,
             f"the count has more than {limit} digits, past Python's limit for "
             "printing an integer")
    _write_payload(args, {"command": "count", "config": _config_echo(args),
                          "rows": [{"count": total}]})
    return 0


def _point_texts(req: forms.Request, fmt: str) -> tuple[str, Iterator[str]]:
    """The CSV header and the row texts of ``points``: the word rows of
    ``_row_texts`` with each row's further fields and its flags under
    ``points``, all from ``forms.points``, whose rows ``verify``
    certifies."""
    dims, fields, points = forms.points(req)
    memo = {}
    # A value sits at the indent of the row's keys, a flag at its items'.
    pad, flag_pad = ("      ", "        ") if fmt == "json" else (None, None)

    def rows() -> Iterator[tuple]:
        for word, found, values in points:
            values = [_dumps(value, pad) for value in values]
            items = [_flag_text(flag, flag_pad, memo) for flag in found]
            if pad is None:
                values, items = [*map(_csv_field, values)], [t.replace('"', '""') for t in items]
            yield word, values, items
    return _row_texts(req, dims, rows(), fmt, fields)


def cmd_points(args) -> int:
    header, texts = _point_texts(_request(args), args.format)
    _write(args, _table("points", _config_echo(args), args.format, header, texts))
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
    # where "\0" stands, as ``_flag_text`` does for columns.
    classes, row["classes"] = row["classes"], "\0"
    head, tail = render(payload, "json").split('"\\u0000"')
    listed = _json_list(['"%s"' % text for text in classes], "      ")
    _write(args, iter((head + listed + tail,)))
    return 0


def cmd_verify(args) -> int:
    # Fewer than one trial per cell would make every sampling check report a
    # predicted open orbit as never hit.
    _require(args.samples >= 1, f"--samples must be at least 1, got {args.samples}")
    escalation = args.samples * 5
    # The cross-check suites load only here: no other command runs the oracle.
    from . import checks
    if args.fast:
        results = checks.fast_suite()
    else:
        results = checks.full_suite(seed=args.seed, samples=args.samples,
                                    escalation=escalation)
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


def _dumps(value, pad: str | None) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` as it stands in a
    payload on a line at ``pad``; for ``pad`` None, compact."""
    if pad is None:
        return json.dumps(value, sort_keys=True)
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _json_list(items: Iterable[str], pad: str | None) -> str:
    """``_dumps`` of a nonempty list whose items are given as their
    ``_dumps`` texts at ``pad + "  "`` (or compact, for ``pad`` None)."""
    if pad is None:
        return "[" + ", ".join(items) + "]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _csv_field(text: str) -> str:
    """``text``, a JSON text, which holds no line break, as ``csv.writer``
    writes it: in quotes, its quotes doubled, if it holds a comma or quote."""
    return '"%s"' % text.replace('"', '""') if "," in text or '"' in text else text


def _flag_text(flag, pad: str | None, memo: dict) -> str:
    """``_dumps(flag.to_json(), pad)``, as one join of column texts.
    ``memo`` keeps, by ``(pad, n, dims)``, the text around the columns and
    a dict of column texts by ``(zcol, den)``, so each distinct column is
    written once.  The keys are exact: a flag's entries and denominators
    are ints, never bools or floats."""
    frame = memo.get((pad, flag.n, flag.dims))
    if frame is None:
        # Each "\0" of this text, escaped, stands for a column's text.
        frame = memo[(pad, flag.n, flag.dims)] = (
            *_dumps({"columns": ["\0", "\0"], "dims": flag.dims, "n": flag.n},
                    pad).split('"\\u0000"'),
            None if pad is None else pad + "    ", {})
    head, sep, tail, column_pad, columns = frame
    return head + sep.join([columns.get(key) or _column_text(key, column_pad, columns)
                            for key in zip(flag.zcols, flag.dens)]) + tail


def _column_text(key: tuple, pad: str | None, columns: dict) -> str:
    """``_dumps`` of one flag column, its entries as quads, at ``pad``."""
    zcol, den = key
    inner = None if pad is None else pad + "  "
    text = columns[key] = _json_list(
        [_json_list(map(int.__repr__, flags._quad(a, b, den)), inner) for a, b in zcol], pad)
    return text


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


# Characters gathered before each write.
CHUNK_CHARS = 1 << 16


def _table(command: str, config: dict, fmt: str, header: str,
           texts: Iterator[str]) -> Iterator[str]:
    """The text ``render`` gives for a ``command`` payload whose rows are
    given as the texts of ``_row_texts``, in chunks, pulling each text only
    when it is written.  A JSON row text is the row at the indent of the
    rows after its separator ``",\\n    "``; the first row's separator is
    ``"[\\n    "``, so its first character is swapped.  A CSV row text is
    its line, under ``header``.

    In both formats a chunk ends with the first row that brings it to
    ``CHUNK_CHARS`` characters, so no chunk but the last holds more than
    ``CHUNK_CHARS`` plus one row's text, and no chunk is empty.  A table
    without rows is the JSON payload with ``"rows": []``, or no CSV text.
    """
    first = next(texts, None)
    if fmt == "json":
        head = ('{\n  "command": ' + json.dumps(command) + ',\n  "config": '
                + _dumps(config, "  ") + ',\n  "rows": ')
        if first is None:
            yield head + "[]\n}\n"
            return
        out, first, tail = [head], "[" + first[1:], "\n  ]\n}\n"
    elif first is None:
        return
    else:
        out, tail = [header], ""
    size = sum(map(len, out))
    for text in chain((first,), texts):
        out.append(text)
        size += len(text)
        if size >= CHUNK_CHARS:
            yield "".join(out)
            out.clear()
            size = 0
    out.append(tail)
    text = "".join(out)
    if text:
        yield text


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
        except BrokenPipeError:
            # As the Python docs' note on SIGPIPE advises: point stdout at
            # devnull, so that the interpreter's flush at exit stays quiet.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise
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
