"""Command surface: tables, formats, exit codes, determinism, verification."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from itertools import permutations, product
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from flagslice import checks, cli, forms, geometry, homology, slmh, slnr, supq, tables
from flagslice.permutations import double_factorial_descending, inversion_length, word_text


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "flagslice.cli", *argv],
                          capture_output=True, text=True)


def call_main(*argv, capsys=None):
    return cli.main(list(argv))


def test_enumerate_counts(capsys):
    assert cli.main(["enumerate", "--form", "slnr", "--n", "6"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["rows"]) == 15
    assert data["rows"][0]["word"] == "2 4 6 5 3 1"

    assert cli.main(["enumerate", "--form", "slmh", "--n", "8"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 24

    assert cli.main(["enumerate", "--form", "supq", "--p", "3", "--q", "2"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 8


def test_count_command(capsys):
    assert cli.main(["count", "--form", "slnr", "--n", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == [{"count": 945}]
    assert cli.main(["count", "--form", "slmh", "--n", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == [{"count": 120}]
    assert cli.main(["count", "--form", "supq", "--p", "5", "--q", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == [{"count": 105}]


def test_closed_form_counts_match_the_enumeration():
    requests = ([forms.Request("slnr", n=n) for n in range(1, 13)]
                + [forms.Request("slmh", n=n) for n in range(2, 13, 2)]
                + [forms.Request("supq", p=p, q=q)
                   for q in range(0, 5) for p in range(max(q, 1), 10 - q)])
    for req in requests:
        assert forms.count(req) == len(forms.words(req)), req


def test_count_of_complete_flags_does_not_enumerate(monkeypatch, capsys):
    def refuse(req):
        raise AssertionError("count enumerated the words")

    monkeypatch.setattr(forms, "words", refuse)
    for argv, expect in ((["--form", "slnr", "--n", "20"], 654729075),
                         (["--form", "slmh", "--n", "40"], 2432902008176640000),
                         (["--form", "supq", "--p", "12", "--q", "9"], 1857945600)):
        assert cli.main(["count", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == [{"count": expect}]


def test_count_of_symmetric_dims_does_not_enumerate(monkeypatch, capsys):
    def refuse(req):
        raise AssertionError("count enumerated the words")

    monkeypatch.setattr(forms, "words", refuse)
    # 15!! words, as many as complete flags on 16 letters; for slmh,
    # binom(12, 2) ways for the first block pair, then 10!.
    for argv, expect in ((["--form", "slnr", "--n", "16", "--dims",
                           "1,1,1,1,1,1,1,2,1,1,1,1,1,1,1"], 2027025),
                         (["--form", "slmh", "--n", "24", "--dims", "2" + ",1" * 20 + ",2"],
                          66 * 3628800)):
        assert cli.main(["count", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == [{"count": expect}]


def test_slnr_partial_points_keep_their_refusal(capsys):
    # Over the points budget by its closed count, but refused as partial.
    argv = ["points", "--form", "slnr", "--n", "16", "--dims", "1,1,1,1,1,1,1,2,1,1,1,1,1,1,1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == \
        "error: slnr intersection points are computed for complete flags only\n"


def test_row_length_is_the_closed_form():
    requests = [forms.Request(form, n=n, dims=dims)
                for form in ("slnr", "slmh") for n in range(1, 9)
                if form == "slnr" or n % 2 == 0 for dims in _compositions(n)]
    requests += [forms.Request(form, n=n) for form in ("slnr", "slmh")
                 for n in range(1, 13) if form == "slnr" or n % 2 == 0]
    requests += [forms.Request("supq", p=p, q=q)
                 for q in range(0, 5) for p in range(max(q, 1), 10 - q)]
    for p, q in ((p, q) for q in range(0, 4) for p in range(max(q, 1), 7 - q)):
        for dims in _compositions(p + q):
            for a in product(*(range(d + 1) for d in dims)):
                if sum(a) == q:
                    desc = supq.OrbitDescriptor(p, q, a, tuple(d - x for d, x in zip(dims, a)))
                    requests.append(forms.Request("supq", p=p, q=q, dims=dims,
                                                  orbit=supq.sign_sequence_of(desc)))
    for req in requests:
        length = forms.length(req)
        assert all(inversion_length(word) == length for word in forms.words(req)), req


def test_rows_count_no_inversions(monkeypatch, capsys):
    def refuse(word):
        raise AssertionError("a row counted its inversions")

    monkeypatch.setattr("flagslice.permutations.inversion_length", refuse)
    monkeypatch.setattr(cli, "inversion_length", refuse, raising=False)
    complete = (["--form", "slnr", "--n", "7"], 12)
    symmetric = (["--form", "slmh", "--n", "8", "--dims", "2,4,2"], 9)
    asymmetric = (["--form", "slnr", "--n", "8", "--dims", "3,5"], 6)
    orbit = (["--form", "supq", "--p", "3", "--q", "2", "--dims", "2,3",
              "--orbit=-+-++"], 3)
    for command, argvs in (("enumerate", (complete, symmetric, asymmetric, orbit)),
                           ("points", (complete, symmetric, orbit))):
        for argv, expect in argvs:
            assert cli.main([command, *argv]) == 0, (command, argv)
            rows = json.loads(capsys.readouterr().out)["rows"]
            assert rows and {row["length"] for row in rows} == {expect}, (command, argv)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_count_past_the_printable_digits_exits_2(capsys, fmt):
    # Python converts an int of at most 4300 digits to text by default: the
    # slnr count at n = 2847 has 4300, the next one more.
    assert cli.main(["count", "--form", "slnr", "--n", "2847", "--format", fmt]) == 0
    out = capsys.readouterr().out
    count = json.loads(out)["rows"][0]["count"] if fmt == "json" else \
        int(out.splitlines()[1])
    assert count == double_factorial_descending(2847) and len(str(count)) == 4300
    # The closed count of complete flags is read from n alone, and a binomial
    # factor is judged by its bit length first, so huge sizes build nothing.
    huge = str(10 ** 31)
    for argv in (["--form", "slnr", "--n", "2848"], ["--form", "slmh", "--n", "3118"],
                 ["--form", "slnr", "--n", "100000"], ["--form", "slnr", "--n", "10000000"],
                 ["--form", "slnr", "--n", str(2 ** 63 - 1)],
                 ["--form", "slmh", "--n", str(2 ** 63 - 2)],
                 ["--form", "slnr", "--n", str(2 ** 63)],
                 ["--form", "slnr", "--n", str(3 * 10 ** 31), "--dims", _text([huge] * 3)],
                 ["--form", "slnr", "--n", "6000000", "--dims", "2000000,2000000,2000000"]):
        started = time.perf_counter()
        assert cli.main(["count", *argv, "--format", fmt]) == 2
        assert time.perf_counter() - started < 0.2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the count has more than 4300 digits, past "
                                "Python's limit for printing an integer\n")
    # One factor, n - 1: a count that prints, although no word of it could.
    assert cli.main(["count", "--form", "supq", "--p", str(2 ** 63 - 1), "--q", "1",
                     "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert str(2 ** 63 - 1) in (out if fmt == "csv" else str(json.loads(out)["rows"]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 30000), min_size=1, max_size=3), st.integers(0, 15000),
       st.sampled_from(["slnr", "slmh"]))
def test_closed_counts_skip_only_binomials_past_the_cap(core, half, form):
    # A binomial factor whose lower bound is past 10^4300 is not computed;
    # the count is the product of every factor, or the cap once it is past.
    dims = (*core, *[2 * half] * (half > 0), *reversed(core))
    total, left = 1, sum(dims)
    for c in core:
        total *= math.comb(left - c, c) if form == "slnr" else math.comb(left // 2, c)
        left -= 2 * c
    cap = 10 ** forms.printable_digits()
    assert forms.closed_count(forms.Request(form, n=sum(dims), dims=dims)) == min(total, cap)


def test_points_counts(capsys):
    assert cli.main(["points", "--form", "slnr", "--n", "5"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert all(len(row["points"]) == 4 for row in rows)

    assert cli.main(["points", "--form", "slmh", "--n", "6"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert all(len(row["points"]) == 1 for row in rows)

    assert cli.main(["points", "--form", "supq", "--p", "3", "--q", "2",
                     "--orbit", "+-+-+"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert all(len(row["points"]) == 1 for row in rows)

    assert cli.main(["points", "--form", "supq", "--p", "7", "--q", "4",
                     "--dims", "5,6", "--orbit", "(--)(-)(++)(-)(++++)(+)"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 3


@pytest.mark.parametrize("request_args", [
    ["--form", "slnr", "--n", "6"],
    ["--form", "slnr", "--n", "5"],
    ["--form", "slmh", "--n", "6"],
    ["--form", "slmh", "--n", "8", "--dims", "2,1,2,1,2"],
    ["--form", "supq", "--p", "3", "--q", "2"],
    ["--form", "supq", "--p", "3", "--q", "2", "--dims", "2,3", "--orbit=(-+)(-++)"],
])
def test_every_printed_point_is_built_by_the_one_constructor(monkeypatch, capsys,
                                                            request_args):
    # The flags built through FlagMatrix.__init__, in order, are the printed points.
    built, init = [], geometry.FlagMatrix.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(geometry.FlagMatrix, "__init__", counted)
    assert cli.main(["points", *request_args]) == 0
    printed = [point for row in json.loads(capsys.readouterr().out)["rows"]
               for point in row["points"]]
    assert printed and [flag.to_json() for flag in built] == printed


def test_homology_command(capsys):
    assert cli.main(["homology", "--form", "supq", "--p", "3", "--q", "2"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert row["coefficient"] == 4
    assert len(row["classes"]) == 8


def test_csv_json_equivalence(capsys):
    assert cli.main(["enumerate", "--form", "slnr", "--n", "4"]) == 0
    json_rows = json.loads(capsys.readouterr().out)["rows"]
    assert cli.main(["enumerate", "--form", "slnr", "--n", "4",
                     "--format", "csv"]) == 0
    reader = csv.DictReader(io.StringIO(capsys.readouterr().out))
    csv_rows = list(reader)
    assert len(csv_rows) == len(json_rows)
    for jrow, crow in zip(json_rows, csv_rows):
        assert crow["word"] == jrow["word"]
        assert int(crow["length"]) == jrow["length"]


def test_library_errors_exit_4(monkeypatch, capsys):
    for error in (ZeroDivisionError("division by zero"), AssertionError("bad pivot")):
        def broken(req, error=error):
            raise error

        monkeypatch.setattr(forms, "word_texts", broken)
        assert cli.main(["enumerate", "--form", "slnr", "--n", "4"]) == 4
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith("error: internal: ") and str(error) in lines[0]


# Strings mix any character with the ones JSON must escape.
JSON_TEXT = st.text(alphabet=st.characters(codec="utf-8") | st.sampled_from('"\\\x00\n\t\x1f'))
JSON_SCALARS = (st.none() | st.booleans() | JSON_TEXT
                | st.integers(min_value=-10 ** 40, max_value=10 ** 40))


# Flags with a few small entries and denominators, so that columns repeat
# over different denominators.
ENTRIES = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
FLAGS = st.integers(min_value=1, max_value=3).flatmap(lambda n: st.builds(
    geometry.FlagMatrix, st.just(n),
    st.sets(st.integers(1, n)).map(lambda cuts: sorted(cuts | {n})),
    st.lists(st.tuples(*[ENTRIES] * n), min_size=n, max_size=n),
    st.lists(st.integers(1, 4), min_size=n, max_size=n)))


@settings(max_examples=100, deadline=None)
@given(st.lists(FLAGS, max_size=6))
def test_flags_render_as_their_to_json(flags):
    # One memo for all flags, as for the rows of one request.
    memo = {}
    for flag in flags:
        assert tables.flag_text(flag, None, memo) == json.dumps(flag.to_json(), sort_keys=True)
        for pad in ("", "      "):
            assert tables.flag_text(flag, pad, memo) == json.dumps(
                flag.to_json(), sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _csv_by_dict_writer(rows) -> str:
    """CSV the way ``csv.DictWriter`` writes it, row dict by row dict."""
    buffer = io.StringIO()
    if rows:
        keys = sorted({k for row in rows for k in row})
        writer = csv.DictWriter(buffer, fieldnames=keys, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: json.dumps(v, sort_keys=True)
                             if isinstance(v, (list, dict)) else v
                             for k, v in row.items()})
    return buffer.getvalue()


# Rows share a few keys, and some rows lack some of them.
CSV_VALUES = (JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3)
              | st.dictionaries(JSON_TEXT, JSON_SCALARS, max_size=2))
CSV_ROWS = st.lists(st.dictionaries(st.sampled_from(["word", "length", "a,b", 'q"']),
                                    CSV_VALUES, max_size=4), max_size=5)


@settings(max_examples=100, deadline=None)
@given(CSV_ROWS)
def test_render_csv_is_the_dict_writer_table(rows):
    assert cli.render({"rows": rows}, "csv") == _csv_by_dict_writer(rows)


def _compositions(n: int):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _text(values) -> str:
    return ",".join(map(str, values))


def _points_argvs() -> list[list[str]]:
    """Every form and flag type of ``points`` at small sizes: slnr n <= 8;
    slmh n <= 10 and every symmetric --dims with n <= 8; supq p + q <= 6,
    whole and each complete-flag orbit by signs, and for p + q <= 5 each
    partial-flag orbit by block counts (p + q <= 4: by signs too)."""
    argvs = [["--form", "slnr", "--n", str(n)] for n in range(1, 9)]
    argvs += [["--form", "slmh", "--n", str(n)] for n in range(2, 11, 2)]
    argvs += [["--form", "slmh", "--n", str(n), "--dims", _text(dims)]
              for n in range(2, 9, 2) for dims in _compositions(n) if dims == dims[::-1]]
    for p, q in ((p, q) for p in range(1, 6) for q in range(1, p + 1) if p + q <= 6):
        base = ["--form", "supq", "--p", str(p), "--q", str(q)]
        argvs.append(base)
        argvs += [base + ["--orbit=" + "".join(signs)]
                  for signs in sorted(set(permutations("+" * p + "-" * q)))]
        for dims in _compositions(p + q) if p + q <= 5 else ():
            for a in product(*(range(d + 1) for d in dims)):
                if sum(a) != q:
                    continue
                b = tuple(d - x for d, x in zip(dims, a))
                argvs.append(base + ["--orbit", f"a={_text(a)};b={_text(b)}"])
                if p + q <= 4 and len(dims) < p + q:
                    signs = supq.sign_sequence_of(supq.OrbitDescriptor(p, q, a, b))
                    argvs.append(base + ["--dims", _text(dims), "--orbit=" + signs])
    return argvs


def _to_json_tables(argv) -> tuple[dict[str, str], int]:
    """``render`` of the points payload in each format, with every flag as
    its ``to_json()`` and every length its word's own inversion count, and
    the number of rows."""
    args = cli.build_parser().parse_args(["points", *argv])
    rows, req = [], cli._request(args)
    fields, points = forms.points(req)
    for word, flags, values in points:
        row = cli._word_row(word, inversion_length(word), req.dims)
        row["points"] = [flag.to_json() for flag in flags]
        row.update(zip(fields, values))
        rows.append(row)
    payload = {"command": "points", "config": cli._config_echo(args), "rows": rows}
    return {fmt: cli.render(payload, fmt) for fmt in ("json", "csv")}, len(rows)


def test_streamed_points_are_the_to_json_table(capsys):
    # A threshold of 1 writes each row in a chunk of its own; JSON writes its
    # closing text as one more chunk, and CSV writes no empty chunk.
    written = []
    with mock.patch.object(tables, "CHUNK_CHARS", 1), \
            mock.patch.object(sys.stdout, "write", side_effect=written.append):
        for argv in _points_argvs():
            expected_tables, rows = _to_json_tables(argv)
            for fmt, expected in expected_tables.items():
                written.clear()
                assert cli.main(["points", *argv, "--format", fmt]) == 0
                assert "".join(written) == expected, (argv, fmt)
                assert len(written) == rows + (fmt == "json"), (argv, fmt)


def test_points_rows_show_their_words_as_enumerate_does(capsys):
    # Both read the display dims from the request: all-ones --dims give
    # every word its blocks, one letter each, in points as in enumerate.
    ones = [["--form", "slnr", "--n", "4", "--dims", "1,1,1,1"],
            ["--form", "slmh", "--n", "4", "--dims", "1,1,1,1"],
            ["--form", "supq", "--p", "2", "--q", "1", "--dims", "1,1,1", "--orbit=-++"]]
    keys = ("word", "display", "blocks", "length")
    for argv in _points_argvs() + ones:
        shown = []
        for command in ("enumerate", "points"):
            assert cli.main([command, *argv]) == 0, (command, argv)
            rows = json.loads(capsys.readouterr().out)["rows"]
            shown.append([{key: row.get(key) for key in keys} for row in rows])
        assert shown[0] == shown[1], argv
        if argv in ones:
            first = shown[1][0]
            assert first["blocks"] == [[int(v)] for v in first["word"].split()], argv
            assert first["display"] == "".join(f"({v})" for v in first["word"].split())
    # points --dims 1,1,1,1 used to show this word as 2431, without blocks.
    assert cli.main(["points", *ones[0]]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["display"] == "(2)(4)(3)(1)"


def _enumerate_argvs() -> list[list[str]]:
    """Every form and flag type of ``enumerate`` at small sizes: complete
    flags of every form with n <= 10 (past 9 letters the display is
    space-separated); every --dims of slnr and slmh with n <= 6, --n 1
    --dims 1 included, and a symmetric and an asymmetric one with n >= 10;
    supq with p + q <= 5, each complete-flag orbit by signs and each
    partial-flag orbit by block counts (p + q <= 4: by signs with --dims
    too)."""
    argvs = [["--form", "slnr", "--n", str(n)] for n in range(1, 11)]
    argvs += [["--form", "slmh", "--n", str(n)] for n in range(2, 11, 2)]
    argvs += [["--form", "supq", "--p", str(p), "--q", str(q)]
              for p in range(1, 10) for q in range(1, p + 1) if p + q <= 10]
    argvs += [["--form", form, "--n", str(n), "--dims", _text(dims)]
              for form in ("slnr", "slmh") for n in range(1, 7)
              if form == "slnr" or n % 2 == 0 for dims in _compositions(n)]
    argvs += [["--form", "slnr", "--n", "10", "--dims", "2,3,3,2"],
              ["--form", "slmh", "--n", "12", "--dims", "3,5,4"]]
    for p, q in ((p, q) for p in range(1, 5) for q in range(1, p + 1) if p + q <= 5):
        base = ["--form", "supq", "--p", str(p), "--q", str(q)]
        argvs += [base + ["--orbit=" + "".join(signs)]
                  for signs in sorted(set(permutations("+" * p + "-" * q)))]
        for dims in _compositions(p + q):
            for a in product(*(range(d + 1) for d in dims)):
                if sum(a) != q or len(dims) == p + q:
                    continue
                b = tuple(d - x for d, x in zip(dims, a))
                argvs.append(base + ["--orbit", f"a={_text(a)};b={_text(b)}"])
                if p + q <= 4:
                    signs = supq.sign_sequence_of(supq.OrbitDescriptor(p, q, a, b))
                    argvs.append(base + ["--dims", _text(dims), "--orbit=" + signs])
    return argvs


def test_streamed_words_are_the_word_row_table():
    # enumerate writes its rows from one text template per request; they
    # must be the bytes render gives for the _word_row payload, with each
    # length the word's own inversion count, and streamed row by row.
    written = []
    with mock.patch.object(tables, "CHUNK_CHARS", 1), \
            mock.patch.object(sys.stdout, "write", side_effect=written.append):
        for argv in _enumerate_argvs():
            args = cli.build_parser().parse_args(["enumerate", *argv])
            req = cli._request(args)
            rows = [cli._word_row(word, inversion_length(word), req.dims)
                    for word in forms.words(req)]
            payload = {"command": "enumerate", "config": cli._config_echo(args), "rows": rows}
            for fmt in ("json", "csv"):
                written.clear()
                assert cli.main(["enumerate", *argv, "--format", fmt]) == 0
                assert "".join(written) == cli.render(payload, fmt), (argv, fmt)
                assert len(written) == len(rows) + (fmt == "json"), (argv, fmt)


def test_json_chunks_end_with_the_row_that_reaches_the_threshold():
    args = cli.build_parser().parse_args(["points", "--form", "slmh", "--n", "12"])
    header, texts = tables.point_texts(cli._request(args), "json")
    chunks = list(tables.table("points", cli._config_echo(args), "json", header, texts))
    # A row's text: its separator, then the row at the indent of the rows.
    longest = max(len(",\n    " + json.dumps(row, sort_keys=True, indent=2).replace("\n", "\n    "))
                  for row in json.loads("".join(chunks))["rows"])
    assert len(chunks) > 10
    assert all(tables.CHUNK_CHARS <= len(chunk) <= tables.CHUNK_CHARS + longest
               for chunk in chunks[:-1])


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [["--form", "slnr", "--n", "12"],
                                  ["--form", "slnr", "--n", "12", "--dims", "1,1,2,4,2,1,1"]])
def test_enumerate_chunks_end_with_the_row_that_reaches_the_threshold(argv, fmt):
    # enumerate counts the rows of a chunk from its first row's length, as
    # every row of a request has the same length; each chunk but the last
    # still ends with the row that brings it to CHUNK_CHARS.
    written = []
    with mock.patch.object(sys.stdout, "write", side_effect=written.append):
        assert cli.main(["enumerate", *argv, "--format", fmt]) == 0
    text = "".join(written)
    if fmt == "json":
        rows = [",\n    " + json.dumps(row, sort_keys=True, indent=2).replace("\n", "\n    ")
                for row in json.loads(text)["rows"]]
    else:
        rows = text.splitlines(keepends=True)[1:]
    longest = max(map(len, rows))
    assert len(written) >= 3
    assert all(tables.CHUNK_CHARS <= len(chunk) < tables.CHUNK_CHARS + longest
               and chunk.endswith("}" if fmt == "json" else "\n") for chunk in written[:-1])


@pytest.mark.parametrize("argv", [["enumerate", "--form", "slnr", "--n", "12"],
                                  ["points", "--form", "slnr", "--n", "8"]])
def test_a_reader_closing_the_pipe_early_gets_no_traceback(argv):
    proc = subprocess.Popen([sys.executable, "-m", "flagslice", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(100)
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait() == 141


@pytest.mark.parametrize("argv", [["count", "--form", "slnr", "--n", "4"],
                                  ["enumerate", "--form", "slnr", "--n", "6"]])
def test_a_full_device_on_stdout_exits_2_with_one_error_line(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "flagslice", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2, proc.stderr
    assert len(lines) == 1 and lines[0].startswith("error: cannot write the output: ")


# The CSV header of each request type: the sorted union of its row keys.
CSV_HEADERS = [
    (["enumerate", "--form", "slnr", "--n", "6"], "display,length,word"),
    (["enumerate", "--form", "slnr", "--n", "6", "--dims", "2,1,1,2"],
     "blocks,display,length,word"),
    (["enumerate", "--form", "slnr", "--n", "6", "--dims", "1,2,3"],
     "blocks,display,length,word"),
    (["enumerate", "--form", "slmh", "--n", "8"], "display,length,word"),
    (["enumerate", "--form", "slmh", "--n", "8", "--dims", "2,4,2"],
     "blocks,display,length,word"),
    (["enumerate", "--form", "slmh", "--n", "8", "--dims", "3,5"],
     "blocks,display,length,word"),
    (["enumerate", "--form", "supq", "--p", "3", "--q", "2"], "display,length,word"),
    (["enumerate", "--form", "supq", "--p", "3", "--q", "2", "--orbit=+-+-+"],
     "display,length,word"),
    (["enumerate", "--form", "supq", "--p", "3", "--q", "2", "--orbit", "a=1,1;b=1,2"],
     "blocks,display,length,word"),
    (["points", "--form", "slnr", "--n", "6"], "display,length,orientations,points,word"),
    (["points", "--form", "slnr", "--n", "5"], "display,length,points,word"),
    (["points", "--form", "slmh", "--n", "8"], "display,length,points,word"),
    (["points", "--form", "slmh", "--n", "8", "--dims", "2,4,2"],
     "blocks,display,length,points,word"),
    (["points", "--form", "supq", "--p", "3", "--q", "2"], "display,length,orbits,points,word"),
    (["points", "--form", "supq", "--p", "3", "--q", "2", "--orbit=+-+-+"],
     "display,length,points,word"),
    (["points", "--form", "supq", "--p", "3", "--q", "2", "--dims", "2,3", "--orbit=-+-++"],
     "blocks,display,length,points,word"),
]


@pytest.mark.parametrize("argv, header", CSV_HEADERS, ids=[" ".join(c[0]) for c in CSV_HEADERS])
def test_csv_header_is_the_union_of_the_row_keys(capsys, argv, header):
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows and header == ",".join(sorted(set().union(*rows)))
    assert cli.main(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.split("\n", 1)[0] == header


@pytest.mark.parametrize("req, message", [
    (forms.Request("slnr", n=6, dims=(3, 3)), "complete flags only"),
    (forms.Request("slmh", n=6, dims=(2, 4)), "symmetric dimension sequence"),
])
def test_a_refused_points_request_raises_before_any_word(monkeypatch, req, message):
    # forms.points refuses on the call itself, so no row and no word of the
    # request is ever built.
    def refuse(*args, **kwargs):
        raise AssertionError("a refused request was enumerated")

    monkeypatch.setattr(forms, "words", refuse)
    monkeypatch.setattr(forms.slmh, "enumerate_measurable_h", refuse)
    with pytest.raises(ValueError, match=message):
        forms.points(req)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_request_failing_on_its_first_row_writes_nothing(tmp_path, capsys, fmt):
    # slnr points exist for complete flags only; forms.points refuses before
    # the first row.
    argv = ["points", "--form", "slnr", "--n", "6", "--dims", "3,3", "--format", fmt]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: slnr intersection")
    out = tmp_path / "table"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


# Runs one command line and prints the child's peak resident set in KB.
PEAK_RSS = """
import os, subprocess, sys
with open(os.devnull, "wb") as sink:
    proc = subprocess.Popen([sys.executable, "-m", "flagslice", *sys.argv[1:]], stdout=sink)
    _, status, usage = os.wait4(proc.pid, 0)
assert os.waitstatus_to_exitcode(status) == 0
print(usage.ru_maxrss)
"""


def peak_rss_mb(*argv) -> float:
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024


def test_streamed_requests_stay_near_the_interpreter_peak():
    # Held whole, these outputs peaked at about 52 MB, 37 MB above an
    # interpreter that does no work; streamed, they stay within 8.
    idle = peak_rss_mb("count", "--form", "slnr", "--n", "2")
    for argv in (["enumerate", "--form", "slnr", "--n", "13"],
                 ["points", "--form", "slmh", "--n", "12"]):
        assert peak_rss_mb(*argv) - idle <= 15, argv


def test_supq_enumeration_shares_its_getter_positions():
    # One itemgetter per gap holds up to n positions: as ints of their own
    # they took about 168 MB above the idle interpreter at p = 1999, as
    # pointers into one shared list about 61 MB.
    idle = peak_rss_mb("count", "--form", "slnr", "--n", "2")
    assert peak_rss_mb("enumerate", "--form", "supq", "--p", "1999", "--q", "1") - idle <= 100


@pytest.mark.parametrize("argv", [
    ["enumerate", "--form", "slnr", "--n", "18"],
    ["homology", "--form", "slmh", "--n", "24"],
    ["points", "--form", "slnr", "--n", "12"],
    ["enumerate", "--form", "supq", "--p", "12", "--q", "8", "--format", "csv"],
    ["points", "--form", "slmh", "--n", "16", "--dims", "1" + ",1" * 15],
    ["enumerate", "--form", "slnr", "--n", "16", "--dims", "1,1,1,1,1,1,1,2,1,1,1,1,1,1,1"],
    # Asymmetric dims, bounded by the closed count of their symmetric model,
    # the complete flags of n = 16; ``count`` enumerates such a request too.
    ["count", "--form", "slnr", "--n", "16", "--dims", "1,1,1,1,1,1,1,1,1,1,1,1,1,1,2"],
    ["enumerate", "--form", "slnr", "--n", "16", "--dims", "1,1,1,1,1,1,1,1,1,1,1,1,1,1,2"],
    ["homology", "--form", "slmh", "--n", "24", "--dims", "2" + ",1" * 20 + ",2"],
    ["points", "--form", "slmh", "--n", "20", "--dims", "2" + ",1" * 16 + ",2"],
    # Few words or flags, but long ones: refused by their letters or entries.
    ["enumerate", "--form", "supq", "--p", "100000", "--q", "1"],
    ["enumerate", "--form", "slnr", "--n", "100000", "--dims", "1,99998,1"],
    ["homology", "--form", "supq", "--p", "100000", "--q", "1"],
    ["points", "--form", "supq", "--p", "150", "--q", "1"],
    # Counts too long to print: compared with the budget as the product grows.
    ["enumerate", "--form", "slnr", "--n", "100000"],
    ["points", "--form", "slmh", "--n", "100000"],
    ["homology", "--form", "slmh", "--n", "40000"],
    ["enumerate", "--form", "supq", "--p", "60000", "--q", "40000"],
    # Sizes past an index-sized int, or whose counts, products or binomial
    # factors would take seconds or fail to build: refused from their bit
    # lengths.  The supq orbit's words, one of n letters, are over the budget.
    *([command, *argv] for command in ("enumerate", "points", "homology") for argv in (
        ["--form", "slnr", "--n", str(2 ** 63 - 1)],
        ["--form", "slmh", "--n", str(2 ** 63 - 2)],
        ["--form", "slnr", "--n", str(2 ** 63)],
        ["--form", "supq", "--p", str(2 ** 63 - 1), "--q", "1"],
        ["--form", "slnr", "--n", "10000000"],
        ["--form", "supq", "--p", "1000000000000", "--q", "1",
         "--orbit", "a=0,1;b=1000000000000,0"])),
    ["count", "--form", "supq", "--p", "1000000000000", "--q", "1",
     "--orbit", "a=0,1;b=1000000000000,0"],
    # slnr points of partial flags are refused as such, so their huge --dims
    # ask for slmh points.
    *([command, "--form", form, "--n", n, "--dims", dims]
      for n, dims in ((str(3 * 10 ** 31), _text([10 ** 31] * 3)),
                      ("6000000", "2000000,2000000,2000000"))
      for command, form in (("enumerate", "slnr"), ("homology", "slnr"), ("points", "slmh"))),
])
def test_oversized_requests_exit_2_before_enumerating(monkeypatch, capsys, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized request was enumerated")

    for module, name in ((forms.slnr, "enumerate_measurable"),
                         (forms.slmh, "enumerate_measurable_h"),
                         (forms.supq, "enumerate_i_pq")):
        monkeypatch.setattr(module, name, refuse)
    started = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - started < 0.2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("error: ") and "exceed the limit" in lines[0]


@pytest.mark.parametrize("command, form", [("homology", "slnr"), ("homology", "slmh"),
                                           ("enumerate", "slnr")])
def test_a_block_of_thousands_of_pairs_is_walked_without_recursion(capsys, command, form):
    # The one word of (2000, 2000) places 2000 pairs in one block; a walk
    # with a stack frame per pair passed the recursion limit.
    argv = [command, "--form", form, "--n", "4000", "--dims", "2000,2000"]
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 1 and len(rows[0].get("classes", [None])) == 1


# Sizes from 10^8 up, past every budget, and the two sides of an index-sized int.
HUGE = st.one_of(st.integers(10 ** 8, 10 ** 30), st.sampled_from([2 ** 63 - 1, 2 ** 63]))


@st.composite
def huge_argvs(draw) -> list[str]:
    """A command line of every command but verify and of every form, whose
    size options (--n, --p, --q, the parts of --dims and the block counts
    of --orbit) are drawn from ``HUGE`` or from 0..3, at least one from
    ``HUGE``."""
    size = st.one_of(HUGE, st.integers(0, 3))
    command = draw(st.sampled_from(["enumerate", "count", "points", "homology"]))
    form = draw(st.sampled_from(forms.FORMS))
    shape = draw(st.sampled_from(["whole", "parts"]))
    if form != "supq":
        if shape == "whole":
            values = [draw(size)]
            argv = ["--n", str(values[0])]
        else:
            values = draw(st.lists(size.map(lambda v: max(v, 1)), min_size=1, max_size=4))
            values[0] += form == "slmh" and sum(values) % 2
            argv = ["--n", str(sum(values)), "--dims", _text(values)]
    else:
        if shape == "whole":
            values = sorted([draw(size), draw(size)], reverse=True)
            argv = ["--p", str(values[0]), "--q", str(values[1])]
        else:
            blocks = draw(st.lists(st.tuples(size, size), min_size=1, max_size=3))
            a, b = zip(*blocks)
            if sum(a) > sum(b):
                a, b = b, a
            values = [*a, *b]
            argv = ["--p", str(sum(b)), "--q", str(sum(a)),
                    "--orbit", f"a={_text(a)};b={_text(b)}"]
    assume(max(values) >= 10 ** 8)
    return [command, "--form", form, *argv]


@settings(deadline=None)
@given(huge_argvs())
def test_huge_size_options_answer_or_exit_2_at_once(argv):
    # Each such request prints its count or exits 2, in O(1): never a
    # traceback (1), a failed check (3) or an internal error (4).
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 2), (argv, code, err.getvalue())
    assert code == 2 or argv[0] == "count", argv
    assert time.perf_counter() - started < 0.2, argv


def test_size_limits_sit_between_the_measured_requests():
    def fits(points=False, **kwargs):
        try:
            forms.check_size(forms.Request(**kwargs), points=points)
        except ValueError:
            return False
        return True

    assert fits(form="slnr", n=15) and not fits(form="slnr", n=16)
    assert fits(form="slnr", n=10, points=True)
    assert not fits(form="slnr", n=11, points=True)
    assert fits(form="slmh", n=18) and not fits(form="slmh", n=20)
    assert fits(form="slmh", n=14, points=True)
    assert not fits(form="slmh", n=16, points=True)
    assert fits(form="supq", p=6, q=4, points=True)
    assert not fits(form="supq", p=6, q=5, points=True)
    # Symmetric --dims are checked by their closed count; asymmetric ones by
    # the closed count of their symmetric model, whose words they are read
    # from: (19, 21) by the 210 words of (19, 2, 19), the last one by those
    # of complete flags.  Orbits are not checked.
    assert fits(form="slnr", n=40, dims=(20, 20))
    assert not fits(form="slnr", n=16, dims=(1,) * 7 + (2,) + (1,) * 7)
    assert fits(form="slnr", n=40, dims=(19, 21))
    assert not fits(form="slnr", n=16, dims=(1,) * 14 + (2,))
    assert fits(form="supq", p=20, q=20, orbit="-+" * 20)
    # Few words or flags, but long ones: the letters of the words and the
    # entries of the flags have budgets too.
    assert fits(form="supq", p=3999, q=1) and not fits(form="supq", p=4000, q=1)
    assert not fits(form="slnr", n=100000, dims=(1, 99998, 1))
    assert fits(form="supq", p=100, q=1, points=True)
    assert not fits(form="supq", p=150, q=1, points=True)


def test_config_errors(capsys):
    assert cli.main(["enumerate", "--form", "slmh", "--n", "7"]) == 2
    assert "even" in capsys.readouterr().err
    assert cli.main(["enumerate", "--form", "supq", "--p", "2", "--q", "3"]) == 2
    assert "p >= q" in capsys.readouterr().err
    assert cli.main(["enumerate", "--form", "slnr", "--n", "6",
                     "--dims", "2,2"]) == 2
    assert "sum" in capsys.readouterr().err
    assert cli.main(["points", "--form", "slnr", "--n", "6",
                     "--dims", "2,2,2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("orbit", [[], ["--orbit", "a=1;b=1"], ["--orbit", "a=1,1;b=1"]])
@pytest.mark.parametrize("p, q", [(2, 0), (0, 2), (1, 2), (0, 0)])
@pytest.mark.parametrize("command", ["count", "enumerate", "points"])
def test_bad_supq_signature_has_one_message(command, p, q, orbit, capsys):
    argv = [command, "--form", "supq", "--p", str(p), "--q", str(q), *orbit]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: supq requires p >= q >= 1\n"


@pytest.mark.parametrize("argv, option, field", [
    (["--form", "slnr", "--n", "4", "--dims", "1,,3"], "--dims", "empty field"),
    (["--form", "slnr", "--n", "4", "--dims", "1,3,"], "--dims", "empty field"),
    (["--form", "slnr", "--n", "4", "--dims", "2,x"], "--dims", "'x'"),
    (["--form", "supq", "--p", "3", "--q", "2", "--orbit", "a=1,y;b=1,2"], "--orbit", "'y'"),
    (["--form", "supq", "--p", "3", "--q", "2", "--orbit", "a=1,1;b=,3"], "--orbit",
     "empty field"),
    (["--form", "supq", "--p", "3", "--q", "2", "--orbit", "a=1,1;b"], "--orbit",
     "empty field"),
])
def test_malformed_integer_fields_exit_2_naming_the_option(capsys, argv, option, field):
    for command in ("enumerate", "count"):
        assert cli.main([command, *argv]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith(f"error: {option}: ") and field in lines[0]


def test_orbit_block_counts_fix_the_flag_type(capsys):
    # a=1,1;b=1,2 names an orbit on the (2,3) flag manifold, so without
    # --dims it must answer what it answers with --dims 2,3.
    for command in ("enumerate", "count", "points", "homology"):
        base = [command, "--form", "supq", "--p", "3", "--q", "2"]
        assert cli.main(base + ["--orbit", "a=1,1;b=1,2"]) == 0
        by_counts = json.loads(capsys.readouterr().out)["rows"]
        assert cli.main(base + ["--dims", "2,3", "--orbit=-+-++"]) == 0
        assert by_counts == json.loads(capsys.readouterr().out)["rows"]
        if command == "enumerate":
            assert [r["display"] for r in by_counts] == ["(15)(234)", "(24)(135)"]


@pytest.mark.parametrize("argv", [
    ["--form", "slnr", "--n", "4", "--orbit=-+-+"],
    ["--form", "slnr", "--n", "5", "--orbit", "a=1,1;b=1,2"],
    ["--form", "slnr", "--n", "4", "--p", "3"],
    ["--form", "slmh", "--n", "4", "--q", "1"],
    ["--form", "supq", "--p", "3", "--q", "2", "--n", "5"],
])
def test_options_a_form_does_not_take(capsys, argv):
    for command in ("enumerate", "count", "points", "homology"):
        assert cli.main([command, *argv]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("option", [
    ["--form", "slnr"], ["--n", "6"], ["--p", "3"], ["--q", "2"],
    ["--dims", "1,1"], ["--orbit=+-"],
])
def test_verify_takes_only_its_own_options(capsys, option):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--fast", *option])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and option[0].split("=")[0] in captured.err


# One case per dispatch branch: the arguments, the library expansion the
# homology row must equal, and whether points are computed for the flag type.
PARITY = [
    (["--form", "slnr", "--n", "6"],
     lambda: homology.base_cycle_class("slnr", n=6), True),
    (["--form", "slnr", "--n", "6", "--dims", "2,1,1,2"],
     lambda: homology.base_cycle_class("slnr", n=6, dims=(2, 1, 1, 2)), False),
    (["--form", "slnr", "--n", "6", "--dims", "1,2,3"],
     lambda: homology.base_cycle_class("slnr", n=6, dims=(1, 2, 3)), False),
    (["--form", "slmh", "--n", "8"],
     lambda: homology.base_cycle_class("slmh", n=8), True),
    (["--form", "slmh", "--n", "8", "--dims", "2,4,2"],
     lambda: homology.base_cycle_class("slmh", n=8, dims=(2, 4, 2)), True),
    (["--form", "slmh", "--n", "8", "--dims", "3,5"],
     lambda: homology.base_cycle_class("slmh", n=8, dims=(3, 5)), False),
    (["--form", "supq", "--p", "3", "--q", "2"],
     lambda: homology.total_cycle_class_su(3, 2), True),
    (["--form", "supq", "--p", "3", "--q", "2", "--orbit", "+-+-+"],
     lambda: homology.base_cycle_class("supq", p=3, q=2, orbit="+-+-+"), True),
    (["--form", "supq", "--p", "3", "--q", "2", "--dims", "2,3", "--orbit=-+-++"],
     lambda: homology.base_cycle_class("supq", p=3, q=2, dims=(2, 3), orbit="-+-++"),
     True),
]


@pytest.mark.parametrize("argv, expansion, has_points", PARITY,
                         ids=[" ".join(case[0]) for case in PARITY])
def test_cross_command_parity(capsys, argv, expansion, has_points):
    def rows(command):
        code = cli.main([command, *argv])
        out = capsys.readouterr().out
        return code, json.loads(out)["rows"] if code == 0 else None

    code, enumerated = rows("enumerate")
    assert code == 0 and enumerated
    words = [row["word"] for row in enumerated]
    assert rows("count") == (0, [{"count": len(words)}])
    code, classes = rows("homology")
    assert code == 0 and classes == [expansion().to_json()]
    assert classes[0]["classes"] == words
    code, points = rows("points")
    if has_points:
        assert code == 0 and [row["word"] for row in points] == words
    else:
        assert code == 2


@pytest.mark.parametrize("argv", [case[0] for case in PARITY] + [
    ["--form", "slnr", "--n", "11"], ["--form", "supq", "--p", "5", "--q", "3"],
    ["--form", "slmh", "--n", "12", "--dims", "2,2,4,2,2"]],
    ids=lambda argv: " ".join(argv))
def test_homology_json_is_json_dumps(capsys, argv):
    # The class list is spliced into the rendered payload; the bytes are still
    # those of json.dumps of the whole payload.
    assert cli.main(["homology", *argv]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_out_file_and_determinism(tmp_path):
    first = run_cli("enumerate", "--form", "slnr", "--n", "6", "--seed", "3")
    second = run_cli("enumerate", "--form", "slnr", "--n", "6", "--seed", "3")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    out = tmp_path / "table.json"
    proc = run_cli("points", "--form", "slmh", "--n", "4", "--out", str(out))
    assert proc.returncode == 0 and proc.stdout == ""
    assert json.loads(out.read_text())["rows"]


@pytest.mark.parametrize("target", ["missing/table.json", "."])
def test_unwritable_out_path_exits_2(tmp_path, capsys, target):
    argv = ["points", "--form", "slmh", "--n", "4", "--dims", "2,2",
            "--out", str(tmp_path / target)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("error: cannot write --out: ")


def test_verify_fast_passes(capsys):
    assert cli.main(["verify", "--fast"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["failed"] == 0
    assert all(row["status"] == "pass" for row in payload["rows"])


def test_verify_reports_corrupted_predicate(monkeypatch, capsys):
    healthy = slnr.spacing_check
    victim = (2, 5, 6, 3, 4, 1)  # complementary length, genuinely spacing

    def corrupted(word):
        if word == victim:
            return not healthy(word)
        return healthy(word)

    monkeypatch.setattr(slnr, "spacing_check", corrupted)
    result = checks.check_sampling_slnr(n_values=(6,), samples=5)
    assert not result.passed
    assert "2 5 6 3 4 1" in result.detail


def _counted_draws(monkeypatch) -> Counter:
    """The words ``checks`` draws cell points of, with their draw counts."""
    draws = Counter()
    original = checks.random_cell_sample

    def counted(word, reference, seed, dims=None):
        draws[tuple(word)] += 1
        return original(word, reference, seed, dims)

    monkeypatch.setattr(checks, "random_cell_sample", counted)
    return draws


def test_verify_reports_a_miss_corrupted_to_hit_after_its_draws(monkeypatch):
    # The opposite corruption: a predicted hit is certified only by a draw
    # that hits, so a genuine miss called a hit fails after all 5N draws.
    healthy = slnr.spacing_check
    victim = (1, 5, 6, 4, 3, 2)  # complementary length, genuinely not spacing
    assert not healthy(victim)
    monkeypatch.setattr(slnr, "spacing_check", lambda word: word == victim or healthy(word))
    draws = _counted_draws(monkeypatch)
    result = checks.check_sampling_slnr(n_values=(6,), seed=4, samples=2)
    assert not result.passed and draws[victim] == 10
    assert result.detail == "n=6 1 5 6 4 3 2: predicted hit, none in 10 draws (tag 1, seed 4)"


@pytest.mark.parametrize("check, cases", [
    ("check_sampling_slnr", [(forms.Request("slnr", n=n), slnr.spacing_check)
                             for n in range(2, 7)]),
    ("check_sampling_slmh", [(forms.Request("slmh", n=2 * m), slmh.spacing_check_h)
                             for m in range(1, 4)]),
    ("check_sampling_supq", [(forms.Request("supq", p=p, q=q),
                              lambda word, p=p, q=q: supq.pairing_check(word, p, q))
                             for p, q in ((2, 1), (2, 2), (3, 2))]),
])
def test_verify_draws_for_predicted_hits_only(monkeypatch, check, cases):
    # Each predicted miss is certified by its witness with no draw; each
    # predicted hit draws until it hits, at most 5N times.
    draws = _counted_draws(monkeypatch)
    assert getattr(checks, check)(seed=0, samples=3).passed
    hits = {word for req, predicate in cases
            for word in permutations(range(1, req.size + 1))
            if inversion_length(word) == forms.length(req) and predicate(word)}
    assert set(draws) == hits and max(draws.values()) <= 15


def test_verify_fails_a_sampling_case_without_words(monkeypatch, capsys):
    # A case that examines no word certifies nothing, so its row fails.
    words = checks._complementary_words
    monkeypatch.setattr(checks, "_complementary_words",
                        lambda n, length: iter(()) if n == 4 else words(n, length))
    assert cli.main(["verify", "--seed", "3", "--samples", "1"]) == 3
    rows = json.loads(capsys.readouterr().out)["rows"]
    failed = {row["check"]: row["detail"] for row in rows if row["status"] == "fail"}
    assert failed == {
        "spacing predicate == sampled open-orbit membership":
            "n=4: no word of length 4 (tag 1, seed 3)",
        "quaternionic spacing == sampled open-orbit membership":
            "m=2: no word of length 2 (tag 2, seed 3)",
        "pairing predicate == sampled nondegenerate-orbit membership":
            "(2,2): no word of length 4 (tag 3, seed 3)"}


@pytest.mark.parametrize("form, check, field, victim", [
    ("slnr", "check_points_slnr", "orientations", (2, 4, 3, 1)),
    ("supq", "check_transposition_points_supq", "orbits", (3, 1, 2)),
])
def test_verify_certifies_the_printed_fields(monkeypatch, form, check, field, victim):
    # verify reads the rows that points prints: an orientation sign flipped,
    # or two orbit labels swapped, in one row must fail its check there.
    healthy = forms.points

    def corrupted(req):
        fields, rows = healthy(req)

        def altered():
            for word, flags, values in rows:
                if req.form == form and word == victim:
                    value = list(values[fields.index(field)])
                    if field == "orientations":
                        value[0] = -value[0]
                    else:
                        value[:2] = value[1::-1]
                    values = (value,)
                yield word, flags, values
        return fields, altered()

    monkeypatch.setattr(forms, "points", corrupted)
    result = getattr(checks, check)()
    assert not result.passed
    assert word_text(victim) in result.detail and field in result.detail, result.detail


@pytest.mark.parametrize("module, name, wrong, rows", [
    (slnr, "model_dimension_drop", lambda model: 0,
     ("count+length, split form, complete flags",
      "count+length, quaternionic form, complete flags")),
    (supq, "schubert_dimension_su", lambda a, b: sum(a) * sum(b) + 1,
     ("double counting: each variety meets exactly 2^q orbits",)),
])
def test_verify_certifies_partial_flag_and_orbit_lengths(monkeypatch, module, name,
                                                         wrong, rows):
    # The asymmetric --dims and supq --orbit branches of forms.length.
    monkeypatch.setattr(module, name, wrong)
    failed = {r.name: r.detail for r in checks.fast_suite() if not r.passed}
    assert all(row in failed and "wrong length" in failed[row] for row in rows), failed


def test_verify_runs_every_oracle_predicate(monkeypatch):
    # A predicate that no check calls any more certifies nothing: count the
    # calls of each oracle function that checks imports, and of canonical_key.
    calls = {}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    oracle = {name: value for name, value in vars(checks).items()
              if callable(value) and getattr(value, "__module__", "") == geometry.__name__}
    for name, value in oracle.items():
        calls[name] = 0
        monkeypatch.setattr(checks, name, counted(name, value))
    calls["canonical_key"] = 0
    monkeypatch.setattr(geometry.FlagMatrix, "canonical_key",
                        counted("canonical_key", geometry.FlagMatrix.canonical_key))
    assert all(result.passed for result in checks.full_suite(seed=0, samples=1))
    assert {"is_isotropic_flag", "is_tau_generic", "tau_generic_full_flag"} <= set(oracle)
    assert all(calls.values()), calls


def test_verify_seed_stability():
    a = checks.check_sampling_slnr(n_values=(4,), seed=5)
    b = checks.check_sampling_slnr(n_values=(4,), seed=5)
    assert (a.passed, a.detail) == (b.passed, b.detail)


def test_verify_rejects_samples_below_one():
    # Zero or negative trials per cell is a configuration error (exit 2), not
    # three sampling failures (exit 3).
    for samples in ("0", "-1"):
        proc = run_cli("verify", "--samples", samples)
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "--samples" in lines[0]


@pytest.mark.parametrize("samples", [cli.MAX_SAMPLES + 1, 10 ** 30])
def test_verify_refuses_samples_past_the_bound(capsys, monkeypatch, samples):
    # A predicted hit that fails draws 5 points per sample, so 10^30 of them
    # would never end: the bound refuses them before any check runs.
    monkeypatch.setattr(checks, "full_suite", None)
    started = time.perf_counter()
    assert cli.main(["verify", "--samples", str(samples)]) == 2
    assert time.perf_counter() - started < 0.2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: --samples must be from 1 to {cli.MAX_SAMPLES}, got {samples}\n")


def test_python_dash_m_flagslice_runs_the_command_line():
    proc = subprocess.run([sys.executable, "-m", "flagslice", "count", "--form", "slnr",
                           "--n", "6"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rows"] == [{"count": 15}]


# Runs the command lines given as a JSON list and prints, on its last line,
# their exit codes and the modules that they executed.  A module the lazy
# loader has registered but nothing has read from yet is not a
# types.ModuleType.
MODULES_EXECUTED = """
import json, sys, types
def executed():
    return {name for name, module in sys.modules.items() if type(module) is types.ModuleType}
before = executed()
from flagslice.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(main(argv + ["--out", sys.argv[2]]))
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps([codes, sorted(executed() - before)]))
"""
# Every command line the option table reads runs without these: argparse
# (and the gettext it imports) loads only for help and errors.
PARSER_MODULES = {"argparse", "gettext"}


def run_probe(tmp_path, *argvs) -> tuple[subprocess.CompletedProcess, list, set]:
    proc = subprocess.run([sys.executable, "-c", MODULES_EXECUTED, json.dumps(argvs),
                           str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, executed = json.loads(proc.stdout.splitlines()[-1])
    return proc, codes, set(executed)


def modules_executed(tmp_path, *argvs) -> set:
    proc, codes, executed = run_probe(tmp_path, *argvs)
    assert codes == [0] * len(argvs), proc.stderr
    return executed


@pytest.mark.parametrize("form", [["--form", "slnr", "--n", "6"],
                                  ["--form", "slnr", "--n", "6", "--dims", "1,2,3"],
                                  ["--form", "slmh", "--n", "6"],
                                  ["--form", "slmh", "--n", "8", "--dims", "3,5"],
                                  ["--form", "supq", "--p", "3", "--q", "2"],
                                  ["--form", "supq", "--p", "3", "--q", "2", "--orbit=+-+-+"],
                                  ["--form", "supq", "--p", "3", "--q", "2", "--dims", "2,3",
                                   "--orbit=(-+)(-++)"],
                                  ["--form", "supq", "--p", "4", "--q", "3",
                                   "--orbit", "a=1,1,1;b=2,1,1"]])
def test_word_commands_execute_no_geometry(tmp_path, form):
    # JSON runs (the default format) need no csv module either.
    commands = ("enumerate", "count", "homology")
    executed = modules_executed(tmp_path, *([command, *form] for command in commands))
    assert {"flagslice.cli", "flagslice.forms", "flagslice.homology",
            "flagslice.tables"} <= executed
    assert not executed & {"flagslice.flags", "flagslice.geometry", "flagslice.gaussian",
                           "dataclasses", "csv", *PARSER_MODULES}
    if form[1] == "slnr":
        assert not executed & {"flagslice.slmh", "flagslice.supq"}


@pytest.mark.parametrize("form", [["--form", "slnr", "--n", "4"],
                                  ["--form", "supq", "--p", "3", "--q", "2"],
                                  ["--form", "supq", "--p", "3", "--q", "2", "--dims", "2,3",
                                   "--orbit=(-+)(-++)"]])
def test_points_executes_the_flags_but_not_the_oracle(tmp_path, form):
    # slnr and supq points are built from unit vectors through the
    # FlagMatrix constructor, so neither Q(i) nor the oracle is needed.
    executed = modules_executed(tmp_path, ["points", *form])
    assert {"flagslice.flags", "flagslice.tables", f"flagslice.{form[1]}"} <= executed
    assert not executed & {"flagslice.geometry", "flagslice.gaussian", "fractions",
                           *PARSER_MODULES}


def test_slmh_points_execute_gaussian_for_the_rank_check(tmp_path):
    executed = modules_executed(tmp_path, ["points", "--form", "slmh", "--n", "4"])
    assert {"flagslice.flags", "flagslice.gaussian", "flagslice.slmh"} <= executed
    assert "flagslice.geometry" not in executed


def test_payload_commands_execute_neither_the_row_tables_nor_argparse(tmp_path):
    # count, homology and verify render their whole payload; the options
    # written with "=" are read by the option table too.
    executed = modules_executed(tmp_path, ["count", "--form", "slnr", "--n", "6"],
                                ["homology", "--form=supq", "--p=3", "--q=2"],
                                ["verify", "--fast", "--seed", "3"])
    assert {"flagslice.cli", "flagslice.homology", "flagslice.checks"} <= executed
    assert not executed & {"flagslice.tables", *PARSER_MODULES}


@pytest.mark.parametrize("argv, code, stream, text", [
    (["--help"], 0, "stdout", "usage: flagslice"),
    (["count", "--help"], 0, "stdout", "usage: flagslice count"),
    (["count", "--form", "slnr", "--n", "2", "--bogus"], 2, "stderr", "usage: flagslice"),
    # argparse reads a value that starts with "-"; the request check refuses it.
    (["count", "--form", "slnr", "--n", "-3"], 2, "stderr", "error: --n must be positive"),
])
def test_help_and_errors_load_argparse(tmp_path, argv, code, stream, text):
    proc, codes, executed = run_probe(tmp_path, argv)
    assert codes == [code] and text in getattr(proc, stream)
    assert PARSER_MODULES <= executed and "flagslice.tables" not in executed


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("kwargs", [{"n": 4}, {"n": 10}, {"n": 5, "dims": (2, 3)}])
def test_word_texts_read_each_word_once(fmt, kwargs):
    # A one-shot generator of spelt words gives one row per word, in order.
    req = forms.Request("slnr", **kwargs)
    words = forms.words(req)
    _, runs = tables.row_texts(req, (tuple(map(str, w)) for w in words), fmt)
    text = "".join(runs(0))
    if fmt == "json":
        found = [row["word"] for row in json.loads("[" + text[1:] + "]")]
    else:
        found = [row[-1] for row in csv.reader(io.StringIO(text))]
    assert found == [word_text(word) for word in words]


def test_spelt_words_are_the_words_in_letter_texts():
    # forms.word_texts spells the words in the enumerators for complete
    # flags and symmetric dims, and spells the sorted words afterwards for
    # asymmetric dims and supq orbits: the same words, in the same order.
    reqs = [forms.Request("slnr", n=n) for n in range(1, 13)]
    reqs += [forms.Request("slmh", n=n) for n in range(2, 13, 2)]
    reqs += [forms.Request(form, n=n, dims=dims) for form in ("slnr", "slmh")
             for n in range(1, 9) if form == "slnr" or n % 2 == 0
             for dims in _compositions(n) if dims == dims[::-1] or n <= 6]
    reqs += [forms.Request("supq", p=p, q=q) for p in range(1, 13)
             for q in range(p + 1) if p + q <= 12]
    for p, q in ((p, q) for p in range(1, 7) for q in range(p + 1) if p + q <= 6):
        reqs += [forms.Request("supq", p=p, q=q, orbit="".join(signs))
                 for signs in sorted(set(permutations("+" * p + "-" * q)))]
        for dims in _compositions(p + q):
            for a in product(*(range(d + 1) for d in dims)):
                if sum(a) == q:
                    desc = supq.OrbitDescriptor(p, q, a, tuple(d - x for d, x in zip(dims, a)))
                    reqs.append(forms.Request("supq", p=p, q=q, dims=dims,
                                              orbit=supq.sign_sequence_of(desc)))
    for req in reqs:
        assert forms.word_texts(req) == [tuple(map(str, w)) for w in forms.words(req)], req


def test_word_commands_look_up_no_letters_per_row(capsys, monkeypatch):
    # enumerate and homology print the words their enumerators spell, so
    # neither calls word_text or format_word for a row, through any module
    # that imported them.
    from flagslice import permutations

    calls = []
    for name in ("word_text", "format_word"):
        original = getattr(permutations, name)

        def counted(*args, original=original, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        for module in [m for key, m in sys.modules.items() if key.startswith("flagslice")]:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    for argv, rows in ((["enumerate", "--form", "slnr", "--n", "10"], 945),
                       (["homology", "--form", "supq", "--p", "6", "--q", "4"], 1)):
        assert cli.main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == rows
    assert calls == []
    cli._word_row((2, 1), 1, None)  # The reference row spells through both.
    assert len(calls) == 2


def test_package_names_resolve_on_first_use():
    import flagslice
    from flagslice import geometry, permutations

    assert flagslice.FlagMatrix is geometry.FlagMatrix
    assert flagslice.parse_dims is permutations.parse_dims
    with pytest.raises(AttributeError):
        flagslice.no_such_name
