"""The command-line parser: help and error bytes pinned from the argparse
parser that parsed every line before the table parser, and the table
parser checked against the argparse parser built from the same table.

``HELP`` holds the sha256 of the stdout of each help request, ``ERRORS``
the stderr of malformed command lines; each of these exits with its code
and prints nothing else.  Help text wraps at the terminal width, so every
run here sets ``COLUMNS=80``.
"""

import contextlib
import hashlib
import io
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flagslice import cli
from test_golden_output import GOLDEN

HELP = {
    "--help":
        "42ff1504a10f7ea145275edd247702cf8606dab2099c4ca6a85eb9b8e337e409",
    "enumerate --help":
        "5848206a2d992dc00df24990d02a178f5c3a9964c484e0970925ae484ed9c7a1",
    "points --help":
        "03bcfdb69ba8ff87091952a6d311fdfb78667dd25a75a98b090088abc5187ce2",
    "count --help":
        "d33ccc8f83aa4378312d4cb141fd1c6b4402ed31bac7d9f2327abcd66eaf1681",
    "homology --help":
        "f05bf41ec6162e78da17b60aae8cf43dd766d8412545b8ebe0466b1d63712f90",
    "verify --help":
        "cd9c5918a7bda14357328345502516c5762942af20a90b280c306247bee458fe",
}
# Every malformed line exits 2; argparse refuses all but the last, which
# only the request check refuses.
ERRORS = {
    "": (
        "usage: flagslice [-h] {enumerate,points,count,homology,verify} ...\n"
        "flagslice: error: the following arguments are required: command\n"),
    "frobnicate": (
        "usage: flagslice [-h] {enumerate,points,count,homology,verify} ...\n"
        "flagslice: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'enumerate', 'points', 'count', 'homology', 'verify')\n"),
    "enumerate --dim 2": (
        "usage: flagslice [-h] {enumerate,points,count,homology,verify} ...\n"
        "flagslice: error: unrecognized arguments: --dim 2\n"),
    "verify --fast --form slnr": (
        "usage: flagslice [-h] {enumerate,points,count,homology,verify} ...\n"
        "flagslice: error: unrecognized arguments: --form slnr\n"),
    "count --form slnr --n x": (
        "usage: flagslice count [-h] [--form {slnr,slmh,supq}] [--n N] [--p P] [--q Q]\n"
        "                       [--dims DIMS] [--orbit ORBIT] [--format {json,csv}]\n"
        "                       [--seed SEED] [--out OUT]\n"
        "flagslice count: error: argument --n: invalid int value: 'x'\n"),
    "count --form slnr --n 2 --format xml": (
        "usage: flagslice count [-h] [--form {slnr,slmh,supq}] [--n N] [--p P] [--q Q]\n"
        "                       [--dims DIMS] [--orbit ORBIT] [--format {json,csv}]\n"
        "                       [--seed SEED] [--out OUT]\n"
        "flagslice count: error: argument --format: invalid choice: 'xml' "
        "(choose from 'json', 'csv')\n"),
    "points --form supq --p 2 --q 1 --orbit -++": (
        "usage: flagslice points [-h] [--form {slnr,slmh,supq}] [--n N] [--p P] [--q Q]\n"
        "                        [--dims DIMS] [--orbit ORBIT] [--format {json,csv}]\n"
        "                        [--seed SEED] [--out OUT]\n"
        "flagslice points: error: argument --orbit: expected one argument\n"),
    "verify --fast=1": (
        "usage: flagslice verify [-h] [--samples SAMPLES] [--fast]\n"
        "                        [--format {json,csv}] [--seed SEED] [--out OUT]\n"
        "flagslice verify: error: argument --fast: ignored explicit argument '1'\n"),
    "count --form slnr --n -3": (
        "error: --n must be positive\n"),
}


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)``: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("line", list(HELP))
def test_help_bytes_are_pinned(monkeypatch, line):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_main(line.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP[line]


@pytest.mark.parametrize("line", list(ERRORS))
def test_error_bytes_are_pinned(monkeypatch, line):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_main(line.split()) == (2, "", ERRORS[line])


REFERENCE = cli._argparse_parser()


def reference(argv: list[str]) -> dict | None:
    """``vars()`` of the argparse namespace of ``argv``, or None where
    argparse exits (help or an error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(REFERENCE.parse_args(argv))
        except SystemExit:
            return None


def fast_path_agrees(argv: list[str]) -> bool:
    """Whether the table parser read ``argv`` itself; where it does, its
    namespace must be argparse's."""
    args = cli._parse_table(argv)
    if args is not None:
        assert vars(args) == reference(argv), argv
    return args is not None


def readme_lines() -> list[list[str]]:
    """The command lines of the README's command-line examples."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = [shlex.split(line, comments=True)
             for line in block.replace("\\\n", " ").splitlines()]
    assert lines and all(line[0] == "flagslice" for line in lines)
    return [line[1:] for line in lines]


def test_the_table_parser_reads_every_pinned_and_readme_line_as_argparse_does():
    lines = [shlex.split(line) for line in GOLDEN] + readme_lines()
    assert all(fast_path_agrees(argv) for argv in lines)
    # Help and malformed lines are argparse's to answer, and so is --n -3,
    # whose value starts with "-".
    assert not any(fast_path_agrees(line.split()) for line in [*HELP, *ERRORS])


# Per type, values the table parser reads and values it leaves to argparse:
# a value that starts with "-", which it reads only after "=", and a bad
# int or choice.
INTS = st.integers(0, 30).map(str) | st.sampled_from([" 4", "+5", "1_0", "007"])
TEXTS = st.sampled_from(["2,4,3", "3,5", "(-+)(-++)", "a=1,1;b=1,2", "", " ", "="])
ODD = {int: ["-3", "x", ""], None: ["-++", "-1,2", "--form=slnr"]}


def option_tokens(option) -> st.SearchStrategy[list[str]]:
    """An option of the table with a value of its type, written either way,
    mostly well formed."""
    name, kind, choices, _, _ = option
    if kind is bool:
        return st.sampled_from([["--" + name]] * 4 + [["--" + name + "="], ["--" + name + "=1"]])
    good = st.sampled_from(choices) if choices else INTS if kind is int else TEXTS
    odd = st.sampled_from(["xml", "SLNR", ""] if choices else ODD[kind])
    return st.one_of(good, good, good, good, odd).flatmap(lambda value: st.sampled_from(
        [["--" + name, value], ["--" + name + "=" + value]]))


def lines(command: str) -> st.SearchStrategy[list[str]]:
    options = cli.COMMANDS[command][1]
    return st.lists(st.sampled_from(options).flatmap(option_tokens), max_size=6).map(
        lambda groups: [command, *(token for group in groups for token in group)])


# Tokens put anywhere into a line: abbreviations, help, "--", an option of
# another command or of none, one that may lose its value, and a stray
# value; and, in the command's place, no command or an unknown one.
MALFORMED = st.sampled_from(["--dim", "--for", "--fo", "--sample", "--fas", "-h", "--help",
                             "-n", "--", "--form", "--fast", "--samples", "--n", "x", "3"])
LINES = st.sampled_from(list(cli.COMMANDS)).flatmap(lines)
ARGVS = LINES | LINES | st.tuples(LINES, st.integers(0, 20), MALFORMED).map(
    lambda case: case[0][:case[1]] + [case[2]] + case[0][case[1]:]) | st.tuples(
    LINES, st.sampled_from(["frobnicate", "", "-h", "--help", "--count"])).map(
    lambda case: [case[1], *case[0][1:]])


@settings(max_examples=500, deadline=None)
@given(ARGVS)
def test_the_table_parser_agrees_with_argparse(argv):
    fast_path_agrees(argv)
