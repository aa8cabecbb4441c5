"""
The row-table writer of ``enumerate`` and ``points``: each row written
straight from its word, spelt in letter texts, into one text template made
once per request, under the request's own dims for both commands,
``points`` rows with their further fields and their flags, each flag
joined from column texts made once per request, and the rows gathered into
chunks with the bytes ``cli.render`` gives for the whole payload.  Every ``enumerate`` row of a request has the same length, so each
of its chunks is one join over a slice of the words.  ``cli`` loads this
module only for those two commands.
"""

from __future__ import annotations

import json
from functools import cache, partial
from itertools import chain, islice, repeat
from typing import Callable, Iterator

from . import _lazy, forms
from .cli import _json_list
from .permutations import prefix_sums

flags = _lazy("flags")

# Characters gathered before each write.
CHUNK_CHARS = 1 << 16

# Given the characters of a table's head, the row texts, one chunk's rows at a time.
Runs = Callable[[int], Iterator[str]]


def row_texts(req: forms.Request, rows, fmt: str,
              fields: tuple[str, ...] | None = None) -> tuple[str, Runs]:
    """The CSV header and the row texts of ``enumerate`` and ``points``, as
    the runs ``table`` takes: for each word w of ``forms.words(req)``, spelt
    ``tuple(map(str, w))``, the text ``table`` takes for
    ``cli._word_row(w, forms.length(req), req.dims)``, with the keys
    ``fields`` and ``points`` added for ``points``.

    For ``enumerate``, ``rows`` are the spelt words, as
    ``forms.word_texts`` gives them.  For ``points``, they are triples: a
    spelt word, the texts of its values of ``fields`` (``_dumps`` at the
    indent of the row's keys, or ``_csv_field``) and a list of the texts of
    its flags, at least one (their quotes doubled for CSV).  The row is one
    join of the flags' texts, the rest joined to the first and the last.

    One template per request holds the keys, the indentation, the
    request's one length and the brackets of the lists; each word fills in
    its text ``" ".join(word)``, its display (its letters, in parentheses
    per block under ``req.dims``, run together up to 9 letters and
    space-separated past that) and, under ``req.dims``, its blocks, whose
    items are its letters, from a text per block made once.  Words and displays
    hold only digits, spaces and parentheses, so neither needs a JSON
    escape or CSV quotes.  ``csv.writer`` quotes a field that holds a comma
    or a quote: a block list when the words have two letters or more, and
    a list of flags always.

    Each word spells all n letters, so every ``enumerate`` row of a request
    has the length of its first: a chunk's rows are counted from it, and
    joined in one call over their slice of the words, read once, so
    ``rows`` may be a one-shot iterator.
    """
    dims, further = req.dims, () if fields is None else (*fields, "points")
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
    block = cache(lambda part: _json_list(part, pad))
    header = ",".join(keys) + "\n"
    joiner = "" if req.size <= 9 else " "
    cuts = None if dims is None else [
        slice(end - d, end) for d, end in zip(dims, prefix_sums(dims))]

    def cells(word: tuple[str, ...]) -> list[str]:
        # The blocks and the display of a word under ``dims``.
        parts = [word[cut] for cut in cuts]
        return [sep.join(map(block, parts)),
                "".join(["(" + joiner.join(part) + ")" for part in parts])]

    head, *backs = template.split("\0")
    if fields is not None:
        *backs, closing, tail = backs

        def filled() -> Iterator[str]:
            for word, values, items in rows:
                text = " ".join(word)
                lead = [text if joiner else "".join(word)] if cuts is None else cells(word)
                items[0] = "".join([head, *chain.from_iterable(zip([*lead, *values], backs)),
                                    items[0]])
                items[-1] = "".join((items[-1], closing, text, tail))
                yield sep.join(items)
        return header, partial(_gather, filled())

    def joined(words: list[tuple[str, ...]]) -> str:
        # The rows of ``words``, one template part and one column of field
        # texts in turn; past 9 letters the display is the word text.
        texts = [*map(" ".join, words)]
        if cuts is None:
            values = [texts if joiner else map("".join, words), texts]
        else:
            values = [*zip(*map(cells, words)), texts]
        columns = [repeat(head)]
        for column, back in zip(values, backs):
            columns += (column, repeat(back))
        return "".join(chain.from_iterable(zip(*columns)))

    def runs(size: int) -> Iterator[str]:
        words = iter(rows)
        first = next(words, None)
        if first is None:
            return
        width, words = len(joined([first])), chain((first,), words)
        # The rows that bring a chunk from ``size`` characters to CHUNK_CHARS.
        while run := [*islice(words, max(1, (CHUNK_CHARS - size + width - 1) // width))]:
            yield joined(run)
            size = 0
    return header, runs


def point_texts(req: forms.Request, fmt: str) -> tuple[str, Runs]:
    """The CSV header and the row texts of ``points``: the word rows of
    ``row_texts`` with each row's further fields and its flags under
    ``points``, all from ``forms.points``, whose rows ``verify``
    certifies."""
    fields, points = forms.points(req)
    memo, letters = {}, [*map(str, range(req.size + 1))]
    # A value sits at the indent of the row's keys, a flag at its items'.
    pad, flag_pad = ("      ", "        ") if fmt == "json" else (None, None)

    def rows() -> Iterator[tuple]:
        for word, found, values in points:
            values = [_dumps(value, pad) for value in values]
            items = [flag_text(flag, flag_pad, memo) for flag in found]
            if pad is None:
                values, items = [*map(_csv_field, values)], [t.replace('"', '""') for t in items]
            yield tuple(map(letters.__getitem__, word)), values, items
    return row_texts(req, rows(), fmt, fields)


def _dumps(value, pad: str | None) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` as it stands in a
    payload on a line at ``pad``; for ``pad`` None, compact."""
    if pad is None:
        return json.dumps(value, sort_keys=True)
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _csv_field(text: str) -> str:
    """``text``, a JSON text, which holds no line break, as ``csv.writer``
    writes it: in quotes, its quotes doubled, if it holds a comma or quote."""
    return '"%s"' % text.replace('"', '""') if "," in text or '"' in text else text


def flag_text(flag, pad: str | None, memo: dict) -> str:
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


def table(command: str, config: dict, fmt: str, header: str, runs: Runs) -> Iterator[str]:
    """The text ``cli.render`` gives for a ``command`` payload whose rows
    are given by the ``runs`` of ``row_texts``, in chunks.  ``runs(size)``
    gives the texts of the rows of each chunk in turn, the first chunk's
    after the ``size`` characters of the payload before its rows, and
    builds each only when it is pulled.  A JSON row text is the row at the
    indent of the rows after its separator ``",\\n    "``; the first row's
    separator is ``"[\\n    "``, so its first character is swapped.  A CSV
    row text is its line, under ``header``.

    In both formats a chunk ends with the first row that brings it to
    ``CHUNK_CHARS`` characters, so no chunk but the last holds more than
    ``CHUNK_CHARS`` plus one row's text, and no chunk is empty.  A table
    without rows is the JSON payload with ``"rows": []``, or no CSV text.
    """
    if fmt == "json":
        head = ('{\n  "command": ' + json.dumps(command) + ',\n  "config": '
                + _dumps(config, "  ") + ',\n  "rows": ')
        tail = "\n  ]\n}\n"
    else:
        head, tail = header, ""
    texts = runs(len(head))
    first = next(texts, None)
    if first is None:
        if fmt == "json":
            yield head + "[]\n}\n"
        return
    chunk = head + ("[" + first[1:] if fmt == "json" else first)
    for text in texts:
        yield chunk
        chunk = text
    # The tail closes the last chunk, or comes on its own after a full one.
    if len(chunk) >= CHUNK_CHARS:
        yield chunk
        chunk = ""
    chunk += tail
    if chunk:
        yield chunk


def _gather(texts: Iterator[str], size: int) -> Iterator[str]:
    """The ``texts`` joined in runs, each ending with the text that brings
    it to ``CHUNK_CHARS`` characters, the first counted from ``size``; the
    last run may fall short."""
    run = []
    for text in texts:
        run.append(text)
        size += len(text)
        if size >= CHUNK_CHARS:
            yield "".join(run)
            run.clear()
            size = 0
    if run:
        yield "".join(run)
