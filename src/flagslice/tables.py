"""
The row-table writer of ``enumerate`` and ``points``: each row written
straight from its word into one text template made once per request,
``points`` rows with their further fields and their flags, each flag joined
from column texts made once per request, and the rows gathered into chunks
with the bytes ``cli.render`` gives for the whole payload.  ``cli`` loads
this module only for those two commands.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import chain
from typing import Iterator

from . import _lazy, forms
from .cli import _json_list
from .permutations import format_blocks, format_word, prefix_sums, word_text

flags = _lazy("flags")

# Characters gathered before each write.
CHUNK_CHARS = 1 << 16


def row_texts(req: forms.Request, dims, rows, fmt: str,
              fields: tuple[str, ...] | None = None) -> tuple[str, Iterator[str]]:
    """The CSV header and the row texts of ``enumerate`` and ``points``: for
    each word, the text ``table`` takes for ``cli._word_row(word,
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


def point_texts(req: forms.Request, fmt: str) -> tuple[str, Iterator[str]]:
    """The CSV header and the row texts of ``points``: the word rows of
    ``row_texts`` with each row's further fields and its flags under
    ``points``, all from ``forms.points``, whose rows ``verify``
    certifies."""
    dims, fields, points = forms.points(req)
    memo = {}
    # A value sits at the indent of the row's keys, a flag at its items'.
    pad, flag_pad = ("      ", "        ") if fmt == "json" else (None, None)

    def rows() -> Iterator[tuple]:
        for word, found, values in points:
            values = [_dumps(value, pad) for value in values]
            items = [flag_text(flag, flag_pad, memo) for flag in found]
            if pad is None:
                values, items = [*map(_csv_field, values)], [t.replace('"', '""') for t in items]
            yield word, values, items
    return row_texts(req, dims, rows(), fmt, fields)


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


def table(command: str, config: dict, fmt: str, header: str,
          texts: Iterator[str]) -> Iterator[str]:
    """The text ``cli.render`` gives for a ``command`` payload whose rows
    are given as the texts of ``row_texts``, in chunks, pulling each text
    only when it is written.  A JSON row text is the row at the indent of
    the rows after its separator ``",\\n    "``; the first row's separator
    is ``"[\\n    "``, so its first character is swapped.  A CSV row text
    is its line, under ``header``.

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
