"""Text and JSON serialization for matroids.

MATROID v1 (LF line endings, indices ascending in each line, lines sorted
by bitmask value):

    MATROID v1
    n <int> r <int>
    bases <count>
    <one basis per line: space-separated ascending 0-based indices>

Lines starting with '#' are comments and are ignored by the parser; the
JSON mirror is {"n": ..., "r": ..., "bases": [[...], ...]} with identical
ordering.
"""

from __future__ import annotations

import json

from .bitsets import index_list, mask_of
from .matroid import Matroid, MatroidError


class ParseError(MatroidError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def serialize_matroid(M: Matroid, comments=()) -> str:
    lines = ["MATROID v1"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(f"n {M.n} r {M.r}")
    lines.append(f"bases {len(M.bases)}")
    lines.extend(" ".join(map(str, index_list(b))) for b in M.bases)
    return "\n".join(lines) + "\n"


def serialize_matroid_json(M: Matroid) -> str:
    return json.dumps({"n": M.n, "r": M.r, "bases": [index_list(b) for b in M.bases]})


def _content_lines(text: str):
    """(line_number, stripped_text) for non-comment, non-blank lines."""
    out = []
    for i, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((i, stripped))
    return out


def _parse_size_line(lineno, text):
    parts = text.split()
    if len(parts) != 4 or parts[0] != "n" or parts[2] != "r":
        raise ParseError(lineno, f"expected 'n <int> r <int>', got {text!r}")
    try:
        return int(parts[1]), int(parts[3])
    except ValueError:
        raise ParseError(lineno, f"non-integer value in {text!r}") from None


def _parse_text(lines):
    if not lines:
        raise ParseError(1, "empty input")
    lineno, header = lines[0]
    if header != "MATROID v1":
        raise ParseError(lineno, f"malformed header: expected 'MATROID v1', got {header!r}")
    if len(lines) < 3:
        raise ParseError(lineno, "truncated file: missing size or count line")
    n, r = _parse_size_line(lines[1][0], lines[1][1])
    cl_no, cl = lines[2][0], lines[2][1]
    parts = cl.split()
    if len(parts) != 2 or parts[0] != "bases" or not parts[1].isdigit():
        raise ParseError(cl_no, f"expected 'bases <count>', got {cl!r}")
    count = int(parts[1])
    rows = lines[3:]
    if r == 0 and count == 1 and not rows:
        return n, r, {0}  # the one empty basis was written as a blank row
    if len(rows) != count:
        raise ParseError(cl_no, f"bases count {count} but {len(rows)} rows follow")
    masks = set()
    for lineno, row in rows:
        try:
            idx = [int(tok) for tok in row.split()]
        except ValueError:
            raise ParseError(lineno, f"non-integer index in {row!r}") from None
        if any(i < 0 or i >= n for i in idx):
            raise ParseError(lineno, f"index out of range 0..{n - 1} in {row!r}")
        mask = mask_of(idx)
        if mask.bit_count() != len(idx):
            raise ParseError(lineno, f"repeated index in {row!r}")
        if len(idx) != r:
            raise ParseError(lineno, f"row has {len(idx)} indices, expected {r}")
        if mask in masks:
            raise ParseError(lineno, f"repeated basis {row!r}")
        masks.add(mask)
    return n, r, masks


def parse_matroid(text: str) -> Matroid:
    """Parse MATROID v1 or its JSON mirror; validates the exchange property."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.lineno, f"bad JSON: {exc.msg}") from None
        try:
            n, r, rows = doc["n"], doc["r"], doc["bases"]
        except KeyError:
            raise MatroidError("JSON matroid needs keys n, r, bases") from None
        # bool is a subclass of int, but true is not a size or an index
        if type(n) is not int or type(r) is not int:
            raise MatroidError("JSON matroid needs integer n and r")
        if not isinstance(rows, list):
            raise MatroidError("JSON matroid needs a list of bases")
        masks = set()
        for row in rows:
            if not isinstance(row, list) or any(type(i) is not int for i in row):
                raise MatroidError(f"basis {row!r} is not a list of integer indices")
            if any(i < 0 or i >= n for i in row):
                raise MatroidError(f"index out of range 0..{n - 1} in {row!r}")
            if len(set(row)) != len(row) or len(row) != r:
                raise MatroidError(f"row {row!r} is not an r-set")
            if mask_of(row) in masks:
                raise MatroidError(f"repeated basis {row!r}")
            masks.add(mask_of(row))
        return Matroid.from_bases(n, masks)
    n, r, masks = _parse_text(_content_lines(text))
    return Matroid.from_bases(n, masks)


def parse_matroid_file(path) -> Matroid:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matroid(fh.read())
