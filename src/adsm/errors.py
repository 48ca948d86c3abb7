"""Exception hierarchy, and the one line reader behind every text input.

Every reader takes its lines from :func:`read_rows`: a header, where a format
has one, starts line 1, blank lines are skipped, ``#`` starts a comment only
without a header, and :func:`located` makes each error a :class:`FormatError`
naming the path and, when one line is at fault, that line.
"""

import math
from contextlib import contextmanager

import numpy as np


class AdsmError(Exception):
    """Base class for all package-specific errors."""


class FormatError(AdsmError):
    """A text input violates its documented format at ``path`` (and ``line``)."""

    def __init__(self, message, path=None, line=None):
        loc = "".join(f"{part}:" for part in (path, line) if part is not None)
        super().__init__(f"{loc} {message}" if loc else message)
        self.path = path
        self.line = line


class InfeasibleUtteranceError(AdsmError):
    """The posterior sequence is too short to realize any accepted path."""


class NumericalError(AdsmError):
    """Non-finite values or divergence encountered where finite math is required."""


@contextmanager
def located(path, line=None, what=None):
    """Re-raise a ``ValueError`` or ``KeyError`` of the block as a
    :class:`FormatError` at ``path:line``, its message prefixed by ``what``."""
    try:
        yield
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{what}: {exc}" if what else str(exc), path=path, line=line) from exc


def read_rows(path, header=None, fields=None, sep="\t", keep_header=False):
    """Yield ``(line number, fields)`` for each non-empty line of ``path``.  Line 1
    must start with ``header`` (and is yielded only with ``keep_header``); ``fields``
    names the columns of a fixed-width format; ``sep=None`` splits on whitespace."""
    with open(path, encoding="utf-8") as fh:
        rows = enumerate(fh.read().split("\n"), 1)
    if header is not None:
        _, first = next(rows)
        if not first.startswith(header):
            raise FormatError(f"missing {header} header", path=path, line=1)
        if keep_header:
            yield 1, first.split(sep)
    for lineno, line in rows:
        if not line or header is None and line.startswith("#"):
            continue
        parts = line.split(sep)
        if fields is not None and len(parts) != len(fields):
            layout = ("<TAB>" if sep == "\t" else " ").join(fields)
            raise FormatError(f"expected {layout}", path=path, line=lineno)
        yield lineno, parts


def float_rows(path, rows, width: int, what=None) -> np.ndarray:
    """``(line number, fields)`` rows of ``width`` finite floats as an array,
    parsed in one pass; on failure the first bad row is named by its line."""
    if all(len(parts) == width for _, parts in rows):
        try:
            values = np.array([float(v) for _, parts in rows for v in parts])
            if np.isfinite(values).all():
                return values.reshape(len(rows), width)
        except ValueError:
            pass
    for lineno, parts in rows:
        with located(path, lineno, what):
            if len(parts) != width or not all(math.isfinite(float(v)) for v in parts):
                raise ValueError(f"a non-finite value, or not {width} values")
