"""UAI-format model files, result rows, and CSV emission.

The UAI format stores linear-domain nonnegative tables, row-major with
the last scope variable fastest, which matches C order over the scope
as declared.  Values are emitted with 17 significant digits so a
parse/emit cycle is a numeric fixed point.
"""

from __future__ import annotations

import csv
import io
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import NegativeValues, ParseError, UnsupportedPreamble
from .factors import Factor
from .graphs import FactorGraph


class _Tokens:
    """Whitespace tokenizer that remembers the line of every token."""

    def __init__(self, text):
        self._items = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            for tok in line.split():
                self._items.append((lineno, tok))
        self._pos = 0
        self._last_line = 1

    def next(self, expected):
        if self._pos >= len(self._items):
            raise ParseError(self._last_line, "<end of file>", expected)
        lineno, tok = self._items[self._pos]
        self._pos += 1
        self._last_line = lineno
        return lineno, tok

    def next_int(self, expected, minimum=None):
        lineno, tok = self.next(expected)
        try:
            value = int(tok)
        except ValueError:
            raise ParseError(lineno, tok, expected) from None
        if minimum is not None and value < minimum:
            raise ParseError(lineno, tok, expected)
        return value

    def next_float(self, expected):
        lineno, tok = self.next(expected)
        try:
            value = float(tok)
        except ValueError:
            raise ParseError(lineno, tok, expected) from None
        if not np.isfinite(value):
            raise ParseError(lineno, tok, expected)
        return lineno, value

    def exhausted(self):
        return self._pos >= len(self._items)


def parse_uai(text):
    """Parse a UAI MARKOV network into a FactorGraph.

    Zero table entries are allowed; negative ones are malformed.
    """
    toks = _Tokens(text)
    lineno, kind = toks.next("preamble MARKOV")
    if kind.upper() == "BAYES":
        raise UnsupportedPreamble("BAYES networks are not supported")
    if kind.upper() != "MARKOV":
        raise ParseError(lineno, kind, "MARKOV")
    num_vars = toks.next_int("variable count", minimum=0)
    cards = tuple(
        toks.next_int(f"cardinality of variable {i}", minimum=1)
        for i in range(num_vars)
    )
    num_factors = toks.next_int("factor count", minimum=0)
    scopes = []
    for j in range(num_factors):
        arity = toks.next_int(f"arity of factor {j}", minimum=0)
        scope = []
        for _ in range(arity):
            lineno, tok = toks.next(f"variable index in factor {j}")
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(
                    lineno, tok, f"variable index in factor {j}"
                ) from None
            if not 0 <= v < num_vars:
                raise ParseError(
                    lineno, tok, f"variable index < {num_vars}"
                )
            if v in scope:
                raise ParseError(
                    lineno, tok, f"distinct variables in factor {j}"
                )
            scope.append(v)
        scopes.append(tuple(scope))
    factors = []
    for j, scope in enumerate(scopes):
        want = int(np.prod([cards[v] for v in scope], dtype=np.int64))
        count = toks.next_int(f"table size of factor {j}", minimum=0)
        if count != want:
            raise ParseError(
                toks._last_line, str(count), f"table size {want}"
            )
        values = np.empty(count)
        for i in range(count):
            lineno, x = toks.next_float(f"table value of factor {j}")
            if x < 0.0:
                raise ParseError(
                    lineno, repr(x), "nonnegative table value"
                )
            values[i] = x
        shape = tuple(cards[v] for v in scope)
        factors.append(
            Factor.from_linear(scope, shape, values.reshape(shape))
        )
    if not toks.exhausted():
        lineno, tok = toks.next("end of file")
        raise ParseError(lineno, tok, "end of file")
    return FactorGraph(cards, tuple(factors))


def emit_uai(g):
    """Serialize a nonnegative FactorGraph as canonical UAI text."""
    out = io.StringIO()
    out.write("MARKOV\n")
    out.write(f"{len(g.cards)}\n")
    out.write(" ".join(str(c) for c in g.cards) + "\n")
    out.write(f"{len(g.factors)}\n")
    for f in g.factors:
        out.write(" ".join([str(f.arity)] + [str(v) for v in f.scope]))
        out.write("\n")
    for fid, f in enumerate(g.factors):
        neg = f.sign < 0
        if neg.any():
            idx = tuple(int(i) for i in np.argwhere(neg)[0])
            raise NegativeValues(
                f"factor {fid} entry {idx} is negative; UAI stores "
                f"nonnegative tables"
            )
        values = f.linear().ravel()
        out.write(f"\n{values.size}\n")
        out.write(" ".join(f"{x:.17g}" for x in values) + "\n")
    return out.getvalue()


def read_uai_file(path):
    """Parse a model file; a sibling .evid file is noted and ignored."""
    from pathlib import Path

    p = Path(path)
    for evid in (p.with_suffix(".evid"), Path(str(p) + ".evid")):
        if evid.exists():
            print(f"warning: ignoring evidence file {evid}",
                  file=sys.stderr)
            break
    return parse_uai(p.read_text())


@dataclass(frozen=True)
class ResultRow:
    """One bound computation in a sweep or verification run.

    ``metric`` is the signed log-error against ``ref_log_z`` when an
    exact reference is available, otherwise against the plain
    mini-bucket bound; it is present exactly when its reference is.
    """

    model: str
    method: str
    ibound: int
    t: float
    seed: int
    direction: str
    log_bound: float | None
    ref_log_z: float | None = None
    metric: float | None = None
    wall_time: float | None = None
    status: str = "ok"


_CSV_HEADER = [f.name for f in fields(ResultRow)]


def _cell(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def emit_csv(rows):
    """Render result rows as RFC-4180 CSV text with a header line."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(_CSV_HEADER)
    for row in rows:
        writer.writerow([_cell(getattr(row, name)) for name in _CSV_HEADER])
    return out.getvalue()
