"""Minimal MPS reader/writer.

Lets real Mittelmann/netlib instances (the paper's Table 3) be dropped in
whenever files are available locally.  Supported subset: ``NAME``,
``OBJSENSE``, ``ROWS`` (N/L/G/E), ``COLUMNS``, ``RHS``, ``BOUNDS``
(UP/LO/FX with LO = 0), free-format whitespace.  Everything is normalized
into the canonical ``max c x, A x <= b, x >= 0`` form:

* ``G`` rows are negated; ``E`` rows become a pair of inequalities;
* minimization objectives are negated;
* ``UP`` bounds become extra constraint rows; nonzero ``LO``/``FX``
  bounds and ``RANGES`` are rejected loudly rather than silently
  mis-read.

:func:`read_mps` makes one pass over the file, collecting
``(row, column, value)`` triplets, and builds ``A`` once from arrays: it
costs O(file size + nnz), whatever the row and column counts.  A line it
cannot read exactly raises ``LPError("<file>:<line>: ...")``: a row or
column that was never declared, an entry given twice, a number that does
not parse or is not finite, a line with a token missing, or a nonzero
RHS on the objective row (MPS's negated objective constant, which
:class:`LinearProgram` has no field for).  Entries on extra ``N`` rows
(free rows) are ignored.
"""

from __future__ import annotations

import math
import os

import numpy as np
import scipy.sparse as sp

from repro.exceptions import LPError
from repro.lp.model import LinearProgram


def read_mps(path: str | os.PathLike) -> LinearProgram:
    """Parse an MPS file into a :class:`LinearProgram` in O(nnz)."""

    def fail(line: int, message: str) -> LPError:
        return LPError(f"{path}:{line}: {message}")

    def number(token: str, line: int) -> float:
        try:
            value = float(token)
        except ValueError:
            raise fail(line, f"{token!r} is not a number") from None
        if not math.isfinite(value):
            raise fail(line, f"{token!r} is not finite")
        return value

    #: every declared row: L/G/E rows count up from 0 in declaration
    #: order, the objective (first N) row is -1, other N rows are -2
    row_of: dict[str, int] = {}
    objective_row: str | None = None
    senses: list[str] = []
    column_index: dict[str, int] = {}
    rows: list[int] = []
    cols: list[int] = []
    values: list[float] = []
    entered: set[tuple[int, int]] = set()
    rhs: dict[str, float] = {}
    upper_bounds: dict[int, float] = {}
    maximize = False
    section = None

    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            if raw.startswith("*") or not raw.strip():
                continue
            if not raw[0].isspace():
                parts = raw.split()
                section = parts[0].upper()
                if section == "OBJSENSE" and len(parts) > 1:
                    maximize = parts[1].upper() in ("MAX", "MAXIMIZE")
                    section = "OBJSENSE_DONE"
                if section == "ENDATA":
                    break
                continue
            parts = raw.split()
            if section == "OBJSENSE":
                maximize = parts[0].upper() in ("MAX", "MAXIMIZE")
            elif section == "ROWS":
                if len(parts) != 2:
                    raise fail(line_number, "expected '<sense> <row>'")
                sense, name = parts[0].upper(), parts[1]
                if name in row_of:
                    raise fail(line_number, f"row {name!r} declared twice")
                if sense == "N":
                    row_of[name] = -1 if objective_row is None else -2
                    if objective_row is None:
                        objective_row = name
                elif sense in ("L", "G", "E"):
                    row_of[name] = len(senses)
                    senses.append(sense)
                else:
                    raise fail(line_number, f"bad row sense {sense}")
            elif section == "COLUMNS":
                if "MARKER" in raw:
                    raise fail(line_number, "integer markers unsupported")
                if len(parts) % 2 == 0:
                    raise fail(
                        line_number, "expected '<column> <row> <value> ...'"
                    )
                column = column_index.setdefault(parts[0], len(column_index))
                for row_name, token in zip(parts[1::2], parts[2::2]):
                    value = number(token, line_number)
                    i = row_of.get(row_name)
                    if i is None:
                        raise fail(line_number, f"undeclared row {row_name!r}")
                    if i == -2:
                        continue
                    if (column, i) in entered:
                        raise fail(
                            line_number,
                            f"repeated entry for column {parts[0]!r} "
                            f"row {row_name!r}",
                        )
                    entered.add((column, i))
                    rows.append(i)
                    cols.append(column)
                    values.append(value)
            elif section == "RHS":
                if len(parts) < 3 or len(parts) % 2 == 0:
                    raise fail(
                        line_number, "expected '<set> <row> <value> ...'"
                    )
                for row_name, token in zip(parts[1::2], parts[2::2]):
                    if row_name not in row_of:
                        raise fail(line_number, f"undeclared row {row_name!r}")
                    if row_name in rhs:
                        raise fail(
                            line_number, f"repeated RHS for row {row_name!r}"
                        )
                    rhs[row_name] = number(token, line_number)
                    if row_name == objective_row and rhs[row_name] != 0.0:
                        raise fail(
                            line_number,
                            f"RHS on objective row {row_name!r} (an "
                            "objective constant) unsupported",
                        )
            elif section == "BOUNDS":
                if len(parts) not in (3, 4):
                    raise fail(
                        line_number, "expected '<kind> <set> <column> [value]'"
                    )
                kind, column_name = parts[0].upper(), parts[2]
                if column_name not in column_index:
                    raise fail(
                        line_number, f"undeclared column {column_name!r}"
                    )
                column = column_index[column_name]
                if kind in ("UP", "LO", "FX"):
                    if len(parts) != 4:
                        raise fail(line_number, f"{kind} bound needs a value")
                    value = number(parts[3], line_number)
                    if kind == "UP":
                        upper_bounds[column] = value
                    elif value != 0.0:
                        raise fail(
                            line_number, f"nonzero {kind} bound unsupported"
                        )
                    elif kind == "FX":
                        upper_bounds[column] = 0.0
                elif kind == "MI" or kind == "FR":
                    raise fail(line_number, "free variables unsupported")
                else:
                    raise fail(line_number, f"bound {kind}")
            elif section == "RANGES":
                raise fail(line_number, "RANGES unsupported")

    if objective_row is None:
        raise LPError(f"{path}: no objective (N) row")

    row_ids = np.array(rows, dtype=np.int64)
    col_ids = np.array(cols, dtype=np.int64)
    data = np.array(values, dtype=np.float64)
    objective = row_ids == -1
    c = np.zeros(len(column_index))
    c[col_ids[objective]] = data[objective]
    if not maximize:
        c = -c
    row_ids, col_ids, data = (
        row_ids[~objective], col_ids[~objective], data[~objective]
    )

    # Output rows: each L/G row once (a G row negated), each E row twice
    # (the second copy negated), then one row per UP bound.
    sense = np.array(senses, dtype="<U1")
    greater, equal = sense == "G", sense == "E"
    copies = 1 + equal.astype(np.int64)
    first = np.cumsum(copies) - copies
    n_constraints = int(copies.sum())
    bound = np.array(
        [rhs.get(name, 0.0) for name, i in row_of.items() if i >= 0]
    )
    bounded = np.fromiter(upper_bounds, dtype=np.int64)
    b = np.empty(n_constraints + bounded.size)
    b[first] = np.where(greater, -bound, bound)
    b[first[equal] + 1] = -bound[equal]
    b[n_constraints:] = list(upper_bounds.values())
    second = equal[row_ids]
    out_rows = np.concatenate([
        first[row_ids],
        first[row_ids[second]] + 1,
        n_constraints + np.arange(bounded.size),
    ])
    out_cols = np.concatenate([col_ids, col_ids[second], bounded])
    out_data = np.concatenate([
        np.where(greater[row_ids], -data, data),
        -data[second],
        np.ones(bounded.size),
    ])
    a_matrix = sp.csr_matrix(
        (out_data, (out_rows, out_cols)), shape=(b.size, len(column_index))
    )
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return LinearProgram(a_matrix, b, c, name=name)


def write_mps(lp: LinearProgram, path: str | os.PathLike) -> None:
    """Write the LP as a maximization MPS file (all rows ``L``)."""
    coo = lp.a_matrix.tocoo()
    entries_by_column: dict[int, list[tuple[int, float]]] = {}
    for i, j, value in zip(coo.row, coo.col, coo.data):
        entries_by_column.setdefault(int(j), []).append((int(i), float(value)))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"NAME          {lp.name or 'REPRO'}\n")
        handle.write("OBJSENSE\n    MAX\n")
        handle.write("ROWS\n")
        handle.write(" N  COST\n")
        for i in range(lp.n_rows):
            handle.write(f" L  R{i}\n")
        handle.write("COLUMNS\n")
        for j in range(lp.n_cols):
            if lp.c[j] != 0.0:
                handle.write(f"    X{j}  COST  {lp.c[j]:.17g}\n")
            for i, value in entries_by_column.get(j, []):
                handle.write(f"    X{j}  R{i}  {value:.17g}\n")
        handle.write("RHS\n")
        for i in range(lp.n_rows):
            if lp.b[i] != 0.0:
                handle.write(f"    RHS  R{i}  {lp.b[i]:.17g}\n")
        handle.write("ENDATA\n")
