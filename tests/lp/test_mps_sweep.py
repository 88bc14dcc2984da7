"""``read_mps`` against the reader it replaced, over random valid files.

``read_mps`` collects ``(row, column, value)`` triplets and builds ``A``
once from arrays.  The earlier reader, which probed every column's
entries for every row, is kept below as the oracle: on every valid file
both must give bit-identical ``A`` (structure, values, explicit zeros
and ``-0.0`` included), ``b`` and ``c``.  The one exception is a nonzero
RHS on the objective row, an objective constant the oracle dropped:
``read_mps`` must fail on that line instead.  Files mix L/G/E rows, free
``N`` rows, UP/LO/FX bounds, MIN/MAX senses, columns split over
non-adjacent lines and columns with no entries.

CI reruns it with the longer ``ci`` hypothesis profile
(``--hypothesis-profile=ci``).
"""

import os
from collections import OrderedDict

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import LPError
from repro.lp.mps import read_mps
from repro.lp.model import LinearProgram


def probing_read_mps(path):
    """The row-by-column probing reader, as it was."""
    row_sense: "OrderedDict[str, str]" = OrderedDict()
    objective_row: str | None = None
    columns: "OrderedDict[str, dict[str, float]]" = OrderedDict()
    rhs: dict[str, float] = {}
    upper_bounds: dict[str, float] = {}
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
                sense, name = parts[0].upper(), parts[1]
                if sense == "N":
                    if objective_row is None:
                        objective_row = name
                elif sense in ("L", "G", "E"):
                    row_sense[name] = sense
                else:
                    raise LPError(f"{path}:{line_number}: bad row sense {sense}")
            elif section == "COLUMNS":
                if "MARKER" in raw:
                    raise LPError(
                        f"{path}:{line_number}: integer markers unsupported"
                    )
                column = parts[0]
                entries = columns.setdefault(column, {})
                for row_name, value in zip(parts[1::2], parts[2::2]):
                    entries[row_name] = float(value)
            elif section == "RHS":
                for row_name, value in zip(parts[1::2], parts[2::2]):
                    rhs[row_name] = float(value)
            elif section == "BOUNDS":
                kind, column = parts[0].upper(), parts[2]
                value = float(parts[3]) if len(parts) > 3 else 0.0
                if kind == "UP":
                    upper_bounds[column] = value
                elif kind in ("LO", "FX"):
                    if value != 0.0:
                        raise LPError(
                            f"{path}:{line_number}: nonzero {kind} bound "
                            "unsupported"
                        )
                    if kind == "FX":
                        upper_bounds[column] = 0.0
                elif kind == "MI" or kind == "FR":
                    raise LPError(
                        f"{path}:{line_number}: free variables unsupported"
                    )
                else:
                    raise LPError(f"{path}:{line_number}: bound {kind}")
            elif section == "RANGES":
                raise LPError(f"{path}:{line_number}: RANGES unsupported")

    if objective_row is None:
        raise LPError(f"{path}: no objective (N) row")

    column_names = list(columns.keys())
    column_index = {name: j for j, name in enumerate(column_names)}
    n = len(column_names)

    rows_out: list[tuple[dict[int, float], float]] = []
    for row_name, sense in row_sense.items():
        coefficients: dict[int, float] = {}
        for column_name, entries in columns.items():
            if row_name in entries:
                coefficients[column_index[column_name]] = entries[row_name]
        bound = rhs.get(row_name, 0.0)
        if sense == "L":
            rows_out.append((coefficients, bound))
        elif sense == "G":
            rows_out.append(
                ({j: -v for j, v in coefficients.items()}, -bound)
            )
        else:  # E: two inequalities
            rows_out.append((coefficients, bound))
            rows_out.append(
                ({j: -v for j, v in coefficients.items()}, -bound)
            )
    for column_name, upper in upper_bounds.items():
        rows_out.append(({column_index[column_name]: 1.0}, upper))

    data, row_ids, col_ids = [], [], []
    b = np.empty(len(rows_out))
    for i, (coefficients, bound) in enumerate(rows_out):
        b[i] = bound
        for j, value in coefficients.items():
            row_ids.append(i)
            col_ids.append(j)
            data.append(value)
    a_matrix = sp.csr_matrix(
        (data, (row_ids, col_ids)), shape=(len(rows_out), n)
    )
    c = np.zeros(n)
    for column_name, entries in columns.items():
        if objective_row in entries:
            c[column_index[column_name]] = entries[objective_row]
    if not maximize:
        c = -c
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return LinearProgram(a_matrix, b, c, name=name)


#: coefficient tokens: zeros of both signs, integers, exponents
VALUES = st.sampled_from(
    ["0", "0.0", "-0.0", "1", "-1", "2.5", "-3.25", "1e-3", "7E2", "0.1"]
) | st.floats(-1e6, 1e6, allow_nan=False).map(repr)


@st.composite
def mps_files(draw):
    """A valid MPS file of up to 6 constraint rows and 6 columns."""
    senses = draw(st.lists(st.sampled_from("LGE"), max_size=6))
    rows = [f"R{i}" for i in range(len(senses))]
    free = draw(st.booleans())
    lines = ["NAME SWEEP"]
    objsense = draw(st.sampled_from(["", "MAX", "MIN", "MAXIMIZE"]))
    if objsense:
        lines += ["OBJSENSE", f"    {objsense}"]
    lines += ["ROWS", " N  COST"]
    lines += [f" {sense}  {row}" for sense, row in zip(senses, rows)]
    if free:
        lines.append(" N  SPARE")
    n_cols = draw(st.integers(1, 6))
    targets = ["COST"] + rows + (["SPARE"] if free else [])
    entries = []
    for j in range(n_cols):
        chosen = draw(st.lists(st.sampled_from(targets), unique=True))
        entries += [(f"X{j}", row, draw(VALUES)) for row in chosen]
        if not chosen:
            entries.append((f"X{j}", None, None))
    # Columns may continue on later, non-adjacent lines.
    entries = draw(st.permutations(entries))
    lines.append("COLUMNS")
    for column, row, value in entries:
        lines.append(f"    {column}" + (f"  {row}  {value}" if row else ""))
    lines.append("RHS")
    constant_line = None  # a nonzero RHS on COST, the objective row
    for row in draw(st.lists(st.sampled_from(targets), unique=True)):
        value = draw(VALUES)
        lines.append(f"    RHS  {row}  {value}")
        if row == "COST" and float(value) != 0.0:
            constant_line = len(lines)
    declared = sorted({column for column, _, _ in entries})
    bounds = draw(st.lists(st.sampled_from(declared), max_size=4))
    if bounds:
        lines.append("BOUNDS")
    for column in bounds:
        kind = draw(st.sampled_from(["UP", "FX", "LO"]))
        value = draw(VALUES) if kind == "UP" else "0"
        lines.append(f" {kind} BND  {column}  {value}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n", constant_line


def assert_same_lp(actual, expected):
    assert actual.a_matrix.shape == expected.a_matrix.shape
    for part in ("indptr", "indices", "data"):
        mine, theirs = getattr(actual.a_matrix, part), getattr(
            expected.a_matrix, part
        )
        assert mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()
    assert actual.b.tobytes() == expected.b.tobytes()
    assert actual.c.tobytes() == expected.c.tobytes()
    assert actual.name == expected.name


class TestAgainstProbingReader:
    @given(drawn=mps_files())
    @settings(deadline=None)
    def test_bit_identical(self, drawn, tmp_path_factory):
        """Bit-identical to the oracle, except that an objective constant
        (which the oracle dropped) fails on its line."""
        text, constant_line = drawn
        path = tmp_path_factory.getbasetemp() / "sweep.mps"
        path.write_text(text)
        if constant_line is None:
            assert_same_lp(read_mps(path), probing_read_mps(path))
        else:
            with pytest.raises(
                LPError, match=f"sweep.mps:{constant_line}: RHS on objective"
            ):
                read_mps(path)
