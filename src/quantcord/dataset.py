"""Column-oriented numeric datasets, CSV ingestion and the CSV output form."""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .exceptions import IngestionError, InvalidArgumentError

MISSING_TOKENS = {"", "na", "nan", "null", "none"}
FLOAT_FMT = "%.17g"  # round-trips every float64


@dataclass(frozen=True)
class Dataset:
    """Named numeric columns of equal length, stored as floats; what a
    column may hold is the analysis's to check (see
    :class:`quantcord.pipeline.AnalysisSpec`)."""

    columns: dict

    def __post_init__(self):
        cols = {}
        n = None
        for name, values in self.columns.items():
            try:
                arr = np.asarray(values, dtype=float)
            except (TypeError, ValueError):
                raise InvalidArgumentError(f"column {name!r} is not numeric") from None
            if arr.ndim != 1:
                raise InvalidArgumentError(f"column {name!r} is not 1-d")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise InvalidArgumentError(
                    f"column {name!r} has length {arr.shape[0]}, expected {n}"
                )
            cols[name] = arr
        if not cols:
            raise InvalidArgumentError("dataset needs at least one column")
        object.__setattr__(self, "columns", cols)

    @property
    def n(self):
        return len(next(iter(self.columns.values())))

    @property
    def names(self):
        return tuple(self.columns)

    def column(self, name):
        try:
            return self.columns[name]
        except KeyError:
            raise InvalidArgumentError(
                f"column {name!r} not found; available: {list(self.columns)}"
            ) from None

    def take(self, indices):
        """Row subset / resample; pairs of responses and covariates
        always travel together because selection is by whole row.

        ``indices`` are row numbers, integers in [0, n), repeats allowed;
        a boolean mask, a float or a number out of range raises
        InvalidArgumentError.  No indices give a dataset of no rows.
        """
        idx = np.asarray(indices)
        if idx.size:
            if idx.dtype.kind not in "iu":
                raise InvalidArgumentError(
                    f"row indices must be integers, got {idx.dtype} values")
            out = idx[(idx < 0) | (idx >= self.n)]
            if out.size:
                raise InvalidArgumentError(
                    f"row index {out[0]} is out of range for {self.n} rows")
        idx = idx.astype(np.intp, copy=False)
        return Dataset(columns={k: v[idx] for k, v in self.columns.items()})


def _column_values(cells):
    """The numbers in a column of cells, and the positions of the cells that
    need a closer look: those ``float()`` rejects, which come out NaN, and
    those it parses to a non-finite number.

    The column converts in one numpy call, which accepts exactly what
    ``float()`` accepts, surrounding whitespace included; only a column
    with a rejected cell converts cell by cell.
    """
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        values = np.array([_float_or_nan(cell) for cell in cells], dtype=float)
    return values, np.flatnonzero(~np.isfinite(values))


def _float_or_nan(cell):
    try:
        return float(cell)
    except ValueError:
        return float("nan")


def read_csv(path, columns=None):
    """Parse a comma-separated file into a Dataset.

    Parameters
    ----------
    path : str
        CSV with a header row, period decimal mark, UTF-8 (a leading
        byte-order mark is skipped).
    columns : sequence of str, optional
        The columns actually used; rows with missing cells in these
        columns are dropped (and reported), other columns are ignored.
        Default: all columns in the file.

    Returns
    -------
    (Dataset, dropped)
        ``dropped`` is the tuple of the 1-based data row numbers (header
        excluded) of the rows dropped for a missing cell.

    A row with more cells than the header raises IngestionError naming
    the first such row, before any cell is parsed; a shorter row's
    absent cells are missing.  A cell that is neither missing nor a
    finite number raises IngestionError naming the first such cell by
    data row, then by column.  Only parsing is checked here: what a
    used column may hold is the analysis's to check.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise IngestionError(f"{path}: not UTF-8 text ({err.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestionError(f"{path}: file is empty") from None
    header = [h.strip() for h in header]
    used = list(columns) if columns is not None else header
    missing_cols = [c for c in used if c not in header]
    if missing_cols:
        raise IngestionError(
            f"{path}: missing columns {missing_cols}; header has {header}"
        )
    repeated = [c for c in dict.fromkeys(used) if header.count(c) > 1]
    if repeated:
        raise IngestionError(f"{path}: header repeats columns {repeated}")
    col_idx = {c: header.index(c) for c in used}
    rownums, rows = [], []
    for rownum, row in enumerate(reader, start=1):
        if "".join(row).strip():  # not a blank line or a row of blank cells
            if len(row) > len(header):  # a decimal comma would shift later cells
                raise IngestionError(
                    f"{path}: too many cells at data row {rownum}: {len(row)}, "
                    f"where the header has {len(header)}")
            rownums.append(rownum)
            rows.append(row)

    parsed = {}
    missing = np.zeros(len(rows), dtype=bool)
    errors = []  # the first bad cell of each column: (row, column position, ...)
    for pos, (c, j) in enumerate(col_idx.items()):
        cells = [row[j] if j < len(row) else "" for row in rows]
        parsed[c], check = _column_values(cells)
        for k in check.tolist():
            cell = cells[k].strip()
            if cell.lower() in MISSING_TOKENS:
                missing[k] = True
                continue
            try:
                float(cell)
                what = "non-finite"
            except ValueError:
                what = "cannot parse"
            errors.append((k, pos, what, cell, c))
            break
    if errors:
        k, _, what, cell, c = min(errors)
        raise IngestionError(
            f"{path}: {what} cell {cell!r} at data row {rownums[k]}, column {c!r}"
        )

    if missing.all():
        raise IngestionError(f"{path}: no usable data rows")
    data = Dataset(columns={c: v[~missing] for c, v in parsed.items()})
    return data, tuple(r for r, m in zip(rownums, missing.tolist()) if m)


def csv_text(header, rows):
    """The CSV form of every table quantcord writes: the header row, then
    ``rows`` of cells, comma-separated with ``"\\n"`` line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
