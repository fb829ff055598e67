"""Time grids, single-receiver traces, and multi-receiver gathers.

All containers are immutable after construction and safe to share between
threads.  Samples are stored as float64 and rejected at construction if any
entry is non-finite, so distances and likelihoods downstream never see
NaN or Inf.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Label = tuple[int, int, int]  # (source index, receiver index, component index)


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time axis t_k = t0 + k * dt for k = 0 .. n - 1."""

    t0: float
    dt: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"time grid needs at least 2 samples, got n={self.n}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"time step must be positive and finite, got dt={self.dt}")
        if not np.isfinite(self.t0):
            raise ValueError(f"grid origin must be finite, got t0={self.t0}")

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.n - 1)

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)


def make_grid(t0: float, t_end: float, n: int) -> TimeGrid:
    """Grid with n samples whose first and last times are t0 and t_end."""
    if n < 2:
        raise ValueError(f"need at least 2 samples, got n={n}")
    if not t_end > t0:
        raise ValueError(f"grid span must be positive, got [{t0}, {t_end}]")
    return TimeGrid(t0=float(t0), dt=(float(t_end) - float(t0)) / (n - 1), n=int(n))


@dataclass(frozen=True, eq=False)
class Trace:
    """Samples of one signal on a shared time grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(self.values)
        if vals.ndim != 1:
            raise ValueError(f"trace values must be 1-D, got shape {vals.shape}")
        if vals.shape[0] != self.grid.n:
            raise ValueError(
                f"trace has {vals.shape[0]} samples but grid expects {self.grid.n}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("trace contains non-finite samples")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.grid.n

    def times(self) -> np.ndarray:
        return self.grid.times()


@dataclass(frozen=True, eq=False)
class Gather:
    """Traces on one time grid: one row of values per (source, receiver, component) label."""

    grid: TimeGrid
    values: np.ndarray  # (R, n), read-only, row r belongs to labels[r]
    labels: tuple[Label, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = self.values
        # A read-only float64 C array that owns its memory cannot change
        # under the gather, so it is kept as is; anything else is copied.
        # C order keeps each row contiguous, so row-wise reductions sum in
        # the same order as they do on a single trace.
        if not (isinstance(vals, np.ndarray) and vals.base is None
                and not vals.flags.writeable and vals.dtype == np.float64
                and vals.flags.c_contiguous):
            vals = np.array(vals, dtype=np.float64, order="C")
        labels = tuple(tuple(int(i) for i in lab) for lab in self.labels)
        if vals.ndim != 2 or vals.shape[0] == 0:
            raise ValueError(f"gather values must be a non-empty (R, n) matrix, "
                             f"got shape {vals.shape}")
        if vals.shape[1] != self.grid.n:
            raise ValueError(
                f"gather rows have {vals.shape[1]} samples but grid expects {self.grid.n}"
            )
        if vals.shape[0] != len(labels):
            raise ValueError(f"{vals.shape[0]} traces but {len(labels)} labels")
        if not np.all(np.isfinite(vals)):
            raise ValueError("gather contains non-finite samples")
        index = {}
        for k, lab in enumerate(labels):
            if lab in index:
                raise ValueError(f"duplicate trace label {lab}")
            index[lab] = k
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", index)

    @property
    def n_traces(self) -> int:
        return self.values.shape[0]

    def trace_for(self, label: Label) -> Trace:
        return Trace(self.grid, self.values[self._index[tuple(label)]])

    def select(self, labels) -> "Gather":
        """The rows for the given labels, in that order."""
        labels = [tuple(lab) for lab in labels]
        rows = [self._index[lab] for lab in labels]
        return Gather(self.grid, self.values[rows], labels)

    def with_values(self, matrix: np.ndarray) -> "Gather":
        """Same labels and grid, new samples (one row per trace)."""
        return Gather(self.grid, matrix, self.labels)


def _label_name(label: Label) -> str:
    return f"s{label[0]}_r{label[1]}_c{label[2]}"


def _parse_label_name(name: str) -> Label:
    parts = name.split("_")
    if len(parts) != 3 or parts[0][:1] != "s" or parts[1][:1] != "r" or parts[2][:1] != "c":
        raise ValueError(f"malformed trace column name {name!r}")
    return (int(parts[0][1:]), int(parts[1][1:]), int(parts[2][1:]))


def write_gather_csv(gather: Gather, path) -> None:
    """Plain CSV: a time column followed by one column per trace."""
    names = ",".join(_label_name(lab) for lab in gather.labels)
    times = gather.grid.times()
    matrix = gather.values
    with open(path, "w", newline="") as fh:
        fh.write(f"time,{names}\n")
        for k in range(gather.grid.n):
            row = ",".join(repr(float(v)) for v in matrix[:, k])
            fh.write(f"{float(times[k])!r},{row}\n")


def read_gather_csv(path) -> Gather:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if header[0] != "time":
        raise ValueError(f"first column must be 'time', got {header[0]!r}")
    labels = tuple(_parse_label_name(name) for name in header[1:])
    data = np.array([[float(x) for x in row] for row in rows])
    times = data[:, 0]
    if len(times) < 2:
        raise ValueError("gather file holds fewer than 2 samples")
    grid = TimeGrid(t0=float(times[0]), dt=float((times[-1] - times[0]) / (len(times) - 1)),
                    n=len(times))
    return Gather(grid, data[:, 1:].T, labels)

