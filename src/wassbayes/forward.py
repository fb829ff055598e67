"""Forward models: an analytic 1-D wave and a 2-D acoustic finite-difference solver.

D'Alembert model
----------------
The displacement u(t, x) = (h(x - t) + h(x + t)) / 2 propagates a three-bump
initial profile

    h(x; x0, a) = a * (e^{-100 (x - x0 - 1/2)^2} + e^{-100 (x - x0)^2}
                       + e^{-100 (x - x0 + 1/2)^2})

at unit speed in both directions and is sampled at fixed receiver positions.
Unknowns are the profile amplitude a and optionally its center x0.

Acoustic model
--------------
u_tt = div(a(x)^2 grad u) + F on the box [-1, 1] x [-2, 0] with u = 0 on the
whole boundary and zero initial data.  The squared speed is piecewise
constant on a rows-by-cols grid of equal rectangular blocks; parameter j
is the speed of block j in column-major order, top row first.  The solver
is an explicit second-order leapfrog on a uniform node grid: a^2 is sampled
at cell centers and averaged arithmetically onto cell faces, giving the
standard conservative five-point stencil.  Stability requires
max(theta) * dt * sqrt(2) / dx < 1.  The point source is a Ricker-type
wavelet applied uniformly on a small square patch of nodes.  The sources
of a model are stepped together in one batched, in-place kernel, in
float32 for acoustic_simulate (its gather stays float64) and in float64 for
leapfrog_solve.  Above a size gate, and where the process may fork, the
sources are cut into one contiguous group per usable core: group 0 in the
calling process, every other one in a forked worker that writes its rows
into shared memory.  The kernel gives every source the same bits whatever the
grouping, so the split never changes the output.
"""
from __future__ import annotations

import contextlib
import math
import os
import pickle
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ComputeError
from .signals import Gather, TimeGrid

X1_MIN, X1_MAX = -1.0, 1.0
X2_MIN, X2_MAX = -2.0, 0.0
SOURCE_HALF_WIDTH = 0.04  # the forcing patch is a 0.08 x 0.08 square
_SNAP_TOL = 1e-9
# A solve is split into forked workers only when it makes at least this many
# node updates (nodes times steps, summed over the sources); a fork costs
# 2.4 ms per call at ~70 MB resident.  Paired medians on two cores, float32
# kernel, per-core groups against one call: the five-source ten-block grid
# took 0.86x at 3.1M, 0.67x at 10.2M and 0.62x at 20.4M updates; two of its
# sources 1.2x at 3.3M and 0.98x at 6.5M; 51 x 51 nodes a source (two-block,
# four-block) 1.2-1.4x at 2.1-6.2M but 0.85-0.91x at 8.3-25M.  Above the gate
# every measured geometry wins or breaks even, whatever its nodes per source.
MIN_SPLIT_NODE_UPDATES = 10_000_000


def pulse_profile(x, x0: float, a: float) -> np.ndarray:
    """Three Gaussian bumps of amplitude a centered at x0 - 1/2, x0, x0 + 1/2.

    exp runs only where its argument is not <= -746: there exp returns
    exactly 0.0, and numpy's exp is many times slower on such arguments.
    A NaN argument still goes through exp.
    """
    d = np.asarray(x, dtype=np.float64) - x0
    arg = -100.0 * np.stack((d - 0.5, d, d + 0.5)) ** 2
    bumps = np.zeros(arg.shape)
    np.exp(arg, out=bumps, where=~(arg <= -746.0))
    return a * (bumps[0] + bumps[1] + bumps[2])


@dataclass(frozen=True, eq=False)
class DalembertModel:
    """Unit-speed two-way wave sampled at scalar receiver positions.

    mode "amplitude" infers theta = (a,) with the profile center pinned at
    x0_fixed; mode "location-amplitude" infers theta = (x0, a).
    """

    receivers: np.ndarray
    grid: TimeGrid
    mode: str = "amplitude"
    x0_fixed: float = 0.0

    def __post_init__(self):
        rec = np.array(self.receivers, dtype=np.float64)
        if rec.ndim != 1 or rec.size == 0:
            raise ValueError("receivers must be a non-empty 1-D array")
        if not np.all(np.diff(rec) > 0):
            raise ValueError("receiver positions must be strictly increasing")
        if self.mode not in ("amplitude", "location-amplitude"):
            raise ValueError(f"unknown mode {self.mode!r}")
        rec.setflags(write=False)
        object.__setattr__(self, "receivers", rec)
        x, t = rec[:, None], self.grid.times()[None, :]
        object.__setattr__(self, "_x_minus_plus_t", np.stack((x - t, x + t)))
        object.__setattr__(self, "_labels", tuple((0, r, 0) for r in range(rec.size)))

    @property
    def n_params(self) -> int:
        return 1 if self.mode == "amplitude" else 2

    def unpack(self, theta: np.ndarray) -> tuple[float, float]:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.n_params,):
            raise ValueError(f"theta must have shape ({self.n_params},), got {theta.shape}")
        if self.mode == "amplitude":
            return self.x0_fixed, float(theta[0])
        return float(theta[0]), float(theta[1])


def dalembert_simulate(model: DalembertModel, theta: np.ndarray) -> Gather:
    """Row r is (h(x_r - t) + h(x_r + t)) / 2, from one profile call on both."""
    x0, a = model.unpack(theta)
    left, right = pulse_profile(model._x_minus_plus_t, x0, a)
    values = 0.5 * (left + right)
    values.setflags(write=False)  # owned and frozen: kept without a copy
    return Gather(model.grid, values, model._labels)


def ricker_wavelet(t) -> np.ndarray:
    """Source time function 10^3 (1 - 20 (t - 0.1)^2) exp(-10 (t - 0.1)^2)."""
    t = np.asarray(t, dtype=np.float64)
    u = t - 0.1
    return 1e3 * (1.0 - 20.0 * u * u) * np.exp(-10.0 * u * u)


def _snap_index(coord: float, origin: float, dx: float, n_nodes: int, what: str) -> int:
    idx = round((coord - origin) / dx)
    if not 0 <= idx < n_nodes or abs(origin + idx * dx - coord) > _SNAP_TOL:
        raise ValueError(f"{what} at {coord} does not sit on a grid node (dx={dx})")
    return int(idx)


def _point(coords, what: str) -> tuple[float, float]:
    point = tuple(float(c) for c in coords)
    if len(point) != 2 or not all(math.isfinite(c) for c in point):
        raise ValueError(f"{what} {list(coords)} must have exactly two finite coordinates")
    return point


@dataclass(frozen=True, eq=False)
class AcousticModel:
    dx: float
    solver_dt: float
    grid: TimeGrid  # trace sampling times, starting at t = 0
    sources: tuple[tuple[float, float], ...]
    receivers: tuple[tuple[float, float], ...]
    block_rows: int
    block_cols: int

    def __post_init__(self):
        if self.grid.t0 != 0.0:
            raise ValueError("trace grid must start at t = 0")
        if not (self.dx > 0 and self.solver_dt > 0):
            raise ValueError("dx and solver_dt must be positive")
        if self.block_rows < 1 or self.block_cols < 1:
            raise ValueError("need at least one block row and column")
        nx = round((X1_MAX - X1_MIN) / self.dx)
        nz = round((X2_MAX - X2_MIN) / self.dx)
        if abs(nx * self.dx - (X1_MAX - X1_MIN)) > _SNAP_TOL or nx < 2:
            raise ValueError(f"dx={self.dx} does not tile the domain width")
        if abs(nz * self.dx - (X2_MAX - X2_MIN)) > _SNAP_TOL or nz < 2:
            raise ValueError(f"dx={self.dx} does not tile the domain depth")
        decim = round(self.grid.dt / self.solver_dt)
        if decim < 1 or not math.isclose(decim * self.solver_dt, self.grid.dt,
                                         rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(
                f"solver_dt={self.solver_dt} must divide the trace step "
                f"{self.grid.dt} exactly"
            )
        sources = tuple(_point(s, "source") for s in self.sources)
        receivers = tuple(_point(r, "receiver") for r in self.receivers)
        if not sources or not receivers:
            raise ValueError("need at least one source and one receiver")
        rec_idx = np.array(
            [[_snap_index(r[0], X1_MIN, self.dx, nx + 1, "receiver"),
              _snap_index(r[1], X2_MIN, self.dx, nz + 1, "receiver")]
             for r in receivers], dtype=np.int64)
        for s in sources:
            _snap_index(s[0], X1_MIN, self.dx, nx + 1, "source")
            _snap_index(s[1], X2_MIN, self.dx, nz + 1, "source")
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "receivers", receivers)
        object.__setattr__(self, "_nx", nx)
        object.__setattr__(self, "_nz", nz)
        object.__setattr__(self, "_decim", decim)
        object.__setattr__(self, "_rec_idx", rec_idx)

    @property
    def n_params(self) -> int:
        return self.block_rows * self.block_cols

    @property
    def block_size(self) -> tuple[float, float]:
        return ((X1_MAX - X1_MIN) / self.block_cols,
                (X2_MAX - X2_MIN) / self.block_rows)

    def block_index(self, x1, x2) -> np.ndarray:
        """Index of the block containing (x1, x2): column-major, top row first."""
        bw, bh = self.block_size
        col = np.clip(np.floor((np.asarray(x1) - X1_MIN) / bw).astype(np.int64),
                      0, self.block_cols - 1)
        row = np.clip(np.floor((X2_MAX - np.asarray(x2)) / bh).astype(np.int64),
                      0, self.block_rows - 1)
        return col * self.block_rows + row

    def _check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.n_params,):
            raise ValueError(f"theta must have shape ({self.n_params},), got {theta.shape}")
        if not np.all(np.isfinite(theta)) or theta.min() <= 0:
            raise ComputeError(f"block speeds must be positive and finite, got {theta}")
        return theta

    def cfl_number(self, theta) -> float:
        theta = self._check_theta(theta)
        return float(theta.max() * self.solver_dt * math.sqrt(2.0) / self.dx)

    def check_cfl(self, theta) -> None:
        nu = self.cfl_number(theta)
        if not nu < 1.0:
            raise ComputeError(
                f"unstable time step: max speed {np.asarray(theta).max()} gives "
                f"CFL number {nu:.3f} >= 1"
            )

    def cell_speeds_squared(self, theta) -> np.ndarray:
        """a^2 sampled at cell centers, shape (nx, nz)."""
        theta = self._check_theta(theta)
        xc = X1_MIN + (np.arange(self._nx) + 0.5) * self.dx
        zc = X2_MIN + (np.arange(self._nz) + 0.5) * self.dx
        idx = self.block_index(xc[:, None], zc[None, :])
        return theta[idx] ** 2

    def source_nodes(self, source_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Interior node indices inside the forcing patch of one source."""
        cx, cz = self.sources[source_index]
        x1 = X1_MIN + np.arange(self._nx + 1) * self.dx
        x2 = X2_MIN + np.arange(self._nz + 1) * self.dx
        i = np.nonzero(np.abs(x1 - cx) <= SOURCE_HALF_WIDTH + _SNAP_TOL)[0]
        j = np.nonzero(np.abs(x2 - cz) <= SOURCE_HALF_WIDTH + _SNAP_TOL)[0]
        i = i[(i >= 1) & (i <= self._nx - 1)]
        j = j[(j >= 1) & (j <= self._nz - 1)]
        ii, jj = np.meshgrid(i, j, indexing="ij")
        return ii.ravel(), jj.ravel()


def face_coefficients(c2_cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arithmetic face averages of cell-centered a^2.

    ax[i, j-1] lives on the edge between nodes (i, j) and (i+1, j) for
    interior rows j = 1..nz-1; ay[i-1, j] on the edge between (i, j) and
    (i, j+1) for interior columns i = 1..nx-1.
    """
    ax = 0.5 * (c2_cells[:, :-1] + c2_cells[:, 1:])
    ay = 0.5 * (c2_cells[:-1, :] + c2_cells[1:, :])
    return ax, ay


@dataclass(frozen=True, eq=False)
class SolveResult:
    records: np.ndarray   # (n_record_times, n_receivers)
    final: np.ndarray     # u at the last step
    previous: np.ndarray  # u one step before the last


def _leapfrog(c2_cells: np.ndarray, dx: float, dt: float, n_steps: int,
              patches, series: np.ndarray | None, record_idx: np.ndarray,
              record_every: int, u0: np.ndarray | None = None,
              field_forcing: Callable[[float], np.ndarray] | None = None,
              records: np.ndarray | None = None, dtype=np.float64):
    """One leapfrog solve per forcing patch, all stepped together in place.

    Source s owns nodes s*N .. (s+1)*N - 1 of one flat buffer, node (i, j)
    at offset i*(nz+1) + j, so the neighbours sit at offsets +-(nz+1) and
    +-1 and the update runs over one contiguous range.  Face coefficients
    are stored on the face's lower node, and the face terms are multiplied
    by 1/dx^2 on interior nodes and by 0 on Dirichlet nodes: the walls stay
    exactly 0 and nothing leaks across a wrap into the next row or source.
    Per interior node the operations and their order are the per-source
    stencil's, so the bits are too; each face product serves both of its
    nodes.  With zero initial data the state never holds -0.0, so adding F
    on the patch nodes only matches adding a forcing array that is 0.0
    elsewhere; with initial data or a field forcing F is built on every node.

    State, coefficients, scratch and series are held in dtype.  Returns the
    (S * R, n_records) records (row s*R + r: receiver r of source s),
    written into records when it is given (float64 otherwise), and the last
    two flat states.
    """
    nx, nz = c2_cells.shape
    shape = (nx + 1, nz + 1)
    m = nz + 1
    n_nodes = (nx + 1) * m
    total = len(patches) * n_nodes
    lo, hi = m, total - m
    ax, ay = face_coefficients(c2_cells)
    coef = np.zeros((3, len(patches)) + shape, dtype)
    coef[0, :, :-1, 1:-1] = ax   # face (i, j)-(i+1, j), stored at (i, j)
    coef[1, :, 1:-1, :-1] = ay   # face (i, j)-(i, j+1), stored at (i, j)
    coef[2, :, 1:-1, 1:-1] = 1.0 / (dx * dx)
    coef = coef.reshape(3, total)
    face_x, face_y, scale = coef[0, lo - m:hi], coef[1, lo - 1:hi], coef[2, lo:hi]
    flux_x = np.empty(hi - lo + m, dtype)
    flux_y = np.empty(hi - lo + 1, dtype)
    lap = np.empty(hi - lo, dtype)
    state = np.zeros((3, total), dtype)
    u_prev, u, u_next = state
    if series is not None:
        series = np.asarray(series, dtype)
    patch = np.concatenate([s * n_nodes + ii * m + jj
                            for s, (ii, jj) in enumerate(patches)]) - lo
    dense = u0 is not None or field_forcing is not None
    force = np.zeros(total, dtype) if dense else None

    def apply_operator(v: np.ndarray, step: int) -> None:
        """lap <- div(a^2 grad v) + F(step) on nodes lo .. hi - 1."""
        np.subtract(v[lo:hi + m], v[lo - m:hi], out=flux_x)
        np.multiply(flux_x, face_x, out=flux_x)
        np.subtract(v[lo:hi + 1], v[lo - 1:hi], out=flux_y)
        np.multiply(flux_y, face_y, out=flux_y)
        np.subtract(flux_x[m:], flux_x[:-m], out=lap)
        np.add(lap, flux_y[1:], out=lap)
        np.subtract(lap, flux_y[:-1], out=lap)
        np.multiply(lap, scale, out=lap)
        if dense:
            force.fill(0.0)
            if field_forcing is not None:
                field = np.broadcast_to(field_forcing(step * dt), shape)
                force.reshape(shape)[1:-1, 1:-1] += field[1:-1, 1:-1]
            if series is not None:
                force[lo:hi][patch] += series[step]
            np.add(lap, force[lo:hi], out=lap)
        elif series is not None:
            lap[patch] += series[step]

    rec_nodes = (np.arange(len(patches))[:, None] * n_nodes
                 + record_idx[:, 0] * m + record_idx[:, 1]).ravel()
    if records is None:
        records = np.empty((rec_nodes.size, n_steps // record_every + 1))

    def record(step: int, v: np.ndarray) -> None:
        if step % record_every == 0:
            records[:, step // record_every] = v[rec_nodes]

    if u0 is not None:
        grid_prev = u_prev.reshape(shape)
        grid_prev[...] = u0
        grid_prev[0, :] = grid_prev[-1, :] = 0.0
        grid_prev[:, 0] = grid_prev[:, -1] = 0.0
    record(0, u_prev)

    # Taylor first step keeps the scheme second-order for nonzero u0
    u[:] = u_prev
    apply_operator(u_prev, 0)
    np.multiply(lap, 0.5 * dt * dt, out=lap)
    u[lo:hi] += lap
    record(1, u)

    dt2 = dt * dt
    twice = flux_x[:hi - lo]  # free once lap is formed
    for n in range(1, n_steps):
        apply_operator(u, n)
        np.multiply(lap, dt2, out=lap)
        np.multiply(u[lo:hi], 2.0, out=twice)
        np.subtract(twice, u_prev[lo:hi], out=twice)
        np.add(twice, lap, out=u_next[lo:hi])
        u_prev, u, u_next = u, u_next, u_prev
        record(n + 1, u)
    return records, u, u_prev


def leapfrog_solve(c2_cells: np.ndarray, dx: float, dt: float, n_steps: int,
                   u0: np.ndarray | None = None,
                   source_nodes: tuple[np.ndarray, np.ndarray] | None = None,
                   source_series: np.ndarray | None = None,
                   field_forcing: Callable[[float], np.ndarray] | None = None,
                   record_idx: np.ndarray | None = None,
                   record_every: int = 1) -> SolveResult:
    """Explicit leapfrog for u_tt = div(a^2 grad u) + F with Dirichlet walls.

    The state lives on nodes, shape (nx+1, nz+1).  F at step n is the sum of
    source_series[n] spread over source_nodes and field_forcing(n*dt) when
    given.  u0 defaults to zero and the initial velocity is zero; the first
    step uses the Taylor start u^1 = u^0 + dt^2/2 (L u^0 + F^0), which keeps
    the scheme second-order for nonzero u0.  record_idx holds (i, j) node
    indices to record every record_every steps.  The solve runs in float64.
    """
    shape = (c2_cells.shape[0] + 1, c2_cells.shape[1] + 1)
    if u0 is not None and np.shape(u0) != shape:
        raise ValueError(f"u0 must have shape {shape}, got {np.shape(u0)}")
    if n_steps < 1:
        raise ValueError("need at least one time step")
    rec = (np.zeros((0, 2), dtype=np.int64) if record_idx is None
           else np.asarray(record_idx, dtype=np.int64))
    if rec.ndim != 2 or rec.shape[1] != 2 or not ((rec >= 0) & (rec < shape)).all():
        raise ValueError(f"record_idx must hold (i, j) node indices inside {shape}")
    ii, jj = (np.zeros(0, dtype=np.int64),) * 2
    if source_nodes is not None and source_series is not None:
        ii, jj = (np.asarray(k, dtype=np.int64).ravel() for k in source_nodes)
        inside = (ii >= 1) & (ii < shape[0] - 1) & (jj >= 1) & (jj < shape[1] - 1)
        ii, jj = ii[inside], jj[inside]  # the walls hold u = 0: no forcing there
    else:
        source_series = None
    records, final, previous = _leapfrog(
        c2_cells, dx, dt, n_steps, [(ii, jj)], source_series, rec,
        record_every, u0, field_forcing)
    return SolveResult(records=records.T, final=final.reshape(shape),
                       previous=previous.reshape(shape))


def _source_groups(n_sources: int, updates_per_source: int) -> list[int]:
    """Bounds of the contiguous source groups of one solve, one per usable core.

    The sources are split only where os.fork exists and the solve makes at
    least MIN_SPLIT_NODE_UPDATES node updates in all; then there are
    min(cores, n_sources) groups whose sizes differ by at most one, the
    larger ones first.  Otherwise the one group holds every source.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    groups = 1
    if hasattr(os, "fork") and n_sources * updates_per_source >= MIN_SPLIT_NODE_UPDATES:
        groups = min(cores, n_sources)
    size, larger = divmod(n_sources, groups)
    return [k * size + min(k, larger) for k in range(groups + 1)]


def _fork(work: Callable[[], None]) -> list[int]:
    """Run work() in a forked child; return [pid, read end of its report pipe].

    The child never returns into the caller's frames: whatever happens it
    ends in os._exit, so stdio buffers are not flushed twice and no atexit
    handler runs.  An exception raised by work is pickled onto the pipe and
    the child exits with status 1.  work must take no lock that another
    thread could hold at the fork: the leapfrog kernel runs numpy
    element-wise operations only, never the BLAS thread pool.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            try:
                work()
                code = 0
            except BaseException as exc:
                try:
                    report = pickle.dumps(exc)
                except Exception:  # an exception that does not pickle
                    report = pickle.dumps(ChildProcessError(repr(exc)))
                with open(write, "wb") as fh:
                    fh.write(report)
        finally:
            os._exit(code)
    os.close(write)
    return [pid, read]


def _reap(workers: list[list[int]], kill: bool) -> BaseException | None:
    """Wait for every [pid, report fd] worker; return the first one's failure.

    With kill, every worker is sent SIGKILL first.  A worker that ends with
    a nonzero status and no report (killed, out of memory) fails with a
    ChildProcessError.  If this wait is itself interrupted, the workers not
    reaped yet are killed and reaped before the interrupt propagates.
    """
    import signal

    failure = None
    try:
        for pid, _ in workers if kill else ():
            os.kill(pid, signal.SIGKILL)
        for worker in workers:
            pid, fd = worker
            with open(fd, "rb", closefd=False) as fh:
                report = fh.read()
            worker[1] = -1
            os.close(fd)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            worker[0] = 0
            if failure is None and (report or code):
                failure = pickle.loads(report) if report else ChildProcessError(
                    f"source worker {pid} ended with status {code} and no report")
    finally:
        for pid, fd in workers:
            if fd >= 0:
                os.close(fd)
            if pid:
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    return failure


def _run_groups(bounds: list[int], records: np.ndarray,
                solve: Callable[[int, int, np.ndarray], None]) -> None:
    """Fill records by solve(a, b, rows) for each contiguous group a .. b - 1.

    records holds the same number of rows for every source, and rows is the
    row block of sources a .. b - 1.  Group 0 runs in this process, straight
    into records.  Every other group runs in a forked worker that writes its
    rows into one anonymous shared mapping; once every worker is reaped,
    those rows are copied into records.  If this process's own group fails,
    the workers are killed and reaped and its exception propagates;
    otherwise the first failed worker's exception is raised here.
    """
    if len(bounds) == 2:
        solve(bounds[0], bounds[1], records)
        return
    import mmap

    per_source = records.shape[0] // bounds[-1]
    head, first = bounds[1] * per_source, bounds[1]
    tail = records[head:]
    workers: list[list[int]] = []
    with mmap.mmap(-1, tail.nbytes) as shared:

        def work(a: int, b: int) -> None:
            rows = np.ndarray(tail.shape, buffer=shared)
            solve(a, b, rows[(a - first) * per_source:(b - first) * per_source])

        try:
            for a, b in zip(bounds[1:-1], bounds[2:]):
                workers.append(_fork(lambda a=a, b=b: work(a, b)))
            solve(bounds[0], first, records[:head])
        except BaseException:
            _reap(workers, kill=True)
            raise
        failure = _reap(workers, kill=False)
        if failure is not None:
            raise failure
        tail[...] = np.ndarray(tail.shape, buffer=shared)


def acoustic_simulate(model: AcousticModel, theta: np.ndarray) -> Gather:
    """Traces at the model receivers for every source, zero initial data.

    Row s*R + r of the gather is receiver r of source s, labelled (s, r, 0).
    The kernel steps the acoustic state in float32 (leapfrog_solve stays
    float64); each record is widened exactly into the float64 gather.  The
    sources are stepped together in one kernel call or, when os.fork exists
    and the solve makes at least MIN_SPLIT_NODE_UPDATES node updates, in
    one contiguous group per usable core: group 0, the largest, in this
    process and every other group in a forked worker.  A worker's exception
    is raised here with its type, and no worker outlives the call.  There
    is no setting for this; every grouping gives the same bits.
    """
    model.check_cfl(theta)
    patches = [model.source_nodes(k) for k in range(len(model.sources))]
    for k, (ii, _) in enumerate(patches):
        if ii.size == 0:
            raise ComputeError(f"source {k} patch holds no interior node")
    c2 = model.cell_speeds_squared(theta)
    n_steps = (model.grid.n - 1) * model._decim
    series = ricker_wavelet(model.solver_dt * np.arange(n_steps + 1))
    n_rec = len(model.receivers)
    records = np.empty((len(patches) * n_rec, model.grid.n))

    def solve(a: int, b: int, rows: np.ndarray) -> None:
        """Sources a .. b - 1 into rows, their block of the records."""
        _leapfrog(c2, model.dx, model.solver_dt, n_steps, patches[a:b], series,
                  model._rec_idx, model._decim, records=rows, dtype=np.float32)

    updates = (model._nx + 1) * (model._nz + 1) * n_steps
    _run_groups(_source_groups(len(patches), updates), records, solve)
    records.setflags(write=False)  # owned and frozen: kept without a copy
    labels = tuple((s, r, 0) for s in range(len(model.sources))
                   for r in range(len(model.receivers)))
    return Gather(model.grid, records, labels)


def surface_lateral_receiver_layout(dx_surface: float = 0.02,
                                    dx_lateral: float = 0.04) -> tuple[tuple[float, float], ...]:
    """The 201-point recording frame: full surface line plus both lateral walls.

    101 surface positions at x2 = 0 spaced dx_surface, and 50 positions down
    each lateral wall spaced dx_lateral (the shared corners are counted once,
    with the surface).
    """
    positions = [(X1_MIN + k * dx_surface, 0.0) for k in range(101)]
    n_lat = round((X2_MAX - X2_MIN) / dx_lateral)
    for k in range(1, n_lat + 1):
        positions.append((X1_MIN, X2_MAX - k * dx_lateral))
    for k in range(1, n_lat + 1):
        positions.append((X1_MAX, X2_MAX - k * dx_lateral))
    assert len(positions) == 201
    return tuple(positions)


def inset_positions(positions, dx: float) -> tuple[tuple[float, float], ...]:
    """Pull positions one grid node inside the zero-displacement boundary.

    Nodes on the Dirichlet walls record exactly zero, so recording frames
    defined on the boundary are clipped into the interior box and
    deduplicated (stable order).
    """
    lo1, hi1 = X1_MIN + dx, X1_MAX - dx
    lo2, hi2 = X2_MIN + dx, X2_MAX - dx
    seen = set()
    out = []
    for (x1, x2) in positions:
        p = (min(max(x1, lo1), hi1), min(max(x2, lo2), hi2))
        key = (round(p[0] / dx), round(p[1] / dx))
        if key not in seen:
            seen.add(key)
            out.append(p)
    return tuple(out)
