import contextlib
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wassbayes as wb
from wassbayes import forward as forward_module


def fd_wave_1d(h, dx, dt, n_steps, rec_nodes, rec_every):
    """Reference 1-D wave solver: u_tt = u_xx, Dirichlet ends, u_t(0) = 0."""
    r2 = (dt / dx) ** 2
    u_prev = h.copy()
    u_prev[0] = u_prev[-1] = 0.0
    u = u_prev.copy()
    u[1:-1] = u_prev[1:-1] + 0.5 * r2 * (u_prev[2:] - 2 * u_prev[1:-1] + u_prev[:-2])
    out = np.zeros((n_steps // rec_every + 1, len(rec_nodes)))
    k = 0

    def rec(step, arr):
        nonlocal k
        if step % rec_every == 0:
            out[k] = arr[rec_nodes]
            k += 1

    rec(0, u_prev)
    rec(1, u)
    for n in range(1, n_steps):
        u_next = np.zeros_like(u)
        u_next[1:-1] = (2 * u[1:-1] - u_prev[1:-1]
                        + r2 * (u[2:] - 2 * u[1:-1] + u[:-2]))
        u_prev, u = u, u_next
        rec(n + 1, u)
    return out


class TestPulseProfile:
    def test_center_value(self):
        # at the center the middle bump contributes a, the side bumps a e^-25
        got = wb.pulse_profile(0.0, 0.0, 5.0)
        assert got == pytest.approx(5.0 * (1.0 + 2.0 * math.exp(-25.0)), rel=1e-14)

    def test_symmetric_about_center(self):
        x = np.linspace(-1.0, 1.0, 201)
        vals = wb.pulse_profile(x + 0.3, 0.3, 2.0)
        np.testing.assert_allclose(vals, vals[::-1], atol=1e-15)

    def test_amplitude_scales_linearly(self):
        x = np.linspace(-1.0, 1.0, 50)
        np.testing.assert_allclose(wb.pulse_profile(x, 0.1, 6.0),
                                   3.0 * wb.pulse_profile(x, 0.1, 2.0),
                                   rtol=1e-14)


class TestDalembert:
    def test_at_time_zero_traces_sample_the_profile(self):
        grid = wb.make_grid(0.0, 5.0, 101)
        receivers = np.arange(-3.0, 3.1, 1.0)
        model = wb.DalembertModel(receivers=receivers, grid=grid)
        g = wb.dalembert_simulate(model, np.array([5.0]))
        first = g.values[:, 0]
        np.testing.assert_allclose(first, wb.pulse_profile(receivers, 0.0, 5.0),
                                   rtol=1e-14)

    def test_symmetric_receivers_see_identical_traces(self):
        # for a centered profile u(t, x) = u(t, -x)
        grid = wb.make_grid(0.0, 5.0, 101)
        model = wb.DalembertModel(receivers=np.array([-2.0, 2.0]), grid=grid)
        g = wb.dalembert_simulate(model, np.array([4.0]))
        np.testing.assert_allclose(g.values[0], g.values[1], atol=1e-15)

    @pytest.mark.parametrize("x0,a,tol", [(0.0, 5.0, 8e-3), (0.6, 3.0, 6e-3)])
    def test_matches_finite_difference_solution(self, x0, a, tol):
        # reference: second-order FD on [-9, 9], far walls keep reflections
        # away from the receivers for the whole window
        dx, dt = 0.0025, 0.002
        x = np.arange(-9.0, 9.0 + dx / 2, dx)
        receivers = np.arange(-3.0, 3.1, 1.0)
        rec_nodes = np.round((receivers + 9.0) / dx).astype(int)
        h = wb.pulse_profile(x, x0, a)
        oracle = fd_wave_1d(h, dx, dt, n_steps=2500,
                            rec_nodes=rec_nodes, rec_every=25)
        grid = wb.make_grid(0.0, 5.0, 101)
        model = wb.DalembertModel(receivers=receivers, grid=grid,
                                  mode="location-amplitude")
        g = wb.dalembert_simulate(model, np.array([x0, a]))
        np.testing.assert_allclose(g.values.T, oracle, atol=tol)

    def test_amplitude_mode_unpack(self):
        grid = wb.make_grid(0.0, 5.0, 11)
        model = wb.DalembertModel(receivers=np.array([0.0]), grid=grid,
                                  x0_fixed=0.25)
        assert model.n_params == 1
        assert model.unpack(np.array([3.0])) == (0.25, 3.0)
        both = wb.DalembertModel(receivers=np.array([0.0]), grid=grid,
                                 mode="location-amplitude")
        assert both.n_params == 2
        assert both.unpack(np.array([0.5, 3.0])) == (0.5, 3.0)

    def test_validation(self):
        grid = wb.make_grid(0.0, 5.0, 11)
        with pytest.raises(ValueError):
            wb.DalembertModel(receivers=np.array([1.0, 0.0]), grid=grid)
        with pytest.raises(ValueError):
            wb.DalembertModel(receivers=np.array([0.0]), grid=grid, mode="speed")
        model = wb.DalembertModel(receivers=np.array([0.0]), grid=grid)
        with pytest.raises(ValueError):
            model.unpack(np.array([1.0, 2.0]))


def plain_profile(x, x0, a):
    """The pulse with exp evaluated on every argument: the fast path's oracle."""
    d = np.asarray(x, dtype=np.float64) - x0
    return a * (np.exp(-100.0 * (d - 0.5) ** 2)
                + np.exp(-100.0 * d ** 2)
                + np.exp(-100.0 * (d + 0.5) ** 2))


class TestPulseFastPathOracle:
    """pulse_profile and dalembert_simulate equal the plain-exp pulse bit for bit."""

    def test_underflow_sweep(self):
        # exponents of the nearest bump swept densely through [-800, 0] and
        # through the cut at -746 and the subnormal range down to -744, on
        # both sides of the three bumps
        args = np.concatenate((np.linspace(-800.0, 0.0, 200_001),
                               np.linspace(-746.0, -744.0, 20_001)))
        far = 0.5 + np.sqrt(-args / 100.0)
        x = 0.3 + np.concatenate((far, -far))
        for a in (5.0, 1.0, 2.0 ** -40):
            ref = plain_profile(x, 0.3, a)
            assert same_bits(wb.pulse_profile(x, 0.3, a), ref)
        tiny = np.finfo(np.float64).tiny
        assert np.any((ref > 0) & (ref < tiny))  # subnormal outputs
        assert np.any(ref == 0.0)
        near_cut = -100.0 * (far - 0.5) ** 2
        assert np.any(near_cut <= -746.0) and np.any((near_cut > -746.0) & (near_cut < -744.0))

    def test_nan_center_stays_nan(self):
        x = np.linspace(-4.0, 4.0, 81)
        assert np.all(np.isnan(wb.pulse_profile(x, np.nan, 5.0)))
        grid = wb.make_grid(0.0, 5.0, 101)
        model = wb.DalembertModel(receivers=np.arange(-3.0, 3.1, 1.0), grid=grid,
                                  mode="location-amplitude")
        with pytest.raises(wb.ComputeError):
            wb.dalembert_simulate(model, np.array([np.nan, 5.0]))

    @pytest.mark.parametrize("mode,theta", [("amplitude", [5.0]),
                                            ("location-amplitude", [0.6, 3.0]),
                                            ("location-amplitude", [-2.9, 7.5])])
    def test_stacked_simulate_equals_two_profiles(self, mode, theta):
        grid = wb.make_grid(0.0, 5.0, 101)
        receivers = np.arange(-3.0, 3.1, 1.0)
        model = wb.DalembertModel(receivers=receivers, grid=grid, mode=mode)
        x0, a = model.unpack(np.array(theta))
        x, t = receivers[:, None], grid.times()[None, :]
        got = wb.dalembert_simulate(model, np.array(theta)).values
        assert same_bits(got, 0.5 * (wb.pulse_profile(x - t, x0, a)
                                     + wb.pulse_profile(x + t, x0, a)))
        assert same_bits(got, 0.5 * (plain_profile(x - t, x0, a)
                                     + plain_profile(x + t, x0, a)))


class TestRicker:
    def test_peak_and_shoulder(self):
        assert float(wb.ricker_wavelet(0.1)) == 1000.0
        assert float(wb.ricker_wavelet(0.0)) == pytest.approx(723.8699344287676,
                                                              rel=1e-14)

    def test_zero_crossings(self):
        t = 0.1 + 1.0 / math.sqrt(20.0)
        assert float(wb.ricker_wavelet(t)) == pytest.approx(0.0, abs=1e-9)
        assert float(wb.ricker_wavelet(0.2 - t)) == pytest.approx(0.0, abs=1e-9)

    def test_source_patch_mask(self):
        # on a 0.01 grid the forcing patch of a source at (0, -1) holds the
        # nodes within 0.04 of it in each coordinate, and none 0.05 away
        model = small_acoustic(dx=0.01, solver_dt=0.005, receivers=((0.5, -1.0),))
        ii, jj = model.source_nodes(0)
        patch = {(round(-1.0 + i * 0.01, 6), round(-2.0 + j * 0.01, 6))
                 for i, j in zip(ii, jj)}
        assert (0.0, -1.0) in patch and (0.04, -1.04) in patch
        assert (0.05, -1.0) not in patch and (0.0, -1.05) not in patch
        assert len(patch) == 81


def small_acoustic(dx=0.04, solver_dt=0.01, n=101, t_end=1.0,
                   sources=((0.0, -1.0),),
                   receivers=((0.8, -1.0), (0.0, -0.6)),
                   block_rows=1, block_cols=1):
    grid = wb.make_grid(0.0, t_end, n)
    return wb.AcousticModel(dx=dx, solver_dt=solver_dt, grid=grid,
                            sources=sources, receivers=receivers,
                            block_rows=block_rows, block_cols=block_cols)


class TestAcousticModel:
    def test_block_mapping_column_major_top_first(self):
        model = small_acoustic(dx=0.02, solver_dt=0.00125, n=801, t_end=4.0,
                               sources=((0.0, -0.2),), receivers=((0.0, -0.02),),
                               block_rows=2, block_cols=5)
        theta = np.array([3.0, 2.0, 3.5, 2.5, 4.0, 3.0, 4.5, 3.5, 5.0, 4.0])
        probes = [(-0.9, -0.3, 3.0), (-0.9, -1.5, 2.0),
                  (-0.5, -0.1, 3.5), (-0.5, -1.9, 2.5),
                  (0.1, -0.2, 4.0), (0.1, -1.2, 3.0),
                  (0.5, -0.5, 4.5), (0.5, -1.5, 3.5),
                  (0.9, -0.9, 5.0), (0.9, -1.1, 4.0)]
        for x1, x2, want in probes:
            assert theta[model.block_index(x1, x2)] == want

    def test_block_edges_and_clipping(self):
        model = small_acoustic(block_rows=2, block_cols=2)
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        # top-left, bottom-left, top-right, bottom-right
        assert theta[model.block_index(-0.5, -0.5)] == 1.0
        assert theta[model.block_index(-0.5, -1.5)] == 2.0
        assert theta[model.block_index(0.5, -0.5)] == 3.0
        assert theta[model.block_index(0.5, -1.5)] == 4.0
        # the row boundary belongs to the lower block, domain corners clip
        assert theta[model.block_index(-0.5, -1.0)] == 2.0
        assert theta[model.block_index(1.0, 0.0)] == 3.0
        assert theta[model.block_index(-1.0, -2.0)] == 2.0

    def test_cell_speeds_squared(self):
        model = small_acoustic(block_rows=1, block_cols=2)
        c2 = model.cell_speeds_squared(np.array([2.0, 3.0]))
        assert c2.shape == (50, 50)
        assert (c2[:25] == 4.0).all()
        assert (c2[25:] == 9.0).all()

    def test_cfl(self):
        model = small_acoustic()
        assert model.cfl_number(np.array([1.0])) == pytest.approx(
            0.01 * math.sqrt(2.0) / 0.04)
        model.check_cfl(np.array([2.5]))
        with pytest.raises(wb.ComputeError):
            model.check_cfl(np.array([2.9]))

    def test_positive_speeds_required(self):
        model = small_acoustic()
        with pytest.raises(wb.ComputeError):
            model.cell_speeds_squared(np.array([-1.0]))
        with pytest.raises(wb.ComputeError):
            model.cell_speeds_squared(np.array([np.nan]))

    def test_source_patch_sizes(self):
        ii, jj = small_acoustic().source_nodes(0)
        assert ii.size == 9
        fine = small_acoustic(dx=0.02, solver_dt=0.005,
                              sources=((0.0, -1.0),), receivers=((0.5, -1.0),))
        ii, jj = fine.source_nodes(0)
        assert ii.size == 25

    def test_construction_validation(self):
        grid = wb.make_grid(0.0, 1.0, 101)
        with pytest.raises(ValueError):
            small_acoustic(dx=0.03)  # does not tile the 2 x 2 box
        with pytest.raises(ValueError):
            small_acoustic(solver_dt=0.003)  # does not divide the trace step
        with pytest.raises(ValueError):
            small_acoustic(receivers=((0.81001, -1.0),))  # off the node grid
        with pytest.raises(ValueError):
            wb.AcousticModel(dx=0.04, solver_dt=0.01,
                             grid=wb.TimeGrid(t0=0.5, dt=0.01, n=101),
                             sources=((0.0, -1.0),), receivers=((0.8, -1.0),),
                             block_rows=1, block_cols=1)

    def test_trace_step_decimation(self):
        model = small_acoustic(solver_dt=0.0025)
        assert model._decim == 4


class TestLeapfrog:
    def test_no_forcing_no_data_stays_zero(self):
        c2 = np.ones((20, 20))
        res = wb.leapfrog_solve(c2, 0.1, 0.05, 50)
        assert (res.final == 0.0).all()
        assert (res.previous == 0.0).all()

    def test_face_coefficients(self):
        c2 = np.array([[1.0, 2.0], [3.0, 4.0]])
        ax, ay = wb.face_coefficients(c2)
        np.testing.assert_allclose(ax, [[1.5], [3.5]])
        np.testing.assert_allclose(ay, [[2.0, 3.0]])

    def test_energy_conserved_heterogeneous(self):
        dx = 0.04
        nx = nz = 50
        x1 = -1.0 + np.arange(nx + 1) * dx
        x2 = -2.0 + np.arange(nz + 1) * dx
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        u0 = np.exp(-50.0 * ((X1 - 0.2) ** 2 + (X2 + 1.0) ** 2))
        c2 = np.where(np.add.outer(np.arange(nx), np.arange(nz)) % 2 == 0,
                      1.0, 4.0)
        _, final, previous, energies = reference_leapfrog(
            c2, dx, 0.01, 400, u0=u0, collect_energy=True)
        drift = np.abs(energies - energies[0]).max()
        assert drift <= 1e-8 * energies[0]
        res = wb.leapfrog_solve(c2, dx, 0.01, 400, u0=u0)
        assert same_bits(res.final, final)
        assert same_bits(res.previous, previous)

    def test_second_order_convergence_on_manufactured_solution(self):
        # u = sin(pi x1) sin(pi x2 / 2) cos(t) solves the equation with
        # forcing (5 pi^2 / 4 - 1) u at unit speed and honors the walls
        def run_case(dx, dt, T=0.5):
            nx = nz = round(2.0 / dx)
            x1 = -1.0 + np.arange(nx + 1) * dx
            x2 = -2.0 + np.arange(nz + 1) * dx
            X1, X2 = np.meshgrid(x1, x2, indexing="ij")
            spatial = np.sin(np.pi * X1) * np.sin(np.pi * X2 / 2.0)
            coeff = 5.0 * np.pi ** 2 / 4.0 - 1.0

            def forcing(t):
                return coeff * spatial * np.cos(t)

            n_steps = round(T / dt)
            res = wb.leapfrog_solve(np.ones((nx, nz)), dx, dt, n_steps,
                                    u0=spatial, field_forcing=forcing)
            exact = spatial * np.cos(n_steps * dt)
            return np.abs(res.final - exact).max()

        ratio = run_case(0.04, 0.01) / run_case(0.02, 0.005)
        assert 3.4 <= ratio <= 4.6

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            wb.leapfrog_solve(np.ones((10, 10)), 0.2, 0.05, 10,
                              u0=np.zeros((5, 5)))
        with pytest.raises(ValueError):
            wb.leapfrog_solve(np.ones((10, 10)), 0.2, 0.05, 0)


class TestAcousticSimulate:
    def test_zero_start_and_causal_arrival(self):
        # the receiver 20 nodes from the patch cannot move before step 20
        # (the stencil widens the support one node per step)
        model = small_acoustic()
        g = wb.acoustic_simulate(model, np.array([1.0]))
        far = g.values[0]
        assert (far[:20] == 0.0).all()
        assert np.abs(far).max() > 0.1

    def test_deterministic(self):
        model = small_acoustic()
        a = wb.acoustic_simulate(model, np.array([1.5]))
        b = wb.acoustic_simulate(model, np.array([1.5]))
        np.testing.assert_array_equal(a.values, b.values)

    def test_labels_carry_source_index(self):
        model = small_acoustic(sources=((0.0, -1.0), (0.4, -1.0)))
        g = wb.acoustic_simulate(model, np.array([1.0]))
        assert g.labels == ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0))

    def test_cfl_guard_raises(self):
        model = small_acoustic()
        with pytest.raises(wb.ComputeError):
            wb.acoustic_simulate(model, np.array([4.0]))

    def test_speed_orders_arrival(self):
        # the same geometry at double the speed must arrive earlier
        model = small_acoustic(t_end=2.0, n=201)
        slow = wb.acoustic_simulate(model, np.array([0.8]))
        fast = wb.acoustic_simulate(model, np.array([1.6]))
        thresh = 0.05

        def arrival(g):
            v = np.abs(g.values[0])
            return np.nonzero(v > thresh * v.max())[0][0]

        assert arrival(fast) < arrival(slow)


# ---------------------------------------------------------------------------
# Reference: the per-source solver the batched kernel replaced, kept as the
# oracle.  It solves one source at a time and allocates the next state and
# a full forcing array on every step.  It runs in the kernel's dtype: every
# array and scalar it rounds to is cast as the kernel casts it.  It also
# collects the scheme's conserved energy, which the energy test checks.

def discrete_energy(u_a, u_b, ax, ay, dx, dt):
    """Conserved midpoint energy of the leapfrog scheme between two states."""
    kinetic = 0.5 * float(np.sum(((u_b - u_a) / dt) ** 2))
    dxa = u_a[1:, 1:-1] - u_a[:-1, 1:-1]
    dxb = u_b[1:, 1:-1] - u_b[:-1, 1:-1]
    dya = u_a[1:-1, 1:] - u_a[1:-1, :-1]
    dyb = u_b[1:-1, 1:] - u_b[1:-1, :-1]
    potential = 0.5 * (float(np.sum(ax * dxa * dxb))
                       + float(np.sum(ay * dya * dyb))) / (dx * dx)
    return kinetic + potential


def reference_operator(u, ax, ay, inv_dx2):
    core = u[1:-1, 1:-1]
    flux = ax[1:, :] * (u[2:, 1:-1] - core)
    flux -= ax[:-1, :] * (core - u[:-2, 1:-1])
    flux += ay[:, 1:] * (u[1:-1, 2:] - core)
    flux -= ay[:, :-1] * (core - u[1:-1, :-2])
    return flux * inv_dx2


def reference_leapfrog(c2_cells, dx, dt, n_steps, u0=None,
                       source_nodes=None, source_series=None,
                       field_forcing=None, record_idx=None, record_every=1,
                       collect_energy=False, dtype=np.float64):
    nx, nz = c2_cells.shape
    shape = (nx + 1, nz + 1)
    ax, ay = (face.astype(dtype) for face in wb.face_coefficients(c2_cells))
    inv_dx2 = dtype(1.0 / (dx * dx))
    if source_series is not None:
        source_series = np.asarray(source_series, dtype)
    u_prev = np.zeros(shape, dtype) if u0 is None else np.array(u0, dtype=dtype)
    u_prev[0, :] = u_prev[-1, :] = 0.0
    u_prev[:, 0] = u_prev[:, -1] = 0.0

    def forcing(step):
        if field_forcing is None and source_series is None:
            return 0.0
        f = np.zeros(shape, dtype)
        if field_forcing is not None:
            f += field_forcing(step * dt)
        if source_series is not None and source_nodes is not None:
            f[source_nodes] += source_series[step]
        return f[1:-1, 1:-1]

    n_rec = 0 if record_idx is None else record_idx.shape[0]
    records = np.zeros((n_steps // record_every + 1, n_rec))
    count = 0

    def record(step, u):
        nonlocal count
        if step % record_every == 0:
            if record_idx is not None:
                records[count] = u[record_idx[:, 0], record_idx[:, 1]]
            count += 1

    energies = np.empty(n_steps) if collect_energy else None
    record(0, u_prev)
    u = u_prev.copy()
    u[1:-1, 1:-1] += 0.5 * dt * dt * (
        reference_operator(u_prev, ax, ay, inv_dx2) + forcing(0))
    if collect_energy:
        energies[0] = discrete_energy(u_prev, u, ax, ay, dx, dt)
    record(1, u)
    for n in range(1, n_steps):
        lap = reference_operator(u, ax, ay, inv_dx2)
        u_next = np.zeros(shape, dtype)
        u_next[1:-1, 1:-1] = (2.0 * u[1:-1, 1:-1] - u_prev[1:-1, 1:-1]
                              + dt * dt * (lap + forcing(n)))
        u_prev, u = u, u_next
        if collect_energy:
            energies[n] = discrete_energy(u_prev, u, ax, ay, dx, dt)
        record(n + 1, u)
    return records, u, u_prev, energies


def reference_acoustic_gather(model, theta, dtype):
    """One reference solve per source in dtype, stacked source-major."""
    model.check_cfl(theta)
    c2 = model.cell_speeds_squared(theta)
    n_steps = (model.grid.n - 1) * model._decim
    series = wb.ricker_wavelet(model.solver_dt * np.arange(n_steps + 1))
    rows = []
    for k in range(len(model.sources)):
        records, *_ = reference_leapfrog(
            c2, model.dx, model.solver_dt, n_steps,
            source_nodes=model.source_nodes(k), source_series=series,
            record_idx=model._rec_idx, record_every=model._decim, dtype=dtype)
        rows.append(records.T)
    return np.concatenate(rows)


def same_bits(a, b):
    """Equal shape and equal bytes: also tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def builtin_acoustic_model(name, grid=None):
    """The acoustic model of a built-in scenario, on its trace grid or on grid."""
    fwd = wb.builtin_config(name)["forward"]
    return wb.AcousticModel(
        dx=fwd["dx"], solver_dt=fwd["solver_dt"],
        grid=grid or wb.make_grid(0.0, fwd["t_end"], fwd["n_samples"]),
        sources=tuple(map(tuple, fwd["sources"])),
        receivers=tuple(map(tuple, fwd["receivers"])),
        block_rows=fwd["block_rows"], block_cols=fwd["block_cols"])


def node_model(k, sources, receivers, theta_shape=(1, 1), n=11, decim=1):
    """A model on the k x k node box whose sources/receivers are node indices."""
    dx = 2.0 / k
    solver_dt = dx / 4.0  # CFL number sqrt(2)/4 * max speed: < 1 below 2.8
    grid = wb.make_grid(0.0, (n - 1) * decim * solver_dt, n)

    def at(i, j):
        return (-1.0 + i * dx, -2.0 + j * dx)

    return wb.AcousticModel(dx=dx, solver_dt=solver_dt, grid=grid,
                            sources=tuple(at(i, j) for i, j in sources),
                            receivers=tuple(at(i, j) for i, j in receivers),
                            block_rows=theta_shape[0], block_cols=theta_shape[1])


class TestBatchedKernelOracle:
    """The batched kernel gives the reference solver's bits in its dtype.

    acoustic_simulate runs it in float32, leapfrog_solve in float64.
    """

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_gather_equals_reference(self, data):
        k = data.draw(st.sampled_from([50, 55, 60, 64, 80]), label="nodes")
        edge = st.sampled_from([0, 1, 2, k - 2, k - 1, k])
        node = st.one_of(edge, st.integers(min_value=0, max_value=k))
        n_src = data.draw(st.integers(min_value=1, max_value=4), label="sources")
        sources = data.draw(st.lists(st.tuples(node, node), min_size=n_src,
                                     max_size=n_src), label="source nodes")
        receivers = data.draw(st.lists(st.tuples(node, node), min_size=1,
                                       max_size=12), label="receiver nodes")
        receivers += sources  # some traces that are not all zero
        rows = data.draw(st.integers(min_value=1, max_value=3), label="rows")
        cols = data.draw(st.integers(min_value=1, max_value=3), label="cols")
        decim = data.draw(st.integers(min_value=1, max_value=4), label="decim")
        speeds = data.draw(st.lists(st.floats(min_value=0.3, max_value=2.7),
                                    min_size=rows * cols, max_size=rows * cols),
                           label="speeds")
        model = node_model(k, sources, receivers, (rows, cols), n=9, decim=decim)
        theta = np.array(speeds)
        assert model.cfl_number(theta) < 1.0
        got = wb.acoustic_simulate(model, theta)
        assert same_bits(got.values, reference_acoustic_gather(model, theta, np.float32))
        assert got.labels == tuple((s, r, 0) for s in range(n_src)
                                   for r in range(len(receivers)))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_leapfrog_solve_equals_reference(self, data):
        nx = data.draw(st.integers(min_value=2, max_value=24), label="nx")
        nz = data.draw(st.integers(min_value=2, max_value=24), label="nz")
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 31 - 1), label="seed")
        rng = np.random.default_rng(seed)
        shape = (nx + 1, nz + 1)
        c2 = rng.uniform(0.2, 4.0, (nx, nz))
        dx = 0.1
        dt = 0.9 * dx / (2.0 * math.sqrt(2.0))  # max speed 2: CFL number 0.9
        n_steps = data.draw(st.integers(min_value=1, max_value=40), label="steps")
        kwargs = {"record_every": data.draw(st.integers(1, 4), label="every")}
        n_rec = data.draw(st.integers(min_value=0, max_value=6), label="records")
        if n_rec:
            kwargs["record_idx"] = np.column_stack(
                [rng.integers(0, nx + 1, n_rec), rng.integers(0, nz + 1, n_rec)])
        if data.draw(st.booleans(), label="u0"):
            u0 = rng.normal(size=shape)
            u0[rng.random(shape) < 0.2] = -0.0  # signed zeros in the data
            kwargs["u0"] = u0
        if data.draw(st.booleans(), label="field"):
            base = rng.normal(size=shape)
            kwargs["field_forcing"] = lambda t: base * math.cos(3.0 * t)
        if data.draw(st.booleans(), label="source"):
            patch = rng.integers(0, [[nx + 1], [nz + 1]], (2, 4))  # walls too
            kwargs["source_nodes"] = (patch[0], patch[1])
            kwargs["source_series"] = rng.normal(size=n_steps + 1)
        got = wb.leapfrog_solve(c2, dx, dt, n_steps, **kwargs)
        ref_records, ref_final, ref_prev, _ = reference_leapfrog(
            c2, dx, dt, n_steps, **kwargs)
        if n_rec:
            assert same_bits(got.records, ref_records)
        assert same_bits(got.final, ref_final)
        assert same_bits(got.previous, ref_prev)

    def test_signed_zero_initial_data(self):
        # at node (2, 2) the operator of this u0 is -0.0 (the denormal
        # neighbours underflow against the 0.25 face coefficients), so the
        # reference's "+ 0.0" forcing decides the sign of the next state
        u0 = np.zeros((5, 5))
        u0[2, 2] = u0[1, 2] = u0[2, 1] = -0.0
        u0[3, 2] = u0[2, 3] = -5e-324
        c2 = np.full((4, 4), 0.25)
        for n_steps in (1, 3):
            got = wb.leapfrog_solve(c2, 0.5, 0.1, n_steps, u0=u0)
            _, final, previous, _ = reference_leapfrog(c2, 0.5, 0.1, n_steps, u0=u0)
            assert same_bits(got.final, final)
            assert same_bits(got.previous, previous)

    def test_builtin_two_block_geometry(self):
        model = builtin_acoustic_model("two-block-tomography")
        theta = np.array([2.2, 2.9])
        got = wb.acoustic_simulate(model, theta)
        assert same_bits(got.values, reference_acoustic_gather(model, theta, np.float32))

    def test_ten_block_float32_stays_near_float64(self):
        # at the truth the float32 records differ from the float64
        # reference by at most 1.7e-5 of the peak, and the W2 misfit total
        # against the observed data (0.649) moves by 2.6e-9
        scenario = wb.scenario_from_config(wb.builtin_config("ten-block-tomography"))
        inv = scenario.compiled
        model = builtin_acoustic_model("ten-block-tomography")
        got = wb.acoustic_simulate(model, inv.theta_true)
        exact = got.with_values(
            reference_acoustic_gather(model, inv.theta_true, np.float64))
        peak = np.abs(exact.values).max()
        assert np.abs(got.values - exact.values).max() <= 1e-4 * peak
        _, observed = wb.synthesize_observations(scenario)
        totals = [wb.compute_misfits(inv.likelihood, g, observed).total
                  for g in (got, exact)]
        assert abs(totals[0] - totals[1]) < 1e-8


class TestBatchedSources:
    def test_no_cross_talk_between_sources(self):
        # source 0 sits on the right wall: its last column neighbours the
        # first column of source 1 in the flat buffer
        receivers = ((1, 1), (49, 49), (25, 1), (1, 49), (49, 25))
        sources = ((50, 20), (0, 30))
        both = node_model(50, sources, receivers, (1, 2), n=41, decim=2)
        theta = np.array([1.3, 2.1])
        g = wb.acoustic_simulate(both, theta)
        singles = [wb.acoustic_simulate(
            node_model(50, (s,), receivers, (1, 2), n=41, decim=2), theta)
            for s in sources]
        assert same_bits(g.values, np.concatenate([s.values for s in singles]))
        assert np.abs(g.values).max() > 0.0

    def test_gather_owns_frozen_records(self, monkeypatch):
        # the float64 records matrix the groups fill becomes the gather's
        # values, uncopied, whether one call or forked workers filled it
        records = []
        run_groups = forward_module._run_groups

        def spy(bounds, rows, solve):
            records.append(rows)
            run_groups(bounds, rows, solve)

        monkeypatch.setattr(forward_module, "_run_groups", spy)
        split = node_model(20, ((5, 5), (10, 10), (15, 15)), ((3, 3),))
        for model, bounds in ((small_acoustic(), [0, 1]), (split, [0, 2, 3])):
            with forced_groups(bounds):
                g = wb.acoustic_simulate(model, np.array([1.0]))
            assert g.values is records.pop()
            assert g.values.dtype == np.float64
            assert g.values.base is None
            assert not g.values.flags.writeable

    def test_errors_raise_before_the_kernel(self, monkeypatch):
        def kernel(*args, **kwargs):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(forward_module, "_leapfrog", kernel)
        model = small_acoustic()
        with pytest.raises(wb.ComputeError, match="CFL"):
            wb.acoustic_simulate(model, np.array([4.0]))
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(wb.ComputeError, match="positive"):
                wb.acoustic_simulate(model, np.array([bad]))
        # dx = 0.05: no interior node lies within 0.04 of the corner source
        corner = node_model(40, ((0, 40),), ((20, 20),))
        with pytest.raises(wb.ComputeError, match="no interior node"):
            wb.acoustic_simulate(corner, np.array([1.0]))
        c2 = np.ones((10, 10))
        with pytest.raises(ValueError):
            wb.leapfrog_solve(c2, 0.2, 0.05, 10, u0=np.zeros((5, 5)))
        with pytest.raises(ValueError):
            wb.leapfrog_solve(c2, 0.2, 0.05, 0)
        with pytest.raises(ValueError):
            wb.leapfrog_solve(c2, 0.2, 0.05, 10, record_idx=np.array([[11, 0]]))


@contextlib.contextmanager
def forced_groups(bounds):
    """acoustic_simulate with the given source-group bounds, whatever the gate says."""
    with mock.patch.object(forward_module, "_source_groups", lambda s, n: list(bounds)):
        yield


def counted_kernel(monkeypatch) -> list[int]:
    """Source count of every _leapfrog call made in this process."""
    calls = []
    kernel = forward_module._leapfrog

    def counting(c2, dx, dt, n_steps, patches, *args, **kwargs):
        if os.getpid() == parent:  # a forked worker's appends never reach the test
            calls.append(len(patches))
        return kernel(c2, dx, dt, n_steps, patches, *args, **kwargs)

    parent = os.getpid()
    monkeypatch.setattr(forward_module, "_leapfrog", counting)
    return calls


def counted_forks(monkeypatch) -> list[int]:
    """The pid of every child os.fork starts, as seen by this process."""
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def ten_block_sized_model(n=51):
    """The ten-block geometry (5 sources, 101 x 101 nodes) over n trace samples.

    At the default n the solve makes 5 * 10,201 nodes * 200 steps = 10.2M
    node updates, just above MIN_SPLIT_NODE_UPDATES.
    """
    return builtin_acoustic_model("ten-block-tomography",
                                  wb.make_grid(0.0, (n - 1) * 0.005, n))


class TestSourceWorkers:
    """Sources split over forked workers give the one-call kernel's bits."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_any_partition_equals_one_call(self, data):
        k = data.draw(st.sampled_from([50, 55, 60, 64]), label="nodes")
        edge = st.sampled_from([0, 1, 2, k - 2, k - 1, k])
        node = st.one_of(edge, st.integers(min_value=0, max_value=k))
        n_src = data.draw(st.integers(min_value=1, max_value=6), label="sources")
        sources = data.draw(st.lists(st.tuples(node, node), min_size=n_src,
                                     max_size=n_src), label="source nodes")
        receivers = data.draw(st.lists(st.tuples(node, node), min_size=1,
                                       max_size=6), label="receiver nodes")
        receivers += sources
        cuts = data.draw(st.sets(st.integers(min_value=1, max_value=n_src - 1),
                                 max_size=n_src - 1), label="cuts") if n_src > 1 else set()
        bounds = [0, *sorted(cuts), n_src]
        rows = data.draw(st.integers(min_value=1, max_value=2), label="rows")
        cols = data.draw(st.integers(min_value=1, max_value=3), label="cols")
        speeds = data.draw(st.lists(st.floats(min_value=0.3, max_value=2.7),
                                    min_size=rows * cols, max_size=rows * cols),
                           label="speeds")
        decim = data.draw(st.integers(min_value=1, max_value=3), label="decim")
        model = node_model(k, sources, receivers, (rows, cols), n=9, decim=decim)
        theta = np.array(speeds)
        with forced_groups([0, n_src]):
            one = wb.acoustic_simulate(model, theta)
        with forced_groups(bounds):
            split = wb.acoustic_simulate(model, theta)
        assert same_bits(split.values, one.values)
        assert split.labels == one.labels

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        kernel = forward_module._leapfrog
        parent = os.getpid()
        model = node_model(20, ((5, 5), (10, 10), (15, 15)), ((3, 3),))
        for error in (TypeError("kernel failed in a worker"),
                      wb.ComputeError("kernel failed in a worker")):
            def failing_in_a_worker(*args, error=error, **kwargs):
                if os.getpid() != parent:
                    raise error
                return kernel(*args, **kwargs)

            monkeypatch.setattr(forward_module, "_leapfrog", failing_in_a_worker)
            with forced_groups([0, 1, 2, 3]), pytest.raises(type(error), match="worker"):
                wb.acoustic_simulate(model, np.array([1.0]))
            assert no_child_left()

    def test_caller_exception_kills_the_workers(self, monkeypatch):
        # the workers would sleep for a minute: the caller kills and reaps
        # them instead of waiting for them
        kernel = forward_module._leapfrog
        parent = os.getpid()
        model = node_model(20, ((5, 5), (10, 10)), ((3, 3),))
        forks = counted_forks(monkeypatch)
        for error in (MemoryError, KeyboardInterrupt):
            def failing_in_the_caller(*args, error=error, **kwargs):
                if os.getpid() == parent:
                    raise error("kernel failed in the calling process")
                time.sleep(60.0)
                return kernel(*args, **kwargs)

            monkeypatch.setattr(forward_module, "_leapfrog", failing_in_the_caller)
            forks.clear()
            started = time.perf_counter()
            with forced_groups([0, 1, 2]), pytest.raises(error):
                wb.acoustic_simulate(model, np.array([1.0]))
            assert time.perf_counter() - started < 30.0
            assert len(forks) == 1
            assert no_child_left()

    def test_dead_worker_is_an_error(self, monkeypatch):
        kernel = forward_module._leapfrog
        parent = os.getpid()

        def killed_in_a_worker(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(forward_module, "_leapfrog", killed_in_a_worker)
        model = node_model(20, ((5, 5), (10, 10), (15, 15)), ((3, 3),))
        gathers = []
        with forced_groups([0, 1, 2, 3]), pytest.raises(ChildProcessError, match="no report"):
            gathers.append(wb.acoustic_simulate(model, np.array([1.0])))
        assert gathers == []
        assert no_child_left()

    def test_worker_leaves_no_trace_in_the_parent_output(self):
        # stdout is a pipe, so the marker sits unflushed in the buffer that
        # every worker inherits: only os._exit keeps them from writing it
        code = ("from unittest import mock\n"
                "import numpy as np\n"
                "import wassbayes as wb\n"
                "from wassbayes import forward\n"
                "fwd = wb.builtin_config('four-block-tomography')['forward']\n"
                "bundle = wb.build_forward(fwd)\n"
                "print('marker', end='')\n"
                "with mock.patch.object(forward, '_source_groups', lambda s, n: [0, 1, 2, 3]):\n"
                "    bundle.simulate(np.array([2.0, 2.5, 3.0, 3.5]))\n")
        done = subprocess.run([sys.executable, "-c", code], env=src_env(), check=True,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout == "marker"

    def test_fallbacks_give_one_call_with_the_same_bits(self, monkeypatch):
        model, theta = ten_block_sized_model(), np.full(10, 3.0)
        with forced_groups(range(6)):
            split = wb.acoustic_simulate(model, theta)
        calls = counted_kernel(monkeypatch)
        forks = counted_forks(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert same_bits(wb.acoustic_simulate(model, theta).values, split.values)
        assert (calls, forks) == ([5], [])
        calls.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delattr(os, "fork")
        assert same_bits(wb.acoustic_simulate(model, theta).values, split.values)
        assert calls == [5]
        monkeypatch.undo()
        # two-block: 2 sources * 2,601 nodes * 400 steps = 2.1M node updates
        two_block = wb.builtin_config("two-block-tomography")["forward"]
        bundle, theta = wb.build_forward(two_block), np.array([2.0, 3.0])
        with forced_groups([0, 1, 2]):
            split = bundle.simulate(theta)
        calls = counted_kernel(monkeypatch)
        forks = counted_forks(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        assert same_bits(bundle.simulate(theta).values, split.values)
        assert calls == [2]
        assert forks == []

    def test_ten_block_splits_only_on_more_cores(self, monkeypatch):
        model, theta = ten_block_sized_model(), np.full(10, 3.0)
        calls = counted_kernel(monkeypatch)
        forks = counted_forks(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        one = wb.acoustic_simulate(model, theta)
        assert (calls, forks) == ([5], [])
        calls.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        split = wb.acoustic_simulate(model, theta)
        assert calls == [3]  # sources 0-2 here, sources 3-4 in one worker
        assert len(forks) == 1
        assert same_bits(split.values, one.values)
        assert no_child_left()
        calls.clear()
        forks.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        split = wb.acoustic_simulate(model, theta)
        assert calls == [1]  # five groups of one source: four workers
        assert len(forks) == 4
        assert same_bits(split.values, one.values)
        assert no_child_left()
        # below the gate (5 * 10,201 nodes * 196 steps) it stays one call
        calls.clear()
        forks.clear()
        wb.acoustic_simulate(ten_block_sized_model(n=50), np.full(10, 3.0))
        assert (calls, forks) == ([5], [])

    def test_cpu_count_without_affinity(self, monkeypatch):
        calls = counted_kernel(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        wb.acoustic_simulate(ten_block_sized_model(), np.full(10, 3.0))
        assert calls == [5]
        calls.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        wb.acoustic_simulate(ten_block_sized_model(), np.full(10, 3.0))
        assert calls == [3]

    def test_one_balanced_group_per_core(self, monkeypatch):
        for cores in range(1, 17):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cores: set(range(c)),
                                raising=False)
            for n_sources in range(1, 9):
                bounds = forward_module._source_groups(
                    n_sources, forward_module.MIN_SPLIT_NODE_UPDATES)
                sizes = np.diff(bounds)
                assert bounds[0] == 0 and bounds[-1] == n_sources
                assert len(sizes) == min(cores, n_sources)
                assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 1
                assert (np.diff(sizes) <= 0).all()  # the largest group first


class TestReceiverLayouts:
    def test_frame_has_201_unique_positions(self):
        frame = wb.surface_lateral_receiver_layout()
        assert len(frame) == 201
        assert len(set(frame)) == 201

    def test_frame_symmetric_in_x1(self):
        frame = set(wb.surface_lateral_receiver_layout())
        for (x1, x2) in frame:
            assert (round(-x1, 10), x2) in {(round(a, 10), b) for a, b in frame}

    def test_inset_pulls_inside_and_dedupes(self):
        frame = wb.surface_lateral_receiver_layout()
        inset = wb.inset_positions(frame, 0.02)
        assert len(inset) == 199
        for (x1, x2) in inset:
            assert -1.0 + 0.02 <= x1 <= 1.0 - 0.02
            assert -2.0 + 0.02 <= x2 <= -0.02

    def test_inset_keeps_interior_points(self):
        pts = [(0.1, -0.5), (0.1, -0.5), (1.0, 0.0)]
        out = wb.inset_positions(pts, 0.02)
        assert out == ((0.1, -0.5), (0.98, -0.02))


def src_env() -> dict:
    """The environment of a child Python that imports wassbayes from this tree."""
    src = str(Path(wb.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_runtime_does_not_import_scipy():
    # scipy is a test dependency only: importing scipy.sparse after numpy
    # adds about 22 MiB of peak resident memory and 0.14 s of start-up.  A
    # two-block forward makes one kernel call, so it loads no process pool
    # and no shared-memory module either.
    code = ("import sys\n"
            "import numpy as np\n"
            "import wassbayes as wb\n"
            "cfg = wb.builtin_config('two-block-tomography')\n"
            "wb.build_forward(cfg['forward']).simulate(np.array([2.0, 3.0]))\n"
            "banned = ('scipy', 'multiprocessing', 'concurrent.futures', 'mmap')\n"
            "print(sorted(m for m in sys.modules for b in banned\n"
            "             if m == b or m.startswith(b + '.')))\n")
    done = subprocess.run([sys.executable, "-c", code], env=src_env(), check=True,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "[]"
