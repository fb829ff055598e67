import math

import numpy as np
import pytest

import wassbayes as wb


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
        np.testing.assert_allclose(g.trace_for((0, 0, 0)).values,
                                   g.trace_for((0, 1, 0)).values, atol=1e-15)

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
        pts = np.array([[0.0, -1.0], [0.04, -1.04], [0.05, -1.0], [0.0, -1.05]])
        vals = wb.ricker_source(0.1, pts, center=(0.0, -1.0))
        np.testing.assert_allclose(vals, [1000.0, 1000.0, 0.0, 0.0])


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
            assert float(model.speed_field(theta, x1, x2)) == want

    def test_block_edges_and_clipping(self):
        model = small_acoustic(block_rows=2, block_cols=2)
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        # top-left, bottom-left, top-right, bottom-right
        assert float(model.speed_field(theta, -0.5, -0.5)) == 1.0
        assert float(model.speed_field(theta, -0.5, -1.5)) == 2.0
        assert float(model.speed_field(theta, 0.5, -0.5)) == 3.0
        assert float(model.speed_field(theta, 0.5, -1.5)) == 4.0
        # the row boundary belongs to the lower block, domain corners clip
        assert float(model.speed_field(theta, -0.5, -1.0)) == 2.0
        assert float(model.speed_field(theta, 1.0, 0.0)) == 3.0
        assert float(model.speed_field(theta, -1.0, -2.0)) == 2.0

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
        res = wb.leapfrog_solve(c2, dx, 0.01, 400, u0=u0, collect_energy=True)
        drift = np.abs(res.energies - res.energies[0]).max()
        assert drift <= 1e-8 * res.energies[0]

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
        g = wb.acoustic_simulate(model, np.array([1.0]), 0)
        far = g.trace_for((0, 0, 0)).values
        assert (far[:20] == 0.0).all()
        assert np.abs(far).max() > 0.1

    def test_deterministic(self):
        model = small_acoustic()
        a = wb.acoustic_simulate(model, np.array([1.5]), 0)
        b = wb.acoustic_simulate(model, np.array([1.5]), 0)
        np.testing.assert_array_equal(a.values, b.values)

    def test_labels_carry_source_index(self):
        model = small_acoustic(sources=((0.0, -1.0), (0.4, -1.0)))
        gathers = wb.acoustic_simulate_all(model, np.array([1.0]))
        assert gathers[0].labels == ((0, 0, 0), (0, 1, 0))
        assert gathers[1].labels == ((1, 0, 0), (1, 1, 0))

    def test_cfl_guard_raises(self):
        model = small_acoustic()
        with pytest.raises(wb.ComputeError):
            wb.acoustic_simulate(model, np.array([4.0]), 0)

    def test_speed_orders_arrival(self):
        # the same geometry at double the speed must arrive earlier
        model = small_acoustic(t_end=2.0, n=201)
        slow = wb.acoustic_simulate(model, np.array([0.8]), 0)
        fast = wb.acoustic_simulate(model, np.array([1.6]), 0)
        thresh = 0.05

        def arrival(g):
            v = np.abs(g.trace_for((0, 0, 0)).values)
            return np.nonzero(v > thresh * v.max())[0][0]

        assert arrival(fast) < arrival(slow)


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
