import numpy as np
import pytest

import wassbayes as wb
from wassbayes.signals import read_gather_csv, write_gather_csv


class TestTimeGrid:
    def test_make_grid_endpoints(self):
        g = wb.make_grid(0.0, 5.0, 101)
        assert g.dt == pytest.approx(0.05, rel=1e-15)
        t = g.times()
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(5.0, abs=1e-12)
        assert len(t) == 101

    def test_uniform_spacing(self):
        g = wb.make_grid(-1.0, 3.0, 17)
        np.testing.assert_allclose(np.diff(g.times()), g.dt, rtol=1e-12)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            wb.make_grid(0.0, 5.0, 1)
        with pytest.raises(ValueError):
            wb.make_grid(5.0, 5.0, 10)
        with pytest.raises(ValueError):
            wb.TimeGrid(t0=0.0, dt=-0.1, n=5)

    def test_equality_is_exact(self):
        assert wb.make_grid(0, 5, 101) == wb.make_grid(0, 5, 101)
        assert wb.make_grid(0, 5, 101) != wb.make_grid(0, 5, 102)


class TestTrace:
    def test_length_must_match_grid(self):
        g = wb.make_grid(0, 1, 5)
        with pytest.raises(ValueError):
            wb.Trace(g, [1.0, 2.0])

    def test_rejects_non_finite(self):
        g = wb.make_grid(0, 1, 3)
        with pytest.raises(ValueError):
            wb.Trace(g, [1.0, np.nan, 2.0])
        with pytest.raises(ValueError):
            wb.Trace(g, [1.0, np.inf, 2.0])

    def test_values_frozen(self):
        tr = wb.Trace(wb.make_grid(0, 1, 3), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            tr.values[0] = 9.0


class TestGather:
    def _gather(self):
        g = wb.make_grid(0, 1, 4)
        values = np.arange(4) + np.arange(3)[:, None]
        labels = ((0, 0, 0), (0, 1, 0), (1, 0, 0))
        return wb.Gather(g, values, labels)

    def test_lookup_by_label(self):
        ga = self._gather()
        np.testing.assert_array_equal(ga.trace_for((0, 1, 0)).values,
                                      np.arange(4) + 1.0)

    def test_select_reorders_rows(self):
        ga = self._gather()
        sub = ga.select([(1, 0, 0), (0, 0, 0)])
        assert sub.labels == ((1, 0, 0), (0, 0, 0))
        np.testing.assert_array_equal(sub.values, ga.values[[2, 0]])

    def test_rejects_duplicate_labels(self):
        g = wb.make_grid(0, 1, 4)
        with pytest.raises(ValueError):
            wb.Gather(g, np.ones((2, 4)), ((0, 0, 0), (0, 0, 0)))

    def test_rejects_mixed_grids(self):
        a = wb.Gather(wb.make_grid(0, 1, 4), np.ones((1, 4)), ((0, 0, 0),))
        b = wb.Gather(wb.make_grid(0, 2, 4), np.ones((1, 4)), ((0, 0, 0),))
        with pytest.raises(ValueError, match="same time grid"):
            wb.l2_distance(a, b)

    def test_rejects_shape_mismatch(self):
        g = wb.make_grid(0, 1, 4)
        with pytest.raises(ValueError):
            wb.Gather(g, np.ones((2, 3)), ((0, 0, 0), (0, 1, 0)))
        with pytest.raises(ValueError):
            wb.Gather(g, np.ones((2, 4)), ((0, 0, 0),))
        with pytest.raises(ValueError):
            wb.Gather(g, np.ones(4), ((0, 0, 0),))
        with pytest.raises(ValueError):
            wb.Gather(g, np.ones((0, 4)), ())

    def test_rejects_non_finite(self):
        g = wb.make_grid(0, 1, 3)
        for bad in (np.nan, np.inf, -np.inf):
            values = np.ones((2, 3))
            values[1, 2] = bad
            with pytest.raises(ValueError):
                wb.Gather(g, values, ((0, 0, 0), (0, 1, 0)))

    def test_values_frozen_copy(self):
        source = np.ones((1, 3))
        ga = wb.Gather(wb.make_grid(0, 1, 3), source, ((0, 0, 0),))
        source[0, 0] = 5.0
        assert ga.values[0, 0] == 1.0
        with pytest.raises(ValueError):
            ga.values[0, 0] = 9.0

    def test_with_values_shape_checked(self):
        ga = self._gather()
        with pytest.raises(ValueError):
            ga.with_values(np.zeros((2, 4)))


class TestSerialization:
    def _gather(self):
        g = wb.make_grid(0.0, 5.0, 11)
        rng = np.random.default_rng(3)
        return wb.Gather(g, rng.normal(size=(2, 11)), ((0, 0, 0), (0, 1, 0)))

    def test_csv_roundtrip(self, tmp_path):
        ga = self._gather()
        path = tmp_path / "gather.csv"
        write_gather_csv(ga, path)
        back = read_gather_csv(path)
        assert back.labels == ga.labels
        np.testing.assert_allclose(back.values, ga.values,
                                   rtol=1e-12)
        assert back.grid.dt == pytest.approx(ga.grid.dt, rel=1e-12)

    def test_csv_header_names(self, tmp_path):
        ga = self._gather()
        path = tmp_path / "gather.csv"
        write_gather_csv(ga, path)
        header = path.read_text().splitlines()[0]
        assert header == "time,s0_r0_c0,s0_r1_c0"

    def test_malformed_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,bogus\n0.0,1.0\n1.0,2.0\n")
        with pytest.raises(ValueError):
            read_gather_csv(path)
