"""Output checks for the benchmark's operations.

Each check returns a list of problems; an empty list means it passed.  The
references here are written apart from the package: the W2 reference,
the ESS estimate and the CSV parsing use numpy only, and the remaining
checks test properties the method must have (mirror symmetry of the
acoustic forward, the exact Gaussian posterior, the landscape modality).
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# Relative tolerance of the program's W2 misfit against the reference.  The
# two differ only in rounding (np.interp forms the slope before the offset);
# the measured gap is about 1e-16 relative.
W2_RTOL = 1e-12
# Mirror-symmetric acoustic traces agree bit for bit today; a reordered
# stencil sum may move them by a few ulp of the trace amplitude.
MIRROR_RTOL = 1e-10
# Standard errors allowed between the linear-gaussian chain and its exact
# posterior.  Each of the two statistics is close to normal, so a correct
# sampler exceeds 5 standard errors with probability about 6e-7 per check.
POSTERIOR_K = 5.0
W2_PAIRS = 8


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float matrix of a CSV file with one header line."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def check_chain(out: Path, cfg: dict, manifest: dict) -> list[str]:
    """chain.csv holds retained_count rows and every theta lies in the prior box."""
    header, data = read_table(out / "chain.csv")
    sched = cfg["schedule"]
    retained = (sched["total_iters"] - sched["burn_in"]) // sched["thinning"]
    problems = []
    if data.shape[0] != retained or manifest.get("retained_samples") != retained:
        problems.append(f"chain.csv has {data.shape[0]} rows, manifest says "
                        f"{manifest.get('retained_samples')}, schedule gives {retained}")
    bounds = np.asarray(cfg["theta_prior"]["bounds"], dtype=np.float64)
    cols = [k for k, name in enumerate(header) if name.startswith("theta_")]
    if len(cols) != bounds.shape[0]:
        problems.append(f"chain.csv has {len(cols)} theta columns, prior has "
                        f"{bounds.shape[0]}")
        return problems
    thetas = data[:, cols]
    if not (np.all(thetas >= bounds[:, 0]) and np.all(thetas <= bounds[:, 1])):
        problems.append("chain.csv holds a theta outside the prior box")
    return problems


def w2_reference(f: np.ndarray, g: np.ndarray, t: np.ndarray) -> float:
    """Discrete W2 with a per-pair linear shift, through np.interp.

    The shift is margin - min(f, g) when that minimum is <= 0, else the
    margin, with margin = 1e-2 * max(|f|, |g|, 1).  The inverse CDF of g
    is piecewise linear through (0, t_1), (G_i, t_i); repeated CDF levels
    keep their first knot.
    """
    margin = 1e-2 * max(np.abs(f).max(), np.abs(g).max(), 1.0)
    low = min(f.min(), g.min())
    c = margin - low if low <= 0 else margin
    wf = (f + c) / np.sum(f + c)
    wg = (g + c) / np.sum(g + c)
    levels, first = np.unique(np.concatenate(([0.0], np.cumsum(wg))),
                              return_index=True)
    knots = np.concatenate(([t[0]], t))[first]
    transported = np.interp(np.cumsum(wf), levels, knots)
    return float(np.sum((t - transported) ** 2 * wf))


def check_w2_pairs(wb, out: Path, cfg: dict, seed: int) -> list[str]:
    """The program's W2 misfit on sampled trace pairs of the run's data."""
    scaling = cfg["likelihood"].get("scaling") or {}
    if scaling.get("kind") != "linear" or scaling.get("c") is not None:
        return [f"no W2 reference for scaling {scaling}"]
    _, data = read_table(out / "gather_noisy.csv")
    t, traces = data[:, 0], data[:, 1:]
    grid = wb.make_grid(0.0, float(cfg["forward"]["t_end"]), t.size)
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(W2_PAIRS):
        a, b = rng.choice(traces.shape[1], size=2, replace=False)
        f, g = traces[:, a], traces[:, b]
        got = wb.w2_distance(wb.Trace(grid, f), wb.Trace(grid, g),
                             wb.Scaling("linear", None))
        want = w2_reference(f, g, t)
        if not abs(got - want) <= W2_RTOL * abs(want):
            problems.append(f"W2 of traces {a},{b}: program {got!r}, "
                            f"reference {want!r}")
    return problems


def _gather_columns(path: Path) -> dict[tuple[int, int], np.ndarray]:
    """Traces of a gather CSV keyed by (source, receiver)."""
    header, data = read_table(path)
    out = {}
    for k, name in enumerate(header[1:], start=1):
        src, rec, _ = name.split("_")
        out[(int(src[1:]), int(rec[1:]))] = data[:, k]
    return out


def _mirror_index(points, what: str) -> list[int]:
    """For each point (x1, x2), the index of the point at (-x1, x2)."""
    pts = np.asarray(points, dtype=np.float64)
    out = []
    for x1, x2 in pts:
        hit = np.nonzero((np.abs(pts[:, 0] + x1) < 1e-9)
                         & (np.abs(pts[:, 1] - x2) < 1e-9))[0]
        if hit.size != 1:
            raise ValueError(f"{what} at ({x1}, {x2}) has no mirror image")
        out.append(int(hit[0]))
    return out


def mirror_theta(theta, rows: int, cols: int) -> list[float]:
    """Block speeds under x1 -> -x1: column c becomes column cols-1-c."""
    return [theta[(cols - 1 - j // rows) * rows + j % rows]
            for j in range(rows * cols)]


def check_mirror(forward: dict, gathers: tuple[Path, Path]) -> list[str]:
    """Traces at theta equal the mirrored traces at the mirrored theta.

    gathers holds the clean gathers at theta and at mirror_theta(theta).
    """
    src_map = _mirror_index(forward["sources"], "source")
    rec_map = _mirror_index(forward["receivers"], "receiver")
    direct, mirrored = (_gather_columns(p) for p in gathers)
    scale = max(np.abs(v).max() for v in direct.values())
    worst = 0.0
    for (s, r), values in direct.items():
        worst = max(worst, np.abs(values - mirrored[(src_map[s], rec_map[r])]).max())
    if not worst <= MIRROR_RTOL * scale:
        return [f"mirror symmetry broken: max trace difference {worst:.3e} "
                f"against amplitude {scale:.3e}"]
    return []


def integrated_autocorr_time(x: np.ndarray) -> float:
    """Geyer's initial positive sequence estimate, at least 1."""
    x = np.asarray(x, dtype=np.float64) - np.mean(x)
    n = x.size
    acov = np.correlate(x, x, "full")[n - 1:] / n
    tau = -acov[0]
    for m in range(0, n // 2):
        pair = acov[2 * m] + acov[2 * m + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return max(tau / acov[0], 1.0)


def ess(x: np.ndarray) -> float:
    return x.size / integrated_autocorr_time(x)


def check_linear_gaussian(out: Path, cfg: dict) -> list[str]:
    """Chain mean and variance against the exact posterior N(mean(d), 1/(s n))."""
    _, gather = read_table(out / "gather_noisy.csv")
    header, chain = read_table(out / "chain.csv")
    data = gather[:, 1:].ravel()
    s = float(cfg["init"]["s"])
    if cfg["s_update"] != "fixed" or not np.all(chain[:, header.index("s")] == s):
        return ["linear-gaussian chain does not hold s fixed"]
    draws = chain[:, header.index("theta_1")]
    exact_mean, exact_var = float(data.mean()), 1.0 / (s * data.size)
    n_eff = ess(draws)
    se_mean = math.sqrt(exact_var / n_eff)
    se_var = exact_var * math.sqrt(2.0 / n_eff)
    problems = []
    if abs(draws.mean() - exact_mean) > POSTERIOR_K * se_mean:
        problems.append(f"posterior mean {draws.mean()!r} vs exact {exact_mean!r} "
                        f"(se {se_mean:.3e})")
    if abs(draws.var(ddof=1) - exact_var) > POSTERIOR_K * se_var:
        problems.append(f"posterior variance {draws.var(ddof=1)!r} vs exact "
                        f"{exact_var!r} (se {se_var:.3e})")
    return problems


def _strict_maxima(y: np.ndarray) -> np.ndarray:
    return np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0] + 1


def check_landscape(path: Path, true_value: float) -> list[str]:
    """exp_w2: one strict maximum within 0.1 of the truth, which is the
    global one; gauss_l2: at least two strict maxima."""
    _, table = read_table(path)
    values, log_exp, log_norm = table[:, 0], table[:, 1], table[:, 2]
    near = [i for i in _strict_maxima(log_exp)
            if abs(values[i] - true_value) <= 0.1]
    peak = values[int(np.argmax(log_exp))]
    n_norm = len(_strict_maxima(log_norm))
    if len(near) != 1 or abs(peak - true_value) > 0.1 or n_norm < 2:
        return [f"landscape: {len(near)} exp maxima near the truth, exp peak at "
                f"{peak}, {n_norm} gaussian maxima"]
    return []
