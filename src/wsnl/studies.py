"""Ensemble studies: covariance agreement, divergence and Cauchy rates, Hoelder
moduli, the multilinear-smoothing ladder, and coupled solver convergence.

Every verdict cites its tolerance.  Means and increment exponents carry a Monte
Carlo standard error; a plain log-log slope (cauchy's and hoelder's slope
verdicts read one) carries the residual SE of its few-point fit.  Rate verdicts
test exponents, never constants.  Wherever a difference of truncations appears,
realizations are coupled through a shared noise stream for variance reduction.

Estimating the renormalization growth exponent: c_n behaves like A n^{d-2alpha} + B
with an order-one B at desk-scale n, which contaminates a plain least-squares
log-log slope (measured ~0.48 for d=1, alpha=0.3 on the ladder 8..128 against the
true 0.4).  The dyadic-increment slope, fitted to log(c_{2n} - c_n), cancels B
and recovers the exponent; both estimators are reported, the increment slope
carries the verdict.

The smoothing ladder uses the same estimator.  Just below the gain threshold
E||<I Psi^2>_n||^2_{H^sigma} converges only like C - c n^{2(sigma-alpha)}, a
power so small that its plain log-log slope stays far above zero over a few
octaves although the expectation is bounded.  The increments E_{2n} - E_n
behave like n^{2(sigma-alpha)}: their exponent is negative exactly when the
expectation is bounded and positive when it grows, and coupling every rung to
one noise stream gives it a Monte Carlo standard error.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import Iterable

import numpy as np

from .config import HOELDER_LAGS, StudyConfig, hoelder_steps
from .grid import CutoffRho, GridError, SpectralGrid, hs_norm_sq, l2_norm, padded_points
from .noise import ModeNoise
from .reference import PaperParams, covariance_oracle, renorm_constant
# step_values is not called here; it stays a module attribute because the
# perfbench tracer patches it in this module
from .solver import (  # noqa: F401
    RemainderStepper,
    level,
    r_hat,
    r_values,
    step_values,
    stepping,
    support,
    workspace,
)
from .stochastic import PathEnsemble, uniform_times


# A Monte Carlo standard error below this fraction of the largest one at the
# same probe is round-off: the component is zero in every member.
ROUNDOFF_REL = 1e-9
# the renormalization study's tolerance on its divergence exponent d - 2 alpha
RENORM_SLOPE_TOL = 0.05
# the bytes one tile of a chunk's march may hold (_ensemble_blocks).  Half
# of converge's pinned chunk of 100 at N = 1024 (about 228 KB per member)
# fits; smaller tiles pay numpy's per-call overhead more often (a tile of 25
# there ran 7% slower)
TILE_BYTES = 12 * 2**20


@dataclass
class RegressionResult:
    slope: float
    stderr: float
    r2: float
    npoints: int


def loglog_ols(n_values: Iterable[float], y_values: Iterable[float]) -> RegressionResult:
    """Ordinary least squares of log(y) against log(n), with slope stderr and
    R^2; all three are nan when some y <= 0, through which no power law runs."""
    x = np.asarray(list(n_values), dtype=np.float64)
    y = np.asarray(list(y_values), dtype=np.float64)
    m = len(x)
    if m < 3:
        raise GridError(f"regression needs >= 3 points, got {m}")
    if np.any(y <= 0):
        return RegressionResult(np.nan, np.nan, np.nan, m)
    x, y = np.log(x), np.log(y)
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    stderr = float(np.sqrt(ss_res / (m - 2) / np.dot(xc, xc)))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RegressionResult(slope, stderr, r2, m)


def increment_slope(n_values: Iterable[float], y_values: Iterable[float]) -> RegressionResult:
    """Slope of log(y_{2n} - y_n) vs log(n): immune to an additive constant in y;
    nan, with its SE and R^2, unless every increment is positive."""
    n = np.asarray(list(n_values), dtype=np.float64)
    y = np.asarray(list(y_values), dtype=np.float64)
    return loglog_ols(n[:-1], np.diff(y))


@dataclass
class Verdict:
    name: str
    passed: bool
    value: float
    tolerance: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: value={self.value:.6g} tolerance[{self.tolerance}]"


@dataclass
class StudyResult:
    study: str
    config: StudyConfig | None
    columns: list[str]
    rows: list[list[object]]
    slopes: dict[str, RegressionResult] = dc_field(default_factory=dict)
    verdicts: list[Verdict] = dc_field(default_factory=list)
    notes: list[str] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def verdict_lines(self) -> list[str]:
        return [v.line() for v in self.verdicts]


def run_study(config: StudyConfig) -> StudyResult:
    runner = {
        "covariance": run_covariance_study,
        "renorm_rate": run_renorm_study,
        "cauchy_rate": run_cauchy_study,
        "smoothing": run_smoothing_study,
        "hoelder": run_hoelder_study,
        "solver_convergence": run_solver_convergence_study,
    }[config.kind]
    return runner(config)


def resolution_note(grid: SpectralGrid, radii: Iterable[float]) -> str:
    """Each tracked rung's padded points per axis M and 2n against Nyquist."""
    rungs = "; ".join(
        f"n={r:g}: M={padded_points(grid, r)}, 2n/Nyquist={2.0 * r / grid.nyquist:.4g}"
        for r in radii
    )
    return f"padded Wick squares: {rungs}"


# ---------------------------------------------------------------------------
# chunked ensemble execution
# ---------------------------------------------------------------------------

def _ensemble_blocks(config: StudyConfig, measure, member_bytes=PathEnsemble.member_bytes) -> list:
    """measure(ens) for each tile of config.M members, in member order.

    Each thread task takes a chunk of config.chunk members and marches it
    in equal consecutive tiles, as few as keep each within TILE_BYTES (one
    member at least): a march's working set grows with its members, and
    member_bytes(ens), given a one-member ensemble, says what it holds per
    member (the ensemble's own arrays by default; a measure that holds more
    passes its own).  Each tile's ensemble marches config.K steps of
    config.T / config.K at config.radii() and tracks the Wick squares and
    their Duhamel convolutions when config.tracks.  It starts at its first
    member's noise stream, so a member's values depend on neither the
    chunking, the tiling nor the thread count."""
    grid = config.grid()

    def ensemble(lo: int, size: int) -> PathEnsemble:
        return PathEnsemble(
            grid, config.alpha, config.radii(), config.T, config.K, seed=config.seed, size=size,
            stream_offset=lo, track=config.tracks,
        )

    tile = max(1, TILE_BYTES // member_bytes(ensemble(0, 1)))

    def chunk(lo: int) -> list:
        size = min(config.chunk, config.M - lo)
        tiles = -(-size // tile)
        bounds = [lo + size * j // tiles for j in range(tiles + 1)]
        return [measure(ensemble(a, b - a)) for a, b in zip(bounds, bounds[1:])]

    starts = range(0, config.M, config.chunk)
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            return [block for blocks in pool.map(chunk, starts) for block in blocks]
    return [block for lo in starts for block in chunk(lo)]


def _at_steps(ens: PathEnsemble, steps: Iterable[int], read) -> dict[int, object]:
    """read(ens) at each distinct time step of `steps`, marching the ensemble
    up to the last one; step 0 is read before the first advance."""
    wanted = set(steps)
    out = {0: read(ens)} if 0 in wanted else {}
    while ens.k < max(wanted):
        ens.advance()
        if ens.k in wanted:
            out[ens.k] = read(ens)
    return out


class MeanAccumulator:
    """Streaming mean and standard error for a vector of statistics.

    Each block's count, mean and sum of squared deviations M2 are merged into
    the running ones with the pairwise update of Chan, Golub and LeVeque
    (1983), in the order the blocks arrive, so the variance never comes from a
    difference of large sums of squares."""

    def __init__(self, width: int) -> None:
        self.count = 0
        self.mean = np.zeros(width)
        self._m2 = np.zeros(width)

    def add(self, block: np.ndarray) -> None:
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2:
            raise GridError("MeanAccumulator expects (members, width) blocks")
        n = block.shape[0]
        if n == 0:
            return
        mean = block.mean(axis=0)
        m2 = np.square(block - mean).sum(axis=0)
        total = self.count + n
        delta = mean - self.mean
        self.mean = self.mean + delta * (n / total)
        self._m2 = self._m2 + m2 + delta * delta * (self.count * n / total)
        self.count = total

    @property
    def stderr(self) -> np.ndarray:
        """nan while fewer than two members give no spread to estimate."""
        if self.count < 2:
            return np.full_like(self.mean, np.nan)
        return np.sqrt(self._m2 / (self.count - 1) / self.count)


class Samples:
    """One statistic's per-member values, one row per kept member in member order,
    kept for what reads one member's columns together (the increment exponent's
    covariance, a median).  count, mean and stderr come from one
    MeanAccumulator.add over all members, so chunking moves none of them; mean
    is nan when no member is kept."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = np.asarray(values, dtype=np.float64)
        acc = MeanAccumulator(self.values.shape[1])
        acc.add(self.values)
        self.count, self.stderr = acc.count, acc.stderr
        self.mean = acc.mean if acc.count else np.full(self.values.shape[1], np.nan)

    def decrements(self) -> Samples:
        """Each member's paired X_n - X_2n of adjacent columns."""
        return Samples(self.values[:, :-1] - self.values[:, 1:])

    def increment_exponent(self, rungs: Iterable[float]) -> RegressionResult:
        """Dyadic-increment slope of E[X_n] over the columns' rungs: the log-log
        slope of the mean increments E[X_{2n} - X_n], with an MC stderr that
        carries the sample covariance of the per-member increments through that
        fit (delta method), so the correlation between rungs of one member is
        accounted for.  Slope, stderr and R^2 are nan unless every mean
        increment is positive."""
        n = np.asarray(list(rungs), dtype=np.float64)
        inc = np.diff(self.values, axis=1)
        mean = inc.mean(axis=0)
        fit = loglog_ols(n[:-1], mean)
        if np.isnan(fit.slope):
            return fit
        xc = np.log(n[:-1]) - np.log(n[:-1]).mean()
        grad = xc / np.dot(xc, xc) / mean
        var = float(grad @ np.atleast_2d(np.cov(inc, rowvar=False)) @ grad) / inc.shape[0]
        return RegressionResult(fit.slope, float(np.sqrt(var)), fit.r2, fit.npoints)


def _samples(blocks: list[dict]) -> dict[object, Samples]:
    """One Samples per named (members, width) array of the blocks, in member
    order; each block's array is popped, freeing it once its rows are copied."""
    return {name: Samples(np.concatenate([b.pop(name) for b in blocks])) for name in [*blocks[0]]}


# ---------------------------------------------------------------------------
# white-noise identity
# ---------------------------------------------------------------------------

def white_noise_variance_check(
    grid: SpectralGrid,
    dt: float,
    M: int,
    seed: int,
    test_functions: list[np.ndarray],
    rel_tol: float = 0.05,
) -> StudyResult:
    """E|<increment, f>|^2 against dt * ||f||_{L2}^2 for each test function.

    The increments are the ensemble's exact one-step increments, drawn by its
    sampler on the whole lattice: member m's first step, in physical space.
    Their phases leave every mode's variance at dt L^d, so by Parseval the
    complex pairing has E|<increment, f>|^2 = dt ||f||^2 for real f."""
    noise = ModeNoise(grid, np.ones(grid.shape, dtype=bool), dt)
    z = np.stack([noise.normals_at(seed, m, 0) for m in range(M)])
    inc = grid.inverse_values(noise.on_grid(noise.increments(z))).reshape(M, -1)
    pairings = np.stack(
        [grid.cell_volume * np.sum(inc * f.reshape(-1), axis=1) for f in test_functions], axis=1
    )
    rows: list[list[object]] = []
    verdicts: list[Verdict] = []
    for j, f in enumerate(test_functions):
        target = dt * l2_norm(grid, f) ** 2
        est = float(np.var(pairings[:, j], ddof=1))
        rel = abs(est - target) / target
        rows.append([j, target, est, rel])
        verdicts.append(
            Verdict(
                name=f"white_noise_variance_f{j}",
                passed=rel <= rel_tol,
                value=rel,
                tolerance=f"relative error <= {rel_tol} at M={M}",
            )
        )
    return StudyResult(
        study="white_noise",
        config=None,
        columns=["function", "dt_l2_sq", "empirical_var", "rel_error"],
        rows=rows,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# covariance study
# ---------------------------------------------------------------------------

def run_covariance_study(config: StudyConfig) -> StudyResult:
    grid = config.grid()
    alpha, n = config.alpha, config.n
    times = uniform_times(config.T, config.K)
    # distinct steps >= 1: psi(0) = 0, so a probe at step 0 compares zero
    # with a zero oracle
    probe_ks = sorted({max(1, config.K * j // 4) for j in (1, 2, 4)})
    probe_times = [float(times[k]) for k in probe_ks]
    base_idx = grid.N // 3
    shifts = [0, grid.N // 8, grid.N // 4]

    # psi is read at the base point x and at each shifted point y; the
    # first shift is 0, so column 0 of a snapshot is x
    points = [(base_idx,) * (grid.d - 1) + ((base_idx - shift) % grid.N,) for shift in shifts]

    def snapshot(ens: PathEnsemble) -> np.ndarray:
        # n is the ensemble's only radius, so psi is psi_values(n) already
        field = grid.inverse_values(ens.psi)
        return np.stack([field[(slice(None),) + p] for p in points], axis=-1)

    def measure(ens: PathEnsemble) -> dict[str, np.ndarray]:
        snaps = _at_steps(ens, probe_ks, snapshot)
        pairs = [
            (snaps[ks][:, 0], snaps[kt][:, j])
            for ks in probe_ks for kt in probe_ks for j in range(len(shifts))
        ]
        conj = np.stack([a * np.conj(b) for a, b in pairs], axis=-1)
        plain = np.stack([a * b for a, b in pairs], axis=-1)
        return dict(conj_re=conj.real, conj_im=conj.imag, plain_re=plain.real, plain_im=plain.imag)

    acc = _samples(_ensemble_blocks(config, measure))

    z_bound = 5.0
    rows: list[list[object]] = []
    degenerate: list[str] = []
    all_ok = True
    worst = 0.0
    idx = 0
    for ks in probe_ks:
        for kt in probe_ks:
            for shift in shifts:
                s_t, t_t = float(times[ks]), float(times[kt])
                x = np.array([grid.x[base_idx]] * grid.d)
                y = x.copy()
                y[-1] = grid.x[(base_idx - shift) % grid.N]
                oc, op = covariance_oracle(grid, n, alpha, s_t, t_t, x, y)
                targets = {
                    "conj_re": oc.real,
                    "conj_im": oc.imag,
                    "plain_re": op.real,
                    "plain_im": op.imag,
                }
                # A component whose standard error is round-off next to the
                # probe's largest one is identically zero in every member; its
                # z-score would divide by round-off, so it is compared to the
                # oracle with an absolute round-off tolerance instead.
                se_max = max(float(acc[name].stderr[idx]) for name in targets)
                floor = ROUNDOFF_REL * se_max
                zs = [0.0]
                flat, missed = [], False
                for name, target in targets.items():
                    se = float(acc[name].stderr[idx])
                    gap = abs(float(acc[name].mean[idx]) - target)
                    if se > floor:
                        zs.append(gap / se)
                    elif gap <= floor * math.sqrt(acc[name].count):
                        flat.append(name)
                    else:
                        missed = True
                        flat.append(f"{name} (misses its oracle by {gap:.3g})")
                if flat:
                    degenerate.append(f"s={s_t:.6g} t={t_t:.6g} shift={shift}: {' '.join(flat)}")
                z = max(zs)
                ok = z <= z_bound and not missed
                worst = max(worst, z)
                all_ok = all_ok and ok
                rows.append(
                    [
                        s_t,
                        t_t,
                        shift * grid.dx,
                        float(acc["conj_re"].mean[idx]),
                        float(acc["conj_im"].mean[idx]),
                        oc.real,
                        oc.imag,
                        float(acc["plain_re"].mean[idx]),
                        float(acc["plain_im"].mean[idx]),
                        op.real,
                        op.imag,
                        z,
                        ok,
                    ]
                )
                idx += 1
    verdict = Verdict(
        name="covariance_within_5_se",
        passed=all_ok,
        value=worst,
        tolerance=f"max |z| <= {z_bound} Monte Carlo standard errors at M={config.M}",
    )
    return StudyResult(
        study="covariance",
        config=config,
        columns=[
            "s_time",
            "t_time",
            "displacement",
            "emp_conj_re",
            "emp_conj_im",
            "oracle_conj_re",
            "oracle_conj_im",
            "emp_plain_re",
            "emp_plain_im",
            "oracle_plain_re",
            "oracle_plain_im",
            "max_z",
            "pass",
        ],
        rows=rows,
        verdicts=[verdict],
        notes=[
            f"probe times {probe_times}, base x index {base_idx}, shifts {shifts}",
            "components with round-off standard error, held to their oracle within "
            f"round-off and left out of max |z|: {'; '.join(degenerate) or 'none'}",
        ],
    )


# ---------------------------------------------------------------------------
# rate studies (renormalization divergence, Cauchy-in-n decay)
# ---------------------------------------------------------------------------

def run_renorm_study(config: StudyConfig) -> StudyResult:
    grid = config.grid()
    target = config.d - 2.0 * config.alpha
    c_values = [renorm_constant(grid, n, config.alpha, config.T) for n in config.ladder]
    ols = loglog_ols(config.ladder, c_values)
    inc = increment_slope(config.ladder, c_values)
    rows: list[list[object]] = [
        ["point", n, c, "", ""] for n, c in zip(config.ladder, c_values)
    ]
    rows.append(["slope_increment", "", "", inc.slope, inc.stderr])
    rows.append(["slope_ols", "", "", ols.slope, ols.stderr])
    verdict = Verdict(
        name="renorm_divergence_exponent",
        passed=abs(inc.slope - target) <= RENORM_SLOPE_TOL,
        value=inc.slope,
        tolerance=f"dyadic-increment slope within {target} +/- {RENORM_SLOPE_TOL}",
    )
    return StudyResult(
        study="renorm_rate",
        config=config,
        columns=["record", "n", "c_n", "slope", "slope_stderr"],
        rows=rows,
        slopes={"increment": inc, "ols": ols},
        verdicts=[verdict],
        notes=[
            "plain OLS slope is contaminated by the additive constant in c_n at "
            "desk-scale n; the increment slope carries the verdict"
        ],
    )


def run_cauchy_study(config: StudyConfig) -> StudyResult:
    grid = config.grid()
    params = config.params()
    s = params.s
    rho_vals = CutoffRho.for_grid(grid).evaluate(grid)
    ladder = list(config.ladder)

    def measure(ens: PathEnsemble) -> dict[str, np.ndarray]:
        ens.run()
        cols = []
        for n in ladder:
            diff_hat = ens.psi_values(2 * n) - ens.psi_values(n)
            loc = rho_vals * grid.inverse_values(diff_hat)
            cols.append(hs_norm_sq(grid, loc, -s))
        return {"point": np.stack(cols, axis=-1)}

    acc = _samples(_ensemble_blocks(config, measure))["point"]
    diff_acc = acc.decrements()

    z = config.z
    rows: list[list[object]] = []
    for j, n in enumerate(ladder):
        rows.append(["point", n, float(acc.mean[j]), float(acc.stderr[j]), ""])
    for j in range(len(ladder) - 1):
        gap = float(diff_acc.mean[j])
        se = float(diff_acc.stderr[j])
        rows.append(["decrement", ladder[j], gap, se, gap > z * se])
    decrements = [row for row in rows if row[0] == "decrement"]
    ols = loglog_ols(ladder, acc.mean)
    rows.append(["slope_ols", "", ols.slope, ols.stderr, ""])
    slope_neg = ols.slope + z * ols.stderr < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):  # zero stderr: non-finite ratio
        worst = float(np.min(diff_acc.mean / diff_acc.stderr))
    verdicts = [
        Verdict(
            name="cauchy_means_strictly_decreasing",
            passed=all(row[4] for row in decrements),
            value=worst,
            tolerance=f"min decrement gap/stderr > {z} (confidence {config.confidence})",
        ),
        Verdict(
            name="cauchy_slope_negative",
            passed=slope_neg,
            value=ols.slope,
            tolerance=f"OLS slope + {z}*stderr < 0 (confidence {config.confidence})",
        ),
    ]
    return StudyResult(
        study="cauchy_rate",
        config=config,
        columns=["record", "n", "value", "stderr", "pass"],
        rows=rows,
        slopes={"ols": ols},
        verdicts=verdicts,
        notes=[f"coupled noise; E||rho(Psi_2n - Psi_n)(T)||^2 in H^{{-s}}, s={s:.4g}"],
    )


# ---------------------------------------------------------------------------
# multilinear smoothing ladder (the centerpiece)
# ---------------------------------------------------------------------------

def smoothing_sigmas(params: PaperParams) -> tuple[list[float], list[float]]:
    """The smoothing study's sigma probes: those of <I Psi^2>_n just below and
    above the gain threshold -2s+kappa, and those of the Wick square at -2s+0.1
    (where it diverges) and at 0."""
    s, kappa = params.s, params.kappa
    return [-2 * s + kappa - 0.05, -2 * s + kappa + 0.1], [-2 * s + 0.1, 0.0]


def run_smoothing_study(config: StudyConfig) -> StudyResult:
    grid = config.grid()
    params = config.params()
    gain_threshold = -2 * params.s + params.kappa
    sigmas, sigmas_wick = smoothing_sigmas(params)
    rho_vals = CutoffRho.for_grid(grid).evaluate(grid)
    rho2 = rho_vals * rho_vals
    ladder = list(config.ladder)

    def measure(ens: PathEnsemble) -> dict[tuple[str, float], np.ndarray]:
        ens.run()
        cols = {("ipsi2", sg): [] for sg in sigmas} | {("wick", sg): [] for sg in sigmas_wick}
        for n in ladder:
            wick_loc = rho2 * ens.wick_values(n)
            loc = {"wick": wick_loc, "ipsi2": rho2 * grid.inverse_values(ens.ipsi2_values(n))}
            for (obj, sg), col in cols.items():
                col.append(hs_norm_sq(grid, loc[obj], sg))
        return {key: np.stack(col, axis=-1) for key, col in cols.items()}

    samples = _samples(_ensemble_blocks(config, measure))

    rows: list[list[object]] = []
    slopes: dict[str, RegressionResult] = {}
    for (obj, sg), acc in samples.items():
        for j, n in enumerate(ladder):
            rows.append([obj, sg, n, float(acc.mean[j]), float(acc.stderr[j])])
        slopes[f"{obj}_sigma{sg:.4g}"] = loglog_ols(ladder, acc.mean)
    for sg in sigmas:
        slopes[f"ipsi2_increment_sigma{sg:.4g}"] = samples["ipsi2", sg].increment_exponent(ladder)

    notes = [
        f"kappa = {params.kappa:.4g}, s = {params.s:.4g}; gain probe straddles "
        f"-2s = {-2*params.s:.4g} and -2s+kappa = {gain_threshold:.4g}; bounded and "
        f"growing sides are read from the dyadic-increment exponent",
        resolution_note(grid, ladder),
    ]
    if config.d == 1:
        # Exact Wick-pairing expectations of the unlocalized object at every probe
        # sigma, plus the series with the lattice zero mode removed at the bounded
        # probe: the zero mode is one finite-box channel, and these rows show how
        # much of the series it carries.
        from .secondmoment import ipsi2_norm_sq_expectation

        exact = {
            sg: [ipsi2_norm_sq_expectation(grid, n, config.alpha, config.T, sg) for n in ladder]
            for sg in sigmas
        }
        exact_nodc = [
            ipsi2_norm_sq_expectation(
                grid, n, config.alpha, config.T, sigmas[0], drop_zero_mode=True
            )
            for n in ladder
        ]
        for sg, vals in exact.items():
            rows.extend(["exact_ipsi2", sg, n, v, 0.0] for n, v in zip(ladder, vals))
            slopes[f"exact_ipsi2_increment_sigma{sg:.4g}"] = increment_slope(ladder, vals)
        rows.extend(
            ["exact_ipsi2_no_zero_mode", sigmas[0], n, v, 0.0] for n, v in zip(ladder, exact_nodc)
        )
        slopes["exact_ipsi2"] = loglog_ols(ladder, exact[sigmas[0]])
        slopes["exact_ipsi2_no_zero_mode"] = loglog_ols(ladder, exact_nodc)
        notes.append(
            "exact rows: deterministic pair-sum expectations (no cutoff); the exact "
            "verdicts apply the MC verdicts' exponent signs to them"
        )
    for name, reg in slopes.items():
        rows.append(["slope", name, "", reg.slope, reg.stderr])

    z = config.z
    bounded = slopes[f"ipsi2_increment_sigma{sigmas[0]:.4g}"]
    growing = slopes[f"ipsi2_increment_sigma{sigmas[1]:.4g}"]
    diverging_slope = slopes[f"wick_sigma{sigmas_wick[0]:.4g}"].slope
    verdicts = [
        Verdict(
            name="ipsi2_bounded_at_gain_probe",
            passed=bounded.slope + z * bounded.stderr < 0.0,
            value=bounded.slope,
            tolerance=(
                f"increment exponent + {z}*stderr < 0 at sigma = {sigmas[0]:.4g} "
                f"(= -2s+kappa-0.05; confidence {config.confidence})"
            ),
        ),
        Verdict(
            name="ipsi2_growing_above_gain",
            passed=growing.slope - z * growing.stderr > 0.0,
            value=growing.slope,
            tolerance=(
                f"increment exponent - {z}*stderr > 0 at sigma = {sigmas[1]:.4g} "
                f"(= -2s+kappa+0.1; confidence {config.confidence})"
            ),
        ),
        Verdict(
            name="wick_diverging_below_gain",
            passed=diverging_slope >= 0.1,
            value=diverging_slope,
            tolerance=f"log-log slope >= 0.1 at sigma = {sigmas_wick[0]:.4g} (= -2s+0.1)",
        ),
    ]
    if config.d == 1:
        exact_bounded = slopes[f"exact_ipsi2_increment_sigma{sigmas[0]:.4g}"].slope
        exact_growing = slopes[f"exact_ipsi2_increment_sigma{sigmas[1]:.4g}"].slope
        verdicts += [
            Verdict(
                name="exact_ipsi2_bounded_at_gain_probe",
                passed=exact_bounded < 0.0,
                value=exact_bounded,
                tolerance=f"exact increment exponent < 0 at sigma = {sigmas[0]:.4g}",
            ),
            Verdict(
                name="exact_ipsi2_growing_above_gain",
                passed=exact_growing > 0.0,
                value=exact_growing,
                tolerance=f"exact increment exponent > 0 at sigma = {sigmas[1]:.4g}",
            ),
        ]
    return StudyResult(
        study="smoothing",
        config=config,
        columns=["object", "sigma", "n", "mean_sq_norm", "stderr"],
        rows=rows,
        slopes=slopes,
        verdicts=verdicts,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Hoelder-in-time study
# ---------------------------------------------------------------------------

def run_hoelder_study(config: StudyConfig) -> StudyResult:
    grid = config.grid()
    params = config.params()
    s = params.s
    # validate_config keeps the base time t0 = T/2 and every lag on the
    # K-step grid, the largest inside [t0, T]
    lags = HOELDER_LAGS
    t0 = config.T / 2.0
    base, *ends = (round(j) for j in hoelder_steps(config.T, config.K))
    rho_vals = CutoffRho.for_grid(grid).evaluate(grid)
    zero_mode = (slice(None),) + (0,) * grid.d

    def measure(ens: PathEnsemble) -> dict[str, np.ndarray]:
        psi = _at_steps(ens, [base, *ends], lambda e: e.psi_values(config.n))
        cols, ctrl = [], []
        for k in ends:
            diff = psi[k] - psi[base]
            ctrl.append(np.abs(diff[zero_mode]) ** 2)
            loc = rho_vals * grid.inverse_values(diff)
            cols.append(hs_norm_sq(grid, loc, -s))
        return {"field": np.stack(cols, axis=-1), "control": np.stack(ctrl, axis=-1)}

    samples = _samples(_ensemble_blocks(config, measure))
    acc, acc_ctrl = samples["field"], samples["control"]

    z = config.z
    rows: list[list[object]] = [
        [record, h, float(sm.mean[j]), float(sm.stderr[j])]
        for record, sm in samples.items() for j, h in enumerate(lags)
    ]
    reg = loglog_ols(lags, acc.mean)
    reg_ctrl = loglog_ols(lags, acc_ctrl.mean)
    rows.append(["slope", "field", reg.slope, reg.stderr])
    rows.append(["slope", "control", reg_ctrl.slope, reg_ctrl.stderr])
    verdicts = [
        Verdict(
            name="hoelder_slope_positive",
            passed=reg.slope - z * reg.stderr > 0.0,
            value=reg.slope,
            tolerance=f"slope - {z}*stderr > 0 (confidence {config.confidence}) at M={config.M}",
        ),
        Verdict(
            name="brownian_control_slope",
            passed=abs(reg_ctrl.slope - 1.0) <= 0.1,
            value=reg_ctrl.slope,
            tolerance="zero-mode increment variance slope within 1.0 +/- 0.1",
        ),
    ]
    return StudyResult(
        study="hoelder",
        config=config,
        columns=["record", "lag", "value", "stderr"],
        rows=rows,
        slopes={"field": reg, "control": reg_ctrl},
        verdicts=verdicts,
        notes=[f"base time t0 = {t0}, E||rho(Psi(t0+h)-Psi(t0))||^2 in H^{{-s}}, s={s:.4g}"],
    )


# ---------------------------------------------------------------------------
# coupled solver convergence (Theorem-analogue study)
# ---------------------------------------------------------------------------

def run_solver_convergence_study(config: StudyConfig) -> StudyResult:
    grid = config.grid()
    params = config.params()
    s = params.s
    solver_config = config.solver()
    rho_vals = solver_config.rho.evaluate(grid)
    sup = support(rho_vals)
    ladder = list(config.ladder)
    radii = config.radii()

    # every radius marches from z = 0, so all of them store the 2/3 mask's
    # modes when the solver dealiases, and share these constants
    st = stepping(solver_config, grid, sup, solver_config.dealias)

    def pair_norm(ens: PathEnsemble, steppers: dict, n: float, u: np.ndarray) -> np.ndarray:
        """||rho (u_n - u_2n)(T)||_{H^-s} per member, u = z + R + Psi, with R
        as level() forms it: one inverse and one forward transform for the
        pair, in u, a (2, B, N^d) scratch."""
        pair = (n, 2 * n)
        for row, r in zip(u, pair):
            ens.ipsi2_values(r, out=row)
        u = r_hat(grid, sup, r_values(grid, sup, u, out=u), out=u)
        for row, r in zip(u, pair):
            steppers[r].add_z(row)
            row += ens.psi_values(r)
        diff = np.subtract(u[0], u[1], out=u[0])
        loc = np.multiply(rho_vals, grid.inverse_values(diff, out=diff), out=diff)
        return np.sqrt(hs_norm_sq(grid, loc, -s))

    def measure(ens: PathEnsemble) -> tuple[np.ndarray, np.ndarray]:
        # one scratch for the whole chunk: the ensemble's tracking takes it
        # in advance(), each radius's level() inputs go to its front, and the
        # steps of every radius take it in turn
        work = workspace(grid, sup, ens.size, ens.scratch_size)
        inputs = work[: 2 * ens.size * grid.N**grid.d].reshape((2, ens.size) + grid.shape)

        def current(r: float):
            ens.psi_values(r, out=inputs[0])
            ens.ipsi2_values(r, out=inputs[1])
            return level(solver_config, grid, sup, inputs[0], inputs[1], ens.t)

        # v(0) = 0, a zero-stride view of no memory
        v_0 = np.broadcast_to(np.complex128(0.0), (ens.size,) + grid.shape)
        steppers = {r: RemainderStepper(solver_config, grid, v_0, current(r), st, work) for r in radii}
        for _ in range(config.K):
            ens.advance(work)
            for r, stepper in steppers.items():
                stepper.step(current(r))
        cols = [pair_norm(ens, steppers, n, inputs) for n in ladder]
        failed = np.logical_or.reduce([stepper.failed for stepper in steppers.values()])
        iterations = sum(stepper.member_steps for stepper in steppers.values())
        return np.stack(cols, axis=-1), failed, iterations

    def member_bytes(ens: PathEnsemble) -> int:
        # measure's workspace takes the place of the ensemble's own scratch,
        # and each radius holds z and G's half on the modes st stores
        work = workspace(grid, sup, 1, ens.scratch_size)
        held = len(radii) * (math.prod(st.modes.shape) + math.prod(st.modes.half_shape))
        return ens.member_bytes(work.size) + work.itemsize * held

    blocks = _ensemble_blocks(config, measure, member_bytes)
    kept = Samples(np.concatenate([block[~failed] for block, failed, _ in blocks]))
    failed_total = sum(int(failed.sum()) for _, failed, _ in blocks)
    # member-steps by their own Picard iteration count, over radii and tiles
    picard = sum(iterations for _, _, iterations in blocks)
    medians = np.median(kept.values, axis=0) if kept.count else kept.mean  # none kept: nan

    rows: list[list[object]] = []
    for j, n in enumerate(ladder):
        rows.append(["point", n, float(medians[j]), float(kept.mean[j]), float(kept.stderr[j])])
    decreasing = bool(np.all(np.diff(medians) < 0.0))
    rows.append(["excluded", "", float(failed_total), "", ""])
    verdict = Verdict(
        name="solver_convergence_median_decreasing",
        passed=decreasing and failed_total == 0,
        value=float(np.max(np.diff(medians))) if len(medians) > 1 else float("nan"),
        tolerance=f"median ||chi(u_n - u_2n)(T)||_H^-s strictly decreasing over ladder, M={config.M}",
    )
    return StudyResult(
        study="solver_convergence",
        config=config,
        columns=["record", "n", "median", "mean", "stderr"],
        rows=rows,
        verdicts=[verdict],
        notes=[
            f"coupled solves, chi = rho, excluded realizations: {failed_total}",
            f"s = {s:.4g}, T = {config.T}, K = {config.K}",
            "picard iterations per step: " + ", ".join(f"{m}: {c}" for m, c in enumerate(picard) if c),
            resolution_note(grid, radii),
        ],
    )


# ---------------------------------------------------------------------------
# Wick centering check (acceptance support; also exercised by unit tests)
# ---------------------------------------------------------------------------

def wick_centering_check(
    config: StudyConfig, probe_ks: list[int] | None = None, z_bound: float = 4.0
) -> StudyResult:
    """Per-cell 4-sigma zero test of the ensemble mean of the Wick square at
    rung config.n, the one radius of the covariance-kind config it takes."""
    grid = config.grid()
    times = uniform_times(config.T, config.K)
    # distinct steps >= 1: psi(0) = 0, so the Wick square at step 0 has no
    # spread and its z-score is 0/0
    probe_ks = sorted(set(probe_ks or (max(1, config.K * j // 4) for j in (1, 2, 3, 4))))
    cells = int(np.prod(grid.shape))

    def measure(ens: PathEnsemble) -> dict[int, np.ndarray]:
        return _at_steps(ens, probe_ks, lambda e: e.wick_values(config.n).reshape(e.size, cells))

    acc = _samples(_ensemble_blocks(config, measure))

    rows: list[list[object]] = []
    z_max = []
    for k in probe_ks:
        z = np.abs(acc[k].mean) / acc[k].stderr
        z_max.append(float(z.max()))
        rows.append([float(times[k]), float(np.abs(acc[k].mean).max()), z_max[-1]])
    # np.max keeps a NaN, so a probe without a finite z fails the verdict
    worst = float(np.max(z_max))
    verdict = Verdict(
        name="wick_mean_zero_4sigma",
        passed=worst <= z_bound,
        value=worst,
        tolerance=f"per-cell |mean|/SE <= {z_bound} at all probed times, M={config.M}",
    )
    return StudyResult(
        study="wick_centering",
        config=config,
        columns=["t", "max_abs_mean", "max_z"],
        rows=rows,
        verdicts=[verdict],
    )
