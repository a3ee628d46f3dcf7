"""Single source of truth for model constants, parameter windows, and covariance oracles.

Everything quantitative that other modules compare against lives here: the
smoothing-gain table kappa(d, alpha), the solvability thresholds alpha_d (both the
main and the weaker reference table), the admissibility predicate for Strichartz
pairs, the per-dimension eta windows, and the closed-form lattice covariances of
the truncated stochastic convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridError, SpectralGrid, bessel_weight, truncation_mask
from .secondmoment import _moment

INF = math.inf

# Solvability thresholds alpha_d for the deformed equation, per dimension.
ALPHA_THRESHOLDS = {1: 1.0 / 4.0, 2: 5.0 / 6.0, 3: 17.0 / 12.0}
# Weaker thresholds of the first (non-deformed) well-posedness result, kept as
# labeled reference constants only; no solver path targets them.
WEAK_ALPHA_THRESHOLDS = {1: 7.0 / 20.0, 2: 18.0 / 20.0, 3: 29.0 / 20.0}
WEAK_S_BOUNDS = {1: 3.0 / 20.0, 2: 1.0 / 10.0, 3: 1.0 / 24.0}
# Per-dimension default Strichartz pairs.
DEFAULT_PAIRS = {1: (INF, 2.0), 2: (4.0, 4.0), 3: (2.0, 6.0)}


class ParameterError(ValueError):
    """A model-parameter constraint is violated."""


def _check_dimension(d: int) -> None:
    if d not in (1, 2, 3):
        raise ParameterError(f"dimension must be 1, 2 or 3, got {d}")


def _check_alpha_window(d: int, alpha: float) -> None:
    if not (d / 4.0 < alpha < d / 2.0):
        raise ParameterError(
            f"alpha must satisfy d/4 < alpha < d/2, i.e. {d/4:.4g} < alpha < {d/2:.4g}; "
            f"got alpha = {alpha}"
        )


def kappa(d: int, alpha: float) -> float:
    """Multilinear smoothing gain exponent for the Duhamel-convolved square."""
    _check_dimension(d)
    _check_alpha_window(d, alpha)
    if d == 1:
        return 1.0 - alpha
    if d == 2:
        return 1.5 - alpha
    return 2.0 - alpha if alpha >= 1.0 else 1.0


def alpha_threshold(d: int, weak: bool = False) -> float:
    """Solvability threshold alpha_d; weak=True returns the earlier, weaker table."""
    _check_dimension(d)
    return WEAK_ALPHA_THRESHOLDS[d] if weak else ALPHA_THRESHOLDS[d]


def weak_s_bound(d: int) -> float:
    """Upper regularity bound s_d that accompanies the weak threshold table."""
    _check_dimension(d)
    return WEAK_S_BOUNDS[d]


def is_admissible(p: float, q: float, d: int) -> bool:
    """Schrodinger admissibility: 2/p + d/q = d/2 with (p, q, d) != (2, inf, 2)."""
    _check_dimension(d)
    if p < 2 or q < 2:
        return False
    if (p, q, d) == (2.0, INF, 2):
        return False
    lhs = (0.0 if p == INF else 2.0 / p) + (0.0 if q == INF else d / q)
    return abs(lhs - d / 2.0) < 1e-12


def eta_window(d: int, s: float) -> tuple[float, float]:
    """Open window (2s, upper_d(s)) of valid local-smoothing budgets eta."""
    _check_dimension(d)
    if d == 1:
        upper = min(0.5, 0.75 - s)
    elif d == 2:
        upper = 0.5 - s
    else:
        upper = 0.25 - s
    return 2.0 * s, upper


def default_eta(d: int, s: float) -> float:
    lo, hi = eta_window(d, s)
    if not lo < hi:
        raise ParameterError(
            f"eta window ({lo:.4g}, {hi:.4g}) is empty for d={d}, s={s:.4g}; "
            f"alpha must exceed the threshold alpha_{d} = {alpha_threshold(d):.6g}"
        )
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class PaperParams:
    """Model parameters with every constraint enforced at construction.

    s is derived as d/2 - alpha + eps; eta defaults to the midpoint of its
    per-dimension window; the Strichartz pair defaults to the per-dimension
    choice (inf,2) / (4,4) / (2,6).
    """

    d: int
    alpha: float
    eps: float = 0.01
    n: float = 32.0
    eta: float | None = None
    pair: tuple[float, float] | None = None

    s: float = field(init=False)
    theta: float = field(init=False)

    def __post_init__(self) -> None:
        _check_dimension(self.d)
        _check_alpha_window(self.d, self.alpha)
        if self.eps <= 0:
            raise ParameterError(f"eps must be > 0, got {self.eps}")
        if self.n < 0:
            raise ParameterError(f"truncation radius must be >= 0, got {self.n}")
        s = self.d / 2.0 - self.alpha + self.eps
        object.__setattr__(self, "s", s)
        if not s > self.d / 2.0 - self.alpha:
            raise ParameterError("s must exceed d/2 - alpha strictly")
        lo, hi = eta_window(self.d, s)
        eta = self.eta if self.eta is not None else default_eta(self.d, s)
        if not lo < eta < hi:
            raise ParameterError(
                f"eta = {eta:.6g} outside the d={self.d} window ({lo:.6g}, {hi:.6g})"
            )
        object.__setattr__(self, "eta", eta)
        theta = s / eta
        if not 0.0 < theta < 0.5:
            raise ParameterError(f"theta = s/eta = {theta:.6g} must lie in (0, 1/2)")
        object.__setattr__(self, "theta", theta)
        pair = self.pair if self.pair is not None else DEFAULT_PAIRS[self.d]
        if not is_admissible(pair[0], pair[1], self.d):
            raise ParameterError(f"pair {pair} is not Schrodinger admissible in d={self.d}")
        object.__setattr__(self, "pair", tuple(float(v) for v in pair))

    @property
    def kappa(self) -> float:
        return kappa(self.d, self.alpha)


# ---------------------------------------------------------------------------
# Lattice covariance oracles
# ---------------------------------------------------------------------------

def _masked_weights(grid: SpectralGrid, n: float, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Boolean ball mask and the extracted weights (1+|xi|^2)^{-alpha}, in C order.

    Both spectral_mass and covariance_oracle reduce exactly this vector, so the
    oracle at (s=t, x=y) reproduces the renormalization constant bit for bit.
    """
    grid.check_radius(n)
    mask = truncation_mask(grid, n).astype(bool)
    return mask, bessel_weight(grid, -2.0 * alpha)[mask]


def spectral_mass(grid: SpectralGrid, n: float, alpha: float) -> float:
    """L^{-d} sum over |xi| <= n of (1 + |xi|^2)^{-alpha}; the t-independent factor of c_n."""
    _, weights = _masked_weights(grid, n, alpha)
    return float(np.sum(weights + 0.0j).real / grid.L**grid.d)


def renorm_constant(grid: SpectralGrid, n: float, alpha: float, t: float) -> float:
    """Wick renormalization constant c_n(t) = E|Psi_n(t, x)|^2, independent of x."""
    if t < 0:
        raise ParameterError(f"time must be >= 0, got {t}")
    return t * spectral_mass(grid, n, alpha)


def covariance_oracle(
    grid: SpectralGrid,
    n: float,
    alpha: float,
    s_time: float,
    t_time: float,
    x,
    y,
) -> tuple[complex, complex]:
    """Closed-form lattice covariances of the truncated stochastic convolution.

    Returns (conjugate pairing E[Psi(s,x) conj(Psi(t,y))], plain pairing
    E[Psi(s,x) Psi(t,y)]).  The conjugate pairing is
    min(s,t) * L^{-d} * sum_{|xi|<=n} e^{i(s-t)|xi|^2} (1+|xi|^2)^{-alpha} e^{i<xi, x-y>}.
    The plain pairing carries the inner time integral
    integral_0^{min} e^{i(s+t-2t')|xi|^2} dt' = e^{i(s+t)|xi|^2} M_0(-2|xi|^2, min(s,t))
    per mode, with M_0 the time moment every exact oracle shares, and the
    overall factor (-i)^2 = -1 produced by Ito's isometry for the kernel
    construction; it pairs each mode with its lattice partner -xi.
    """
    if s_time < 0 or t_time < 0:
        raise ParameterError("probe times must be >= 0")
    grid.check_radius(n)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if x.shape != (grid.d,) or y.shape != (grid.d,):
        raise ParameterError(f"probe points must have {grid.d} coordinates")

    mask, weight = _masked_weights(grid, n, alpha)
    xi2 = grid.xi2[mask]
    axes = np.meshgrid(*([grid.xi_axis] * grid.d), indexing="ij")
    phase_x = np.zeros(grid.shape)
    for axis in range(grid.d):
        phase_x = phase_x + axes[axis] * (x[axis] - y[axis])
    phase_x = phase_x[mask]

    tmin = min(s_time, t_time)
    conj_val = tmin * (
        np.sum(weight * (np.exp(1j * (s_time - t_time) * xi2) * np.exp(1j * phase_x)))
        / grid.L**grid.d
    )

    # plain pairing requires the partner mode -xi on the lattice; modes on the
    # asymmetric Nyquist edge have none and contribute nothing.
    flipped = mask.copy()
    for axis in range(grid.d):
        flipped = np.flip(np.roll(flipped, -1, axis=axis), axis=axis)
    pair_mask = (mask & flipped)[mask]
    inner = np.exp(1j * (s_time + t_time) * xi2) * _moment(0, -2 * xi2, tmin)
    plain_val = -np.sum(pair_mask * weight * inner * np.exp(1j * phase_x)) / grid.L**grid.d
    return complex(conj_val), complex(plain_val)


def constants_table(d: int, alpha: float, eps: float = 0.01) -> dict[str, float | str]:
    """Full parameter table for one (d, alpha, eps), as printed by the CLI."""
    _check_dimension(d)
    rows: dict[str, float | str] = {
        "d": float(d),
        "alpha": float(alpha),
        "eps": float(eps),
        "alpha_threshold": alpha_threshold(d),
        "alpha_threshold_weak": alpha_threshold(d, weak=True),
        "weak_s_bound": weak_s_bound(d),
        "pair_p": DEFAULT_PAIRS[d][0],
        "pair_q": DEFAULT_PAIRS[d][1],
    }
    _check_alpha_window(d, alpha)
    s = d / 2.0 - alpha + eps
    lo, hi = eta_window(d, s)
    rows.update(
        {
            "kappa": kappa(d, alpha),
            "s": s,
            "eta_window_lo": lo,
            "eta_window_hi": hi,
        }
    )
    if lo < hi:
        eta = default_eta(d, s)
        rows.update({"eta_default": eta, "theta": s / eta})
    return rows
