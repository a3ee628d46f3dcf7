"""Exact lattice second moments of the quadratic stochastic objects.

For the truncated convolution driven by white noise, every second moment of the
Wick square and of its Duhamel convolution reduces, by the Gaussian pairing
rule, to a double sum over frequency pairs with closed-form time kernels. These
are exact expectations of the continuous-time lattice objects, so they serve as
deterministic oracles for the Monte Carlo ladders and as a scan tool: the pair
(xi2 = 0, xi1 = beta) has resonance phase exactly zero and is the finite-box
channel that escapes the oscillatory gain.  The time-stepped objects of
stochastic.py match them up to the Duhamel convolution's step-size error:
psi is exact in distribution at every grid time, for the conjugate pairing
E[psi psi-bar] and the plain pairing E[psi(xi) psi(-xi)] alike (each step
adds its exact phase-weighted noise increment), and the Duhamel convolution
is a trapezoid sum.

The oracle evaluates its kernels once over a flattened table of every pair
(xi2, xi1) and reduces per shift beta; the per-beta sums are cached per
configuration, so each further sigma costs one weighted sum.  An empty table
(no mode left in the ball) gives the exact value 0.

Every exact oracle shares one time-moment family, M_k(r, T) =
int_0^T u^k e^{iru} du (_moment) and its nested form
int_0^T e^{iou} int_0^u v^k e^{iiv} dv du (_nested), each in closed form by
integration by parts.  The plain-channel kernel, the Wick kernel and
reference.covariance_oracle call them; conjugate_kernel, which equals
2 Re _nested(2, kappa, -kappa, T), keeps its shorter real closed form.  The
sampler's one-step factor (noise.phase_integral_factor) keeps its own sinc
form, see there.

Conventions: a = |xi1|^2, b = |xi2|^2, B = |beta|^2 with xi1 = xi2 + beta;
conjugate-channel resonance kappa = a - b - B (= 2 <xi2, beta>).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grid import SpectralGrid


def _powers(x: np.ndarray, m: int) -> list[np.ndarray]:
    """[x, x**2, ..., x**m]; x itself, because numpy takes x**1 by its general power."""
    return [x] + [x**p for p in range(2, m + 1)]


def _moment(k: int, r: np.ndarray, T: float) -> np.ndarray:
    """M_k(r, T) = int_0^T u^k e^{iru} du, integrated by parts k times; T^{k+1}/(k+1) at r = 0."""
    z = r == 0
    ir = _powers(1j * np.where(z, 1.0, r), k + 1)
    e = np.exp(ir[0] * T)
    out = 0.0
    for j in range(k):
        out = out + (-1) ** j * math.perm(k, j) * T ** (k - j) * e / ir[j]
    out = out + (-1) ** k * math.factorial(k) * (e - 1.0) / ir[k]
    return np.where(z, T ** (k + 1) / (k + 1), out)


def _nested(
    k: int, o: np.ndarray, i: np.ndarray, T: float, at_o: tuple | None = None
) -> np.ndarray:
    """int_0^T e^{iou} int_0^u v^k e^{iiv} dv du: the inner integral by parts k times
    leaves terms M_m(o + i) and the edge M_0(o + i) - M_0(o); M_{k+1}(o)/(k+1) at i = 0.
    at_o, when given, is (M_0(o), M_{k+1}(o)), which calls sharing o evaluate once."""
    m0_o, mk_o = (_moment(0, o, T), _moment(k + 1, o, T)) if at_o is None else at_o
    z = i == 0
    ii = _powers(1j * np.where(z, 1.0, i), k + 1)
    out = 0.0
    for j in range(k):
        out = out + (-1) ** j * math.perm(k, j) * _moment(k - j, o + i, T) / ii[j]
    edge = _moment(0, o + i, T) - m0_o
    out = out + (-1) ** k * math.factorial(k) * edge / ii[k]
    return np.where(z, mk_o / (k + 1), out)


def conjugate_kernel(kappa: np.ndarray, T: float) -> np.ndarray:
    """T1(kappa) = int int min(t1,t2)^2 e^{i(t1-t2) kappa}; equals T^4/6 at kappa = 0."""
    z = kappa == 0
    k = np.where(z, 1.0, kappa)
    out = 2.0 * T**2 / k**2 - 4.0 * (1.0 - np.cos(k * T)) / k**4
    return np.where(z, T**4 / 6.0, out)


def plain_kernel(a: np.ndarray, b: np.ndarray, B: np.ndarray, T: float) -> np.ndarray:
    """T2(a, b, B): the plain-channel double time integral (see module docstring)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    q = a - b + B  # outer rate for t1 < t2
    p = a - b - B
    out = np.zeros(np.broadcast(a, b, B).shape, dtype=np.complex128)

    both = (a != 0) & (b != 0)
    if np.any(both):
        aa, bb = a[both], b[both]
        qq, pp = q[both], p[both]
        pref = 1.0 / (4.0 * aa * bb)
        # each outer rate's M_0 and M_1 serve its four calls
        at_q = (_moment(0, qq, T), _moment(1, qq, T))
        at_p = (_moment(0, pp, T), _moment(1, pp, T))
        i_lt = (
            _nested(0, qq, pp, T, at_q)
            - _nested(0, qq, pp - 2 * aa, T, at_q)
            - _nested(0, qq, pp + 2 * bb, T, at_q)
            + _nested(0, qq, pp + 2 * (bb - aa), T, at_q)
        )
        i_gt = (
            _nested(0, pp, qq, T, at_p)
            - _nested(0, pp, qq - 2 * aa, T, at_p)
            - _nested(0, pp, qq + 2 * bb, T, at_p)
            + _nested(0, pp, qq + 2 * (bb - aa), T, at_p)
        )
        out[both] = pref * (i_lt + i_gt)

    a0 = (a == 0) & (b != 0)
    if np.any(a0):
        bb = b[a0]
        qq, pp = q[a0], p[a0]
        pref = -1.0 / (2j * bb)
        i_lt = _nested(1, qq, pp, T) - _nested(1, qq, pp + 2 * bb, T)
        i_gt = _nested(1, pp, qq, T) - _nested(1, pp, qq + 2 * bb, T)
        out[a0] = pref * (i_lt + i_gt)

    b0 = (b == 0) & (a != 0)
    if np.any(b0):
        aa = a[b0]
        qq, pp = q[b0], p[b0]
        pref = 1.0 / (2j * aa)
        i_lt = _nested(1, qq, pp, T) - _nested(1, qq, pp - 2 * aa, T)
        i_gt = _nested(1, pp, qq, T) - _nested(1, pp, qq - 2 * aa, T)
        out[b0] = pref * (i_lt + i_gt)

    zz = (a == 0) & (b == 0)
    if np.any(zz):
        qq, pp = q[zz], p[zz]
        out[zz] = _nested(2, qq, pp, T) + _nested(2, pp, qq, T)
    return out


def _lattice_axis(grid: SpectralGrid) -> np.ndarray:
    return np.sort(np.round(grid.xi_axis / (2 * np.pi / grid.L)).astype(np.int64))


def _pair_table(grid: SpectralGrid, n: float, alpha: float, drop_zero_mode: bool):
    """Every integer mode pair (xi2, xi1 = xi2 + beta) inside the ball, flattened.

    xi2 runs over the lattice modes with |xi2| <= n and xi1 over the integers
    with |xi1| <= n (at n = Nyquist only xi1 reaches +N/2).  Pairs are sorted
    by beta, then xi2.  Returns (h, betas, starts, xi1, xi2, weights): h is the
    lattice spacing, betas the shifts that have pairs, and starts[j] the index
    of the first pair of betas[j]; d = 1 only (the studies' scan dimension).
    """
    if grid.d != 1:
        raise NotImplementedError("exact second moments are implemented for d = 1")
    h = 2 * np.pi / grid.L
    k = _lattice_axis(grid)
    n_int = int(np.floor(n / h + 1e-9))
    modes2 = k[(np.abs(k) <= n_int)]
    modes1 = np.arange(-n_int, n_int + 1, dtype=np.int64)
    if drop_zero_mode:
        modes1, modes2 = modes1[modes1 != 0], modes2[modes2 != 0]
    xi1, xi2 = (m.ravel() for m in np.meshgrid(modes1, modes2, indexing="ij"))
    weights = np.multiply.outer(
        (1.0 + (h * modes1) ** 2) ** (-alpha), (1.0 + (h * modes2) ** 2) ** (-alpha)
    ).ravel()
    order = np.argsort(xi1 - xi2, kind="stable")  # xi1-major input: xi2 ascends per beta
    xi1, xi2, weights = xi1[order], xi2[order], weights[order]
    beta = xi1 - xi2
    starts = np.flatnonzero(np.diff(beta, prepend=beta[:1] - 1))
    return h, beta[starts], starts, xi1, xi2, weights


_CHUNK = 1 << 13  # pairs per kernel evaluation, which bounds the temporaries


@lru_cache(maxsize=64)
def _beta_sums(
    grid: SpectralGrid, n: float, alpha: float, T: float, drop_zero_mode: bool, kernel: str
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(B, S) per shift beta: B = |beta|^2 and S the real part of the weighted
    sum over its pairs of the time kernel, "wick" or "ipsi2".  sigma
    only weights these sums, so they are cached per configuration.  Each S is
    one np.sum over its beta's pairs, so the sums are those of a loop over beta."""
    h, betas, starts, xi1, xi2, weights = _pair_table(grid, n, alpha, drop_zero_mode)
    bounds = np.append(starts, xi2.size)
    B_beta = [(h * float(beta)) ** 2 for beta in betas]
    sums = []
    j = 0
    while j < len(betas):
        # whole beta groups j..stop-1, holding at most _CHUNK pairs unless one group does
        stop = max(j + 1, int(np.searchsorted(bounds, bounds[j] + _CHUNK, side="right")) - 1)
        lo, hi = bounds[j], bounds[stop]
        a = (h * xi1[lo:hi].astype(np.float64)) ** 2
        b = (h * xi2[lo:hi].astype(np.float64)) ** 2
        if kernel == "wick":
            # conjugate channel: min(T,T)^2 = T^2; plain channel at equal times
            g_a, g_b = _moment(0, -2 * a, T), _moment(0, -2 * b, T)
            acc = T**2 + np.exp(2j * T * (a - b)) * g_a * np.conj(g_b)
        else:
            B = np.repeat(B_beta[j:stop], np.diff(bounds[j : stop + 1]))
            acc = conjugate_kernel(a - b - B, T) + plain_kernel(a, b, B, T)
        terms = weights[lo:hi] * acc
        sums += [
            float(np.sum(terms[start - lo : end - lo]).real)
            for start, end in zip(bounds[j:stop], bounds[j + 1 : stop + 1])
        ]
        j = stop
    return tuple(B_beta), tuple(sums)


def _sigma_total(grid: SpectralGrid, sums: tuple[tuple[float, ...], ...], sigma: float) -> float:
    total = 0.0
    for B, S in zip(*sums):
        total += (1.0 + B) ** sigma * S
    return total / grid.L


def ipsi2_norm_sq_expectation(
    grid: SpectralGrid,
    n: float,
    alpha: float,
    T: float,
    sigma: float,
    drop_zero_mode: bool = False,
) -> float:
    """Exact E || <I Psi^2>_n(T) ||_{H^sigma}^2 (no cutoff localization).

    drop_zero_mode removes the xi = 0 mode from the truncation ball,
    isolating the finite-box resonance atom discussed in the module docstring.
    """
    sums = _beta_sums(grid, float(n), float(alpha), float(T), bool(drop_zero_mode), "ipsi2")
    return _sigma_total(grid, sums, sigma)


def wick_norm_sq_expectation(
    grid: SpectralGrid,
    n: float,
    alpha: float,
    T: float,
    sigma: float,
    drop_zero_mode: bool = False,
) -> float:
    """Exact E || <Psi^2>_n(T) ||_{H^sigma}^2 (no cutoff localization)."""
    sums = _beta_sums(grid, float(n), float(alpha), float(T), bool(drop_zero_mode), "wick")
    return _sigma_total(grid, sums, sigma)
