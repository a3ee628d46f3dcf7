"""One configuration schema for the command line and the studies.

Every configuration key is a field of StudyConfig, and every field is a key;
the values no key sets are constants (HOELDER_LAGS here, the Picard limits in
solver.py, the smoothing probes and the renormalization slope tolerance in
studies.py).  A field's metadata carries the generic default, the parser of
the `key = value` grammar and the check, whose message names the violated
constraint.  One table, KINDS, says what each kind of run is (see Kind).
A config resolves in one order: the generic defaults, then its kind's
defaults, then the values the caller set; an alpha still unset then takes its
per-dimension default.  Validation (validate_config) reports every error at
once, field checks and per-kind checks together.  A config parsed from text
has no kind unless the text sets `study`: the subcommand that runs it binds
one (for_kind).  The kind decides the rest of a run: its radii, whether it
tracks the Wick squares, its z and its solver settings; the studies and the
CLI read them here.

Grammar: UTF-8 text, one `key = value` per line, `#` starts a comment, blank
lines ignored.  Unknown keys are rejected and duplicate keys are reported with
both line numbers.  resolved_pairs writes a config back in this grammar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from . import __version__
from .grid import CutoffRho, GridError, SpectralGrid, check_points, padded_points
from .reference import PaperParams, ParameterError
from .solver import SolverConfig

DEFAULT_ALPHA = {1: 0.3, 2: 0.9, 3: 1.45}
ONE_SIDED_Z = {0.9: 1.2816, 0.95: 1.6449, 0.975: 1.96, 0.99: 2.3263}


@dataclass(frozen=True)
class Kind:
    """What one kind of run is: its subcommand; the truncation radii it reads
    (its one radius "n", its "ladder", "each_rung_and_2n" for every rung n and
    the 2n its verdict compares with it, or None); whether it tracks the Wick
    squares, each radius on its own padded grid; the fewest rungs its verdict
    reads; whether its ladder must double at every rung, as its exponent fits
    of dyadic increments need; whether its verdict is statistical (M >= 100);
    and its defaults, at the scale its acceptance criterion pins."""

    subcommand: str
    radii: str | None = None
    tracks: bool = False
    min_rungs: int = 0
    dyadic_ladder: bool = False
    statistical: bool = False
    defaults: dict = field(default_factory=dict)


# Every kind of run, keyed by the `study` that names it.  The subcommands that
# run no study are kinds of their own.  The exponent fits take log-log slopes
# over the 3 increments of 4 rungs, the Cauchy fit a slope over 3 rungs, and
# the coupled solves compare at least 2 medians.
KINDS = {
    "constants": Kind("constants"),
    # members per ensemble block: the march arrays take 1.07 MB per member
    # at N = 256, K = 256, n = 32, 17.0 MB at 16 (stochastic.sample_paths)
    "sample": Kind("sample", "n", tracks=True, defaults=dict(chunk=16)),
    "solve": Kind("solve", "n", tracks=True),
    "covariance": Kind("covariance", "n", statistical=True, defaults=dict(M=4000, n=32.0, K=256)),
    "renorm_rate": Kind(
        "renorm", "ladder", min_rungs=4, dyadic_ladder=True,
        defaults=dict(M=1, ladder=(8.0, 16.0, 32.0, 64.0, 128.0), N=512),
    ),
    # The Cauchy decay exponent tends to 2*eps as n -> oo; on the pinned
    # ladder the exact slope is -0.0620.  eps = 0.04 (still inside the
    # parameter window for d=1, alpha=0.3) makes the adjacent-gap test
    # resolvable at the pinned M = 2000.
    "cauchy_rate": Kind(
        "cauchy", "each_rung_and_2n", min_rungs=3, statistical=True,
        defaults=dict(M=2000, eps=0.04, ladder=(8.0, 16.0, 32.0, 64.0), K=1, T=0.5),
    ),
    # The gain comes from the Duhamel phase 2 xi2.beta T, which oscillates
    # only once n T >~ 1: the ladder starts there.  dt * max resonance rate =
    # (T/K) * 5 n_max^2 must stay below pi, or the trapezoid aliases those
    # oscillations, and 2 n_max <= Nyquist keeps every mode of <I Psi^2>_n,
    # which reaches 2n, on the study grid the study reads it from.  L = 8 pi
    # puts the exact increment exponents within 0.015 of their large-box
    # values; on the 2 pi torus the coarse lattice still shows growth.
    "smoothing": Kind(
        "smoothing", "ladder", tracks=True, min_rungs=4, dyadic_ladder=True, statistical=True,
        defaults=dict(M=2000, ladder=(2.0, 4.0, 8.0, 16.0), T=1.0, K=512, L=8.0 * math.pi, N=256),
    ),
    # K = 32 at T = 0.5 makes the step T/K = 1/64 the smallest lag
    "hoelder": Kind("hoelder", "n", statistical=True, defaults=dict(M=1000, n=32.0, K=32)),
    # finer frequency lattice (L = 8 pi): more modes per dyadic shell, which
    # suppresses the small-shell median bias that otherwise masks the decay.
    # chunk = 100 members per thread task, each chunk marched in tiles within
    # studies.TILE_BYTES: about 228 KB per member at N = 1024 and five
    # radii, so two tiles of 50
    "solver_convergence": Kind(
        "converge", "each_rung_and_2n", tracks=True, min_rungs=2, statistical=True,
        defaults=dict(M=200, eps=0.045, ladder=(8.0, 16.0, 32.0, 64.0), T=0.25, K=128,
                      L=8.0 * math.pi, N=1024, chunk=100),
    ),
}
# the hoelder study's time lags h, each measured from the base time T/2
HOELDER_LAGS = (0.5 / 32, 0.5 / 16, 0.5 / 8, 0.5 / 4)


def hoelder_steps(T: float, K: int) -> list[float]:
    """The steps j at which the times T/2 and T/2 + h, for each lag h, fall on
    the grid t = j T/K; validate_config checks that every j is whole."""
    return [K / 2] + [K / 2 + h * K / T for h in HOELDER_LAGS]


class ConfigError(Exception):
    """Invalid configuration; `errors` lists every problem found."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_ladder(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip())


def _increasing_radii(ladder) -> bool:
    return (
        len(ladder) > 0
        and all(0 < r < math.inf for r in ladder)
        and all(a < b for a, b in zip(ladder, ladder[1:]))
    )


def _key(default, parse, ok=None, must="", key=None, record=False):
    """A config field: generic default, `key = value` parser, check `ok` with
    the constraint it tests, and whether verdict.txt records it.  Unset fields
    hold None until the config resolves."""
    meta = dict(default=default, parse=parse, ok=ok, must=must, key=key, record=record)
    return field(default=None, metadata=meta)


@dataclass
class StudyConfig:
    """One run's configuration; construction resolves and validates it."""

    kind: str | None = _key(
        None, str, lambda v: v in KINDS, "be one of " + ", ".join(KINDS), key="study"
    )
    seed: int = _key(2024, int, lambda v: 0 <= v < 2**64, "lie in [0, 2**64)", record=True)
    d: int = _key(1, int, lambda v: v in (1, 2, 3), "be 1, 2 or 3", record=True)
    alpha: float = _key(None, float, math.isfinite, "be finite", record=True)
    eps: float = _key(0.01, float, lambda v: 0 < v < math.inf, "be > 0 and finite", record=True)
    eta: float | None = _key(None, float, math.isfinite, "be finite")
    L: float = _key(
        2.0 * math.pi, float, lambda v: 0 < v < math.inf, "be positive and finite", record=True
    )
    N: int = _key(256, int, lambda v: v % 2 == 0 and v >= 4, "be even and >= 4", record=True)
    T: float = _key(0.5, float, lambda v: 0 < v <= 1.0, "lie in (0, 1]", record=True)
    K: int = _key(256, int, lambda v: v >= 1, "be >= 1", record=True)
    n: float = _key(32.0, float, lambda v: 0 <= v < math.inf, "be >= 0 and finite", record=True)
    ladder: tuple[float, ...] = _key(
        (8.0, 16.0, 32.0, 64.0),
        _parse_ladder,
        _increasing_radii,
        "be a non-empty, strictly increasing list of positive finite radii",
        record=True,
    )
    M: int | None = _key(None, int, lambda v: v >= 1, "be >= 1", record=True)
    confidence: float = _key(
        0.95,
        float,
        lambda v: round(v, 4) in ONE_SIDED_Z,
        f"be one of {sorted(ONE_SIDED_Z)}",
        record=True,
    )
    dealias: bool = _key(True, _parse_bool)
    solver_mode: str = _key(
        "step-local", str, lambda v: v in ("step-local", "global"), "be step-local or global"
    )
    threads: int = _key(1, int, lambda v: v >= 1, "be >= 1")
    chunk: int = _key(500, int, lambda v: v >= 1, "be >= 1")
    out: str = _key("out", str)

    def __post_init__(self) -> None:
        # the fields the caller set (all but kind), which for_kind carries over
        self.provided = frozenset(
            f.name for f in fields(self) if f.name != "kind" and getattr(self, f.name) is not None
        )
        # its kind's entry of KINDS; a config with no kind reads no radius
        self.rules = KINDS.get(self.kind, Kind(""))
        for f in fields(self):
            if getattr(self, f.name) is None:
                setattr(self, f.name, self.rules.defaults.get(f.name, f.metadata["default"]))
        if self.alpha is None:
            self.alpha = DEFAULT_ALPHA.get(self.d)
        self.ladder = tuple(float(v) for v in self.ladder)
        errors = validate_config(self)
        if errors:
            raise ConfigError(errors)

    def for_kind(self, kind: str) -> StudyConfig:
        """The values this config's caller set, resolved for `kind`."""
        return StudyConfig(kind=kind, **{name: getattr(self, name) for name in self.provided})

    def grid(self) -> SpectralGrid:
        return SpectralGrid(self.d, self.L, self.N)

    def params(self) -> PaperParams:
        return PaperParams(d=self.d, alpha=self.alpha, eps=self.eps, n=self.n, eta=self.eta)

    def radii(self) -> list[float]:
        """The truncation radii a run of this kind uses, ascending; none until
        a kind is bound, since only the kind says which of n and ladder it
        reads."""
        if self.rules.radii == "each_rung_and_2n":
            return sorted({r for n in self.ladder for r in (n, 2 * n)})
        return {"n": [self.n], "ladder": list(self.ladder)}.get(self.rules.radii, [])

    @property
    def tracks(self) -> bool:
        """Whether a run of this kind tracks the Wick squares and their
        Duhamel convolutions."""
        return self.rules.tracks

    @property
    def unread(self) -> str:
        """The one of n and ladder that a run of this kind does not read."""
        return "n" if self.rules.radii in ("ladder", "each_rung_and_2n") else "ladder"

    @property
    def z(self) -> float:
        """The one-sided normal quantile at this config's confidence."""
        return ONE_SIDED_Z[round(self.confidence, 4)]

    def solver(self) -> SolverConfig:
        """The solver settings of this config's solves, with the box's cutoff."""
        return SolverConfig(
            params=self.params(), rho=CutoffRho.for_grid(self.grid()), dt=self.T / self.K,
            T=self.T, dealias=self.dealias, mode=self.solver_mode,
        )

    def provenance(self) -> dict[str, object]:
        """The values verdict.txt records, in schema order: of n and ladder
        only the one the kind reads."""
        out: dict[str, object] = {"package_version": __version__}
        for f in fields(self):
            if f.metadata["record"] and f.name != self.unread:
                out[f.name] = _text(getattr(self, f.name))
        return out

    def resolved_pairs(self) -> dict[str, object]:
        """The `key = value` pairs that reproduce this run, in schema order.

        `out` is left to the re-run, and of n and ladder only the one the
        kind reads is written.
        """
        skip = {"out", self.unread}
        pairs: dict[str, object] = {}
        for key, f in KEYS.items():
            value = getattr(self, f.name)
            if key not in skip and value is not None:
                pairs[key] = _text(value)
        return pairs


KEYS = {f.metadata["key"] or f.name: f for f in fields(StudyConfig)}


def _text(value: object) -> object:
    return ",".join(repr(v) for v in value) if isinstance(value, tuple) else value


def validate_config(config: StudyConfig) -> list[str]:
    """Every constraint a resolved config violates, each named in its message."""
    errors: list[str] = []
    bad: set[str] = set()
    for f in fields(config):
        ok, value = f.metadata["ok"], getattr(config, f.name)
        if ok is not None and value is not None and not ok(value):
            errors.append(f"{f.metadata['key'] or f.name} must {f.metadata['must']}, got {value!r}")
            bad.add(f.name)
    if not bad & {"d", "alpha", "eps", "eta", "n"}:
        try:
            config.params()
        except ParameterError as exc:
            errors.append(str(exc))
    rules = config.rules
    if rules.statistical and "M" not in bad and config.M < 100:
        errors.append(f"M must be >= 100 for a statistical verdict, got {config.M}")
    if config.kind == "solver_convergence" and config.solver_mode == "global":
        # its coupled solves march step by step, one stepper per radius
        errors.append("solver_mode must be step-local for a solver_convergence study, got 'global'")
    if config.kind == "hoelder" and not bad & {"T", "K"}:
        # every lag is measured from the base time T/2 inside [0, T], and the
        # study reads both ends of each at steps of its march
        end = config.T / 2.0 + max(HOELDER_LAGS)
        if end > config.T + 1e-12:
            errors.append(
                f"hoelder lags need T/2 + max(lags) <= T: "
                f"{config.T / 2.0:g} + {max(HOELDER_LAGS):g} = {end:g} > T = {config.T:g}"
            )
        if any(abs(j - round(j)) > 1e-6 for j in hoelder_steps(config.T, config.K)):
            errors.append(
                f"hoelder needs T/2 and T/2 + h for every lag h in {HOELDER_LAGS} on the "
                f"K-step grid, at multiples of T/K = {config.T / config.K:g}: "
                f"got T = {config.T:g}, K = {config.K}"
            )
    if "ladder" not in bad and len(config.ladder) < rules.min_rungs:
        errors.append(
            f"ladder must have >= {rules.min_rungs} rungs for a {config.kind} study, "
            f"got {len(config.ladder)}"
        )
    if rules.dyadic_ladder and "ladder" not in bad:
        ladder = config.ladder
        if any(b != 2 * a for a, b in zip(ladder, ladder[1:])):
            errors.append(
                f"ladder must double at every rung for a {config.kind} study, got {ladder!r}"
            )
    radii = config.radii()
    if radii and not bad & {"kind", "d", "L", "N", "n", "ladder"}:
        # the radius bound and the padded sizes are read off one axis, so no
        # N^d array is built to check them
        top = max(radii)
        try:
            check_points(config.d, config.N)
            axis = SpectralGrid(1, config.L, config.N)
            axis.check_radius(top)
        except GridError as exc:
            errors.append(str(exc))
        else:
            if config.tracks:
                M = padded_points(axis, top)
                try:
                    check_points(config.d, M)
                except GridError as exc:
                    errors.append(f"rung {top:g} needs a padded grid of {M} points per axis: {exc}")
        nyquist = math.pi * config.N / config.L
        if config.kind == "smoothing" and 2.0 * max(config.ladder) > nyquist + 1e-12:
            # <I Psi^2>_n carries modes up to 2n and the study reads all of it
            # on the study grid, which holds none beyond Nyquist
            errors.append(
                f"smoothing ladder needs 2*max(ladder) <= Nyquist bound pi*N/L "
                f"(the study reads <I Psi^2>_n, which reaches 2n, on the study grid): "
                f"2*{max(config.ladder):g} > {nyquist:.6g}"
            )
    return errors


def parse_config(text: str, overrides: list[str] | None = None) -> StudyConfig:
    """Parse the key = value grammar; raise ConfigError carrying ALL problems.

    `overrides` are `KEY=VALUE` strings (from --set) that replace file values.
    """
    errors: list[str] = []
    values: dict[str, object] = {}
    seen: dict[str, int] = {}

    def assign(where: str, key: str, raw: str) -> None:
        if key not in KEYS:
            errors.append(f"{where}: unknown key {key!r}")
            return
        try:
            values[KEYS[key].name] = KEYS[key].metadata["parse"](raw.strip())
        except ValueError as exc:
            errors.append(f"{where}: bad value for {key!r}: {exc}")

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected `key = value`, got {raw_line.strip()!r}")
            continue
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key in seen:
            errors.append(f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})")
            continue
        if key in KEYS:
            seen[key] = lineno
        assign(f"line {lineno}", key, raw_value)
    for item in overrides or []:
        if "=" not in item:
            errors.append(f"--set expects KEY=VALUE, got {item!r}")
            continue
        key, _, raw_value = item.partition("=")
        assign("--set", key.strip(), raw_value)
    if errors:
        raise ConfigError(errors)
    return StudyConfig(**values)
