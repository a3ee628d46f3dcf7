"""The benchmark tracer's patch points: every name it wraps still exists in
the package, its undo puts every original object back, the solver step
returns what its step counter reads, and every per-member reduction of a
study goes through MeanAccumulator.add, which it times as studies.reduce."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import wsnl.cli
import wsnl.secondmoment
import wsnl.snapshots
import wsnl.solver
import wsnl.stochastic
import wsnl.studies
from wsnl.grid import CutoffRho, SpectralGrid
from wsnl.reference import PaperParams
from wsnl.stochastic import PathEnsemble
from wsnl.solver import SolverConfig, level, step_values, stepping, support, workspace
from wsnl.studies import MeanAccumulator, StudyConfig, run_study

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
OWNERS = (
    wsnl.cli,
    wsnl.secondmoment,
    wsnl.snapshots,
    wsnl.solver,
    wsnl.stochastic,
    wsnl.studies,
    SpectralGrid,
    PathEnsemble,
    MeanAccumulator,
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_existing_names_and_undo_restores_them():
    tracing = load_tracer()
    before = [dict(vars(owner)) for owner in OWNERS]
    undo = tracing.install(tracing.Tracer())
    try:
        patched = [
            (owner, name, orig)
            for owner, attrs in zip(OWNERS, before)
            for name, orig in attrs.items()
            if vars(owner)[name] is not orig
        ]
        assert patched
        for owner, name, orig in patched:
            assert vars(owner)[name].__wrapped__ is orig, name
    finally:
        undo()
    for owner, attrs in zip(OWNERS, before):
        for name, orig in attrs.items():
            assert vars(owner)[name] is orig, (owner, name)


def test_step_values_returns_the_iteration_count_and_failed_mask_the_tracer_reads():
    # the tracer's count_step reads out[1] as the Picard iteration count and
    # out[5] as the per-member failed mask
    grid = SpectralGrid(1, 2 * np.pi, 16)
    params = PaperParams(d=1, alpha=0.3, eps=0.01, n=4)
    config = SolverConfig(params=params, rho=CutoffRho.for_grid(grid), dt=0.1)
    rho_vals = config.rho.evaluate(grid)
    # a 2-member batch: Psi and <I Psi^2> transforms at t = 0 and 0.1, and z
    rng = np.random.default_rng(0)
    psi, ipsi2, z_hat = rng.standard_normal((3, 2) + grid.shape) * (1 + 1j)
    sup = support(rho_vals)
    prev, nxt = (level(config, grid, sup, psi.copy(), ipsi2.copy(), t) for t in (0.0, 0.1))
    st = stepping(config, grid, sup, masked=False)
    out = step_values(grid, z_hat, prev, nxt, st, workspace(grid, sup, 2))
    assert len(out) == 7
    assert type(out[1]) is int and out[1] >= 1
    assert out[5].dtype == bool and out[5].shape == (2,)


@pytest.mark.parametrize(
    "settings, reductions",
    [
        # point means, then their paired decrements
        (dict(kind="cauchy_rate", N=64, ladder=(2.0, 4.0, 8.0)), [(100, 3), (100, 2)]),
        # the kept members' coupled differences, reduced once over all chunks
        (dict(kind="solver_convergence", N=64, K=8, ladder=(2.0, 4.0)), [(100, 2)]),
    ],
    ids=["cauchy", "converge"],
)
def test_every_reduction_goes_through_mean_accumulator_add(settings, reductions, monkeypatch):
    calls = []
    add = MeanAccumulator.add

    def recording_add(self, block):
        calls.append(np.array(block))
        add(self, block)

    monkeypatch.setattr(MeanAccumulator, "add", recording_add)
    res = run_study(StudyConfig(M=100, chunk=40, seed=9, **settings))
    assert [block.shape for block in calls] == reductions
    # every mean the rows report is the mean of one recorded block
    mean = res.columns.index("value" if res.study == "cauchy_rate" else "mean")
    means = [row[mean] for row in res.rows if row[0] in ("point", "decrement")]
    assert means == [float(m) for block in calls for m in block.mean(axis=0)]
