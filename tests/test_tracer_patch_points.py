"""The benchmark tracer's patch points: every name it wraps still exists in
the package, and its undo puts every original object back."""

import importlib.util
from pathlib import Path

import wsnl.cli
import wsnl.secondmoment
import wsnl.snapshots
import wsnl.solver
import wsnl.stochastic
import wsnl.studies
from wsnl.grid import SpectralGrid
from wsnl.stochastic import PathEnsemble
from wsnl.studies import MeanAccumulator

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
