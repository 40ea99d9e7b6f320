"""The program-side contract of the benchmark in perfbench/.

The tracer wraps every name of `spans.LAYER_OF` on `transolve.training`,
and the least-squares check recomputes the optimum of a batch from the
explicit system.  A refactor that breaks either fails here, without a
benchmark run.  perfbench/ is only read.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from transolve import training
from transolve.assembly import solve_parameter_batch
from transolve.cutoffs import default_cutoff_config
from transolve.geometry import build_grid_geometry
from transolve.nets import NetConfig, init_params
from transolve.reference import RhsSpec
from transolve.sampling import sample_collocation, sample_parameters
from transolve.singular import singular_evals_from_cache
from transolve.training import EpochData, _composed_cache, vertex_eigenpairs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load(name):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load


def test_every_traced_name_is_bound_on_training(perfbench_module):
    spans = perfbench_module("spans")
    missing = [name for name in spans.LAYER_OF if not callable(getattr(training, name, None))]
    assert not missing


def test_ls_check_accepts_the_batched_solve_in_2d(perfbench_module):
    checks = perfbench_module("checks")
    g = build_grid_geometry(2, cuts_x=[0.0], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])
    rhs = RhsSpec.for_geometry("corner2d", g)
    cut = default_cutoff_config(g)
    quad = sample_collocation(g, 12, 6, np.random.default_rng(0))
    parameters = sample_parameters(np.random.default_rng(1), 4, g.n_subdomains, 0.1, 10.0)
    pairs_per_p = vertex_eigenpairs(g, parameters, 2)
    data = EpochData(g, cut, rhs, quad, parameters, pairs_per_p, 5.0)
    cache, *_ = _composed_cache(init_params(NetConfig(2, (8,), 2, 4), 2), data, need_tape=False)
    sing = [singular_evals_from_cache(cache.polar, pairs) for pairs in pairs_per_p]
    assert all(s.shape[1] > 0 for s in sing)
    batch = solve_parameter_batch(cache, parameters, sing)
    for k in range(len(parameters)):
        excess = checks.ls_excess(cache, parameters[k], sing[k], float(batch.losses[k]))
        assert excess <= checks.LS_RTOL
