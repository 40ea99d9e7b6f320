"""The program-side contract of the benchmark in perfbench/.

The tracer wraps every name of `spans.LAYER_OF` on `transolve.training`,
and the least-squares check recomputes the optimum of a batch from the
explicit system.  A refactor that breaks either fails here, without a
benchmark run.  perfbench/ is only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from transolve import eigen, training
from transolve.assembly import solve_parameter_batch
from transolve.cutoffs import default_cutoff_config
from transolve.nets import NetConfig, init_params
from transolve.reference import RhsSpec
from transolve.sampling import sample_collocation, sample_parameters
from transolve.singular import singular_evals_from_cache
from transolve.training import (
    EpochData,
    _composed_cache,
    loss_and_param_gradient,
    vertex_eigenpairs,
)

from conftest import geom_2x2, geom_3x3

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


def test_the_benchmark_checks_use_the_programs_selection_band(perfbench_module):
    """perfbench/checks.py keeps its own copy of the guard band that
    `select_singular` applies; the exponent checks are only right while the
    two agree."""
    assert perfbench_module("checks").SELECT_BAND == eigen.SELECT_BAND


@pytest.fixture
def benchmark_script(monkeypatch):
    """perfbench/run.py, loaded as the benchmark runs it.  Loading it runs
    its imports of the program; its modules leave sys.modules and sys.path
    afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings by name
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(run)
    finally:
        for name in set(sys.modules) - before:
            if str(getattr(sys.modules[name], "__file__", None) or "").startswith(str(PERFBENCH)):
                del sys.modules[name]
    return run


def test_the_benchmark_script_imports_and_names_the_declared_workloads(benchmark_script):
    """A name run.py uses that the program no longer has fails its load."""
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(benchmark_script.WORKLOADS) == sorted(w["name"] for w in declared)


def test_the_benchmark_capture_sees_the_singular_block(benchmark_script, monkeypatch):
    """run.py's `Capture` wraps `training.solve_parameter_batch` and binds
    its singular block by the keyword ``singular_evals_per_p``.  One
    gradient evaluation on the 3x3 layout with singular modes reaches it
    there, and the benchmark's least-squares check of each parameter, on
    its row of the block, passes."""
    # held by monkeypatch, so that teardown restores what Capture replaces
    for name in ("prepare_epoch", "solve_parameter_batch"):
        monkeypatch.setattr(training, name, getattr(training, name))
    capture = benchmark_script.Capture()
    capture.install()
    g = geom_3x3()
    quad = sample_collocation(g, 12, 6, np.random.default_rng(0))
    parameters = sample_parameters(np.random.default_rng(1), 4, g.n_subdomains, 0.1, 10.0)
    pairs_per_p = vertex_eigenpairs(g, parameters, 2)
    assert all(any(pairs) for pairs in pairs_per_p)
    data = EpochData(g, default_cutoff_config(g), RhsSpec.for_geometry("corner2d", g), quad,
                     parameters, pairs_per_p, 1.0)
    _, grad = loss_and_param_gradient(init_params(NetConfig(2, (8,), 4, 8), 2), data)
    assert grad is not None
    (cache, captured, sing, batch), = capture.solves
    assert captured is parameters
    assert sing is not None
    checks = benchmark_script.checks
    for k in range(len(parameters)):
        excess = checks.ls_excess(cache, parameters[k], sing[k], float(batch.losses[k]))
        assert excess <= checks.LS_RTOL


def test_tracer_counts_each_forward_point_once(perfbench_module):
    """`nets.forward_points` sums the points of the traced `forward_jets`
    calls; the backward pass recomputes its tiles' forward without that
    name, so one gradient evaluation counts J1 + J2 points, once."""
    spans = perfbench_module("spans")
    g = geom_2x2()
    rhs = RhsSpec.for_geometry("corner2d", g)
    quad = sample_collocation(g, 12, 6, np.random.default_rng(0))
    parameters = sample_parameters(np.random.default_rng(1), 4, g.n_subdomains, 0.1, 10.0)
    data = EpochData(g, default_cutoff_config(g), rhs, quad, parameters,
                     vertex_eigenpairs(g, parameters, 2), 5.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, grad = loss_and_param_gradient(init_params(NetConfig(2, (8,), 2, 4), 2), data)
    finally:
        tracer.uninstall()
    assert grad is not None
    forward = [span for span in tracer.spans if span[2] == "forward_jets"]
    assert len(forward) == 1
    assert forward[0][5] == {"points": quad.n_interior + quad.n_interface}
    assert any(span[2] == "backward_jets" for span in tracer.spans)


def test_tracer_sees_one_span_of_each_cutoff_stage(perfbench_module):
    """`cutoffs.busy_s` is charged to the traced `composition_factors` and
    `interface_trace_factors` calls on the training namespace: one gradient
    evaluation on the 3x3 layout makes exactly one of each.  A refactor
    that calls either off that namespace reads 0 there, which CI's
    benchmark-smoke stage check also rejects.  Its parameters have singular
    modes, and `assembly.singular_s`'s one `singular_evals_from_cache`
    call builds the sources of the whole batch."""
    spans = perfbench_module("spans")
    g = geom_3x3()
    rhs = RhsSpec.for_geometry("corner2d", g)
    quad = sample_collocation(g, 12, 6, np.random.default_rng(0))
    parameters = sample_parameters(np.random.default_rng(1), 4, g.n_subdomains, 0.1, 10.0)
    pairs_per_p = vertex_eigenpairs(g, parameters, 2)
    assert sum(map(any, pairs_per_p)) > 1
    data = EpochData(g, default_cutoff_config(g), rhs, quad, parameters, pairs_per_p, 1.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, grad = loss_and_param_gradient(init_params(NetConfig(2, (8,), 4, 8), 2), data)
    finally:
        tracer.uninstall()
    assert grad is not None
    names = [span[2] for span in tracer.spans]
    assert names.count("composition_factors") == 1
    assert names.count("interface_trace_factors") == 1
    assert names.count("singular_evals_from_cache") == 1


def test_tracer_sees_one_eigensolve_and_one_selection_per_vertex(perfbench_module):
    """`eigen.solves` counts the traced `solve_eigenpairs` calls and
    `eigen.max_residual` reads the notes of the traced `select_singular`
    calls: a batch is one solve and one selection per parameter and
    vertex, each noting the largest residual of the pairs it kept."""
    spans = perfbench_module("spans")
    g = geom_3x3()
    parameters = sample_parameters(np.random.default_rng(3), 8, g.n_subdomains, 0.1, 10.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        training.vertex_eigenpairs(g, parameters, 2)
    finally:
        tracer.uninstall()
    assert [span[2] for span in tracer.spans].count("solve_eigenpairs") == 1
    selections = [span for span in tracer.spans if span[2] == "select_singular"]
    assert len(selections) == len(parameters) * g.n_singular
    assert all(span[5]["max_residual"] > 0 for span in selections)


def test_tracer_sees_the_solve_of_a_query_on_a_held_basis(perfbench_module, monkeypatch):
    """`assembly.solve_s` of a traced query reads the `solve_parameter_batch`
    span: a query on the basis `final_solve` holds calls the solve by its
    name on the training namespace, as an epoch does."""
    spans = perfbench_module("spans")
    monkeypatch.setattr(training, "_kept", {})
    g = geom_2x2()
    args = (g, np.array([1.0, 10.0, 10.0, 1.0]), RhsSpec.for_geometry("corner2d", g),
            default_cutoff_config(g), 1.0, 16)
    params = init_params(NetConfig(2, (8,), 4, 8), 2)
    training.final_solve(params, *args)
    basis = training._kept["basis"][3]
    tracer = spans.Tracer()
    tracer.install()
    try:
        training.final_solve(params, *args)
    finally:
        tracer.uninstall()
    assert training._kept["basis"][3] is basis
    assert [span[2] for span in tracer.spans].count("solve_parameter_batch") == 1


def test_ls_check_accepts_the_batched_solve_in_2d(perfbench_module):
    checks = perfbench_module("checks")
    g = geom_2x2()
    rhs = RhsSpec.for_geometry("corner2d", g)
    cut = default_cutoff_config(g)
    quad = sample_collocation(g, 12, 6, np.random.default_rng(0))
    parameters = sample_parameters(np.random.default_rng(1), 4, g.n_subdomains, 0.1, 10.0)
    pairs_per_p = vertex_eigenpairs(g, parameters, 2)
    data = EpochData(g, cut, rhs, quad, parameters, pairs_per_p, 5.0)
    cache, *_ = _composed_cache(init_params(NetConfig(2, (8,), 2, 4), 2), data)
    sing = singular_evals_from_cache(cache.polar, pairs_per_p)
    assert all(any(pairs) for pairs in pairs_per_p)
    batch = solve_parameter_batch(cache, parameters, sing)
    for k in range(len(parameters)):
        excess = checks.ls_excess(cache, parameters[k], sing[k], float(batch.losses[k]))
        assert excess <= checks.LS_RTOL
