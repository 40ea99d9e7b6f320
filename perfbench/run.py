#!/usr/bin/env python3
"""LS-ReCoNN benchmark: offline training epochs, online queries, their layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the repository root.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.  See perfbench/README.md for the workloads, the checks
and how the numbers were calibrated.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if not (REPO / "src" / "transolve").is_dir():
    sys.exit(f"perfbench: no transolve package under {REPO / 'src'}; "
             "run from a repository checkout")
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from transolve import training  # noqa: E402
from transolve.cutoffs import default_cutoff_config  # noqa: E402
from transolve.geometry import angular_trace, build_grid_geometry, subdomain_index_many  # noqa: E402
from transolve.nets import NetConfig, init_params  # noqa: E402
from transolve.reference import RhsSpec, exact_1d, fem_solve_2d, relative_l2_errors  # noqa: E402
from transolve.sampling import sample_collocation, sample_parameters  # noqa: E402
from transolve.training import EpochData, Seeds, TrainConfig  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402

OUT_DIR = REPO / ".perfbench_out"
# operation counts below are for a run of REF_SECONDS; --seconds scales them
REF_SECONDS = 20
P_MIN, P_MAX = 0.1, 10.0
INIT_SEED = 7
TEST_SEED = 11


@dataclass(frozen=True)
class Workload:
    dimension: int
    net: NetConfig
    n_params: int
    n_interior: int
    n_interface: int
    n_singular: int
    lr_start: float
    lr_end: float
    val_every: int  # 0: no validation in the epochs; one validation loss after training
    epochs: int  # training epochs per run
    queries: int  # held-out parameters, each solved before and after training
    query_grid: int  # final_solve midpoint grid per axis (per subdomain in 1D)
    fem_grid: int  # conforming FEM reference grid per axis (2D)
    setups: int  # set-ups per run
    primary: str  # operation kind the per-layer metrics are averaged over
    ls_every: int  # check the least-squares solve every this many epochs
    ls_params: int  # ... on this many parameters of the batch (0: all)


NET_2D = NetConfig(2, (30, 30, 30), 16, 32)
NET_1D = NetConfig(1, (30, 30, 30), 10, 40)
WORKLOADS = {
    "train2d-corner": Workload(2, NET_2D, 8, 60, 20, 2, 2e-3, 1e-3, 5,
                               epochs=5, queries=4, query_grid=64, fem_grid=120,
                               setups=5, primary="epoch", ls_every=1, ls_params=0),
    "train1d-sin": Workload(1, NET_1D, 256, 200, 1, 0, 1e-3, 1e-4, 50,
                            epochs=300, queries=64, query_grid=100, fem_grid=0,
                            setups=201, primary="epoch", ls_every=10, ls_params=4),
    "query2d-fine": Workload(2, NET_2D, 8, 60, 20, 2, 2e-3, 1e-3, 0,
                             epochs=3, queries=5, query_grid=96, fem_grid=120,
                             setups=5, primary="query", ls_every=1, ls_params=0),
}

# Fixed inputs of the 1D least-squares probe: an untrained basis whose
# cond(B) is ~1e16, where solving the normal equations cannot reach the
# lstsq optimum.  They do not depend on --seed.
PROBE_INIT_SEED, PROBE_POINTS_SEED, PROBE_PARAMS_SEED, PROBE_PARAMS = 0, 1, 2, 8


def build_geometry(dimension: int):
    if dimension == 1:
        cuts = [np.pi * k / 5 for k in range(1, 5)]
        g = build_grid_geometry(1, cuts_x=cuts, bounds=[(0.0, np.pi)])
        return g, RhsSpec.for_geometry("sin1d", g)
    g = build_grid_geometry(2, cuts_x=[-0.5, 0.25], cuts_y=[-0.25, 0.5],
                            bounds=[(-1.0, 1.0), (-1.0, 1.0)])
    return g, RhsSpec.for_geometry("corner2d", g)


class Capture:
    """Keeps the latest EpochData and least-squares batch the program made.

    Installed on the training namespace for the whole run, so the checks see
    exactly what an epoch computed; each wrapper returns the result unchanged.
    """

    def __init__(self):
        self.epoch_data = None
        self.solves = []

    def install(self):
        prepare, solve = training.prepare_epoch, training.solve_parameter_batch

        def prepare_epoch(*args, **kwargs):
            self.epoch_data = prepare(*args, **kwargs)
            return self.epoch_data

        def solve_parameter_batch(cache, parameters, singular_evals_per_p=None, **kwargs):
            result = solve(cache, parameters, singular_evals_per_p, **kwargs)
            self.solves.append((cache, parameters, singular_evals_per_p, result))
            return result

        training.prepare_epoch = prepare_epoch
        training.solve_parameter_batch = solve_parameter_batch

    def reset(self):
        self.epoch_data = None
        self.solves = []


class Ledger:
    """Counts checked operations; failures of the two known faults are kept
    apart so they are counted without making the run incorrect."""

    KNOWN_FAULTS = ("interface_weights", "ls_probe")

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def check(self, kind: str, ok: bool, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if kind not in self.KNOWN_FAULTS:
                self.unexpected.append(f"{kind}: {detail}")


class Run:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.w = w = WORKLOADS[name]
        scale = seconds / REF_SECONDS
        self.n_epochs = max(1, round(w.epochs * scale))
        self.n_queries = max(1, round(w.queries * scale))
        self.trace = trace
        self.geometry, self.rhs = build_geometry(w.dimension)
        self.cutoff = default_cutoff_config(self.geometry)
        state = np.random.SeedSequence([seed, sorted(WORKLOADS).index(name)]).generate_state(5)
        self.config = TrainConfig(
            iterations=self.n_epochs, lr_start=w.lr_start, lr_end=w.lr_end, theta=1.0,
            n_params=w.n_params, n_interior=w.n_interior, n_interface=w.n_interface,
            p_min=P_MIN, p_max=P_MAX, n_singular=max(w.n_singular, 1),
            seeds=Seeds(*(int(s) for s in state[:3]), INIT_SEED), val_every=w.val_every or 1,
        )
        self.query_params = sample_parameters(
            np.random.default_rng(TEST_SEED), self.n_queries,
            self.geometry.n_subdomains, P_MIN, P_MAX)
        self.tracer = Tracer()
        self.capture = Capture()
        self.capture.install()
        self.ledger = Ledger()
        self.probe = calibrate.SpeedProbe()
        self.timings: list[tuple] = []
        self.counts = {"setup": 0, "epoch": 0, "query": 0, "fem": 0}
        self.times = {"setup": [], "epoch": [], "query": [], "fem": []}
        self.traced_times = {"epoch": [], "query": []}
        self.losses = {"train": [], "val": []}
        self.ls_excess: list[float] = []
        self.oracle_err: list[float] = []
        self.fem_dofs = 0

    # ---- timed operations -------------------------------------------------

    def _timed(self, kind: str, fn):
        """Time one operation; `finish_timing` converts it to nominal host speed.

        In a traced run every second operation of a kind is traced.
        """
        traced = self.trace and kind in self.traced_times and self.counts[kind] % 2 == 1
        self.counts[kind] += 1
        if traced:
            self.tracer.install()
        root = self.tracer.root(kind) if traced else contextlib.nullcontext()
        try:
            with root as span:
                spent = self.probe.spent
                t0 = time.perf_counter()
                result = fn()
                t1 = time.perf_counter()
                net = t1 - t0 - (self.probe.spent - spent)
        finally:
            if traced:
                self.tracer.uninstall()
        self.timings.append((kind, traced, t0, t1, net, span))
        return result

    def finish_timing(self):
        """Rescale every timed operation by the host speed around it (calibrate.py)."""
        for kind, traced, t0, t1, net, span in self.timings:
            speed = self.probe.factor(t0, t1)
            (self.traced_times if traced else self.times)[kind].append(net * speed)
            if traced:
                # the layer spans include the probe's samples; scale them to the net time
                span[5] = {"speed": speed * net / (t1 - t0)}

    def setup(self):
        def once():
            state = training.init_train_state(self.geometry, self.w.net, self.config)
            return state, training.make_validation_set(self.geometry, self.config)
        return self._timed("setup", once)

    def epoch(self, state, validation):
        self.capture.reset()
        loss, val = self._timed("epoch", lambda: training.run_epoch(
            state, self.config, self.geometry, self.rhs, self.cutoff, validation))
        self.losses["train"].append(loss)
        self.ledger.check("loss", checks.loss_ok(loss), f"train loss {loss}")
        if val is not None:
            self.losses["val"].append(val)
            self.ledger.check("loss", checks.loss_ok(val), f"validation loss {val}")
        self.check_epoch(state.iteration - 1)

    def query(self, params, parameter):
        w = self.w
        _, fields = self._timed("query", lambda: training.final_solve(
            params, self.geometry, parameter, self.rhs, self.cutoff, self.config.theta,
            w.query_grid, n_singular=self.config.n_singular))
        return fields

    # ---- checks (never inside a timer) ------------------------------------

    def check_epoch(self, epoch: int):
        data = self.capture.epoch_data
        cache, parameters, sing, batch = self.capture.solves[0]
        errs = checks.segment_weight_errors(self.geometry, data.quad)
        for k, err in enumerate(errs):
            self.ledger.check("interface_weights", err <= checks.WEIGHT_RTOL,
                              f"epoch {epoch} segment {k} off by {err:.3g}")
        self.ledger.check("loss", checks.loss_ok(batch.losses), f"epoch {epoch} batch losses")
        if epoch % self.w.ls_every == 0:
            n = self.w.ls_params or parameters.shape[0]
            for k in range(n):
                excess = checks.ls_excess(cache, parameters[k], None if sing is None else sing[k],
                                          float(batch.losses[k]))
                self.ls_excess.append(excess)
        for k, pairs in enumerate(data.pairs_per_p):
            for vid, selected in enumerate(pairs):
                trace = [s[2] for s in angular_trace(self.geometry, parameters[k], vid)]
                err = checks.exponent_error(trace, [p.exponent for p in selected],
                                            self.config.n_singular)
                self.oracle_err.append(err)
                self.ledger.check("exponent", err <= checks.EXPONENT_ATOL,
                                  f"epoch {epoch} parameter {k} vertex {vid} error {err:.3g}")

    def ls_probe(self):
        """The least-squares check on fixed inputs (1D known fault)."""
        g = self.geometry
        quad = sample_collocation(g, self.w.n_interior, 1, np.random.default_rng(PROBE_POINTS_SEED))
        parameters = sample_parameters(np.random.default_rng(PROBE_PARAMS_SEED), PROBE_PARAMS,
                                       g.n_subdomains, P_MIN, P_MAX)
        data = EpochData(g, self.cutoff, self.rhs, quad, parameters, [[]] * PROBE_PARAMS,
                         self.config.theta)
        self.capture.reset()
        training.loss_and_param_gradient(init_params(self.w.net, PROBE_INIT_SEED), data,
                                         need_gradient=False)
        cache, _, _, batch = self.capture.solves[0]
        for k in range(PROBE_PARAMS):
            excess = checks.ls_excess(cache, parameters[k], None, float(batch.losses[k]))
            self.ledger.check("ls_probe", excess <= checks.LS_RTOL,
                              f"probe parameter {k} excess {excess:.3g}")

    def references(self):
        """Independent solutions at the query parameters (untimed)."""
        refs = []
        for p in self.query_params:
            if self.w.dimension == 1:
                refs.append(lambda pts, p=p: self._exact_1d(p, pts))
                continue
            fem = self._timed("fem", lambda p=p: fem_solve_2d(self.geometry, p, self.rhs,
                                                              self.w.fem_grid))
            self.fem_dofs = (self.w.fem_grid - 1) ** 2
            refs.append(fem.evaluate)
        return refs

    def _exact_1d(self, p, pts):
        u, du = exact_1d(self.geometry, p, pts[:, 0])
        return u, (p[subdomain_index_many(self.geometry, pts)] * du)[:, None]

    def errors(self, params, refs) -> np.ndarray:
        out = []
        for p, ref in zip(self.query_params, refs):
            fields = self.query(params, p)
            quad = fields["quad"]
            ref_u, ref_flux = ref(quad.interior_points)
            mask = self.cutoff.delta1 if self.w.dimension == 2 else 0.0
            out.append(relative_l2_errors(fields["values"], fields["flux"], ref_u, ref_flux,
                                          quad, self.geometry, mask_radius=mask))
        return np.array(out)

    # ---- the run ----------------------------------------------------------

    def execute(self):
        self.probe.start()
        try:
            err_after = self.schedule()
        finally:
            self.probe.stop()
        self.finish_timing()
        return err_after

    def schedule(self):
        """Set-ups are spread evenly between the epochs, so that their median,
        like the epochs' and the queries', sees the whole run."""
        w = self.w
        state, validation = self.setup()
        refs = self.references()
        err_init = self.errors(state.params, refs)
        done = 1
        for i in range(self.n_epochs):
            while done < 1 + (w.setups - 1) * (i + 1) // self.n_epochs:
                self.setup()
                done += 1
            self.epoch(state, validation if w.val_every else None)
        if not w.val_every:
            val = training.validation_loss(state.params, validation, self.geometry, self.rhs,
                                           self.cutoff)
            self.losses["val"].append(val)
            self.ledger.check("loss", checks.loss_ok(val), f"validation loss {val}")
        err_after = self.errors(state.params, refs)
        before, after = np.median(err_init, axis=0), np.median(err_after, axis=0)
        self.ledger.check("accuracy", bool(np.all(np.isfinite(after)) and np.all(after < before)),
                          f"median error {after} after training, {before} at init")
        if w.dimension == 1:
            self.ls_probe()
        return err_after

    def end_to_end(self, err_after) -> dict:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "setup_s": (statistics.median(self.times["setup"]), "s"),
            "epoch_s": (statistics.median(self.times["epoch"]), "s"),
            "query_s": (statistics.median(self.times["query"]), "s"),
            "rel_l2_u_pct": (float(np.median(err_after[:, 0])), "%"),
            "rel_l2_flux_pct": (float(np.median(err_after[:, 1])), "%"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    def per_layer(self) -> dict:
        kind = self.w.primary
        rows = self.tracer.per_root(kind)
        out = {m: (float(np.mean([r[m] for r in rows])), "s") for m in LAYER_METRICS}
        notes = [[n for n in r["notes"]] for r in rows]
        solves = [sum(name == "solve_eigenpairs" for name, _ in row) for row in notes]
        points = [sum(n["points"] for name, n in row if name == "forward_jets") for row in notes]
        residuals = [n["max_residual"] for row in notes for name, n in row
                     if name == "select_singular"]
        out.update({
            "eigen.solves": (float(np.mean(solves)), "count"),
            "eigen.max_residual": (max(residuals, default=0.0), "1"),
            "eigen.oracle_err": (max(self.oracle_err, default=0.0), "1"),
            "nets.forward_points": (float(np.mean(points)), "count"),
            "assembly.ls_excess": (max(self.ls_excess, default=0.0), "1"),
            "training.train_loss": (self.losses["train"][-1], "1"),
            "training.val_loss": (self.losses["val"][-1], "1"),
            "reference.fem_s": (statistics.fmean(self.times["fem"] or [0.0]), "s"),
            "reference.fem_dofs": (float(self.fem_dofs), "count"),
            "trace.op_s": (float(np.mean([r["duration"] for r in rows])), "s"),
            "trace.overhead_s": (statistics.median(self.traced_times[kind])
                                 - statistics.median(self.times[kind]), "s"),
        })
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=REF_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    err_after = run.execute()
    if args.trace:
        metrics = run.per_layer()
        OUT_DIR.mkdir(exist_ok=True)
        run.tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = run.end_to_end(err_after)
    for msg in run.ledger.unexpected:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.ledger.unexpected,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
