"""Kernels on threads: the outputs do not depend on the BLAS thread count,
the core count or the thread a kernel ran on; errors reach the caller."""

import csv
import functools
import gc
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import mpdsa
from mpdsa import experiments, msa, spectral
from mpdsa.cli import _setup_for, main
from mpdsa.configspace import LatticeGeometry, config_distance, enumerate_ball
from mpdsa.disorder import FieldModel, derive_seed, sample_field
from mpdsa.experiments import (
    correlator_completeness,
    default_time_grid,
    ef_correlator,
    propagator_sups,
)
from mpdsa.msa import AuditContext, ScalingParams, predicate_report, verify_implications
from mpdsa.operators import HamiltonianSpec, InteractionModel

SRC = Path(mpdsa.__file__).resolve().parents[1]
ROOT = Path(__file__).resolve().parents[1]
PINNABLE = msa.blas_thread_setter() is not None
LAPACK_ROWS = spectral.lapack_rows()


def bench_config(out_dir, experiment):
    """The benchmark's radius-16 model: two particles, coupling 30."""
    return {
        "schema_version": 1,
        "geometry": {"kind": "lattice", "d": 1},
        "particles": 2,
        "coupling": 30.0,
        "disorder": {"kind": "iid", "marginal": "uniform"},
        "interaction": {"kind": "step", "amplitude": 1.0, "range": 2},
        "convention": "fixed",
        "scaling": {"initial_scale": 6, "mass": 1.0},
        "seed": 550001,
        "output_dir": str(out_dir),
        "experiments": [experiment],
    }


PREDICATES = {"kind": "predicates", "center": [1, 0], "radius": 16, "sub_scale": 6,
              "trials": 1, "energies": [0.0]}
DYNAMICS = {"kind": "dynamics", "center": [1, 0], "radius": 16, "trials": 1,
            "time_points": 200}


def bench_context(seed=550001):
    line = LatticeGeometry(kind="lattice", d=1)
    spec = HamiltonianSpec(geometry=line, n_particles=2, coupling=30.0,
                           interaction=InteractionModel(kind="step", amplitude=1.0, range_=2),
                           convention="fixed")
    ball = enumerate_ball((1, 0), 16, line)
    sample = sample_field(FieldModel(kind="iid", marginal="uniform"), ball.projection, seed)
    return AuditContext(spec, sample, ScalingParams.finite_range(2, initial_scale=6, mass=1.0))


@pytest.fixture
def one_blas_thread():
    """The calling thread at one BLAS thread, as ``cli.main`` sets it."""
    setter = msa.blas_thread_setter()
    previous = None if setter is None else setter(1)
    yield
    if previous is not None:
        setter(previous)


def outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())
            if p.suffix == ".csv" or p.name == "summary.json"}


class TestBlasThreadCount:
    """Every CSV and summary.json is byte-identical at one and two BLAS
    threads (they differed in their last digits before each Python thread
    ran its BLAS calls on one thread)."""

    @pytest.mark.skipif(not PINNABLE, reason="this BLAS cannot set threads per thread")
    @pytest.mark.parametrize("command, experiment", [("predicates", PREDICATES),
                                                     ("dynamics", DYNAMICS)])
    def test_outputs_do_not_depend_on_openblas_threads(self, tmp_path, command, experiment):
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            config = tmp_path / f"c{threads}.json"
            config.write_text(json.dumps(bench_config(out, experiment)))
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-m", "mpdsa.cli", command, "--config",
                                   str(config)], env=env, capture_output=True, text=True)
            assert proc.returncode in (0, 1), proc.stderr
            runs.append(outputs(out))
        assert runs[0].keys() == runs[1].keys() and len(runs[0]) >= 2
        assert runs[0] == runs[1]


class TestCoreCount:
    """One usable CPU and three give the same bits."""

    @staticmethod
    def _predicates(monkeypatch, cpus):
        monkeypatch.setattr(msa, "usable_cpus", lambda: cpus)
        ctx = bench_context()
        reports = [predicate_report(ctx, (1, 0), 16, e, 6) for e in (0.0, 5.0, 15.0)]
        audit = verify_implications(ctx, (1, 0), 16, 6)
        return ctx.eigensystem((1, 0), 16), repr(reports) + repr(audit)

    def test_predicates_and_audit(self, monkeypatch, one_blas_thread):
        serial_es, serial = self._predicates(monkeypatch, 1)
        pooled_es, pooled = self._predicates(monkeypatch, 3)
        assert pooled == serial
        assert pooled_es.eigenvalues.tobytes() == serial_es.eigenvalues.tobytes()
        assert pooled_es.eigenvectors.tobytes() == serial_es.eigenvectors.tobytes()

    @staticmethod
    def _pipelined(monkeypatch, cpus, seeds):
        monkeypatch.setattr(msa, "usable_cpus", lambda: cpus)
        setup = _setup_for(bench_config("out", PREDICATES), PREDICATES)
        return repr(list(experiments.predicates_trials(setup, seeds, (0.0, 5.0, 15.0), 6)))

    def test_the_pipelined_predicates_loop(self, monkeypatch, one_blas_thread):
        """``experiments.predicates_trials`` gives at one, two and three
        CPUs what one trial at a time gives, byte for byte."""
        seeds = experiments.trial_seeds(550001, 3)
        serial = self._pipelined(monkeypatch, 1, seeds)
        for cpus in (2, 3):
            assert self._pipelined(monkeypatch, cpus, seeds) == serial
        setup = _setup_for(bench_config("out", PREDICATES), PREDICATES)
        plain = [([predicate_report(ctx, (1, 0), 16, e, 6) for e in (0.0, 5.0, 15.0)],
                  verify_implications(ctx, (1, 0), 16, 6))
                 for ctx in (setup.context(seed) for seed in seeds)]
        assert repr(plain) == serial

    def test_propagator_sups(self, monkeypatch, one_blas_thread):
        es = bench_context().eigensystem((1, 0), 16)
        members = es.ball.members
        pairs = [(members[0], members[0])] + [(members[0], members[i]) for i in (1, 50, 560)]
        values = []
        for cpus in (1, 3):
            monkeypatch.setattr(msa, "usable_cpus", lambda: cpus)
            values.append(propagator_sups(es, pairs, default_time_grid(2000)).tobytes())
        assert values[0] == values[1]


def layer_functions():
    """``perfbench/layertrace.py``'s ``LAYER_FUNCTIONS``: the functions
    its tracer wraps on one span stack, which is not thread-safe."""
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "perfbench" / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


class TestWhereKernelsRun:
    def test_layer_functions_stay_on_the_main_thread(self, tmp_path, monkeypatch):
        """During ``predicates`` and ``audit`` no traced layer function runs
        off the main thread; the workers get the bare eigensolves."""
        threads = {}

        def spy(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.current_thread())
                return fn(*args, **kwargs)
            return wrapper

        replaced = {}
        for module_name, qualname in layer_functions():
            module = importlib.import_module(f"mpdsa.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            wrapped = spy(f"{module_name}.{qualname}", getattr(owner, attr))
            if owner_name:
                monkeypatch.setattr(owner, attr, wrapped)
            else:
                replaced[getattr(owner, attr)] = wrapped
        for name, module in list(sys.modules.items()):
            if name == "mpdsa" or name.startswith("mpdsa."):
                for attr, value in list(vars(module).items()):
                    if callable(value) and value in replaced:
                        monkeypatch.setattr(module, attr, replaced[value])
        for kernel in ("eigh", "eigvalsh"):
            monkeypatch.setattr(spectral, kernel, spy(kernel, getattr(spectral, kernel)))
        monkeypatch.setattr(msa, "usable_cpus", lambda: 2)
        audit = {"kind": "audit", "center": [1, 0], "k_max": 1, "trials": 2}
        for command, experiment in (("predicates", {**PREDICATES, "trials": 3}),
                                    ("audit", audit)):
            config = tmp_path / f"{command}.json"
            cfg = bench_config(tmp_path / command, experiment)
            cfg["schedule"] = {"p": 36.0, "b": 0.05}
            config.write_text(json.dumps(cfg))
            assert main([command, "--config", str(config)]) in (0, 1)
        main_thread = threading.main_thread()
        layers = {name: ran for name, ran in threads.items() if name not in ("eigh", "eigvalsh")}
        assert {"msa.is_m_loc", "msa.verify_implications", "operators.assemble_hamiltonian",
                "configspace.enumerate_ball"} <= layers.keys()
        assert all(ran == {main_thread} for ran in layers.values())
        kernels = threads["eigh"] | threads["eigvalsh"]
        assert (kernels != {main_thread}) == PINNABLE

    def test_without_the_setter_no_thread_starts(self, monkeypatch, one_blas_thread):
        es = bench_context().eigensystem((1, 0), 16)
        pairs = [(es.ball.members[0], es.ball.members[k]) for k in (0, 7)]
        reference = propagator_sups(es, pairs, default_time_grid(2000)).tobytes()
        _, serial = TestCoreCount._predicates(monkeypatch, 1)
        monkeypatch.setattr(msa, "blas_thread_setter", lambda: None)
        monkeypatch.setattr(msa, "usable_cpus", lambda: 3)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        assert msa.pool_size() == 1
        assert propagator_sups(es, pairs, default_time_grid(2000)).tobytes() == reference
        assert TestCoreCount._predicates(monkeypatch, 3)[1] == serial
        ran = msa.run_pinned([threading.current_thread] * 4, main=threading.current_thread)
        assert ran == [threading.main_thread()] * 4
        assert started == []


def dynamics_run(tmp_path, trials):
    """Exit code, config and output directory of a radius-8 ``dynamics``
    run (n = 153, three time blocks a trial)."""
    out = tmp_path / "out"
    experiment = {**DYNAMICS, "radius": 8, "trials": trials, "time_points": 2000}
    cfg = bench_config(out, experiment)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(cfg))
    return main(["dynamics", "--config", str(config)]), cfg, out


class TestDynamicsPipeline:
    """``experiments.dynamics_trials``, the trial loop of ``dynamics``,
    solves trial t + 1 for its eigenvalues and eigenvector rows on the
    calling thread while workers run trial t's propagator blocks."""

    @staticmethod
    def plain_loop(cfg):
        """The rows and the three maxima of ``summary.json``, one trial at a
        time: rows solve, then propagator, then correlators."""
        experiment = cfg["experiments"][0]
        setup = _setup_for(cfg, experiment)
        ball = setup.balls()[0]
        pairs = [(ball.center, ball.center)]
        seen = {0}
        for member, r in zip(ball.members, ball.distances_from_center):
            if int(r) not in seen:
                seen.add(int(r))
                pairs.append((ball.center, member))
        indices = sorted({ball.index[site] for pair in pairs for site in pair})
        grid = default_time_grid(experiment["time_points"])
        rows, excess = [], [0.0, 0.0, 0.0]
        for t in range(experiment["trials"]):
            es = setup.context(derive_seed(cfg["seed"], "trial", t)).eigen_rows(
                setup.center, setup.radius, indices)
            for (x, y), prop in zip(pairs, propagator_sups(es, pairs, grid).tolist()):
                q = ef_correlator(es, x, y, None)
                comp = correlator_completeness(es, x, y)
                rows.append(["0", str(t), json.dumps(list(x)), json.dumps(list(y)),
                             str(config_distance(x, y, setup.geometry)), repr(q), repr(prop),
                             repr(comp)])
                excess = [max(excess[0], q - 1.0), max(excess[1], abs(comp)),
                          max(excess[2], prop - q)]
        return rows, excess

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("trials", [1, 2, 3])
    def test_outputs_match_a_plain_loop(self, tmp_path, monkeypatch, one_blas_thread, trials,
                                        cpus):
        monkeypatch.setattr(msa, "usable_cpus", lambda: cpus)
        code, cfg, out = dynamics_run(tmp_path, trials)
        assert code == 0
        rows, excess = self.plain_loop(cfg)
        with open(out / "dynamics.csv", newline="") as fh:
            assert list(csv.reader(fh))[1:] == rows
        summary = json.loads((out / "summary.json").read_text())["experiment_0"]
        assert [summary["max_correlator_excess"], summary["max_completeness_defect"],
                summary["max_propagator_excess"]] == excess

    def test_solves_stay_on_the_main_thread_and_blocks_leave_it(self, tmp_path, monkeypatch):
        """Blocks run on the workers; the calling thread takes the blocks
        left once its ``beside`` solve has returned."""
        solve, assemble, run_pinned = msa.diagonalize_rows, msa.assemble_hamiltonian, msa.run_pinned
        seen = {"solve": [], "assemble": []}
        blocks, beside = [], []

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                seen[name].append(threading.current_thread())
                return fn(*args, **kwargs)
            return wrapper

        def spied_run_pinned(tasks, main=None):
            beside.append(main is not None)
            returned = [main is None]

            def marked():
                main()
                returned[0] = True

            def block(task):
                def run():
                    blocks.append((threading.current_thread(), returned[0]))
                    return task()
                return run

            return run_pinned([block(task) for task in tasks],
                              main=None if main is None else marked)

        monkeypatch.setattr(msa, "diagonalize_rows", spy("solve", solve))
        monkeypatch.setattr(msa, "assemble_hamiltonian", spy("assemble", assemble))
        monkeypatch.setattr(experiments, "run_pinned", spied_run_pinned)
        monkeypatch.setattr(msa, "usable_cpus", lambda: 2)
        assert dynamics_run(tmp_path, 3)[0] == 0
        main_thread = threading.main_thread()
        assert beside == [True, True, False]
        assert len(seen["solve"]) == 3 and len(seen["assemble"]) == 3
        assert all(t is main_thread for t in seen["solve"] + seen["assemble"])
        assert len(blocks) == 9
        # on the calling thread only after beside; the last trial has none
        assert all(t is not main_thread or after for t, after in blocks)
        assert all((t is not main_thread) == PINNABLE for t, _ in blocks[-3:])
        assert any(t is not main_thread for t, _ in blocks) == PINNABLE

    @pytest.mark.parametrize("setter", ["present", "missing"])
    def test_beside_runs_once_on_the_calling_thread(self, monkeypatch, one_blas_thread, setter):
        es = bench_context().eigensystem((1, 0), 16)
        pairs = [(es.ball.members[0], es.ball.members[k]) for k in (0, 7, 300)]
        grid = default_time_grid(2000)
        reference = propagator_sups(es, pairs, grid).tobytes()
        if setter == "missing":
            monkeypatch.setattr(msa, "blas_thread_setter", lambda: None)
        monkeypatch.setattr(msa, "usable_cpus", lambda: 2)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        ran = []
        values = propagator_sups(es, pairs, grid, beside=lambda: ran.append(
            threading.current_thread()))
        assert values.tobytes() == reference
        assert ran == [threading.main_thread()]
        assert (started == []) == (setter == "missing" or not PINNABLE)

    def test_linalg_error_on_trial_1_exits_3(self, tmp_path, monkeypatch):
        solve = msa.diagonalize_rows
        threads = []

        def second_fails(*args, **kwargs):
            threads.append(threading.current_thread())
            if len(threads) == 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solve(*args, **kwargs)

        monkeypatch.setattr(msa, "diagonalize_rows", second_fails)
        monkeypatch.setattr(msa, "usable_cpus", lambda: 2)
        alive = threading.active_count()
        code, _, out = dynamics_run(tmp_path, 3)
        assert code == 3
        assert not out.exists()
        assert threading.active_count() == alive
        assert threads == [threading.main_thread()] * 2

    @staticmethod
    def radius_8_trials(seeds):
        """``experiments.dynamics_trials`` of the radius-8 model over
        ``seeds``, at its centre pairs, on a 2000-point grid."""
        experiment = {**DYNAMICS, "radius": 8}
        setup = _setup_for(bench_config("out", experiment), experiment)
        pairs = experiments.centre_pairs(setup.balls()[0])
        return experiments.dynamics_trials(setup, seeds, pairs, default_time_grid(2000))

    def test_no_seeds_yield_nothing(self):
        assert list(self.radius_8_trials([])) == []

    def test_closing_after_trial_0_leaves_no_worker(self, monkeypatch, one_blas_thread):
        solve = msa.diagonalize_rows
        solves = []
        monkeypatch.setattr(msa, "diagonalize_rows",
                            lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs))
        monkeypatch.setattr(msa, "usable_cpus", lambda: 2)
        alive = threading.active_count()
        trials = self.radius_8_trials(experiments.trial_seeds(550001, 3))
        assert len(next(trials)) == 9
        trials.close()
        assert threading.active_count() == alive
        # trial 0, and trial 1 beside trial 0's blocks
        assert len(solves) == 2

    def test_nan_rows_on_trial_1_raise_after_trial_0(self, monkeypatch, one_blas_thread):
        solve = msa.diagonalize_rows
        solves = []

        def second_has_nan(*args, **kwargs):
            rows = solve(*args, **kwargs)
            solves.append(1)
            if len(solves) == 2:
                rows.vectors[0, 0] = np.nan
            return rows

        monkeypatch.setattr(msa, "diagonalize_rows", second_has_nan)
        monkeypatch.setattr(msa, "usable_cpus", lambda: 2)
        alive = threading.active_count()
        trials = self.radius_8_trials(experiments.trial_seeds(550001, 3))
        assert np.isfinite(next(trials)).all()
        with pytest.raises(FloatingPointError, match="eigenvalue or eigenvector entry is NaN"):
            next(trials)
        assert threading.active_count() == alive
        assert len(solves) == 2


class TestOneEigensystemAlive:
    """Trial t's eigenvectors are freed before trial t + 1's eigensolve
    allocates, by reference counts alone: the collector is off during the
    run, so a reference cycle would show as a live matrix."""

    @staticmethod
    def run(monkeypatch, command, experiment, tmp_path):
        """Whether the previous solve's eigenvectors were still alive at
        each solve after the first: ``eigh``'s eigenvector matrix, or the
        eigenvector rows of the rows solve ``dynamics`` runs."""
        module, name, vectors = ((msa, "diagonalize_rows", lambda result: result.vectors)
                                 if command == "dynamics"
                                 else (spectral, "eigh", lambda result: result[1]))
        solve = getattr(module, name)
        last = []
        alive = []

        def watched(*args, **kwargs):
            if last:
                alive.append(last[-1]() is not None)
            result = solve(*args, **kwargs)
            last.append(weakref.ref(vectors(result)))
            return result

        monkeypatch.setattr(module, name, watched)
        out = tmp_path / "out"
        config = tmp_path / "c.json"
        config.write_text(json.dumps(bench_config(out, experiment)))
        gc.disable()
        try:
            assert main([command, "--config", str(config)]) == 0
        finally:
            gc.enable()
        return alive

    @pytest.mark.parametrize("cpus, setter", [(1, "present"), (3, "present"), (3, "missing")])
    def test_dynamics(self, tmp_path, monkeypatch, cpus, setter):
        monkeypatch.setattr(msa, "usable_cpus", lambda: cpus)
        if setter == "missing":
            monkeypatch.setattr(msa, "blas_thread_setter", lambda: None)
        experiment = {**DYNAMICS, "radius": 8, "trials": 3, "time_points": 2000}
        assert self.run(monkeypatch, "dynamics", experiment, tmp_path) == [False, False]

    def test_spectrum(self, tmp_path, monkeypatch):
        experiment = {"kind": "spectrum", "center": [1, 0], "radius": 8, "trials": 3}
        assert self.run(monkeypatch, "spectrum", experiment, tmp_path) == [False, False]


class TestManyWorkers:
    def test_more_workers_than_cores(self, monkeypatch, one_blas_thread):
        """Eight workers, switching threads every microsecond, keep the
        task order and the bits."""
        es = bench_context().eigensystem((1, 0), 16)
        pairs = [(es.ball.members[0], es.ball.members[k]) for k in range(0, 561, 40)]
        serial = propagator_sups(es, pairs, default_time_grid(4000)).tobytes()
        monkeypatch.setattr(msa, "usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = propagator_sups(es, pairs, default_time_grid(4000)).tobytes()
            order = msa.run_pinned([lambda k=k: k for k in range(200)])
            # tasks added by more while the workers take the first ones
            grown = msa.run_pinned([lambda k=k: k for k in range(100)], main=lambda: None,
                                   more=lambda: [lambda k=k: k for k in range(100, 200)])
        finally:
            sys.setswitchinterval(interval)
        assert pooled == serial
        assert order == list(range(200))
        assert grown == list(range(200))


class TestErrors:
    def test_a_task_error_reaches_the_caller_and_cancels_the_queue(self, monkeypatch):
        monkeypatch.setattr(msa, "usable_cpus", lambda: 2)
        ran = []

        def fail():
            raise ValueError("task failed")

        def slow(k):
            def task():
                time.sleep(0.05)
                ran.append(k)
            return task

        alive = threading.active_count()
        with pytest.raises(ValueError, match="task failed"):
            msa.run_pinned([fail] + [slow(k) for k in range(20)])
        assert threading.active_count() == alive
        if PINNABLE:
            assert len(ran) < 20

    def test_linalg_error_in_the_predicates_worker_exits_3(self, tmp_path, monkeypatch):
        threads = []

        def broken(*args, **kwargs):
            threads.append(threading.current_thread())
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(spectral, "eigh", broken)
        monkeypatch.setattr(msa, "usable_cpus", lambda: 2)
        out = tmp_path / "out"
        config = tmp_path / "c.json"
        config.write_text(json.dumps(bench_config(out, PREDICATES)))
        alive = threading.active_count()
        assert main(["predicates", "--config", str(config)]) == 3
        assert not out.exists()
        assert threading.active_count() == alive
        assert threads and (threads[0] is not threading.main_thread()) == PINNABLE

    def test_a_nan_in_trial_1s_sub_ball_spectrum_exits_3(self, tmp_path, monkeypatch):
        """Trial 1's sub-ball spectra are solved beside trial 0's reports;
        a NaN in one decides nothing: exit 3, nothing written, no worker
        left."""
        solve = msa.eigenvalues_of
        threads = []

        def nan_in_trial_1(op):
            values = solve(op)
            threads.append(threading.current_thread())
            # trial 0 solves its 12 sub-ball spectra before trial 1 starts
            if len(threads) == 13:
                values[0] = np.nan
            return values

        monkeypatch.setattr(msa, "eigenvalues_of", nan_in_trial_1)
        monkeypatch.setattr(msa, "usable_cpus", lambda: 2)
        out = tmp_path / "out"
        config = tmp_path / "c.json"
        config.write_text(json.dumps(bench_config(out, {**PREDICATES, "trials": 3})))
        alive = threading.active_count()
        assert main(["predicates", "--config", str(config)]) == 3
        assert not out.exists()
        assert threading.active_count() == alive
        assert 13 <= len(threads) <= 24

    @pytest.mark.skipif(not LAPACK_ROWS, reason="no LAPACK routines for the rows solve")
    def test_a_dstedc_failure_in_dynamics_exits_3(self, tmp_path, monkeypatch):
        """A tridiagonal eigensolve that does not converge on trial 1, solved
        beside trial 0's propagator blocks, is a numerical failure: exit 3,
        nothing written, no worker left."""
        lapack_call = spectral._lapack_call
        calls = []

        def failing(name, *args):
            info = lapack_call(name, *args)
            if name != "dstedc" or -1 in [a for a in args if isinstance(a, int)]:
                return info
            calls.append(threading.current_thread())
            return 7 if len(calls) == 2 else info

        monkeypatch.setattr(spectral, "_lapack_call", failing)
        monkeypatch.setattr(msa, "usable_cpus", lambda: 2)
        alive = threading.active_count()
        code, _, out = dynamics_run(tmp_path, 3)
        assert code == 3
        assert not out.exists()
        assert threading.active_count() == alive
        assert calls == [threading.main_thread()] * 2


class TestManifest:
    def test_records_whether_blas_calls_were_pinned(self, tmp_path):
        out = tmp_path / "out"
        config = tmp_path / "c.json"
        experiment = {"kind": "spectrum", "center": [1, 0], "radius": 2, "trials": 1}
        config.write_text(json.dumps(bench_config(out, experiment)))
        assert main(["spectrum", "--config", str(config)]) == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["blas_pinned"] is PINNABLE

    @pytest.mark.parametrize("resolver", ["present", "missing"])
    def test_records_whether_dynamics_read_lapack_rows(self, tmp_path, monkeypatch, resolver):
        if resolver == "missing":
            monkeypatch.setattr(spectral, "lapack_routine", lambda name: None)
        out = tmp_path / "out"
        config = tmp_path / "c.json"
        config.write_text(json.dumps(bench_config(out, {**DYNAMICS, "radius": 2})))
        assert main(["dynamics", "--config", str(config)]) == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["lapack_rows"] is (LAPACK_ROWS and resolver == "present")
