"""Differential tests: the slab-blocked, in-place, multi-threaded CG path against the one
it replaced.

`oracle_apply_poisson`, `oracle_solve_cg` and `oracle_manufactured_solution`
are the old bodies: a whole-array stencil and vector updates that allocate
fresh arrays every iteration, and a meshgrid sample. The blocked solver
keeps every rounding, so solutions, residual histories and iteration
counts must be bit-identical, whatever the slab count and the number of
threads that sweep the slabs.
"""

import contextlib
import io
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from batchsim import workloads
from batchsim.cli import run_command
from batchsim.errors import SimulationError, ValidationError
from batchsim.workloads import (PoissonGrid, _run_ranks, _slab_planes, apply_poisson,
                                manufactured_solution, solve_cg, unit_cube_grid)

WORKER_COUNTS = (1, 2, 3, 5)


def oracle_apply_poisson(grid, field_values):
    u = np.asarray(field_values, dtype=np.float64)
    out = 6.0 * u
    out[1:, :, :] -= u[:-1, :, :]
    out[:-1, :, :] -= u[1:, :, :]
    out[:, 1:, :] -= u[:, :-1, :]
    out[:, :-1, :] -= u[:, 1:, :]
    out[:, :, 1:] -= u[:, :, :-1]
    out[:, :, :-1] -= u[:, :, 1:]
    out /= grid.h * grid.h
    return out


def oracle_solve_cg(grid, rhs, tol_abs=1e-12, max_iter=20000):
    """(solution, iterations, residual history) of the allocating solver."""
    b = np.asarray(rhs, dtype=np.float64)
    x = np.zeros_like(b)
    r = b - oracle_apply_poisson(grid, x)
    p = r.copy()
    rz = float(np.dot(r.ravel(), r.ravel()))
    history = [float(np.sqrt(rz))]
    if history[-1] <= tol_abs:
        return x, 0, history
    for k in range(1, max_iter + 1):
        ap = oracle_apply_poisson(grid, p)
        alpha = rz / float(np.dot(p.ravel(), ap.ravel()))
        x += alpha * p
        r -= alpha * ap
        rz_new = float(np.dot(r.ravel(), r.ravel()))
        history.append(float(np.sqrt(rz_new)))
        if history[-1] <= tol_abs:
            return x, k, history
        p = r + (rz_new / rz) * p
        rz = rz_new
    raise SimulationError(f"no convergence after {max_iter} iterations, "
                          f"best residual {min(history):.3e}")


def oracle_manufactured_solution(grid):
    ax = [(np.arange(n) + 1) * grid.h for n in grid.shape]
    x, y, z = np.meshgrid(*ax, indexing="ij")
    u = np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y) * np.sin(2 * np.pi * z)
    return u, 12.0 * np.pi**2 * u


def _grid(nx, ny, nz):
    return PoissonGrid(nx, ny, nz, 1.0 / (max(nx, ny, nz) + 1))


def _planes(ny, nz):
    return _slab_planes((1, ny, nz))


# (nx, ny, nz) named by how axis 0 splits into slabs
SHAPES = {
    "tiny": (2, 2, 2),
    "non-cubic": (3, 5, 7),
    "non-cubic-wide": (9, 30, 17),
    "thinner-than-one-slab": (_planes(40, 40) - 1, 40, 40),
    "exactly-one-slab": (_planes(40, 40), 40, 40),
    "partial-last-slab": (2 * _planes(40, 40) + 3, 40, 40),
    "one-plane-slabs": (5, 200, 190),
}


def test_shapes_cover_the_slab_cases():
    assert _planes(2, 2) > 2
    assert SHAPES["thinner-than-one-slab"][0] < _planes(40, 40)
    assert SHAPES["partial-last-slab"][0] % _planes(40, 40) != 0
    assert _planes(200, 190) == 1
    assert _slab_planes((96, 96, 96)) < 96


@pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
def test_manufactured_solution_matches_meshgrid(shape):
    grid = _grid(*shape)
    u, f = manufactured_solution(grid)
    u_ref, f_ref = oracle_manufactured_solution(grid)
    assert np.array_equal(u, u_ref) and np.array_equal(f, f_ref)


@pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
def test_stencil_matches_whole_array_pass(shape):
    grid = _grid(*shape)
    v = np.random.default_rng(sum(shape)).standard_normal(shape)
    assert np.array_equal(apply_poisson(grid, v), oracle_apply_poisson(grid, v))


def _assert_same_solve(grid, rhs):
    result = solve_cg(grid, rhs)
    x, iterations, history = oracle_solve_cg(grid, rhs)
    assert result.iterations == iterations
    assert result.residual_history == history
    assert np.array_equal(result.solution, x)


@pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
def test_cg_matches_allocating_solver(shape):
    grid = _grid(*shape)
    _, rhs = manufactured_solution(grid)
    _assert_same_solve(grid, rhs)
    rng = np.random.default_rng(sum(shape))
    _assert_same_solve(grid, rng.standard_normal(shape))


def test_cg_matches_allocating_solver_n64():
    grid = unit_cube_grid(64)
    _, rhs = oracle_manufactured_solution(grid)
    _assert_same_solve(grid, rhs)


def test_cg_max_iter_matches_allocating_solver():
    grid = _grid(*SHAPES["partial-last-slab"])
    rhs = np.random.default_rng(2).standard_normal(grid.shape)
    with pytest.raises(SimulationError, match="^no convergence after 5 iterations, ") as new:
        solve_cg(grid, rhs, max_iter=5)
    with pytest.raises(SimulationError) as old:
        oracle_solve_cg(grid, rhs, max_iter=5)
    assert str(new.value) == str(old.value)


def test_stencil_out_is_filled_and_returned():
    grid = _grid(*SHAPES["partial-last-slab"])
    v = np.random.default_rng(4).standard_normal(grid.shape)
    buf = np.full(grid.shape, np.nan)
    assert apply_poisson(grid, v, out=buf) is buf
    assert np.array_equal(buf, apply_poisson(grid, v))


def test_stencil_out_must_be_contiguous_and_not_alias_input():
    grid = _grid(4, 5, 6)
    v = np.ones(grid.shape)
    with pytest.raises(ValueError):
        apply_poisson(grid, v, out=v)
    wide = np.random.default_rng(5).standard_normal((4, 5, 7))  # views one element apart
    with pytest.raises(ValueError):
        apply_poisson(grid, wide[:, :, :6], out=wide[:, :, 1:])
    with pytest.raises(ValueError):
        apply_poisson(grid, v, out=np.empty((5, 4, 6)).transpose(1, 0, 2))
    # a non-contiguous input is fine and gives the same bits
    assert np.array_equal(apply_poisson(grid, wide[:, :, :6]),
                          oracle_apply_poisson(grid, wide[:, :, :6]))


def test_stencil_out_shape_checked():
    grid = _grid(4, 5, 6)
    text = r"^out must be a float64 array of shape \(4, 5, 6\)$"
    with pytest.raises(ValidationError, match=text):
        apply_poisson(grid, np.ones(grid.shape), out=np.empty((4, 5, 7)))
    with pytest.raises(ValidationError, match=text):
        apply_poisson(grid, np.ones(grid.shape), out=np.empty(grid.shape, dtype=np.float32))


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
def test_cg_matches_allocating_solver_on_any_sweep_threads(monkeypatch, shape, workers):
    """Shapes with fewer slabs than CPUs included: a solve uses at most one thread per slab."""
    monkeypatch.setattr(workloads, "_sweep_threads", lambda: workers)
    grid = _grid(*shape)
    _assert_same_solve(grid, np.random.default_rng(sum(shape) + workers).standard_normal(shape))


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
def test_stencil_matches_whole_array_pass_on_any_team(shape, workers):
    """More ranks than planes leave some ranks an empty range."""
    grid = _grid(*shape)
    v = np.random.default_rng(sum(shape)).standard_normal(shape)
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        assert np.array_equal(apply_poisson(grid, v, pool=pool, ranks=workers),
                              oracle_apply_poisson(grid, v))


def test_more_threads_than_cores_with_frequent_switches(monkeypatch):
    """Five threads on any host, handing the interpreter lock over every 10 us."""
    grid = _grid(*SHAPES["one-plane-slabs"])
    rng = np.random.default_rng(6)
    monkeypatch.setattr(workloads, "_sweep_threads", lambda: 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            for _ in range(10):
                v = rng.standard_normal(grid.shape)
                assert np.array_equal(apply_poisson(grid, v, pool=pool, ranks=5),
                                      oracle_apply_poisson(grid, v))
        rhs = rng.standard_normal(grid.shape)
        with pytest.raises(SimulationError, match="^no convergence after 20 iterations, ") as new:
            solve_cg(grid, rhs, max_iter=20)
    finally:
        sys.setswitchinterval(interval)
    with pytest.raises(SimulationError) as old:
        oracle_solve_cg(grid, rhs, max_iter=20)
    assert str(new.value) == str(old.value)


def test_cg_team_has_the_sweep_threads_up_to_one_per_slab(monkeypatch):
    """Each solve opens one pool of ranks - 1 helpers (at least 1) and sweeps every
    stencil with that many ranks, through the module attribute."""
    pools, ranks = [], []
    real_stencil = workloads.apply_poisson

    def recording_pool(max_workers, **kwargs):
        pools.append(max_workers)
        return ThreadPoolExecutor(max_workers, **kwargs)

    def recording_stencil(*args, **kwargs):
        ranks.append(kwargs["ranks"])
        return real_stencil(*args, **kwargs)

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(workloads, "apply_poisson", recording_stencil)
    for workers in (2, 5):
        monkeypatch.setattr(workloads, "_sweep_threads", lambda: workers)
        for name in ("one-plane-slabs", "tiny"):
            with contextlib.suppress(SimulationError):
                solve_cg(_grid(*SHAPES[name]), np.ones(SHAPES[name]), max_iter=1)
    assert pools == [1, 1, 4, 1]
    assert ranks == [2, 2, 1, 1, 5, 5, 1, 1]  # the initial product, then one per iteration


@pytest.mark.parametrize("cpus, threads", [(1, 1), (2, 2), (3, 2), (64, 2)])
def test_sweep_threads_are_the_cpus_up_to_the_measured_cap(monkeypatch, cpus, threads):
    monkeypatch.setattr(workloads.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert workloads._sweep_threads() == threads


def test_a_failed_helper_start_stops_the_helpers_already_started(monkeypatch):
    real_start = threading.Thread.start
    starts = []
    release = threading.Event()

    def start_failing_on_the_second(thread):
        starts.append(thread)
        if len(starts) == 2:
            raise RuntimeError("can't start new thread")
        real_start(thread)

    def task(rank):
        release.wait(timeout=10)  # keeps rank 1's thread busy, so rank 2 needs another

    before = threading.active_count()
    monkeypatch.setattr(threading.Thread, "start", start_failing_on_the_second)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        with ThreadPoolExecutor(3) as pool:
            try:
                _run_ranks(pool, 4, task)
            finally:
                release.set()
            pytest.fail("the ranks ran without their helpers")
    monkeypatch.undo()
    assert len(starts) == 2
    assert threading.active_count() == before


def test_an_error_in_a_helper_reaches_the_caller():
    ran = []

    def task(rank, fail_rank):
        if rank:
            time.sleep(0.01)  # a helper still runs when rank 0 is done
        ran.append(rank)
        if rank == fail_rank:
            raise ZeroDivisionError(f"rank {rank}")

    before = threading.active_count()
    with ThreadPoolExecutor(2) as pool:
        with pytest.raises(ZeroDivisionError, match="rank 2"):
            _run_ranks(pool, 3, task, 2)
        assert sorted(ran) == [0, 1, 2]  # the caller waited for every helper
        _run_ranks(pool, 3, task, None)  # and the pool still runs after the error
        with pytest.raises(ZeroDivisionError, match="rank 0"):
            _run_ranks(pool, 3, task, 0)
        assert sorted(ran) == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert threading.active_count() == before


def test_no_thread_outlives_a_solve_or_a_cli_session(monkeypatch, tmp_path):
    before = threading.active_count()
    assert run_command(["-C", str(tmp_path), "scenario", "run", "snake2d"],
                       out=io.StringIO()) == 0  # fixed: tasks only
    assert threading.active_count() == before
    monkeypatch.setattr(workloads, "_sweep_threads", lambda: 2)
    grid = unit_cube_grid(32)
    solve_cg(grid, manufactured_solution(grid)[1])
    assert threading.active_count() == before
    with pytest.raises(SimulationError, match="^no convergence after 2 iterations, "):
        solve_cg(grid, np.ones(grid.shape), max_iter=2)
    assert threading.active_count() == before

    def stencil_failing_on_rank_1(rank, *args):
        if rank == 1:
            raise ZeroDivisionError("rank 1")
        real_stencil(rank, *args)

    real_stencil = workloads._stencil_slabs
    monkeypatch.setattr(workloads, "_stencil_slabs", stencil_failing_on_rank_1)
    shape = SHAPES["one-plane-slabs"]
    with pytest.raises(ZeroDivisionError, match="rank 1"):
        solve_cg(_grid(*shape), np.ones(shape))
    assert not [t.name for t in threading.enumerate() if t.name.startswith("batchsim-cg")]
    assert threading.active_count() == before
