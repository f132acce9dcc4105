"""Differential tests: the slab-blocked, in-place CG path against the one it replaced.

`oracle_apply_poisson`, `oracle_solve_cg` and `oracle_manufactured_solution`
are the old bodies: a whole-array stencil and vector updates that allocate
fresh arrays every iteration, and a meshgrid sample. The blocked solver
keeps every rounding, so solutions, residual histories and iteration
counts must be bit-identical, whatever the slab count.
"""

import numpy as np
import pytest

from batchsim.errors import MaxIterExceeded, ShapeMismatch
from batchsim.workloads import (PoissonGrid, _slab_planes, apply_poisson,
                                manufactured_solution, solve_cg, unit_cube_grid)


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
    raise MaxIterExceeded(max_iter, min(history))


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
    with pytest.raises(MaxIterExceeded) as new:
        solve_cg(grid, rhs, max_iter=5)
    with pytest.raises(MaxIterExceeded) as old:
        oracle_solve_cg(grid, rhs, max_iter=5)
    assert new.value.best_residual == old.value.best_residual


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
    with pytest.raises(ShapeMismatch):
        apply_poisson(grid, np.ones(grid.shape), out=np.empty((4, 5, 7)))
    with pytest.raises(ShapeMismatch):
        apply_poisson(grid, np.ones(grid.shape), out=np.empty(grid.shape, dtype=np.float32))
