import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchsim.errors import MaxIterExceeded, ShapeMismatch
from batchsim.fabric import AZURE_INTERCONNECT, COLONIAL_INTERCONNECT, allreduce_time, comm_time
from batchsim.workloads import (
    BANDWIDTH_SIZES,
    LATENCY_SIZES,
    FixedDuration,
    PingPongBandwidth,
    PingPongLatency,
    PoissonCGReal,
    PoissonGrid,
    PoissonScalingModeled,
    ScalingMode,
    TaskContext,
    apply_poisson,
    execute,
    manufactured_solution,
    modeled_poisson_runtime,
    osu_bandwidth,
    osu_latency,
    parse_workload,
    scaling_table,
    solve_cg,
    unit_cube_grid,
    workload_ref,
)


def _stencil_eigenvalue(grid: PoissonGrid) -> float:
    """The manufactured sin-product sample is a discrete eigenvector; its
    eigenvalue is the sum over axes of 4 sin^2(pi h)/h^2 for mode 2."""
    lam = 0.0
    for _ in range(3):
        lam += 4 * math.sin(math.pi * grid.h) ** 2 / grid.h**2
    return lam


# ---------------------------------------------------------------------------
# stencil operator


def test_constant_field_interior_zero_boundary_nonzero():
    grid = unit_cube_grid(8)
    out = apply_poisson(grid, np.ones(grid.shape))
    assert out[4, 4, 4] == 0.0
    assert out[0, 4, 4] != 0.0  # Dirichlet ghost at zero pulls the edge


def test_apply_shape_mismatch():
    grid = unit_cube_grid(8)
    with pytest.raises(ShapeMismatch):
        apply_poisson(grid, np.zeros((4, 4, 4)))


def test_grid_below_minimum():
    with pytest.raises(ShapeMismatch):
        PoissonGrid(1, 1, 1, 0.1)


def test_manufactured_field_is_discrete_eigenvector():
    grid = unit_cube_grid(16)
    u, _ = manufactured_solution(grid)
    lam = _stencil_eigenvalue(grid)
    assert np.allclose(apply_poisson(grid, u), lam * u, rtol=1e-12, atol=1e-9)


def test_apply_approximates_continuous_operator_second_order():
    # apply(u) ~= 12 pi^2 u with O(h^2) error; ratio between grids ~= 4
    errors = {}
    for n in (16, 32):
        grid = unit_cube_grid(n)
        u, rhs = manufactured_solution(grid)
        err = np.max(np.abs(apply_poisson(grid, u) - rhs))
        scale = 12 * math.pi**2 * np.max(np.abs(u))
        errors[n] = err / scale
    ratio = errors[16] / errors[32]
    assert 3.0 < ratio < 5.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_operator_symmetry(seed):
    rng = np.random.default_rng(seed)
    grid = unit_cube_grid(6)
    u = rng.standard_normal(grid.shape)
    v = rng.standard_normal(grid.shape)
    au, av = apply_poisson(grid, u).ravel(), apply_poisson(grid, v).ravel()
    u, v = u.ravel(), v.ravel()
    # each rounded dot lies within a few ulps of the sum of its |terms|; a
    # tolerance relative to the dot itself fails where the terms cancel
    scale = float(np.dot(np.abs(au), np.abs(v)) + np.dot(np.abs(u), np.abs(av)))
    assert abs(float(np.dot(au, v)) - float(np.dot(u, av))) <= 4 * np.finfo(float).eps * scale


def test_operator_matrix_is_exactly_symmetric():
    grid = PoissonGrid(3, 4, 5, 0.1)
    units = np.eye(grid.cells).reshape((grid.cells,) + grid.shape)
    matrix = np.stack([apply_poisson(grid, e).ravel() for e in units])
    assert np.array_equal(matrix, matrix.T)


# ---------------------------------------------------------------------------
# conjugate gradients


def test_cg_zero_rhs():
    grid = unit_cube_grid(8)
    result = solve_cg(grid, np.zeros(grid.shape))
    assert result.iterations == 0
    assert result.final_residual == 0.0
    assert not result.solution.any()


@pytest.mark.parametrize("n", [16, 32])
def test_cg_manufactured_solution(n):
    grid = unit_cube_grid(n)
    exact, rhs = manufactured_solution(grid)
    result = solve_cg(grid, rhs, tol_abs=1e-12)
    assert result.final_residual <= 1e-12
    # discrete solution is (12 pi^2 / lambda_h) * u; solver error is tiny
    lam = _stencil_eigenvalue(grid)
    predicted = abs(12 * math.pi**2 / lam - 1.0) * float(np.max(np.abs(exact)))
    measured = float(np.max(np.abs(result.solution - exact)))
    assert measured == pytest.approx(predicted, rel=0.02)


def test_cg_spatial_convergence_order():
    errors = {}
    for n in (16, 32):
        grid = unit_cube_grid(n)
        exact, rhs = manufactured_solution(grid)
        result = solve_cg(grid, rhs, tol_abs=1e-12)
        errors[n] = float(np.max(np.abs(result.solution - exact)))
    order = math.log(errors[16] / errors[32]) / math.log(33 / 17)
    assert 1.8 <= order <= 2.2


def test_cg_iterations_nondecreasing_with_refinement():
    iters = {}
    for n in (16, 32):
        grid = unit_cube_grid(n)
        _, rhs = manufactured_solution(grid)
        iters[n] = solve_cg(grid, rhs).iterations
    assert iters[16] <= iters[32]


def test_cg_residual_history_controlled():
    grid = unit_cube_grid(16)
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(grid.shape)
    result = solve_cg(grid, rhs, tol_abs=1e-10)
    history = result.residual_history
    assert history[-1] <= 1e-10
    running_min = history[0]
    for value in history:
        assert value <= 10.0 * running_min
        running_min = min(running_min, value)


def test_cg_bit_identical_reruns():
    grid = unit_cube_grid(16)
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal(grid.shape)
    a = solve_cg(grid, rhs)
    b = solve_cg(grid, rhs)
    assert a.iterations == b.iterations
    assert np.array_equal(a.solution, b.solution)
    assert a.residual_history == b.residual_history


def test_cg_max_iter_carries_best_residual():
    grid = unit_cube_grid(12)
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(grid.shape)
    with pytest.raises(MaxIterExceeded) as err:
        solve_cg(grid, rhs, tol_abs=1e-14, max_iter=3)
    assert err.value.iterations == 3
    assert err.value.best_residual > 0


def test_cg_rhs_shape_checked():
    grid = unit_cube_grid(8)
    with pytest.raises(ShapeMismatch):
        solve_cg(grid, np.zeros((8, 8, 7)))


# ---------------------------------------------------------------------------
# ping-pong benchmarks


def test_latency_smallest_message_endpoints():
    azure = osu_latency(AZURE_INTERCONNECT, LATENCY_SIZES)
    colonial = osu_latency(COLONIAL_INTERCONNECT, LATENCY_SIZES)
    assert azure[0] == (0, 1.95e-6)
    assert colonial[0] == (0, 1.25e-6)


def test_latency_strictly_increasing():
    table = osu_latency(AZURE_INTERCONNECT, LATENCY_SIZES)
    values = [v for _, v in table]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_latency_jitter_reproducible_and_optional():
    base = osu_latency(AZURE_INTERCONNECT, (0, 1024), repetitions=3)
    noisy1 = osu_latency(AZURE_INTERCONNECT, (0, 1024), repetitions=3,
                         jitter_sigma=0.05, seed=1)
    noisy2 = osu_latency(AZURE_INTERCONNECT, (0, 1024), repetitions=3,
                         jitter_sigma=0.05, seed=1)
    assert noisy1 == noisy2
    assert noisy1 != base
    assert all(nv >= bv for (_, bv), (_, nv) in zip(base, noisy1))


def test_bandwidth_plateau_within_one_percent():
    azure = osu_bandwidth(AZURE_INTERCONNECT, BANDWIDTH_SIZES)
    colonial = osu_bandwidth(COLONIAL_INTERCONNECT, BANDWIDTH_SIZES)
    assert azure[-1][1] == pytest.approx(5.2e9, rel=0.01)
    assert colonial[-1][1] == pytest.approx(6.2e9, rel=0.01)


def test_bandwidth_zero_message():
    table = osu_bandwidth(AZURE_INTERCONNECT, (0, 1), window=1)
    assert table[0] == (0, 0.0)
    assert table[1][1] > 0


def test_bandwidth_formula():
    window, size = 64, 65536
    (got,) = [v for s, v in osu_bandwidth(AZURE_INTERCONNECT, (size,), window) if s == size]
    burst = window * size
    assert got == pytest.approx(burst / (1.95e-6 + burst / 5.2e9), rel=1e-15)


# ---------------------------------------------------------------------------
# modeled scaling runtime


def test_modeled_runtime_single_node_has_no_comm_term():
    runtime = modeled_poisson_runtime(50_000_000, 1, 16, AZURE_INTERCONNECT)
    assert runtime == pytest.approx(50_000_000 * 1e-8 / 16, rel=1e-15)


def test_modeled_runtime_strong_scaling_decreases():
    one = modeled_poisson_runtime(50_000_000, 1, 16, AZURE_INTERCONNECT)
    two = modeled_poisson_runtime(50_000_000, 2, 16, AZURE_INTERCONNECT)
    assert two < one


def test_modeled_runtime_weak_scaling_bounded():
    table = scaling_table(PoissonScalingModeled(6_250_000, ScalingMode.WEAK),
                          [1, 2, 3, 4], 12, AZURE_INTERCONNECT)
    times = [t for _, t in table]
    assert max(times) <= 2 * min(times)


def test_modeled_runtime_comm_terms():
    cells, nodes, ppn = 1_000_000, 4, 8
    runtime = modeled_poisson_runtime(cells, nodes, ppn, AZURE_INTERCONNECT)
    compute = cells * 1e-8 / (nodes * ppn)
    reduction = 2 * allreduce_time(AZURE_INTERCONNECT, nodes * ppn, 8)
    halo = 2 * comm_time(AZURE_INTERCONNECT, int(cells ** (2 / 3) * 8))
    assert runtime == pytest.approx(compute + reduction + halo, rel=1e-12)


# ---------------------------------------------------------------------------
# workload references and execution


@pytest.mark.parametrize("text,spec", [
    ("fixed:25200", FixedDuration(25200.0)),
    ("pingpong:latency", PingPongLatency()),
    ("pingpong:bandwidth", PingPongBandwidth()),
    ("poisson:cg:16", PoissonCGReal(16)),
    ("poisson:strong:50000000", PoissonScalingModeled(50_000_000, ScalingMode.STRONG)),
    ("poisson:weak:6250000", PoissonScalingModeled(6_250_000, ScalingMode.WEAK)),
])
def test_workload_reference_round_trip(text, spec):
    assert parse_workload(text) == spec
    assert parse_workload(workload_ref(spec)) == spec


workload_specs = st.one_of(
    st.builds(FixedDuration, st.floats(min_value=0.0, exclude_min=True, allow_nan=False)),
    st.just(PingPongLatency()),
    st.just(PingPongBandwidth()),
    st.builds(PoissonCGReal, st.integers(min_value=2, max_value=10**6)),
    st.builds(PoissonScalingModeled, st.integers(min_value=1, max_value=10**12),
              st.sampled_from(ScalingMode)),
)


@given(workload_specs)
def test_workload_reference_lossless(spec):
    assert parse_workload(workload_ref(spec)) == spec


@pytest.mark.parametrize("seconds,ref", [
    (25200.0, "fixed:25200"),
    (489600.0, "fixed:489600"),
    (60.0, "fixed:60"),
    (3599.0, "fixed:3599"),
    (1206828.0, "fixed:1206828.0"),  # snake3d_fine; ":g" would round it to 1.20683e+06
])
def test_workload_reference_short_where_exact(seconds, ref):
    assert workload_ref(FixedDuration(seconds)) == ref


def test_workload_reference_rejects_garbage():
    for bad in ("", "fixed", "fixed:-1", "poisson:amg:4", "warp:9"):
        with pytest.raises(ValueError):
            parse_workload(bad)


@pytest.fixture
def ctx():
    return TaskContext(instances=2, procs_per_node=12, model=AZURE_INTERCONNECT)


def test_execute_fixed(ctx):
    result = execute(FixedDuration(3600.0), ctx)
    assert result.duration_seconds == 3600.0
    assert result.outputs and result.outputs[0][0] == "run.log"


def test_execute_latency_benchmark(ctx):
    result = execute(PingPongLatency(sizes=(0, 8, 64)), ctx)
    assert result.duration_seconds > 0
    name, content = result.outputs[0]
    assert name == "latency.tsv"
    assert b"0\t1.95e-06" in content


def test_execute_poisson_cg(ctx):
    result = execute(PoissonCGReal(8), ctx)
    assert result.duration_seconds > 0
    name, content = result.outputs[0]
    assert name == "solve.tsv"
    assert b"iterations" in content


def test_execute_scaling(ctx):
    result = execute(PoissonScalingModeled(1_000_000, ScalingMode.STRONG), ctx)
    name, content = result.outputs[0]
    assert name == "scaling.tsv"
    assert content.count(b"\n") >= 4
