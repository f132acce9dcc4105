"""Benchmark and solver workloads.

Two executable benchmarks (ping-pong latency and streaming bandwidth over
the interconnect timing model), a real matrix-free conjugate-gradient
Poisson solver on a 7-point stencil, a modeled per-iteration runtime for
scaling studies, and fixed-duration scenario tasks.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import MaxIterExceeded, ShapeMismatch
from .fabric import InterconnectModel, allreduce_time, comm_time

# ---------------------------------------------------------------------------
# workload specs


class ScalingMode(enum.Enum):
    STRONG = "strong"
    WEAK = "weak"


@dataclass(frozen=True)
class FixedDuration:
    seconds: float

    def __post_init__(self):
        if self.seconds <= 0:
            raise ValueError("duration must be positive")


@dataclass(frozen=True)
class PingPongLatency:
    sizes: tuple[int, ...] = ()
    repetitions: int = 5


@dataclass(frozen=True)
class PingPongBandwidth:
    sizes: tuple[int, ...] = ()
    window: int = 64


@dataclass(frozen=True)
class PoissonCGReal:
    n: int  # cube edge, n**3 unknowns

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid edge must be at least 2")


@dataclass(frozen=True)
class PoissonScalingModeled:
    base_cells: int
    mode: ScalingMode

    def __post_init__(self):
        if self.base_cells < 1:
            raise ValueError("base_cells must be positive")


WorkloadSpec = Union[FixedDuration, PingPongLatency, PingPongBandwidth,
                     PoissonCGReal, PoissonScalingModeled]


def parse_workload(text: str) -> WorkloadSpec:
    """Parse the task workload reference grammar used in jobs documents.

    fixed:<seconds> | pingpong:latency | pingpong:bandwidth |
    poisson:cg:<n> | poisson:strong:<cells> | poisson:weak:<base_cells>
    """
    parts = text.strip().split(":")
    try:
        if parts[0] == "fixed":
            return FixedDuration(float(parts[1]))
        if parts[0] == "pingpong":
            if parts[1] == "latency":
                return PingPongLatency()
            if parts[1] == "bandwidth":
                return PingPongBandwidth()
        if parts[0] == "poisson":
            if parts[1] == "cg":
                return PoissonCGReal(int(parts[2]))
            if parts[1] in ("strong", "weak"):
                return PoissonScalingModeled(int(parts[2]), ScalingMode(parts[1]))
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad workload reference {text!r}: {exc}") from None
    raise ValueError(f"unknown workload reference {text!r}")


def workload_ref(spec: WorkloadSpec) -> str:
    if isinstance(spec, FixedDuration):
        text = f"{spec.seconds:g}"  # short form where it is exact, else the round-trip repr
        return f"fixed:{text if float(text) == spec.seconds else repr(spec.seconds)}"
    if isinstance(spec, PingPongLatency):
        return "pingpong:latency"
    if isinstance(spec, PingPongBandwidth):
        return "pingpong:bandwidth"
    if isinstance(spec, PoissonCGReal):
        return f"poisson:cg:{spec.n}"
    if isinstance(spec, PoissonScalingModeled):
        return f"poisson:{spec.mode.value}:{spec.base_cells}"
    raise TypeError(f"not a workload spec: {spec!r}")


# ---------------------------------------------------------------------------
# OSU-style ping-pong benchmarks

# 0..4 MiB, powers of two, matching the usual point-to-point sweep
LATENCY_SIZES = (0,) + tuple(2**k for k in range(23))
BANDWIDTH_SIZES = tuple(2**k for k in range(23))


def osu_latency(model: InterconnectModel, sizes: Sequence[int] = LATENCY_SIZES,
                repetitions: int = 5, jitter_sigma: float = 0.0,
                seed: int = 0) -> list[tuple[int, float]]:
    """Mean one-way latency per message size (round-trip time halved).

    Optional multiplicative jitter is off by default, keeping the table an
    exact evaluation of the timing model.
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    rng = _jitter_rng(seed) if jitter_sigma > 0 else None
    table = []
    for size in sizes:
        samples = []
        for _ in range(repetitions):
            rtt = 2.0 * comm_time(model, size)
            if rng is not None:
                rtt *= 1.0 + abs(rng.gauss(0.0, jitter_sigma))
            samples.append(rtt / 2.0)
        table.append((size, sum(samples) / repetitions))
    return table


def osu_bandwidth(model: InterconnectModel, sizes: Sequence[int] = BANDWIDTH_SIZES,
                  window: int = 64) -> list[tuple[int, float]]:
    """Sustained rate per size: window*m / (alpha + window*m/beta)."""
    if window < 1:
        raise ValueError("window must be at least 1")
    table = []
    for size in sizes:
        burst = window * size
        table.append((size, burst / (model.alpha + burst / model.beta)))
    return table


def format_table(rows: list[tuple[int, float]], header: str) -> str:
    lines = [f"# {header}", "# bytes\tvalue"]
    for size, value in rows:
        lines.append(f"{size}\t{value!r}")
    return "\n".join(lines) + "\n"


def _jitter_rng(seed: int):
    from .fabric import derived_rng

    return derived_rng(seed, "benchmark-jitter")


# ---------------------------------------------------------------------------
# Poisson problem: 7-point stencil, homogeneous Dirichlet boundaries


@dataclass(frozen=True)
class PoissonGrid:
    nx: int
    ny: int
    nz: int
    h: float

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 2:
            raise ShapeMismatch(f"grid must be at least 2 cells per axis, got "
                                f"{self.nx}x{self.ny}x{self.nz}")
        if self.h <= 0:
            raise ValueError("spacing must be positive")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def cells(self) -> int:
        return self.nx * self.ny * self.nz


def unit_cube_grid(n: int) -> PoissonGrid:
    """n**3 interior unknowns of the unit cube, h = 1/(n+1)."""
    return PoissonGrid(n, n, n, 1.0 / (n + 1))


# Slab size for the blocked CG kernels: planes of the leading axis totalling
# about this many bytes, so a slab of the input and of the output stay in a
# per-core L2 cache.
SLAB_BYTES = 256 * 1024


def _slab_planes(shape: tuple[int, ...]) -> int:
    """Planes of the leading axis per slab for a float64 array of `shape`."""
    plane_bytes = 8 * shape[1] * shape[2]
    return max(1, SLAB_BYTES // plane_bytes)


def apply_poisson(grid: PoissonGrid, field_values: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Matrix-free negative Laplacian with ghost values fixed at zero.

    Each element is 6u, minus its x-, x+, y-, y+, z-, z+ neighbours in that
    order, divided by h*h. The array is swept in slabs along axis 0 so a slab
    of the input and of `out` stay in cache; the per-element order, and so
    every rounding, is the same as one whole-array pass. Writes into `out`
    (C-contiguous, and not sharing memory with the input) when given.
    """
    if field_values.shape != grid.shape:
        raise ShapeMismatch(f"field shape {field_values.shape} does not match grid {grid.shape}")
    if out is None:
        out = np.empty(grid.shape)
    elif out.shape != grid.shape or out.dtype != np.float64:
        raise ShapeMismatch(f"out must be a float64 array of shape {grid.shape}")
    elif not out.flags.c_contiguous or np.shares_memory(out, field_values):
        raise ValueError("out must be C-contiguous and not share memory with the input")
    u = np.ascontiguousarray(field_values, dtype=np.float64)
    nx = grid.nx
    hh = grid.h * grid.h
    step = _slab_planes(grid.shape)
    edge = np.empty((step, grid.ny))
    for i0 in range(0, nx, step):
        i1 = min(i0 + step, nx)
        us, o, e = u[i0:i1], out[i0:i1], edge[:i1 - i0]
        uf, of = us.reshape(-1), o.reshape(-1)  # views: both slabs are contiguous
        np.multiply(us, 6.0, out=o)
        lo = 1 if i0 == 0 else 0  # the first plane has no x- neighbour
        o[lo:] -= u[i0 + lo - 1:i1 - 1]
        hi = i1 - i0 - (1 if i1 == nx else 0)  # the last plane has no x+ neighbour
        o[:hi] -= u[i0 + 1:i0 + 1 + hi]
        o[:, 1:, :] -= us[:, :-1, :]
        o[:, :-1, :] -= us[:, 1:, :]
        # z-: one contiguous pass over the flattened slab, which also takes the
        # previous row's last value from each row's first element; that element
        # has no z- neighbour, so its value from before the pass is put back.
        # z+ likewise, for each row's last element.
        e[...] = o[:, :, 0]
        of[1:] -= uf[:-1]
        o[:, :, 0] = e
        e[...] = o[:, :, -1]
        of[:-1] -= uf[1:]
        o[:, :, -1] = e
        o /= hh
    return out


@dataclass
class CGResult:
    solution: np.ndarray
    iterations: int
    final_residual: float
    runtime_seconds: float
    residual_history: list[float] = field(default_factory=list)


def solve_cg(grid: PoissonGrid, rhs: np.ndarray, tol_abs: float = 1e-12,
             max_iter: int = 20000) -> CGResult:
    """Conjugate gradients on the stencil operator, absolute 2-norm exit test.

    The iterate, residual, direction and operator-product arrays are
    allocated once; the vector updates run in place, slab by slab along
    axis 0 like the stencil, through one slab-sized scratch buffer. Each
    update rounds as the textbook expressions do (x + alpha*p, r - alpha*ap,
    r + beta*p), and both reductions are numpy dots over whole flattened
    arrays, so identical inputs give bit-identical iterates for a fixed BLAS
    thread count: the dot's summation order, and so the iteration count,
    can change with OPENBLAS_NUM_THREADS. The convergence test uses the
    recurrence residual, as iterative solver libraries do.
    """
    import time as _time

    if rhs.shape != grid.shape:
        raise ShapeMismatch(f"rhs shape {rhs.shape} does not match grid {grid.shape}")
    start = _time.perf_counter()
    b = np.asarray(rhs, dtype=np.float64)
    x = np.zeros(grid.shape)
    ap = apply_poisson(grid, x)
    r = np.subtract(b, ap)
    p = r.copy()
    step = _slab_planes(grid.shape)
    scratch = np.empty((step,) + grid.shape[1:])
    slabs = [(slice(i, i + step), scratch[:min(step, grid.nx - i)])
             for i in range(0, grid.nx, step)]
    rz = float(np.dot(r.ravel(), r.ravel()))
    res = float(np.sqrt(rz))
    history = [res]
    if res <= tol_abs:
        return CGResult(x, 0, res, _time.perf_counter() - start, history)
    for k in range(1, max_iter + 1):
        apply_poisson(grid, p, out=ap)
        alpha = rz / float(np.dot(p.ravel(), ap.ravel()))
        for s, t in slabs:
            np.multiply(p[s], alpha, out=t)
            x[s] += t
            np.multiply(ap[s], alpha, out=t)
            r[s] -= t
        rz_new = float(np.dot(r.ravel(), r.ravel()))
        res = float(np.sqrt(rz_new))
        history.append(res)
        if res <= tol_abs:
            return CGResult(x, k, res, _time.perf_counter() - start, history)
        beta = rz_new / rz
        for s, _ in slabs:
            ps = p[s]
            ps *= beta
            ps += r[s]
        rz = rz_new
    raise MaxIterExceeded(max_iter, min(history))


def manufactured_solution(grid: PoissonGrid) -> tuple[np.ndarray, np.ndarray]:
    """sin(2*pi*x)sin(2*pi*y)sin(2*pi*z) sample and its forcing 12*pi^2*u.

    The sample is separable: three 1-D sine vectors multiplied by
    broadcasting, in x, y, z order.
    """
    sx, sy, sz = (np.sin(2 * np.pi * ((np.arange(n) + 1) * grid.h)) for n in grid.shape)
    u = sx[:, None, None] * sy[None, :, None] * sz[None, None, :]
    return u, 12.0 * np.pi**2 * u


# ---------------------------------------------------------------------------
# modeled scaling runtime


@dataclass(frozen=True)
class RuntimeModelConstants:
    """Closure constants for the modeled per-iteration runtime.

    One halo exchange per iteration and neighbor pair over a 1D slab
    decomposition (face taken as cells**(2/3)), two scalar reductions per
    iteration, eight-byte values.
    """

    seconds_per_cell: float = 1e-8
    allreduces_per_iteration: int = 2
    halo_exchanges_per_iteration: int = 2
    bytes_per_value: int = 8


DEFAULT_RUNTIME_CONSTANTS = RuntimeModelConstants()


def modeled_poisson_runtime(cells: int, nodes: int, procs_per_node: int,
                            model: InterconnectModel,
                            constants: RuntimeModelConstants = DEFAULT_RUNTIME_CONSTANTS,
                            ) -> float:
    """Seconds per solver iteration for `cells` unknowns on `nodes` nodes.

    Compute term scales with cells per process; communication (reductions
    plus halo exchange) applies only across nodes, so a single node has no
    communication term.
    """
    if cells < 1 or nodes < 1 or procs_per_node < 1:
        raise ValueError("cells, nodes and procs_per_node must be positive")
    procs = nodes * procs_per_node
    compute = cells * constants.seconds_per_cell / procs
    if nodes == 1:
        return compute
    reduce_bytes = constants.bytes_per_value
    reduction = constants.allreduces_per_iteration * allreduce_time(model, procs, reduce_bytes)
    face_cells = cells ** (2.0 / 3.0)
    halo_bytes = int(face_cells * constants.bytes_per_value)
    halo = constants.halo_exchanges_per_iteration * comm_time(model, halo_bytes)
    return compute + reduction + halo


def scaling_table(spec: PoissonScalingModeled, node_counts: Sequence[int],
                  procs_per_node: int, model: InterconnectModel,
                  constants: RuntimeModelConstants = DEFAULT_RUNTIME_CONSTANTS,
                  ) -> list[tuple[int, float]]:
    """(nodes, seconds/iteration) sweep in strong or weak scaling mode."""
    rows = []
    for nodes in node_counts:
        cells = spec.base_cells if spec.mode is ScalingMode.STRONG else spec.base_cells * nodes
        rows.append((nodes, modeled_poisson_runtime(cells, nodes, procs_per_node, model,
                                                    constants)))
    return rows


# ---------------------------------------------------------------------------
# task execution: simulated duration plus output artifacts


@dataclass(frozen=True)
class TaskContext:
    instances: int
    procs_per_node: int
    model: InterconnectModel
    constants: RuntimeModelConstants = DEFAULT_RUNTIME_CONSTANTS


@dataclass
class WorkloadResult:
    duration_seconds: float
    outputs: list[tuple[str, bytes]] = field(default_factory=list)


def execute(spec: WorkloadSpec, ctx: TaskContext) -> WorkloadResult:
    """Run (or model) the workload, yielding simulated duration and artifacts."""
    if isinstance(spec, FixedDuration):
        return WorkloadResult(spec.seconds, [("run.log", _run_log(spec, ctx))])
    if isinstance(spec, PingPongLatency):
        sizes = spec.sizes or LATENCY_SIZES
        table = osu_latency(ctx.model, sizes, spec.repetitions)
        duration = spec.repetitions * sum(2.0 * comm_time(ctx.model, s) for s in sizes)
        text = format_table(table, f"ping-pong latency, model={ctx.model.name} (seconds)")
        return WorkloadResult(duration, [("latency.tsv", text.encode())])
    if isinstance(spec, PingPongBandwidth):
        sizes = spec.sizes or BANDWIDTH_SIZES
        table = osu_bandwidth(ctx.model, sizes, spec.window)
        duration = sum(ctx.model.alpha + spec.window * s / ctx.model.beta for s in sizes)
        text = format_table(table, f"streaming bandwidth, model={ctx.model.name} (bytes/s)")
        return WorkloadResult(duration, [("bandwidth.tsv", text.encode())])
    if isinstance(spec, PoissonCGReal):
        grid = unit_cube_grid(spec.n)
        _, rhs = manufactured_solution(grid)
        result = solve_cg(grid, rhs)
        per_iter = modeled_poisson_runtime(grid.cells, ctx.instances, ctx.procs_per_node,
                                           ctx.model, ctx.constants)
        duration = max(result.iterations, 1) * per_iter
        report = io.StringIO()
        report.write(f"grid\t{spec.n}x{spec.n}x{spec.n}\n")
        report.write(f"iterations\t{result.iterations}\n")
        report.write(f"final_residual\t{result.final_residual!r}\n")
        return WorkloadResult(duration, [("solve.tsv", report.getvalue().encode())])
    if isinstance(spec, PoissonScalingModeled):
        counts = list(range(1, ctx.instances + 1))
        rows = scaling_table(spec, counts, ctx.procs_per_node, ctx.model, ctx.constants)
        duration = sum(r for _, r in rows) * 100  # nominal 100 iterations per point
        text = format_table(rows, f"{spec.mode.value} scaling, base={spec.base_cells} cells "
                                  f"(seconds/iteration)")
        return WorkloadResult(duration, [("scaling.tsv", text.encode())])
    raise TypeError(f"not a workload spec: {spec!r}")


def _run_log(spec: FixedDuration, ctx: TaskContext) -> bytes:
    return (f"fixed-duration task: {spec.seconds:g} s on {ctx.instances} instances, "
            f"{ctx.procs_per_node} processes per node\n").encode()
