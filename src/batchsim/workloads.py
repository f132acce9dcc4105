"""Benchmark and solver workloads.

Two executable benchmarks (ping-pong latency and streaming bandwidth over
the interconnect timing model), a real matrix-free conjugate-gradient
Poisson solver on a 7-point stencil, a modeled per-iteration runtime for
scaling studies, and fixed-duration scenario tasks.
"""

from __future__ import annotations

import enum
import functools
import io
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

from .errors import SimulationError, ValidationError
from .fabric import InterconnectModel, allreduce_time, comm_time

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

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
    """The LATENCY_SIZES sweep, LATENCY_REPETITIONS round trips per size."""


@dataclass(frozen=True)
class PingPongBandwidth:
    """The BANDWIDTH_SIZES sweep, BANDWIDTH_WINDOW messages in flight per size."""


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


@functools.lru_cache(maxsize=4096)  # task rows repeat their references; specs are frozen
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
    return f"poisson:{spec.mode.value}:{spec.base_cells}"  # the last class: PoissonScalingModeled


# ---------------------------------------------------------------------------
# OSU-style ping-pong benchmarks

# 0..4 MiB, powers of two, matching the usual point-to-point sweep
LATENCY_SIZES = (0,) + tuple(2**k for k in range(23))
BANDWIDTH_SIZES = tuple(2**k for k in range(23))
LATENCY_REPETITIONS = 5  # round trips averaged per size
BANDWIDTH_WINDOW = 64  # messages in flight per size


def osu_latency(model: InterconnectModel,
                sizes: Sequence[int] = LATENCY_SIZES) -> list[tuple[int, float]]:
    """Mean one-way latency per message size over LATENCY_REPETITIONS round trips
    (round-trip time halved), an exact evaluation of the timing model."""
    table = []
    for size in sizes:
        one_way = comm_time(model, size)
        table.append((size, sum([one_way] * LATENCY_REPETITIONS) / LATENCY_REPETITIONS))
    return table


def osu_bandwidth(model: InterconnectModel,
                  sizes: Sequence[int] = BANDWIDTH_SIZES) -> list[tuple[int, float]]:
    """Sustained rate per size: window*m / (alpha + window*m/beta), BANDWIDTH_WINDOW messages."""
    table = []
    for size in sizes:
        burst = BANDWIDTH_WINDOW * size
        table.append((size, burst / (model.alpha + burst / model.beta)))
    return table


def format_table(rows: list[tuple[int, float]], header: str) -> str:
    lines = [f"# {header}", "# bytes\tvalue"]
    for size, value in rows:
        lines.append(f"{size}\t{value!r}")
    return "\n".join(lines) + "\n"


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
            raise ValidationError(f"grid must be at least 2 cells per axis, got "
                                  f"{self.nx}x{self.ny}x{self.nz}")

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
# per-core L2 cache. Of 256, 512 and 1024 KiB, 512 gave the fastest two-thread
# solves on a 2-vCPU Xeon.
SLAB_BYTES = 512 * 1024


def _slab_planes(shape: tuple[int, ...]) -> int:
    """Planes of the leading axis per slab for a float64 array of `shape`."""
    plane_bytes = 8 * shape[1] * shape[2]
    return max(1, SLAB_BYTES // plane_bytes)


# The most threads one CG solve sweeps with. Two threads were measured faster
# than one on a 2-vCPU Xeon; more have not been measured, so wider hosts leave
# the other CPUs idle.
MAX_SWEEP_THREADS = 2


def _sweep_threads() -> int:
    """Threads one CG solve sweeps with: one per CPU this process may run on, up to
    MAX_SWEEP_THREADS. A CPU quota set by a cgroup is not seen here."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1  # platforms without CPU affinity
    return min(cpus, MAX_SWEEP_THREADS)


def _run_ranks(pool: ThreadPoolExecutor | None, ranks: int, task, *args):
    """Call task(0, *args) on the calling thread and task(k, *args) in `pool` for
    k = 1..ranks-1, and return once all of them have; the first exception any of
    them raised is raised here. With one rank, nothing is submitted."""
    futures = [pool.submit(task, rank, *args) for rank in range(1, ranks)]
    try:
        task(0, *args)
    finally:
        errors = [e for e in [f.exception() for f in futures] if e is not None]
    if errors:
        raise errors[0]


def _rank_slabs(nx: int, step: int, ranks: int) -> list[list[slice]]:
    """Planes 0..nx of the leading axis cut into `ranks` contiguous ranges of near-equal
    length, one per rank of a sweep, each range in slabs of at most `step` planes."""
    bounds = [k * nx // ranks for k in range(ranks + 1)]
    return [[slice(i, min(i + step, hi)) for i in range(lo, hi, step)]
            for lo, hi in zip(bounds, bounds[1:])]


def apply_poisson(grid: PoissonGrid, field_values: np.ndarray,
                  out: np.ndarray | None = None, pool: ThreadPoolExecutor | None = None,
                  ranks: int = 1) -> np.ndarray:
    """Matrix-free negative Laplacian with ghost values fixed at zero.

    Each element is 6u, minus its x-, x+, y-, y+, z-, z+ neighbours in that
    order, divided by h*h. The array is swept in slabs along axis 0 so a slab
    of the input and of `out` stay in cache; the per-element order, and so
    every rounding, is the same as one whole-array pass. The planes are cut
    into `ranks` contiguous ranges: the calling thread sweeps the first and
    `pool`'s threads the others, so a pool is needed only for more than one
    rank. Writes into `out` (C-contiguous, and not sharing memory with the
    input) when given.
    """
    if field_values.shape != grid.shape:
        raise ValidationError(f"field shape {field_values.shape} does not match grid {grid.shape}")
    if out is None:
        out = np.empty(grid.shape)
    elif out.shape != grid.shape or out.dtype != np.float64:
        raise ValidationError(f"out must be a float64 array of shape {grid.shape}")
    elif not out.flags.c_contiguous or np.shares_memory(out, field_values):
        raise ValueError("out must be C-contiguous and not share memory with the input")
    u = np.ascontiguousarray(field_values, dtype=np.float64)
    slabs = _rank_slabs(grid.nx, _slab_planes(grid.shape), ranks)
    _run_ranks(pool, ranks, _stencil_slabs, slabs, u, out, grid)
    return out


def _stencil_slabs(rank: int, slabs: list[list[slice]], u: np.ndarray, out: np.ndarray,
                   grid: PoissonGrid):
    """apply_poisson's sweep over slabs[rank], with this thread's own edge buffer."""
    nx, hh = grid.nx, grid.h * grid.h
    edge = np.empty((min(_slab_planes(grid.shape), nx), grid.ny))
    for s in slabs[rank]:
        i0, i1 = s.start, s.stop
        us, o, e = u[s], out[s], edge[:i1 - i0]
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


@dataclass
class CGResult:
    solution: np.ndarray
    iterations: int
    final_residual: float
    residual_history: list[float] = field(default_factory=list)


def solve_cg(grid: PoissonGrid, rhs: np.ndarray, tol_abs: float = 1e-12,
             max_iter: int = 20000) -> CGResult:
    """Conjugate gradients on the stencil operator, absolute 2-norm exit test.

    Consumes `rhs`: from x = 0 the first residual is rhs itself, bit for bit, so a
    C-contiguous, writeable float64 `rhs` is the residual array and holds the final
    recurrence residual on return; any other is copied first. The only grid arrays
    it allocates are x, p and A*p. The stencil and the vector updates run in place,
    slab by slab along axis 0, on one thread per CPU this process may use, up to
    MAX_SWEEP_THREADS and one per slab: the calling thread sweeps the first range of
    planes and the threads of a ThreadPoolExecutor, opened for the solve and shut
    down at its end, sweep the others, each update through its own slab-sized
    scratch buffer; with one range, no thread starts. Every element is computed by
    the same operations whichever thread sweeps it, and each update rounds as the
    textbook expressions do (x + alpha*p, r - alpha*ap, r + beta*p), so the iterates
    do not depend on the thread count. Both reductions are numpy dots over whole
    flattened arrays on the calling thread, so identical inputs give bit-identical
    iterates for a fixed BLAS thread count: the dot's summation order, and so the
    iteration count, can change with OPENBLAS_NUM_THREADS. The convergence test uses
    the recurrence residual, as iterative solver libraries do.
    """
    if rhs.shape != grid.shape:
        raise ValidationError(f"rhs shape {rhs.shape} does not match grid {grid.shape}")
    r = np.require(rhs, np.float64, "CW")
    x = np.zeros(grid.shape)
    rz = float(np.dot(r.ravel(), r.ravel()))
    res = float(np.sqrt(rz))
    history = [res]
    if res <= tol_abs:
        return CGResult(x, 0, res, history)
    p, ap = r.copy(), np.empty(grid.shape)
    step = min(_slab_planes(grid.shape), grid.nx)
    workers = min(_sweep_threads(), -(-grid.nx // step))  # at most one thread per slab
    slabs = _rank_slabs(grid.nx, step, workers)
    scratch = [np.empty((step,) + grid.shape[1:]) for _ in slabs]

    def update_xr(rank, alpha):
        t = scratch[rank]
        for s in slabs[rank]:
            ts = t[:s.stop - s.start]
            np.multiply(p[s], alpha, out=ts)
            x[s] += ts
            np.multiply(ap[s], alpha, out=ts)
            r[s] -= ts

    def update_p(rank, beta):
        for s in slabs[rank]:
            ps = p[s]
            ps *= beta
            ps += r[s]

    # not at module level: it imports logging, which would slow every CLI start-up
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max(workers - 1, 1), thread_name_prefix="batchsim-cg") as pool:
        for k in range(1, max_iter + 1):
            apply_poisson(grid, p, out=ap, pool=pool, ranks=workers)
            _run_ranks(pool, workers, update_xr, rz / float(np.dot(p.ravel(), ap.ravel())))
            rz_new = float(np.dot(r.ravel(), r.ravel()))
            res = float(np.sqrt(rz_new))
            history.append(res)
            if res <= tol_abs:
                return CGResult(x, k, res, history)
            _run_ranks(pool, workers, update_p, rz_new / rz)
            rz = rz_new
    raise SimulationError(f"no convergence after {max_iter} iterations, "
                          f"best residual {min(history):.3e}")


def manufactured_solution(grid: PoissonGrid) -> tuple[np.ndarray, np.ndarray]:
    """The sine sample u and its forcing 12*pi^2*u."""
    u = sine_sample(grid)
    return u, 12.0 * np.pi**2 * u


def sine_sample(grid: PoissonGrid) -> np.ndarray:
    """sin(2*pi*x)sin(2*pi*y)sin(2*pi*z) at the interior points.

    The sample is separable: three 1-D sine vectors multiplied by
    broadcasting, in x, y, z order.
    """
    sx, sy, sz = (np.sin(2 * np.pi * ((np.arange(n) + 1) * grid.h)) for n in grid.shape)
    return sx[:, None, None] * sy[None, :, None] * sz[None, None, :]


# ---------------------------------------------------------------------------
# modeled scaling runtime


# Closure constants of the modeled per-iteration runtime: one halo exchange
# per iteration and neighbor pair over a 1D slab decomposition (face taken as
# cells**(2/3)), two scalar reductions per iteration, eight-byte values.
SECONDS_PER_CELL = 1e-8
ALLREDUCES_PER_ITERATION = 2
HALO_EXCHANGES_PER_ITERATION = 2
BYTES_PER_VALUE = 8


def modeled_poisson_runtime(cells: int, nodes: int, procs_per_node: int,
                            model: InterconnectModel) -> float:
    """Seconds per solver iteration for `cells` unknowns on `nodes` nodes.

    Compute term scales with cells per process; communication (reductions
    plus halo exchange) applies only across nodes, so a single node has no
    communication term.
    """
    procs = nodes * procs_per_node
    compute = cells * SECONDS_PER_CELL / procs
    if nodes == 1:
        return compute
    reduction = ALLREDUCES_PER_ITERATION * allreduce_time(model, procs, BYTES_PER_VALUE)
    face_cells = cells ** (2.0 / 3.0)
    halo_bytes = int(face_cells * BYTES_PER_VALUE)
    halo = HALO_EXCHANGES_PER_ITERATION * comm_time(model, halo_bytes)
    return compute + reduction + halo


def scaling_table(spec: PoissonScalingModeled, node_counts: Sequence[int],
                  procs_per_node: int, model: InterconnectModel) -> list[tuple[int, float]]:
    """(nodes, seconds/iteration) sweep in strong or weak scaling mode."""
    rows = []
    for nodes in node_counts:
        cells = spec.base_cells if spec.mode is ScalingMode.STRONG else spec.base_cells * nodes
        rows.append((nodes, modeled_poisson_runtime(cells, nodes, procs_per_node, model)))
    return rows


# ---------------------------------------------------------------------------
# task execution: simulated duration plus output artifacts


@dataclass(frozen=True)
class TaskContext:
    instances: int
    procs_per_node: int
    model: InterconnectModel


@dataclass(slots=True)
class WorkloadResult:
    duration_seconds: float
    outputs: list[tuple[str, bytes]] = field(default_factory=list)


def execute(spec: WorkloadSpec, ctx: TaskContext) -> WorkloadResult:
    """Run (or model) the workload, yielding simulated duration and artifacts."""
    if isinstance(spec, FixedDuration):
        text = (f"fixed-duration task: {spec.seconds:g} s on {ctx.instances} instances, "
                f"{ctx.procs_per_node} processes per node\n")
        return WorkloadResult(spec.seconds, [("run.log", text.encode())])
    if isinstance(spec, PingPongLatency):
        table = osu_latency(ctx.model)
        duration = LATENCY_REPETITIONS * sum(2.0 * comm_time(ctx.model, s) for s in LATENCY_SIZES)
        text = format_table(table, f"ping-pong latency, model={ctx.model.name} (seconds)")
        return WorkloadResult(duration, [("latency.tsv", text.encode())])
    if isinstance(spec, PingPongBandwidth):
        table = osu_bandwidth(ctx.model)
        duration = sum(ctx.model.alpha + BANDWIDTH_WINDOW * s / ctx.model.beta
                       for s in BANDWIDTH_SIZES)
        text = format_table(table, f"streaming bandwidth, model={ctx.model.name} (bytes/s)")
        return WorkloadResult(duration, [("bandwidth.tsv", text.encode())])
    if isinstance(spec, PoissonCGReal):
        grid = unit_cube_grid(spec.n)
        rhs = sine_sample(grid)  # manufactured_solution's forcing, scaled in the sample's
        rhs *= 12.0 * np.pi**2   # array: the same bits; solve_cg then uses it as its residual
        result = solve_cg(grid, rhs)
        per_iter = modeled_poisson_runtime(grid.cells, ctx.instances, ctx.procs_per_node,
                                           ctx.model)
        duration = max(result.iterations, 1) * per_iter
        report = io.StringIO()
        report.write(f"grid\t{spec.n}x{spec.n}x{spec.n}\n")
        report.write(f"iterations\t{result.iterations}\n")
        report.write(f"final_residual\t{result.final_residual!r}\n")
        return WorkloadResult(duration, [("solve.tsv", report.getvalue().encode())])
    # the last WorkloadSpec class: PoissonScalingModeled
    counts = list(range(1, ctx.instances + 1))
    rows = scaling_table(spec, counts, ctx.procs_per_node, ctx.model)
    duration = sum(r for _, r in rows) * 100  # nominal 100 iterations per point
    text = format_table(rows, f"{spec.mode.value} scaling, base={spec.base_cells} cells "
                              f"(seconds/iteration)")
    return WorkloadResult(duration, [("scaling.tsv", text.encode())])
