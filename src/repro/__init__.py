"""repro — Atomic Vector Operations on Chip Multiprocessors (ISCA 2008).

A from-scratch reproduction of the GLSC proposal (gather-linked /
scatter-conditional SIMD atomics): an execution-driven CMP timing
simulator, the paper's seven RMS benchmark kernels in Base (scalar
ll/sc) and GLSC variants, and a harness regenerating every table and
figure of the paper's evaluation.

Quickstart::

    from repro import Machine, MachineConfig

    cfg = MachineConfig(n_cores=4, threads_per_core=4, simd_width=4)
    machine = Machine(cfg)
    counters = machine.image.alloc_zeros(64)

    def program(ctx):
        indices = [(ctx.tid + lane) % 64 for lane in range(ctx.w)]
        todo = ctx.all_ones()
        while todo.any():
            vals, got = yield ctx.vgatherlink(counters.base, indices, todo)
            inc = yield ctx.valu(lambda: tuple(v + 1 for v in vals))
            ok = yield ctx.vscattercond(counters.base, indices, inc, got)
            todo = yield ctx.kalu(lambda: todo.andnot(ok))

    for _ in range(cfg.n_threads):
        machine.add_program(program)
    stats = machine.run()

The **stable public surface** for running experiments is re-exported
here: declare runs as :class:`RunSpec` values, collect them in a
:class:`Sweep`, and execute them with an :class:`Executor` (dedup,
process-pool parallelism, a persistent :class:`ResultStore`, or
``backend="queue://<dir>"`` to hand the work to ``repro worker``
processes)::

    from repro import Executor, ResultStore, RunSpec, Sweep

    sweep = Sweep.product(kernels=("tms", "gbc"), datasets=("A",))
    stats = Executor(jobs=4, store=ResultStore()).run_sweep(sweep)

Lower-level entry points remain importable from their homes:
:mod:`repro.sim.runner` (run a named kernel on a named dataset),
:mod:`repro.service` (work queue and worker loop), and
:mod:`repro.harness` (regenerate the paper's tables and figures).
"""

from repro.errors import (
    ConfigError,
    DeadlockError,
    IsaError,
    ProgramError,
    ReproError,
    SimulationError,
    VerificationError,
)
from repro.isa.instructions import Instr, Kind
from repro.isa.masks import Mask
from repro.isa.program import Program, ThreadCtx
from repro.mem.image import ArrayView, MemoryImage
from repro.sim.config import CONFIG_NAMES, MachineConfig, named_config
from repro.sim.executor import Executor, RunSpec, Sweep, execute_spec
from repro.sim.machine import Machine
from repro.sim.stats import MachineStats, ThreadStats
from repro.sim.store import ResultStore

__version__ = "1.1.0"

__all__ = [
    "ArrayView",
    "CONFIG_NAMES",
    "ConfigError",
    "DeadlockError",
    "Executor",
    "Instr",
    "IsaError",
    "Kind",
    "Machine",
    "MachineConfig",
    "MachineStats",
    "Mask",
    "MemoryImage",
    "Program",
    "ProgramError",
    "ReproError",
    "ResultStore",
    "RunSpec",
    "SimulationError",
    "Sweep",
    "ThreadCtx",
    "ThreadStats",
    "VerificationError",
    "execute_spec",
    "named_config",
    "__version__",
]
