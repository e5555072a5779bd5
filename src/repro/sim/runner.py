"""High-level run API: kernel x dataset x machine config x variant.

This is the seam the harness, benches, and examples share::

    from repro.sim.runner import run_kernel

    result = run_kernel("hip", "A", named_config("4x4"), "glsc")
    print(result.stats.cycles)

Every run builds a fresh machine and kernel instance, executes to
completion, and verifies the kernel's output against its oracle, so a
timing number from this API always comes from a *correct* execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels.common import KernelBase
from repro.kernels.registry import make_kernel
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.stats import MachineStats

__all__ = ["RunResult", "run_kernel", "run_prepared", "verify_run"]


def verify_run(kernel: KernelBase, machine: Machine) -> None:
    """Post-run correctness checks shared by ``run_prepared`` and
    :class:`~repro.sim.batch.BatchRunner`:
    the kernel's output oracle, then the coherence system's global
    invariants."""
    kernel.verify()
    machine.coherence.check_invariants()


@dataclass
class RunResult:
    """Outcome of one verified kernel run."""

    kernel_name: str
    dataset: str
    variant: str
    config: MachineConfig
    stats: MachineStats

    @property
    def cycles(self) -> int:
        """Execution time of the run, in cycles."""
        return self.stats.cycles


def run_prepared(
    kernel: KernelBase,
    config: MachineConfig,
    variant: str,
    verify: bool = True,
    warm: bool = False,
    tracer=None,
    obs=None,
    on_machine=None,
) -> MachineStats:
    """Run an already-constructed kernel instance on a fresh machine.

    ``warm`` pre-loads the kernel's data into the caches and resets the
    statistics.  The paper's *microbenchmark* is measured warm
    (Section 5.2), but its application benchmarks run cold: the misses
    on the sparse shared structures — and GLSC's ability to overlap
    them — are a large part of the measured effect, so kernels default
    to cold caches and rely on the stride prefetcher for their
    streaming inputs, as the paper's machine does.

    ``tracer`` attaches an :class:`~repro.sim.trace.InstructionTrace`
    (or compatible observer) to the machine; ``obs`` attaches an
    :class:`~repro.obs.bus.EventBus` for the full typed event stream.
    Observation never changes timing, only records it.

    ``on_machine``, when given, is called with the machine right after
    the kernel allocates — diagnostics use it to capture pre-run state
    (e.g. the memory image's named regions for symbolization).
    """
    machine = Machine(config, tracer=tracer, obs=obs)
    kernel.allocate(machine.image)
    if on_machine is not None:
        on_machine(machine)
    program = kernel.program(variant)
    for _ in range(config.n_threads):
        machine.add_program(program)
    if warm:
        machine.warm_caches()
    stats = machine.run()
    if verify:
        verify_run(kernel, machine)
    return stats


def run_kernel(
    name: str,
    dataset: str,
    config: MachineConfig,
    variant: str,
    verify: bool = True,
    warm: bool = False,
    tracer=None,
    obs=None,
) -> RunResult:
    """Run kernel ``name`` on ``dataset`` under ``config``/``variant``."""
    kernel = make_kernel(name, dataset, config.n_threads)
    stats = run_prepared(
        kernel, config, variant, verify=verify, warm=warm, tracer=tracer,
        obs=obs,
    )
    return RunResult(name, dataset, variant, config, stats)
