"""The Vortex SIMT core microarchitecture (paper section 4.1).

The package is split into the *functional* pieces shared by both simulator
drivers (warp state, IPDOM stack, the warp-level instruction emulator and
its lane-vectorized subclass, barrier table) and the *timing* pieces used
by the cycle-level SIMX driver (wavefront scheduler, scoreboard, execution
units, the five-stage pipeline, and the multi-core processor with its cache
hierarchy).
"""

from repro.core.warp import RegisterFile, Warp
from repro.core.ipdom import IpdomStack, IpdomEntry
from repro.core.barrier import BarrierTable
from repro.core.emulator import WarpEmulator, StepResult, EmulationError
from repro.core.vector_emulator import VectorWarpEmulator
from repro.core.scheduler import WavefrontScheduler
from repro.core.scoreboard import Scoreboard
from repro.core.core import SimtCore, VectorSimtCore
from repro.core.timing import TimingCore
from repro.core.processor import Processor, TimingProcessor, VectorProcessor

__all__ = [
    "RegisterFile",
    "Warp",
    "IpdomStack",
    "IpdomEntry",
    "BarrierTable",
    "WarpEmulator",
    "StepResult",
    "EmulationError",
    "VectorWarpEmulator",
    "WavefrontScheduler",
    "Scoreboard",
    "SimtCore",
    "VectorSimtCore",
    "TimingCore",
    "Processor",
    "TimingProcessor",
    "VectorProcessor",
]
