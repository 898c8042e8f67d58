"""Discrete-event simulation substrate.

This package provides the virtual machine under ReactDB: a
deterministic event loop (:class:`~repro.sim.scheduler.SimScheduler`),
virtual time in microseconds, machine profiles matching the paper's two
testbeds, and the cost parameters that encode per-operation CPU work
and the asymmetric cross-core communication costs (Cs/Cr) central to
the paper's latency analysis.

See ``docs/architecture.md`` (``repro.sim``) for why the reproduction
simulates hardware instead of using OS threads (Python's GIL makes
real multicore microsecond-scale measurements meaningless).

Public exports: :class:`SimScheduler` / :class:`Event`,
:class:`VirtualClock`, :class:`CostParameters`,
:class:`MachineProfile` with the two paper testbeds
(:data:`XEON_E3_1276`, :data:`OPTERON_6274`) and ``get_profile``, and
the deterministic random streams (:class:`RngFactory`,
:class:`ZipfianGenerator`).
"""

from repro.sim.clock import VirtualClock
from repro.sim.costs import CostParameters
from repro.sim.machine import (
    OPTERON_6274,
    PROFILES,
    XEON_E3_1276,
    MachineProfile,
    get_profile,
)
from repro.sim.rng import RngFactory, ZipfianGenerator
from repro.sim.scheduler import Event, SimScheduler

__all__ = [
    "VirtualClock",
    "CostParameters",
    "MachineProfile",
    "XEON_E3_1276",
    "OPTERON_6274",
    "PROFILES",
    "get_profile",
    "RngFactory",
    "ZipfianGenerator",
    "Event",
    "SimScheduler",
]
