"""Clocks: wall-clock, process (user/sys), and virtual simulation time.

The tutorial distinguishes "real" (wall-clock), "user" (CPU) and "sys"
(I/O / kernel) time and insists on knowing which one a number is
(slides 22-27).  Three clock implementations share one interface:

- :class:`WallClock` — ``time.perf_counter`` based elapsed real time;
- :class:`ProcessClock` — ``os.times`` based user/system CPU time;
- :class:`VirtualClock` — a manually advanced clock used by the simulated
  hardware substrate, making every tutorial experiment deterministic.

All clocks report seconds as floats.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.errors import MeasurementError


@dataclass(frozen=True)
class ClockSample:
    """A single reading: real (wall) plus user and system CPU seconds."""

    real: float
    user: float
    system: float

    def __sub__(self, other: "ClockSample") -> "ClockSample":
        return ClockSample(real=self.real - other.real,
                           user=self.user - other.user,
                           system=self.system - other.system)

    @property
    def cpu(self) -> float:
        """Total CPU time (user + system)."""
        return self.user + self.system

    @property
    def io_wait(self) -> float:
        """Crude I/O-or-wait estimate: real time not accounted by CPU."""
        return max(0.0, self.real - self.cpu)


class Clock:
    """Interface: :meth:`sample` returns the current :class:`ClockSample`."""

    def sample(self) -> ClockSample:
        raise NotImplementedError


class WallClock(Clock):
    """Real time only; user/system read as zero."""

    def sample(self) -> ClockSample:
        return ClockSample(real=time.perf_counter(), user=0.0, system=0.0)


class ProcessClock(Clock):
    """Wall time plus this process's user/system CPU time."""

    def sample(self) -> ClockSample:
        t = os.times()
        return ClockSample(real=time.perf_counter(),
                           user=t.user, system=t.system)


class VirtualClock(Clock):
    """A deterministic clock advanced explicitly by simulated components.

    Simulated work calls :meth:`advance` with the seconds consumed,
    splitting them into CPU ("user") and I/O ("system") shares; real time
    accumulates both.  Experiments driven entirely through a VirtualClock
    are exactly repeatable — the property the tutorial's repeatability
    section is after.
    """

    def __init__(self):
        self._real = 0.0
        self._user = 0.0
        self._system = 0.0

    def advance(self, cpu_seconds: float = 0.0,
                io_seconds: float = 0.0) -> None:
        """Consume simulated time.

        ``cpu_seconds`` accrues to user time, ``io_seconds`` to system
        time; both advance real time.
        """
        if cpu_seconds < 0 or io_seconds < 0:
            raise MeasurementError(
                f"cannot advance a clock backwards "
                f"(cpu={cpu_seconds}, io={io_seconds})")
        self._user += cpu_seconds
        self._system += io_seconds
        self._real += cpu_seconds + io_seconds

    def sample(self) -> ClockSample:
        return ClockSample(real=self._real, user=self._user,
                           system=self._system)

    @property
    def now(self) -> float:
        """Current simulated real time in seconds."""
        return self._real

    def reset(self) -> None:
        self._real = self._user = self._system = 0.0

    # -------------------------------------------------- checkpointing

    def state_dict(self) -> dict:
        """The clock position, JSON-able for a campaign checkpoint.

        A resumed campaign must continue the *same* timeline: restarting
        from zero shifts every subsequent sample, and float subtraction
        at a different absolute offset rounds differently — enough to
        break byte-identical resumes.  (JSON round-trips floats exactly,
        so saving and restoring loses nothing.)
        """
        return {"real": self._real, "user": self._user,
                "system": self._system}

    def load_state_dict(self, state: dict) -> None:
        try:
            real = float(state["real"])
            user = float(state["user"])
            system = float(state["system"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MeasurementError(
                f"bad VirtualClock state {state!r}: {exc}") from exc
        self._real, self._user, self._system = real, user, system
