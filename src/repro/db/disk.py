"""A deterministic disk model.

MiniDB's data lives "on disk" in fixed-size pages.  Reading a page that is
not buffered costs seek + transfer time according to this model, which is
how the cold-vs-hot experiment (slides 33-36) gets its ~4x real-time gap:
a cold run pays the disk, a hot run finds everything in the buffer pool.

Calibrated by default to the tutorial's 5400RPM laptop disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import HardwareModelError
from repro.obs import emit_event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults import FaultInjector

#: Fixed page size used throughout MiniDB.
PAGE_SIZE_BYTES = 64 * 1024


@dataclass(frozen=True)
class DiskModel:
    """Seek-plus-transfer latency model.

    Sequential reads of consecutive pages pay one seek for the first page
    and pure transfer afterwards; random reads pay a seek each time.
    """

    seek_ms: float = 11.0              # ~5400RPM laptop drive
    transfer_mb_per_s: float = 35.0    # sustained sequential read, 2008-ish
    #: Optional fault hook; ticked at site ``"disk.read"`` on every
    #: physical read/write, may raise ``TransientDiskError``.
    faults: "Optional[FaultInjector]" = field(
        default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.seek_ms < 0:
            raise HardwareModelError("seek time must be >= 0")
        if self.transfer_mb_per_s <= 0:
            raise HardwareModelError("transfer rate must be positive")

    @property
    def transfer_s_per_page(self) -> float:
        return PAGE_SIZE_BYTES / (self.transfer_mb_per_s * 1024 * 1024)

    def read_seconds(self, n_pages: int, sequential: bool = True) -> float:
        """Time to read ``n_pages``."""
        if n_pages < 0:
            raise HardwareModelError("page count must be >= 0")
        if n_pages == 0:
            return 0.0
        if self.faults is not None:
            self.faults.tick("disk.read")
        transfer = n_pages * self.transfer_s_per_page
        seeks = 1 if sequential else n_pages
        seek = seeks * self.seek_ms / 1000.0
        emit_event("disk.read", pages=n_pages, sequential=sequential,
                   seek_ms=seek * 1000.0, transfer_ms=transfer * 1000.0)
        return seek + transfer

    def with_faults(self, faults: "Optional[FaultInjector]") -> "DiskModel":
        """A copy of this model wired to a fault injector (or to none)."""
        from dataclasses import replace
        return replace(self, faults=faults)


def pages_for_bytes(n_bytes: int) -> int:
    """Number of pages needed to hold ``n_bytes``."""
    if n_bytes < 0:
        raise HardwareModelError("byte count must be >= 0")
    return -(-n_bytes // PAGE_SIZE_BYTES)
