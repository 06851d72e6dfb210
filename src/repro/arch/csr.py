"""The per-core CSR file.

Most CSRs are plain 32-bit storage written by kernels (texture state) or by
the hardware (cycle/instret counters).  The SIMT identification CSRs
(thread id, warp id, …) are *contextual*: their value depends on which
thread and warp performs the read, so reads go through :meth:`CsrFile.read`
with the reading context supplied by the core.
"""

from __future__ import annotations

from repro.common.bitutils import to_uint32
from repro.common.clock import DeviceClock
from repro.common.state import COPY, VALUE, Stateful
from repro.isa.csr import CSR, is_tex_csr


class CsrFile(Stateful):
    """CSR storage plus the contextual SIMT identification registers."""

    STATE = {"_storage": COPY, "instret": VALUE, "tex_epoch": VALUE}
    #: Identity and geometry, and the device clock the processor serializes.
    SNAPSHOT_EXCLUDED = frozenset({"core_id", "num_warps", "num_threads", "num_cores", "clock"})

    def __init__(self, core_id: int, num_warps: int, num_threads: int, num_cores: int):
        self.core_id = core_id
        self.num_warps = num_warps
        self.num_threads = num_threads
        self.num_cores = num_cores
        self._storage: dict[int, int] = {}
        #: ``CSR.CYCLE`` reads the device clock (cycles since the device was
        #: built, across launches).  The cycle-level core installs it; nobody
        #: advances this private one, so the functional driver reads 0.
        self.clock = DeviceClock()
        self.instret = 0
        #: Texture-state dirty counter: bumped by every write into a
        #: texture CSR block, so the texture unit can cache its CSR
        #: snapshot and re-read it only when the state actually changed.
        self.tex_epoch = 0

    # -- hardware-side hooks ------------------------------------------------------

    def retire(self, instructions: int = 1) -> None:
        """Advance the retired-instruction counter."""
        self.instret += instructions

    # -- kernel-side access --------------------------------------------------------

    def read(
        self,
        address: int,
        thread_id: int = 0,
        warp_id: int = 0,
        thread_mask: int = 0,
        warp_mask: int = 0,
    ) -> int:
        """Read a CSR in the context of ``thread_id`` of ``warp_id``."""
        address = int(address)
        if address == CSR.THREAD_ID:
            return thread_id
        if address == CSR.WARP_ID:
            return warp_id
        if address == CSR.CORE_ID:
            return self.core_id
        if address == CSR.THREAD_MASK:
            return to_uint32(thread_mask)
        if address == CSR.WARP_MASK:
            return to_uint32(warp_mask)
        if address == CSR.NUM_THREADS:
            return self.num_threads
        if address == CSR.NUM_WARPS:
            return self.num_warps
        if address == CSR.NUM_CORES:
            return self.num_cores
        if address == CSR.CYCLE:
            return to_uint32(self.clock.now)
        if address == CSR.INSTRET:
            return to_uint32(self.instret)
        return self._storage.get(address, 0)

    def write(self, address: int, value: int) -> None:
        """Write a CSR.  Writes to read-only identification CSRs are ignored,
        matching the hardware's behaviour."""
        address = int(address)
        read_only = {
            int(CSR.THREAD_ID),
            int(CSR.WARP_ID),
            int(CSR.CORE_ID),
            int(CSR.THREAD_MASK),
            int(CSR.WARP_MASK),
            int(CSR.NUM_THREADS),
            int(CSR.NUM_WARPS),
            int(CSR.NUM_CORES),
            int(CSR.CYCLE),
            int(CSR.INSTRET),
        }
        if address in read_only:
            return
        if is_tex_csr(address):
            self.tex_epoch += 1
        self._storage[address] = to_uint32(value)

    def raw(self, address: int, default: int = 0) -> int:
        """Read backing storage without SIMT context (used by texture units)."""
        return self._storage.get(int(address), default)
