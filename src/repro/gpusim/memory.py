"""Memory subsystem of the SIMT simulator.

Three pieces:

* :class:`DeviceMemory` — a global-memory allocator with a capacity limit, so
  the Fig-3 experiment (per-thread memoization tables exhausting a V100's
  16 GB) is a *checked* property of the model rather than a plot-only claim.
* :func:`coalesced_transactions` — the memory-coalescing model: per warp, the
  number of distinct 32-byte segments touched by the active lanes.  This is
  what makes herded perforation (§3.1.5) cheaper than divergent small/large
  perforation: aligned, unfragmented access patterns need fewer transactions.
* :class:`TransferModel` — host↔device transfer timing used by the OpenMP
  ``map`` clauses; end-to-end speedups in the paper include these transfers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GlobalMemoryError
from repro.gpusim.device import MEMORY_SEGMENT_BYTES, DeviceSpec

#: Inactive-lane segment sentinel of :func:`coalesced_transactions`.
INT64_MAX = np.int64(np.iinfo(np.int64).max)


@dataclass
class DeviceBuffer:
    """A named allocation in simulated device global memory."""

    name: str
    data: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def itemsize(self) -> int:
        return int(self.data.itemsize)


class DeviceMemory:
    """Global-memory allocator for one simulated device.

    Allocations are numpy arrays; the allocator only tracks capacity and
    named buffers.  It exists so that configurations that are impossible on
    the real hardware (e.g. per-thread AC tables for 2^27 threads, Fig 3)
    raise :class:`~repro.errors.GlobalMemoryError` here too.
    """

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self.capacity = int(device.global_mem_bytes)
        self._buffers: dict[str, DeviceBuffer] = {}
        #: ``id(data) -> name`` reverse index for :meth:`name_of`.  Entries
        #: live exactly as long as their buffer (alloc adds, free/reset
        #: remove), so a recycled ``id()`` can never resolve a stale name.
        self._names_by_id: dict[int, str] = {}
        self._in_use = 0

    @property
    def in_use(self) -> int:
        """Bytes currently allocated."""
        return self._in_use

    @property
    def free(self) -> int:
        """Bytes still available."""
        return self.capacity - self._in_use

    def alloc(
        self, name: str, shape, dtype=np.float64, fill=None, *, _uninitialized=False
    ) -> np.ndarray:
        """Allocate a named device buffer; raises if capacity is exceeded.

        ``_uninitialized`` is internal (:meth:`upload`): it skips the
        zero/``fill`` initialization for storage the caller overwrites in
        full immediately, so capacity accounting and the name index behave
        exactly as for a normal allocation.
        """
        if name in self._buffers:
            raise ValueError(f"device buffer {name!r} already allocated")
        dtype = np.dtype(dtype)
        # Pure-Python arithmetic: ``np.prod(..., dtype=np.int64)`` silently
        # wraps for Fig-3-scale shapes (2^27 threads x large tables), and a
        # wrapped-negative nbytes sails through the capacity check below.
        dims = [shape] if np.isscalar(shape) else list(shape)
        count = 1
        for dim in dims:
            dim = int(dim)
            if dim < 0:
                raise ValueError(
                    f"device buffer {name!r}: negative dimension {dim} in "
                    f"shape {shape!r}"
                )
            count *= dim
        nbytes = count * dtype.itemsize
        if nbytes > self.free:
            raise GlobalMemoryError(nbytes, self._in_use, self.capacity)
        if _uninitialized:
            data = np.empty(shape, dtype=dtype)
        elif fill is None:
            data = np.zeros(shape, dtype=dtype)
        else:
            data = np.full(shape, fill, dtype=dtype)
        self._buffers[name] = DeviceBuffer(name, data)
        self._names_by_id[id(data)] = name
        self._in_use += nbytes
        return data

    def upload(self, name: str, host_array: np.ndarray) -> np.ndarray:
        """Allocate a buffer and copy a host array into it.

        The backing storage is allocated uninitialized and filled once by
        the copy (a zero-filled alloc would touch every byte twice for
        large app inputs).
        """
        arr = self.alloc(
            name, host_array.shape, host_array.dtype, _uninitialized=True
        )
        arr[...] = host_array
        return arr

    def get(self, name: str) -> np.ndarray:
        return self._buffers[name].data

    def name_of(self, arr: np.ndarray) -> str | None:
        """Name of the buffer whose storage *is* ``arr`` (identity, not
        equality) — how ApproxSan attributes a mediated access to a declared
        section.  Views and copies resolve to None (unchecked).

        O(1) via the ``id()``-keyed reverse index (this runs on *every*
        sanitized global access); the identity re-check guards against a
        recycled ``id()`` resolving to an unrelated live buffer."""
        name = self._names_by_id.get(id(arr))
        if name is None:
            return None
        buf = self._buffers.get(name)
        if buf is not None and buf.data is arr:
            return name
        return None

    def free_buffer(self, name: str) -> None:
        buf = self._buffers.pop(name)
        self._names_by_id.pop(id(buf.data), None)
        self._in_use -= buf.nbytes

    def reset(self) -> None:
        """Release every allocation."""
        self._buffers.clear()
        self._names_by_id.clear()
        self._in_use = 0

    def __contains__(self, name: str) -> bool:
        return name in self._buffers


def _affine_transactions(
    addresses: np.ndarray,
    warp_size: int,
    segment_bytes: int,
    out: np.ndarray | None,
    scratch,
) -> np.ndarray | None:
    """Closed-form per-warp segment counts when every warp is affine.

    Applies when each warp's (fully active) lanes are constant-stride:
    ``addr[j] = addr[0] + j*s`` within the warp.  Warps are counted
    independently, so base and stride may jump between warps, as
    ``team_chunk_stride`` addresses do at block boundaries.  A warp's
    touched segments are the floors of an arithmetic progression between
    its lowest and highest address ``lo`` and ``hi``, so it issues
    ``min(hi//seg - lo//seg + 1, warp_size)`` transactions:

    * ``s == 0`` — every lane hits one address: ``lo == hi``, 1;
    * ``0 < |s| < segment_bytes`` — consecutive (sorted) lane floors step by
      0 or 1, touching **every** segment between the endpoints (at most
      ``warp_size`` of them);
    * ``|s| >= segment_bytes`` — floors are strictly monotone, all distinct,
      and span at least ``warp_size`` segments: ``warp_size``.

    Returns None when some warp is not affine (caller falls back to the
    sort-based reference path).  O(lanes) for the affinity check, O(warps)
    for the counts.
    """
    nwarps = addresses.shape[0] // warp_size
    lanes = addresses.reshape(nwarps, warp_size)
    steps = (nwarps, warp_size - 1)
    if scratch is not None:
        diff = scratch.buf("coal_diff", steps, np.int64)
        affine = scratch.buf("coal_affine", steps, np.bool_)
    else:
        diff = np.empty(steps, dtype=np.int64)
        affine = np.empty(steps, dtype=np.bool_)
    np.subtract(lanes[:, 1:], lanes[:, :-1], out=diff)
    np.equal(diff, diff[:, :1], out=affine)
    if not affine.all():
        return None
    res = out if out is not None else np.empty(nwarps, dtype=np.int64)
    if scratch is not None:
        lo = scratch.buf("coal_lo", (nwarps,), np.int64)
        hi = scratch.buf("coal_hi", (nwarps,), np.int64)
    else:
        lo = np.empty(nwarps, dtype=np.int64)
        hi = np.empty(nwarps, dtype=np.int64)
    # Warp ends are strided views — no gather.
    first, last = lanes[:, 0], lanes[:, -1]
    np.minimum(first, last, out=lo)
    np.floor_divide(lo, segment_bytes, out=lo)
    np.maximum(first, last, out=hi)
    np.floor_divide(hi, segment_bytes, out=hi)
    np.subtract(hi, lo, out=res)
    res += 1
    np.minimum(res, warp_size, out=res)
    return res


def coalesced_transactions(
    byte_addresses: np.ndarray,
    mask: np.ndarray,
    warp_size: int,
    segment_bytes: int = MEMORY_SEGMENT_BYTES,
    *,
    full_mask: bool | None = None,
    out: np.ndarray | None = None,
    scratch=None,
) -> np.ndarray:
    """Per-warp count of memory transactions for one warp-wide access.

    Parameters
    ----------
    byte_addresses:
        Flat int64 array (one entry per lane, grid-major) of the byte address
        each lane accesses.  Length must be a multiple of ``warp_size``.
    mask:
        Flat bool array of the same length; inactive lanes issue no request.
    warp_size:
        Lanes per warp.
    segment_bytes:
        DRAM transaction granularity.
    full_mask:
        Caller's promise about the mask: ``True`` — every lane is active
        (the all-lanes check is skipped); ``False`` — treat as partial and
        go straight to the sort path; ``None`` (default) — test the mask
        here.  Only fully active accesses are eligible for the analytic
        affine path.
    out:
        Optional preallocated int64 ``(num_warps,)`` result buffer.
    scratch:
        Optional :class:`~repro.gpusim.arena.ScratchArena` for the affine
        check's temporaries (the context passes its arena).

    Returns
    -------
    np.ndarray
        int64 array of shape ``(num_warps,)`` — distinct segments touched by
        the active lanes of each warp.  Fully inactive warps count zero.

    Notes
    -----
    A unit-stride float64 access by a 32-lane warp touches 256 B = 8 segments
    (perfectly coalesced); a stride-N access touches up to 32 segments (fully
    scattered).  Divergent perforation patterns fall between the two, which
    is exactly the fragmentation effect §3.1.5 describes.

    Fully active accesses whose every warp is constant-stride are counted
    in closed form (:func:`_affine_transactions`) — bit-identical to the
    sort-based reference, proven by a randomized property test — so
    unit-stride and block-chunked reads/writes never pay a per-lane sort.
    """
    n = byte_addresses.shape[0]
    if n % warp_size:
        raise ValueError("lane count must be a multiple of warp_size")
    if full_mask is None:
        full_mask = bool(np.all(mask))
    if full_mask:
        addresses = np.asarray(byte_addresses, dtype=np.int64)
        res = _affine_transactions(addresses, warp_size, segment_bytes, out, scratch)
        if res is not None:
            return res
    segs = (byte_addresses // segment_bytes).reshape(-1, warp_size).astype(np.int64)
    act = np.asarray(mask, dtype=bool).reshape(-1, warp_size)
    # Inactive lanes get the int64-max sentinel: after the per-row sort they
    # collapse into one run at the top, and the `real` mask below keeps that
    # run from ever counting as a distinct segment.
    sentinel = np.where(act, segs, INT64_MAX)
    sorted_segs = np.sort(sentinel, axis=1)
    first = act.any(axis=1).astype(np.int64)
    diffs = sorted_segs[:, 1:] != sorted_segs[:, :-1]
    # A diff at position j counts a new segment only if lane j+1 is a real
    # (non-sentinel) value; sentinel runs collapse because they are equal.
    real = sorted_segs[:, 1:] != INT64_MAX
    counts = first + np.count_nonzero(diffs & real, axis=1)
    if out is not None:
        out[:] = counts
        return out
    return counts


@dataclass
class TransferStats:
    """Accumulated host↔device traffic for one offload program."""

    htod_bytes: int = 0
    dtoh_bytes: int = 0
    htod_count: int = 0
    dtoh_count: int = 0
    seconds: float = 0.0

    def merge(self, other: "TransferStats") -> None:
        self.htod_bytes += other.htod_bytes
        self.dtoh_bytes += other.dtoh_bytes
        self.htod_count += other.htod_count
        self.dtoh_count += other.dtoh_count
        self.seconds += other.seconds


@dataclass
class TransferModel:
    """Times ``map(to:...)`` / ``map(from:...)`` data movement.

    Cost = fixed launch latency + bytes / interconnect bandwidth, the usual
    first-order PCIe/NVLink model.
    """

    device: DeviceSpec
    stats: TransferStats = field(default_factory=TransferStats)

    def htod(self, nbytes: int) -> float:
        """Record a host-to-device transfer; returns its duration (s)."""
        t = self.device.transfer_latency_s + nbytes / self.device.interconnect_bandwidth
        self.stats.htod_bytes += int(nbytes)
        self.stats.htod_count += 1
        self.stats.seconds += t
        return t

    def dtoh(self, nbytes: int) -> float:
        """Record a device-to-host transfer; returns its duration (s)."""
        t = self.device.transfer_latency_s + nbytes / self.device.interconnect_bandwidth
        self.stats.dtoh_bytes += int(nbytes)
        self.stats.dtoh_count += 1
        self.stats.seconds += t
        return t


def per_thread_table_bytes(entries: int, entry_bytes: int) -> int:
    """Size of one thread's private memoization table (Fig 3 model)."""
    return int(entries) * int(entry_bytes)


def global_memory_fraction_for_tables(
    num_threads: int,
    entries: int = 5,
    entry_bytes: int = 36,
    device: DeviceSpec | None = None,
) -> float:
    """Fraction of device global memory needed for per-thread memo tables.

    Reproduces the Fig-3 analysis: with the paper's 5-entry, 36-byte-entry
    table, per-thread tables fill a V100's 16 GB at about 2^27 threads, far
    below the ~2^72 threads a grid can express.  Values above 1.0 mean the
    configuration is impossible, which motivates the shared-memory AC state
    design of §3.1.1.
    """
    if device is None:
        from repro.gpusim.device import nvidia_v100

        device = nvidia_v100()
    total = float(num_threads) * per_thread_table_bytes(entries, entry_bytes)
    return total / float(device.global_mem_bytes)
