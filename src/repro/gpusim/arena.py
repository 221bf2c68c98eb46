"""Scratch-buffer arena for the simulator's per-launch temporaries.

A steady-state region invocation issues dozens of small NumPy ops whose
temporaries all have launch-constant shapes (``total_threads`` lanes,
``num_warps`` warps, ``num_blocks`` blocks, ``(total_threads, out_width)``
value planes).  Allocating those temporaries fresh on every call is the
single largest per-invocation cost in the interpreter, so the context
primitives and the approximation runtimes route every such temporary
through a :class:`ScratchArena` owned by the
:class:`~repro.gpusim.context.GridContext`: buffers are keyed by
``(tag, shape, dtype)`` and reused in place via ``out=`` ufunc variants.

The context primitives look their buffers up per call.  The TAF and iACT
runtimes bind theirs once per (launch, region), when the region's state
is allocated, and keep the arrays; a lookup (tuple key plus
``np.dtype``) would otherwise be a large share of an invocation on the
small launches a design-space sweep runs.  The arena still owns those
buffers and counts them: each is one miss at binding, and the same tag
gets the same array in every region that binds it.

Buffers handed out by the arena are **borrowed**: a buffer is valid until
the next request with the same key.  Callers that need a value to outlive
the next same-tagged operation (anything that escapes to application code
and is held across calls) must copy — the context's public accessors
already do.

The ``hits``/``misses`` counters are the CI contract for "near-zero-alloc
steady state": after a warmup invocation every further invocation of the
same region must be served entirely from cache, i.e. ``misses`` must stop
growing (asserted by ``benchmarks/perf_micro.py``).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

__all__ = ["ScratchArena"]


class ScratchArena:
    """Shape/dtype-keyed pool of reusable scratch buffers.

    One arena lives per :class:`GridContext` (i.e. per kernel launch), so
    buffers never leak across launches and thread-safety is inherited
    from the one-kernel-per-context execution model.
    """

    __slots__ = ("_buffers", "hits", "misses")

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[Any, Tuple[int, ...], Any], np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def buf(self, tag: Any, shape: Tuple[int, ...], dtype: Any) -> np.ndarray:
        """Return the reusable buffer for ``(tag, shape, dtype)``.

        Contents are whatever the previous same-key user left behind;
        callers must fully overwrite (or ``fill``) before reading.
        """

        key = (tag, shape, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None:
            self.misses += 1
            buf = np.empty(shape, dtype=key[2])
            self._buffers[key] = buf
        else:
            self.hits += 1
        return buf

    def __len__(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())

    def snapshot(self) -> Dict[str, int]:
        """Stable summary used by benchmarks and the CI hit-rate gate."""

        return {
            "buffers": len(self._buffers),
            "nbytes": int(self.nbytes),
            "hits": int(self.hits),
            "misses": int(self.misses),
        }
