"""OpenMP ``map`` clause modelling.

The paper's programs move data with ``map(to: ...)``, ``map(from: ...)`` and
``map(tofrom: ...)`` on ``target`` constructs (§2.2, Fig 1).  This module
reproduces the data environment: a :class:`MapClause` names a host array and
a direction; a :class:`DataEnvironment` materializes device buffers, charges
HtoD transfers on region entry and DtoH transfers on region exit through the
:class:`~repro.gpusim.memory.TransferModel`, and keeps host and device
copies distinct so that forgetting a ``from`` map is an observable bug, just
like on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.memory import DeviceMemory, TransferModel


class MapDirection(Enum):
    """Directionality modifiers of the OpenMP ``map`` clause."""

    TO = "to"
    FROM = "from"
    TOFROM = "tofrom"
    ALLOC = "alloc"


@dataclass
class MapClause:
    """One mapped variable: host array + transfer direction."""

    name: str
    host: np.ndarray
    direction: MapDirection

    @property
    def nbytes(self) -> int:
        return int(self.host.nbytes)


class DataEnvironment:
    """The device data environment of one ``target`` region.

    Usage::

        env = DataEnvironment(memory, transfers)
        env.map_to("x", x_host)
        env.map_from("y", y_host)
        env.enter()          # HtoD copies happen here
        ... kernels use env.device("x"), env.device("y") ...
        env.exit()           # DtoH copies happen here
    """

    def __init__(self, memory: DeviceMemory, transfers: TransferModel) -> None:
        self.memory = memory
        self.transfers = transfers
        self._clauses: list[MapClause] = []
        self._entered = False

    # -- clause construction ------------------------------------------------
    def _add(self, name: str, host: np.ndarray, direction: MapDirection) -> None:
        if self._entered:
            raise ConfigurationError("cannot add map clauses after region entry")
        if any(c.name == name for c in self._clauses):
            raise ConfigurationError(f"variable {name!r} mapped twice")
        self._clauses.append(MapClause(name, np.asarray(host), direction))

    def map_to(self, name: str, host: np.ndarray) -> None:
        """``map(to: name)`` — copy host→device at entry only."""
        self._add(name, host, MapDirection.TO)

    def map_from(self, name: str, host: np.ndarray) -> None:
        """``map(from: name)`` — copy device→host at exit only."""
        self._add(name, host, MapDirection.FROM)

    def map_tofrom(self, name: str, host: np.ndarray) -> None:
        """``map(tofrom: name)`` — copy both ways."""
        self._add(name, host, MapDirection.TOFROM)

    def map_alloc(self, name: str, host: np.ndarray) -> None:
        """``map(alloc: name)`` — device storage, no transfers."""
        self._add(name, host, MapDirection.ALLOC)

    # -- region lifecycle ----------------------------------------------------
    def enter(self) -> float:
        """Materialize buffers and run entry transfers; returns seconds."""
        if self._entered:
            raise ConfigurationError("data environment already entered")
        seconds = 0.0
        for c in self._clauses:
            dev = self.memory.alloc(c.name, c.host.shape, c.host.dtype)
            if c.direction in (MapDirection.TO, MapDirection.TOFROM):
                dev[...] = c.host
                seconds += self.transfers.htod(c.nbytes)
        self._entered = True
        return seconds

    def exit(self) -> float:
        """Run exit transfers and release buffers; returns seconds."""
        if not self._entered:
            raise ConfigurationError("data environment never entered")
        seconds = 0.0
        for c in self._clauses:
            dev = self.memory.get(c.name)
            if c.direction in (MapDirection.FROM, MapDirection.TOFROM):
                c.host[...] = dev
                seconds += self.transfers.dtoh(c.nbytes)
            self.memory.free_buffer(c.name)
        self._entered = False
        return seconds

    def device(self, name: str) -> np.ndarray:
        """The device copy of a mapped variable (after entry)."""
        if not self._entered:
            raise ConfigurationError("data environment not entered")
        return self.memory.get(name)
