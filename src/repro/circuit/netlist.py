"""Netlist representation of a passive memristive crossbar.

The netlist models what the paper instantiates in Cadence Virtuoso: every
word line and bit line is a resistive wire chain with one node per crosspoint
plus a driver attachment node, and a memristive device connects the word-line
node to the bit-line node at every crosspoint.  Drivers are attached through
their output resistance, so line loading and IR drop are captured.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..config import CrossbarGeometry, WireParameters
from ..errors import GeometryError

Cell = Tuple[int, int]

GROUND_NODE = "gnd"


@dataclass(frozen=True)
class Resistor:
    """A two-terminal linear resistor."""

    name: str
    node_a: str
    node_b: str
    resistance_ohm: float

    def __post_init__(self) -> None:
        if self.resistance_ohm <= 0:
            raise GeometryError(f"resistor {self.name} must have positive resistance")

    @property
    def conductance_s(self) -> float:
        """Conductance of the resistor [S]."""
        return 1.0 / self.resistance_ohm


@dataclass(frozen=True)
class DriverPort:
    """Attachment point of a line driver (Thevenin source)."""

    name: str
    node: str
    #: "row" or "column".
    line_type: str
    line_index: int
    series_resistance_ohm: float


@dataclass(frozen=True)
class CrosspointDevice:
    """A memristive device connecting a word-line node to a bit-line node."""

    cell: Cell
    wordline_node: str
    bitline_node: str


@dataclass
class CrossbarNetlist:
    """Fully expanded crossbar netlist."""

    geometry: CrossbarGeometry
    wires: WireParameters
    nodes: List[str] = field(default_factory=list)
    resistors: List[Resistor] = field(default_factory=list)
    devices: List[CrosspointDevice] = field(default_factory=list)
    drivers: List[DriverPort] = field(default_factory=list)
    #: Nodal-matrix template of the solvers of this netlist, built by the
    #: first :class:`~repro.circuit.solver.CrossbarSolver` and shared by all.
    jacobian_structure: Optional[Any] = field(default=None, init=False, repr=False, compare=False)

    # -- node naming -------------------------------------------------------

    @staticmethod
    def wordline_node(row: int, column: int) -> str:
        """Word-line node of a crosspoint."""
        return f"wl_{row}_{column}"

    @staticmethod
    def bitline_node(row: int, column: int) -> str:
        """Bit-line node of a crosspoint."""
        return f"bl_{row}_{column}"

    @staticmethod
    def row_driver_node(row: int) -> str:
        """Node at which the word-line driver attaches."""
        return f"row_drv_{row}"

    @staticmethod
    def column_driver_node(column: int) -> str:
        """Node at which the bit-line driver attaches."""
        return f"col_drv_{column}"

    # -- queries ------------------------------------------------------------

    def device_at(self, cell: Cell) -> CrosspointDevice:
        """Return the crosspoint device of a cell."""
        self.geometry.validate_cell(*cell)
        return self.devices[cell[0] * self.geometry.columns + cell[1]]

    def driver_for(self, line_type: str, index: int) -> DriverPort:
        """Return the driver port of a word line ("row") or bit line ("column")."""
        for driver in self.drivers:
            if driver.line_type == line_type and driver.line_index == index:
                return driver
        raise GeometryError(f"no driver for {line_type} {index}")

    @property
    def node_count(self) -> int:
        """Number of circuit nodes (excluding ground)."""
        return len(self.nodes)

    # -- vectorized index arrays --------------------------------------------
    #
    # Everything the array-native solver needs is precomputed here exactly
    # once per netlist: node-name -> index, and flat index arrays describing
    # where every device and resistor stamps into the nodal matrix.  The
    # caches assume the netlist is not mutated after construction (true for
    # every netlist produced by :func:`build_crossbar_netlist`).

    @cached_property
    def node_index(self) -> Dict[str, int]:
        """Node name -> row index in the nodal system (ground excluded)."""
        return {name: i for i, name in enumerate(self.nodes)}

    @cached_property
    def device_index_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-device ``(wordline_idx, bitline_idx, cell_row, cell_col)`` arrays."""
        index = self.node_index
        count = len(self.devices)
        wordline = np.fromiter(
            (index[d.wordline_node] for d in self.devices), dtype=np.int64, count=count
        )
        bitline = np.fromiter(
            (index[d.bitline_node] for d in self.devices), dtype=np.int64, count=count
        )
        rows = np.fromiter((d.cell[0] for d in self.devices), dtype=np.int64, count=count)
        cols = np.fromiter((d.cell[1] for d in self.devices), dtype=np.int64, count=count)
        return wordline, bitline, rows, cols

    @cached_property
    def resistor_index_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-resistor ``(node_a_idx, node_b_idx, conductance)``; -1 marks ground."""
        index = self.node_index
        count = len(self.resistors)
        node_a = np.fromiter(
            (index.get(r.node_a, -1) for r in self.resistors), dtype=np.int64, count=count
        )
        node_b = np.fromiter(
            (index.get(r.node_b, -1) for r in self.resistors), dtype=np.int64, count=count
        )
        conductance = np.fromiter(
            (r.conductance_s for r in self.resistors), dtype=np.float64, count=count
        )
        return node_a, node_b, conductance


#: Netlists kept by :func:`shared_crossbar_netlist`, least recently used first.
NETLIST_CACHE_SIZE = 4
_shared_netlists: "OrderedDict[str, CrossbarNetlist]" = OrderedDict()
_shared_netlists_lock = threading.Lock()


def shared_crossbar_netlist(geometry: CrossbarGeometry, wires: WireParameters) -> CrossbarNetlist:
    """The netlist of ``(geometry, wires)`` from a small process-level cache.

    Netlists are immutable after construction, so crossbars with equal
    geometry and wires share one, together with the solver structure cached
    on it.  The key is the canonical JSON of both configurations (the
    dataclasses themselves are unhashable); the netlist keeps private copies
    of them, so later edits to the caller's objects cannot reach the cache.
    """
    key = json.dumps([geometry.to_dict(), wires.to_dict()], sort_keys=True)
    with _shared_netlists_lock:
        netlist = _shared_netlists.get(key)
        if netlist is None:
            netlist = build_crossbar_netlist(replace(geometry), replace(wires))
            _shared_netlists[key] = netlist
            if len(_shared_netlists) > NETLIST_CACHE_SIZE:
                _shared_netlists.popitem(last=False)
        else:
            _shared_netlists.move_to_end(key)
    return netlist


def build_crossbar_netlist(
    geometry: CrossbarGeometry = None, wires: WireParameters = None
) -> CrossbarNetlist:
    """Expand a crossbar geometry into its netlist.

    Word lines run horizontally: the driver of row ``r`` attaches before
    column 0 and segments chain the crosspoints left to right.  Bit lines run
    vertically: the driver of column ``c`` attaches before row 0 and segments
    chain the crosspoints top to bottom.
    """
    geometry = geometry if geometry is not None else CrossbarGeometry()
    wires = wires if wires is not None else WireParameters()
    netlist = CrossbarNetlist(geometry=geometry, wires=wires)

    segment_r = max(wires.segment_resistance_ohm, 1e-6)
    driver_r = max(wires.driver_resistance_ohm, 1e-3)

    # Nodes.
    for row in range(geometry.rows):
        netlist.nodes.append(netlist.row_driver_node(row))
        for column in range(geometry.columns):
            netlist.nodes.append(netlist.wordline_node(row, column))
    for column in range(geometry.columns):
        netlist.nodes.append(netlist.column_driver_node(column))
        for row in range(geometry.rows):
            netlist.nodes.append(netlist.bitline_node(row, column))

    # Word-line wire chains and drivers.
    for row in range(geometry.rows):
        previous = netlist.row_driver_node(row)
        netlist.drivers.append(
            DriverPort(
                name=f"row_driver_{row}",
                node=previous,
                line_type="row",
                line_index=row,
                series_resistance_ohm=driver_r,
            )
        )
        for column in range(geometry.columns):
            node = netlist.wordline_node(row, column)
            netlist.resistors.append(
                Resistor(f"rw_{row}_{column}", previous, node, segment_r)
            )
            previous = node

    # Bit-line wire chains and drivers.
    for column in range(geometry.columns):
        previous = netlist.column_driver_node(column)
        netlist.drivers.append(
            DriverPort(
                name=f"column_driver_{column}",
                node=previous,
                line_type="column",
                line_index=column,
                series_resistance_ohm=driver_r,
            )
        )
        for row in range(geometry.rows):
            node = netlist.bitline_node(row, column)
            netlist.resistors.append(
                Resistor(f"rb_{row}_{column}", previous, node, segment_r)
            )
            previous = node

    # Crosspoint devices in row-major order.
    for row in range(geometry.rows):
        for column in range(geometry.columns):
            netlist.devices.append(
                CrosspointDevice(
                    cell=(row, column),
                    wordline_node=netlist.wordline_node(row, column),
                    bitline_node=netlist.bitline_node(row, column),
                )
            )
    return netlist
