"""Speed probe: fixed work, independent of maxvar, timed next to every
measurement.

The vCPUs of the machine this benchmark was tuned on swing between two
speeds about 1.5x apart, for seconds to minutes at a time, with other
tenants' load on shared cores; raw run-to-run spreads of items_per_s
reached 40%.  Every measured time is therefore reported rescaled by
`ref_ns` over the median of the probe times taken around it, that is as it
would read at the reference speed.  The run's summary also prints the raw
times.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy

FRACTION_REF_NS = 250_000
GRID_REF_NS_PER_CELL = 5.5
"""Probe times between items on a core in its fast phase, on the reference
machine (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6).  They only set
the scale of the reported times."""


class SpeedProbe:
    """A sum of 99 Fractions, plus for `grid_side` > 0 an exact int64
    cross-multiplication and sign pass over two grid_side^2 grids, the shape
    of work the 2-D grid path does."""

    def __init__(self, grid_side: int = 0) -> None:
        self.ref_ns = FRACTION_REF_NS + GRID_REF_NS_PER_CELL * grid_side**2
        self._grids = None
        if grid_side:
            a = numpy.arange(grid_side**2, dtype=numpy.int64).reshape(grid_side, grid_side) % 1009
            self._grids = a, (a * 7 + 3) % 1013

    def __call__(self) -> int:
        t0 = time.perf_counter_ns()
        acc = Fraction(0)
        for k in range(1, 100):
            acc += Fraction(k, k * k + 1)
        if self._grids is not None:
            a, b = self._grids
            cross = a[:, 1:] * b[:, :-1] - a[:, :-1] * b[:, 1:]
            int(numpy.count_nonzero(numpy.sign(cross)))
        return time.perf_counter_ns() - t0
