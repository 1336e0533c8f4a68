"""Reference units: fixed work, timed between ops, that gauges host speed.

The benchmark's time metrics are scaled to a reference host speed. Before,
between and after the ops of a pass the run times chunks of reference
units, a fixed computation that uses nothing from the package. An op's
host speed is ``UNIT_S`` times the units in the chunks on its two sides
over the time they took, and its scaled time is its measured time times
that speed. At the reference speed the scaled time equals the measured
time; when another tenant of a shared machine slows the host down, the
units slow down with the op and the scaled time stays put. A change to the
program moves the op's time and not the units', so it shows in full.

Two kinds of units, because the two kinds of work slow down differently on
a shared host: ``python`` (bytecode with small dicts and tuples, and 8x8
``kron``/matmul calls, like a d=2 scan point or a gate of a parsed
circuit) and ``blas`` (one complex matrix product on the BLAS threads,
like a lift or a dense simulation step). Each workload uses the kind its
time goes to.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Seconds one unit of each kind takes at the reference speed: the fast
#: state of a 2-core shared x86-64 VM with Python 3.11, numpy 2.4 and
#: OpenBLAS 0.3 on 2 threads.
UNIT_S = {"python": 0.18e-3, "blas": 0.6e-3}
#: Reference time of a chunk, as a share of the longer op beside it.
SHARE = 0.1
#: Reference time of the shortest chunk.
MIN_CHUNK_S = 2e-3

_PERM = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1j], [1, 0, 0, 0]], dtype=np.complex128)
_EYE2 = np.eye(2, dtype=np.complex128)
_rng = np.random.default_rng(0)
_A = _rng.normal(size=(160, 160)) + 1j * _rng.normal(size=(160, 160))
_B = np.linalg.qr(_rng.normal(size=(160, 160)) + 1j * _rng.normal(size=(160, 160)))[0]


def python_unit() -> float:
    table: dict = {}
    acc = 0
    for i in range(200):
        key = (i & 15, i % 7)
        table[key] = table.get(key, 0) + i
        acc += len(str(i))
    m = _PERM
    for _ in range(2):
        big = np.kron(_EYE2, m) @ np.kron(m, _EYE2)
        acc += float(np.linalg.norm(big - big.T))
        m = m @ _PERM
    return acc


def blas_unit() -> int:
    return int(np.abs(_A @ _B)[0, 0] > 0)


KERNELS = {"python": python_unit, "blas": blas_unit}


class Gauge:
    """Times chunks of reference units between ops.

    ``chunk(beside_s)`` runs units worth ``SHARE`` of an op that takes
    ``beside_s`` (at least ``MIN_CHUNK_S`` worth) and returns (units,
    seconds). ``speed`` combines the chunks on both sides of an op into the
    host's speed relative to the reference: 1 at it, 0.5 at half of it.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.unit = KERNELS[kind]
        self.unit_s = UNIT_S[kind]
        self.chunk(0.0)  # warm-up

    def chunk(self, beside_s: float) -> tuple[int, float]:
        units = max(1, round(max(SHARE * beside_s, MIN_CHUNK_S) / self.unit_s))
        unit = self.unit
        started = perf_counter()
        for _ in range(units):
            unit()
        return units, perf_counter() - started

    def speed(self, before: tuple[int, float], after: tuple[int, float]) -> float:
        return self.unit_s * (before[0] + after[0]) / (before[1] + after[1])
