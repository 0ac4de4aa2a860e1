"""A fixed reference computation that tracks the host's speed during a run.

On a shared host the same op can run up to 1.7x slower for a few
seconds at a time, and a whole 28 s run can sit 20% above or below the
next one, so a raw pass time spreads past any useful regression bound.
The runner times this kernel once before a pass and once after each op.
``wall_norm_s`` rescales each op shorter than ``LOCAL_OP_S`` by the
kernel's time around it, giving the op's time on a host where the kernel
takes ``NOMINAL_S``.  A longer op already averages the host's speed over
its own length and is taken as measured: rescaling the 10 s ops of
``eigen_n11`` by kernel runs next to them, even by runs adding up to a
tenth of their length, widened their run-to-run spread.

The kernel mixes what the small ops spend their time on: interpreted
Python, a small dense complex ``eigh`` and vector arithmetic.  It uses
no bellchain code, so a change to the program never moves it.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on the 2-vCPU Xeon host of the baseline in README.md (the
# median over its runs); the unit in which short ops are reported.
NOMINAL_S = 2.7e-3
# Ops at least this long are taken as measured: the host's speed holds
# for about a second at a time, so its samples no longer describe them.
LOCAL_OP_S = 2.0

_rng = np.random.default_rng(0)
_a = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_HERMITIAN = _a + _a.conj().T
_VECTOR = _rng.standard_normal(1 << 15) + 0j


def seconds() -> float:
    """Run the kernel once and return its wall time."""
    start = time.perf_counter()
    for _ in range(2):
        total = 0
        for i in range(10_000):
            total += i & 7
    np.linalg.eigh(_HERMITIAN)
    work = _VECTOR * 0.5
    work += _VECTOR.conj()
    np.vdot(work, _VECTOR)
    return time.perf_counter() - start


def normalized(op_seconds: list[float], kernel_seconds: list[float]) -> float:
    """Pass time with each short op rescaled to the nominal kernel speed.

    ``kernel_seconds`` has one sample before the first op and one after
    each op, so op ``i`` lies between samples ``i`` and ``i + 1``.
    """
    assert len(kernel_seconds) == len(op_seconds) + 1
    total = 0.0
    for op, before, after in zip(op_seconds, kernel_seconds, kernel_seconds[1:]):
        total += op if op >= LOCAL_OP_S else op * NOMINAL_S / ((before + after) / 2)
    return total
