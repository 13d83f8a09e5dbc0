"""The host-speed reference: a fixed pure-Python kernel timed beside each operation.

The reference host is a 2-vCPU VM that shares its machine with other
tenants.  Its speed switches between states up to ~1.7x apart, held for
seconds to minutes, so a wall-clock figure moves by more between two
runs than any bound worth gating on.  The benchmark therefore times this
kernel right before each timed operation and reports the operation's
time in *reference seconds*: ``seconds / kernel seconds * REFERENCE_S``,
the time it would have taken on a host where the kernel takes
``REFERENCE_S``.  The kernel imports nothing from ``repro`` and no
change to the program can make it faster or slower.

Its two halves are the two kinds of work the workloads do: a
non-dominated sort (generator expressions and small function calls,
like Pareto ranking and most of the Python in ``repro``) and an integer
loop (bytecode dispatch, like the scalar passes).  Each half alone
tracked some workloads much better than others (see README.md), so the
kernel runs both.
"""

import gc
import random
import time

#: Kernel time of the nominal host, seconds: about the reference VM's
#: usual state, so reported figures read close to its wall clock.
REFERENCE_S = 0.025

_RANDOM = random.Random(0)
_VECTORS = [tuple(_RANDOM.random() for _ in range(3)) for _ in range(120)]


def _dominates(a, b):
    return all(x <= y for x, y in zip(a, b)) \
        and any(x < y for x, y in zip(a, b))


def _kernel():
    remaining = list(range(len(_VECTORS)))
    layers = 0
    while remaining:
        layer = {index for index in remaining
                 if not any(_dominates(_VECTORS[other], _VECTORS[index])
                            for other in remaining)}
        remaining = [index for index in remaining if index not in layer]
        layers += 1
    total = 0
    for value in range(150000):
        total += value * value % 7
    return layers, total


def reference_s():
    """Wall seconds the kernel takes now.

    The collector is off while it runs, so the size of the caller's heap
    (which a change to the program may alter) cannot change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def normalized(seconds, reference):
    """``seconds`` measured beside a kernel run of ``reference`` seconds,
    in reference seconds."""
    return seconds / reference * REFERENCE_S
