"""The host's current speed, from a fixed reference task timed during a run.

On a shared host the same work takes from 0.7x to 2x its usual time, and
the level holds for seconds to minutes, so the median of a 50-second run
moves by 10-25% between runs however many samples it takes. A run therefore
also times `reference()`, a fixed task that uses none of the program's
code, right after each of its timed steps. Dividing a step's time by the
reference time that follows it, and multiplying by `NOMINAL_S`, gives it
at one host speed; what the program itself changes still shows in full,
because the reference does not run the program.

The task is JSON text to nested lists and dicts and back, as in the index
file, then small numpy reductions over 8-d points, as in the distance
calls; its inputs are constant. Host spells do not slow all code alike:
tight pure-Python loops speed up and slow down by about twice as much as
the program's queries, loads and lab battery, so the task has none.
The garbage collector is paused while it runs, so that its time does not
depend on how many objects the program holds.
"""
from __future__ import annotations

import gc
import json
from time import perf_counter

import numpy as np

# about the median of reference() on the 2-core host the benchmark was tuned
# on; timings are reported as if the host ran at this speed
NOMINAL_S = 0.017

_rng = np.random.default_rng(0)
_POINTS = _rng.random((2000, 8))
_CENTRES = _rng.random((40, 8))
_DOC = {
    "points": _rng.random((300, 8)).round(15).tolist(),
    "edges": [[int(j) for j in _rng.choice(300, 4, replace=False)] for _ in range(300)],
    "groups": {str(i): {"pivot": i, "radius": float(r)} for i, r in enumerate(_rng.random(300))},
}
_TEXT = json.dumps(_DOC, indent=1)


def _task() -> None:
    json.dumps(json.loads(_TEXT), indent=1)
    for c in _CENTRES:
        np.sqrt(((_POINTS - c) ** 2).sum(axis=1)).argmin()


def reference() -> float:
    """Seconds that one run of the reference task takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _task()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
