"""The fixed and per-trial cost of a campaign fuzz() call, in Python calls and in time.

    PYTHONPATH=src python -m tests.fuzz_cost            # call counts and timings
    PYTHONPATH=src python -m tests.fuzz_cost --calls    # exact call counts only

Each of the 17 campaign bounds (``tests/test_acceptance.py::CAMPAIGN``, N = 512) makes one
fuzz() call of T trials at T = 5 and at T = 20, after a warm-up call that fills the grid
caches.  A call costs ``fixed + T * per_trial``; the two points give both parts, averaged
over the bounds.

Calls are counted with ``sys.setprofile``, exactly and repeatably:

* ``python``: every call of a Python function, numpy's Python wrappers included;
* ``c``: every call of a C function or method;
* ``revtri``: the calls whose code lies in a revtri module or was generated from a string,
  as a dataclass's ``__init__`` and a NamedTuple's ``__new__`` are; the tier-1 guard
  ``tests/test_fuzz.py::test_a_campaign_call_makes_few_python_calls`` bounds these.

Timings are the least of several calls per bound, on whatever BLAS thread count the
environment sets; they vary with the machine, the counts do not.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path

from revtri import fuzz

from .test_acceptance import CAMPAIGN

SIZES = (5, 20)
PACKAGE = str(Path(fuzz.__code__.co_filename).parent)


def _kind(code) -> str | None:
    """``revtri`` for code of a revtri module or generated from a string, else None."""
    name = code.co_filename
    return "revtri" if name == "<string>" or name.startswith(PACKAGE) else None


def call_counts(bound_id: str, trials: int) -> Counter:
    """The ``python``, ``c`` and ``revtri`` calls of one fuzz() call on ``bound_id``."""
    fuzz(bound_id, trials, **CAMPAIGN[bound_id])
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts["python"] += 1
            counts[_kind(frame.f_code)] += 1
        elif event == "c_call":
            counts["c"] += 1
    sys.setprofile(profile)
    try:
        fuzz(bound_id, trials, **CAMPAIGN[bound_id])
    finally:
        sys.setprofile(None)
    del counts[None]
    return counts


def seconds(bound_id: str, trials: int, repeats: int) -> float:
    """The least time of ``repeats`` fuzz() calls on ``bound_id``."""
    fuzz(bound_id, trials, **CAMPAIGN[bound_id])
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fuzz(bound_id, trials, **CAMPAIGN[bound_id])
        best = min(best, time.perf_counter() - start)
    return best


def split(at: dict[int, float]) -> tuple[float, float]:
    """(fixed, per trial) of a cost ``at[T]`` linear in T, from T = 5 and T = 20."""
    (t0, c0), (t1, c1) = sorted(at.items())
    per_trial = (c1 - c0) / (t1 - t0)
    return c0 - t0 * per_trial, per_trial


def main(argv: list[str]) -> int:
    rows = {kind: {t: 0.0 for t in SIZES} for kind in ("python", "c", "revtri")}
    for bound_id in CAMPAIGN:
        for t in SIZES:
            for kind, n in call_counts(bound_id, t).items():
                rows[kind][t] += n / len(CAMPAIGN)
    if "--calls" not in argv:
        rows["time_us"] = {t: sum(seconds(b, t, 20 if t == 5 else 8) for b in CAMPAIGN)
                           / len(CAMPAIGN) * 1e6 for t in SIZES}
    print(f"fuzz() call on each of the {len(CAMPAIGN)} campaign bounds (N = 512), "
          f"mean over the bounds")
    print(f"{'':10s}{'T=5':>10s}{'T=20':>10s}{'fixed':>10s}{'per trial':>11s}")
    for kind, at in rows.items():
        fixed, per_trial = split(at)
        print(f"{kind:10s}{at[5]:10.1f}{at[20]:10.1f}{fixed:10.1f}{per_trial:11.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
