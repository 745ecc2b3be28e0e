"""Contract mutation test (Miller, Fredriksen, So, "An empirical study of the reliability
of UNIX utilities", CACM 1990).

Each leaf of a dozen golden scenario files is replaced in turn by each value of
``VALUES``; in a list of more than three entries only the first, middle and last are
mutated.  Every mutant must either raise one input error (a :class:`RevtriError`, which
``revtri check`` prints as one ``error:`` line and exits 3 on) or give a report whose
numbers are all finite, and no mutant may print a warning on the way.  A mutant judged
``violated`` must be listed in ``VIOLATED``, each entry with its reason.
"""

from __future__ import annotations

import copy
import json
import math
import warnings

import pytest

from revtri import RevtriError, run, scenario_from_dict
from revtri.scenario import report_to_dict

from .test_golden_reports import _recorded

FILES = (
    "data-ball_hypothesis_fail",
    "data-cor23_extremal",
    "data-dominance_tau_edge",
    "extremal-COR_2_2-complex",
    "extremal-COR_2_5-real",
    "extremal-THM_2_1-real",
    "family-extremal-n3",
    "fuzz-COR_3_3-complex-n2",
    "fuzz-COR_3_5-real-n3",
    "fuzz-KARAMATA-complex-n3",
    "fuzz-MULT_A-real-n3",
    "fuzz-PROP_4_3-complex-n3",
)

#: 10**400 is the integer a JSON file spells with 401 digits; 1e-320 is subnormal.
VALUES = (None, "x", [], {}, True, -1, 0, -0.0, 1e308, -1e308, 1e-320, 10 ** 400)

#: The mutants that may be judged ``violated``: (file, mutated path) -> values.
VIOLATED = {
    # a tolerance of 1e308 lets any hypothesis pass, a failing one too
    ("data-ball_hypothesis_fail", ("tolerances", "tau_hyp")): (1e308,),
    ("data-dominance_tau_edge", ("tolerances", "tau_hyp")): (1e308,),
    # the tau-edge file is judged violated as recorded: its dominance residual 5e-10 lies
    # within tau_hyp = 1e-9, so the check passes and the inequality fails by 5e-10 per
    # unit length.  These mutants keep its f, e, k and a unit-scale interval: another id
    # or orthonormality tolerance, a zero coordinate as 0, -0.0 or 1e-320, the mirrored
    # u = (0, -1), or the interval [-1, 1] or [1e-320, 1]
    ("data-dominance_tau_edge", ("id",)): ("x",),
    ("data-dominance_tau_edge", ("tolerances", "tau_on")): (0, -0.0, 1e-320, 1e308),
    ("data-dominance_tau_edge", ("function", "e", 1)): (0, -0.0, 1e-320),
    ("data-dominance_tau_edge", ("function", "u", 0)): (0, -0.0, 1e-320),
    ("data-dominance_tau_edge", ("function", "u", 1)): (-1,),
    ("data-dominance_tau_edge", ("reference", "e", 1)): (0, -0.0, 1e-320),
    ("data-dominance_tau_edge", ("interval", 0)): (-1, 0, -0.0, 1e-320),
}


def _leaves(data, path=()):
    """The paths of the leaves of a JSON value: the first, middle and last entries of a
    list of more than three, every entry of a shorter one."""
    if isinstance(data, dict) and data:
        for key, value in data.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(data, list) and data:
        n = len(data)
        for i in (range(n) if n <= 3 else sorted({0, n // 2, n - 1})):
            yield from _leaves(data[i], path + (i,))
    else:
        yield path


def _mutant(data, path, value):
    out = copy.deepcopy(data)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    return out


def _numbers(value):
    """The float leaves of a report's dict."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, float):
        yield value


def _outcome(name, data):
    """``"error"``, or the verdicts of a report whose numbers are all finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = run(scenario_from_dict(data, source=name))
        except RevtriError:
            return "error"
    numbers = list(_numbers(report_to_dict(report)))
    assert all(map(math.isfinite, numbers)), numbers
    return tuple(r.verdict for r in report.results)


@pytest.fixture(scope="module")
def golden() -> dict:
    return _recorded()


@pytest.mark.parametrize("name", FILES)
def test_every_mutant_is_rejected_or_judged_on_finite_numbers(golden, name):
    data = json.loads(golden[name]["scenario"])
    unlisted = []
    for path in _leaves(data):
        allowed = [repr(v) for v in VIOLATED.get((name, path), ())]
        for value in VALUES:
            verdicts = _outcome(name, _mutant(data, path, value))
            if "violated" in verdicts and repr(value) not in allowed:
                unlisted.append((path, value))
    assert not unlisted
