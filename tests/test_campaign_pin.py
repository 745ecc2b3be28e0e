"""Byte identity of the fuzz campaign.

``data/campaign_hashes.json`` holds, for each bound of the acceptance campaign
(``test_acceptance.CAMPAIGN``) and each input set 0-3 (seed + 1000 * set, the input sets
of the ``fuzz_campaign`` benchmark), the sha256 of the summary JSON that ``revtri fuzz
--out`` writes and of each trial's ``report_to_json`` plus ``report_to_csv`` text, for
5 trials at N = 512.  Generation, integration and judging must reproduce them byte for
byte.  Complex reports, like the golden fixtures, were recorded with numpy 2.4.6
dispatching AVX512_SPR (README, "Portability of complex report bytes").  Re-record the
fixture only for an intended change of the fuzz streams or the report format:

    PYTHONPATH=src python -m tests.test_campaign_pin
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from revtri import fuzz, report_to_csv, report_to_json

from .test_acceptance import CAMPAIGN

FIXTURE = Path(__file__).parent / "data" / "campaign_hashes.json"
INPUT_SETS = range(4)
TRIALS = 5
N_PANELS = 512
CASES = [f"{bound_id}-set{k}" for bound_id in sorted(CAMPAIGN) for k in INPUT_SETS]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def render(name: str) -> dict:
    """The hashes of one (bound, input set) case."""
    bound_id, k = name.rsplit("-set", 1)
    cfg = dict(CAMPAIGN[bound_id])
    seed = cfg.pop("seed") + 1000 * int(k)
    summary = fuzz(bound_id, TRIALS, seed, n_panels=N_PANELS, keep_reports=True, **cfg)
    return {
        "summary": _sha(json.dumps(summary.to_dict(), sort_keys=True, indent=2) + "\n"),
        "reports": [_sha(report_to_json(r) + report_to_csv(r)) for r in summary.reports],
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_bound_and_input_set(recorded):
    assert sorted(recorded) == sorted(CASES)
    assert len(CASES) == 17 * len(INPUT_SETS)


@pytest.mark.parametrize("name", CASES)
def test_campaign_bytes_are_pinned(recorded, name):
    assert render(name) == recorded[name]


if __name__ == "__main__":
    records = {name: render(name) for name in CASES}
    FIXTURE.write_text(json.dumps(records, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {FIXTURE}")
