"""The demos run to completion and print exactly their pinned output.

Each demo runs in this process (``runpy``), which keeps the suite lean;
a ``SystemExit`` other than code 0 fails the test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# demo file -> sha256 prefix of its stdout
DEMO_STDOUT_SHA256 = {
    "01_two_group_walkthrough.py": "04ad1b7a91ff3465",
    "02_lottery_and_sampling.py": "be723f31850bb3d2",
    "03_feasibility_and_remedy.py": "2f8ee48241cb8247",
    "04_news_experiment.py": "43a04c082b06de6e",
    "05_click_simulation.py": "0f420b8abf83eaf6",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_pinned(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            runpy.run_path(str(DEMOS / name), run_name="__main__")
        except SystemExit as exc:
            assert exc.code in (None, 0), f"{name} exited {exc.code}"
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()[:16]
    assert digest == DEMO_STDOUT_SHA256[name]
