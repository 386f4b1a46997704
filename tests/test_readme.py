"""The README's library tour runs as written.

Its ``python`` blocks execute in order in one namespace, from
``tests/fixtures/``, where the tour's ``forecasts.csv`` and ``truth.csv``
are, so a name the tour uses cannot drift away from the package.
"""

import re
from pathlib import Path

from conftest import FIXTURES

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    monkeypatch.chdir(FIXTURES)
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)
