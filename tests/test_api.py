"""The public API: sorted `ost.__all__` is pinned in tests/api_names.txt,
so every added, removed or renamed name shows up as a diff of that file."""

from pathlib import Path

import ost


def test_api_names_are_unchanged():
    golden = (Path(__file__).parent / "api_names.txt").read_text().split()
    assert sorted(ost.__all__) == golden


def test_every_api_name_resolves():
    missing = [name for name in ost.__all__ if not hasattr(ost, name)]
    assert missing == []
