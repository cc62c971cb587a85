"""The public API: sorted `ost.__all__` is pinned in tests/api_names.txt,
the fields of every public dataclass, in constructor order, in
tests/api_fields.txt, and the signature of every public function in
tests/api_signatures.txt, so every added, removed or renamed name,
constructor field, parameter or default shows up as a diff of those
files."""

import dataclasses
import inspect
from pathlib import Path

import ost


def test_api_names_are_unchanged():
    golden = (Path(__file__).parent / "api_names.txt").read_text().split()
    assert sorted(ost.__all__) == golden


def test_every_api_name_resolves():
    missing = [name for name in ost.__all__ if not hasattr(ost, name)]
    assert missing == []


def api_fields() -> str:
    """One line per public dataclass: its name, then its field names."""
    lines = [" ".join([name] + [f.name for f in dataclasses.fields(obj)])
             for name in sorted(ost.__all__)
             if dataclasses.is_dataclass(obj := getattr(ost, name))]
    return "\n".join(lines) + "\n"


def test_api_fields_are_unchanged():
    golden = (Path(__file__).parent / "api_fields.txt").read_text()
    assert api_fields() == golden


def api_signatures() -> str:
    """One line per public function: its name, then its signature."""
    lines = [f"{name}{inspect.signature(obj)}" for name in sorted(ost.__all__)
             if inspect.isfunction(obj := getattr(ost, name))]
    return "\n".join(lines) + "\n"


def test_api_signatures_are_unchanged():
    golden = (Path(__file__).parent / "api_signatures.txt").read_text()
    assert api_signatures() == golden
