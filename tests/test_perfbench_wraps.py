"""The benchmark's traced run swaps timing wrappers in for names it looks up
in ``billnet`` modules; renaming or deleting one of them must fail here."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_wrap_point_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert spans.Tracer().missing == []
