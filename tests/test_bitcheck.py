"""``bitcheck compare`` on small dumps: equal bits pass, anything else fails."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bitcheck.py"
spec = importlib.util.spec_from_file_location("bitcheck", TOOL)
bitcheck = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bitcheck)

BASE = {"a": np.arange(6, dtype=np.int64).reshape(2, 3), "b": np.array([0.0, 1.5, np.nan])}


def compare(tmp_path, before, after):
    """``bitcheck compare``'s exit code on dumps of ``before`` and ``after``."""
    np.savez(tmp_path / "before.npz", **before)
    np.savez(tmp_path / "after.npz", **after)
    return bitcheck.main(["compare", str(tmp_path / "before.npz"), str(tmp_path / "after.npz")])


def test_identical_arrays_pass(tmp_path, capsys):
    assert compare(tmp_path, BASE, {k: v.copy() for k, v in BASE.items()}) == 0
    assert "2 of 2 arrays identical" in capsys.readouterr().out


def test_equal_bit_nans_pass(tmp_path):
    nan = np.array([np.nan, 0.0])
    assert compare(tmp_path, {"x": nan}, {"x": nan.copy()}) == 0


@pytest.mark.parametrize(
    "change,line",
    [
        ({"b": np.array([-0.0, 1.5, np.nan])}, "bits differ: b"),
        ({"a": BASE["a"].astype(np.int32)}, "dtype differs: a"),
        ({"a": BASE["a"].reshape(3, 2)}, "shape differs: a"),
        ({"c": np.zeros(1)}, "after.npz: c"),
    ],
    ids=["negative-zero", "dtype", "shape", "after-only-key"],
)
def test_any_other_difference_fails(tmp_path, capsys, change, line):
    assert compare(tmp_path, BASE, {**BASE, **change}) == 1
    assert line in capsys.readouterr().out


def test_a_key_on_the_before_side_only_fails(tmp_path, capsys):
    assert compare(tmp_path, BASE, {"a": BASE["a"]}) == 1
    assert "before.npz: b" in capsys.readouterr().out
