"""Golden CLI outputs: exact stdout, exit code and written circuit.

``golden/cases.json`` holds ``transpile`` and ``verify`` runs on the
circuits in ``golden/inputs/``, recorded with the dense per-gate
simulator and trace-of-product phase overlap that preceded the
tensor-contraction simulator and the O(4**n) overlap. Stdout must match
byte for byte, except that a ``phase_distance`` may differ by rounding
noise:

- both old and new value below 1e-12, where the digits are noise, or
- at most ``MAX_ULPS`` units in the last place apart. Summing the overlap
  tr(b' a) in another order moves the optimal phase by an ulp, and the
  distance can follow it by an ulp or two.

Exact zeros must stay exact zeros, and null must stay null.
"""

import json
import math
import re
from pathlib import Path

import pytest

from pentagate.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))

#: Distances below this in both outputs may differ in their digits.
ROUNDING_LEVEL = 1e-12

#: Larger distances may differ by at most this many units in the last place.
MAX_ULPS = 4

_DISTANCE = re.compile(r'"phase_distance": ([^,}]+)')


def _same_up_to_rounding(old: str, new: str) -> bool:
    """True iff two emitted phase distances differ only by rounding noise."""
    if "null" in (old, new):
        return old == new
    x, y = float(old), float(new)
    if x == 0.0 or y == 0.0:
        return x == y
    if x < ROUNDING_LEVEL and y < ROUNDING_LEVEL:
        return True
    return abs(x - y) <= MAX_ULPS * math.ulp(x)


def _mask_rounding_distances(expected: str, actual: str) -> tuple[str, str]:
    old, new = _DISTANCE.findall(expected), _DISTANCE.findall(actual)
    if len(old) == len(new) == 1 and _same_up_to_rounding(old[0], new[0]):
        mask = '"phase_distance": <rounding>'
        return _DISTANCE.sub(mask, expected), _DISTANCE.sub(mask, actual)
    return expected, actual


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_cli_output(case, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.json"
    argv = [arg.replace("{out}", str(out)) for arg in case["argv"]]
    monkeypatch.chdir(GOLDEN)
    code = main(argv)
    stdout = capsys.readouterr().out
    assert code == case["exit"]
    expected, actual = _mask_rounding_distances(case["stdout"], stdout)
    assert actual == expected
    if case["out"] is None:
        assert not out.exists()
    else:
        assert out.read_text(encoding="utf-8") == case["out"]


@pytest.mark.parametrize("old, new, same", [
    ("2.0764e-14", "2.0723e-14", True),
    ("0.015999999833332345", "0.015999999833332341", True),
    ("0", "0", True),
    ("null", "null", True),
    ("0", "1e-15", False),
    ("1e-13", "2e-12", False),
    ("22.56", "22.560000000001", False),
    ("0.016", "0.0160000000001", False),
    ("null", "1e-15", False),
])
def test_rounding_exception_is_narrow(old, new, same):
    assert _same_up_to_rounding(old, new) is same
