"""The reference panel: every case agrees with ``tests/data/reference_panel.json``.

Discrete outputs must be equal.  Every stored scalar ``want`` is matched
by ``|got - want| <= RTOL * |want| + ATOL``.  A dense output's probe is
matched on the scale of its matrix, ``|got - want| <= RTOL * fro + ATOL``
with ``fro`` the stored Frobenius norm, because ``fro`` is the
root-mean-square value of a probe ``u.T @ M @ v`` over standard normal
``u`` and ``v``.  The tolerance is declared here once and is not widened
to let a change through; see ``make_reference_panel.py``.
"""

import json

import pytest

from make_reference_panel import PATH, cases, summarize

RTOL = 1e-10
ATOL = 1e-12

REFERENCE = {entry["id"]: entry for entry in json.loads(PATH.read_text())}


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= RTOL * scale + ATOL


@pytest.mark.parametrize("case", cases(), ids=lambda case: case["id"])
def test_reference_panel(case):
    want = REFERENCE[case["id"]]
    got = summarize(case)
    assert got["discrete"] == want["discrete"]
    assert got["scalars"].keys() == want["scalars"].keys()
    for name, values in want["scalars"].items():
        assert len(got["scalars"][name]) == len(values), name
        for g, w in zip(got["scalars"][name], values):
            assert _close(g, w, abs(w)), f"{name}: {g!r} vs {w!r}"
    assert got["dense"].keys() == want["dense"].keys()
    for name, ref in want["dense"].items():
        fro = ref["fro"]
        assert _close(got["dense"][name]["fro"], fro, fro), f"{name} Frobenius norm"
        for g, w in zip(got["dense"][name]["probes"], ref["probes"], strict=True):
            assert _close(g, w, fro), f"{name} probe: {g!r} vs {w!r}"


def test_reference_panel_covers_every_case():
    assert [case["id"] for case in cases()] == list(REFERENCE)
