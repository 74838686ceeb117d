"""Pinned sha256 digests of the CSV files the CLI writes.

CSV output is part of the package contract: refactors and speedups must
leave these bytes unchanged.  A PR that changes them on purpose updates
the digests here and says why.
"""
import hashlib
import math

import pytest

from polspin.cli import main

FIGURE_DIGESTS = {
    "closed": {
        "fig2c": "94216a9ce487e54c6e3c952d8624250cdc0e677f671fd6ceb34621c3b170f235",
        "fig2d": "31b69d6c273213062ff947e4d0ca66ce1827c9d664867be448604780fd4098ec",
        "fig2e": "b24d6df14687e3ec91d1527d461aac80735c8700b7683d2c83e53145cc3cb330",
        "fig3": "0c7ae4eb7bac2d88fc21a0ee2e45f8a653f2283677a585a151eefcbd01e328f0",
        "fig4a": "078ba630d1eb604107c52d966d8cc7b978a16ae083c6135445c90274d7077823",
        "fig4b": "31d9e37aba1d34128d72a840c8622bb1e7cc1998d00e7cad2e09274b4ca86643",
    },
    "master": {
        "fig2c": "d18f69489d16ea80fd7278526e4bd5fbff915ed84d0ce209bbcad436648e00c5",
        "fig2d": "3089a6f8d653d7553fbad050d85018ce681a444a05282ea0b8afdbf8fc0ecedb",
        "fig2e": "af3e5345d8b27e1d353990f0574a3099cd2668abc8cf9b168b44d39d4f503757",
        "fig3": "86bdf61284dff125c3b5ce703324a7deff6e578820a1b2af29fd8deb43e2fe56",
        "fig4a": "d0e86935cda04bf3b789b90bfae067b0bf3a40bd7aed3f197a34d56bfdf4959a",
        "fig4b": "500d56dee9484d45fd5c526dec97b9fc4d46aba9d5424ca9bae638c1aaff5aba",
    },
}

COMMAND_DIGESTS = {
    ("trace",):
        "732cd054b37826711212b44a9c81076d9d52bdf1e9ff9fecc4aeb785faffe1c3",
    ("sweep", "--kind", "phase"):
        "7727af208df511291fef9d1bfc148604b7d49d1d3a9a36d5d5cce04671b1460a",
    ("sweep", "--kind", "field"):
        "a9bbac63490eac4b3567d2e4cf97e07972f0bc1f3a8005c55f5bb1230d913722",
    ("sweep", "--kind", "wavelength"):
        "b336e84af2a9eb4a8bc1c9c06f85fe0e6e53297a4e29909bdd0f660b66de1d81",
}

FIT_DIGESTS = {
    "validate": "c88f94cf6496243fe261c2d5c2671d9ece76cdc4c2b698e54095dfa891ee7aee",
    "sine": "09258b1f9ff035c03bbd31abd0b4249bbaba58e899b3fa36c0bad833fe189b67",
    "gauss2": "31cd490a65066e9b3e365204a2fe46e6082d210c1fc80afd8e4d1b154440756b",
}


def _fit_inputs(tmp_path):
    """A damped sine and a signed doublet with fixed ripple, written by the
    test itself."""
    sine = tmp_path / "sine.csv"
    rows = []
    for k in range(801):
        t = 0.5 * k
        y = 0.8 * math.exp(-t / 150.0) * math.cos(0.13 * t - 0.4) + 0.01 * math.sin(1.7 * k)
        rows.append(f"{t!r},{y!r}")
    sine.write_text("t_ps,theta_k\n" + "\n".join(rows) + "\n", encoding="utf-8")
    scan = tmp_path / "scan.csv"
    rows = []
    for k in range(121):
        lam = 794.5 + 3.0 * k / 120
        y = math.exp(-((lam - 795.5) ** 2) / 0.18) - 0.8 * math.exp(-((lam - 796.2) ** 2) / 0.18)
        y += 0.005 * math.cos(2.3 * k)
        rows.append(f"{lam!r},{y!r}")
    scan.write_text("lambda_nm,theta_k\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return {
        "validate": ["validate"],
        "sine": ["fit", "sine", "--in", str(sine)],
        "gauss2": ["fit", "gauss2", "--in", str(scan), "--set", "b_field_tesla=7"],
    }


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("engine", sorted(FIGURE_DIGESTS))
def test_figure_csvs_are_unchanged(engine, tmp_path, capsys):
    assert main(["figures", "--outdir", str(tmp_path), "--set", f"engine={engine}"]) == 0
    capsys.readouterr()
    got = {panel: _sha256(tmp_path / f"{panel}.csv") for panel in FIGURE_DIGESTS[engine]}
    assert got == FIGURE_DIGESTS[engine]


@pytest.mark.parametrize("argv", list(COMMAND_DIGESTS), ids=" ".join)
def test_default_command_csvs_are_unchanged(argv, tmp_path):
    dest = tmp_path / "out.csv"
    assert main([*argv, "--out", str(dest)]) == 0
    assert _sha256(dest) == COMMAND_DIGESTS[argv]


@pytest.mark.parametrize("name", sorted(FIT_DIGESTS))
def test_key_value_csvs_are_unchanged(name, tmp_path):
    dest = tmp_path / "out.csv"
    assert main([*_fit_inputs(tmp_path)[name], "--out", str(dest)]) == 0
    assert _sha256(dest) == FIT_DIGESTS[name]
