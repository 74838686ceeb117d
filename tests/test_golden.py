"""Pinned sha256 digests of the CSV files the CLI writes.

CSV output is part of the package contract: refactors and speedups must
leave these bytes unchanged.  A PR that changes them on purpose updates
the digests here and says why.
"""
import hashlib

import pytest

from polspin.cli import main

FIGURE_DIGESTS = {
    "closed": {
        "fig2c": "94216a9ce487e54c6e3c952d8624250cdc0e677f671fd6ceb34621c3b170f235",
        "fig2d": "31b69d6c273213062ff947e4d0ca66ce1827c9d664867be448604780fd4098ec",
        "fig2e": "ad7492ecb6ad73d8c60680e355f8763827a801fc4344420a56945d79f7bf2f20",
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
