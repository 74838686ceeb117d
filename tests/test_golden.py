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
        "fig4b": "77b471cb69c2f20109f89c66a8bb50fdfd1481f7e4d0e1e45cf808487a193f05",
    },
    "master": {
        "fig2c": "41e3292236f2bd0ecdf8e1f0ef461ac223ceb27bcb34f3f9c3bf6dd05c3ffad6",
        "fig2d": "2d5281aec85bdced8b6b4767a67c415cf85f2c1dfc747825f2d3a9908a7dcd0a",
        "fig2e": "3039b2f4fa1882b1f4deeaf0d6e8e2608a5e2a005e21beffe618a35f1a85c33f",
        "fig3": "04028c5b010035588ebbd36044fc866a48387ff4d614aba24bdd4eeb176d4d71",
        "fig4a": "9d6ff1e2fa82874654d2e128e32e24f8ca3de8436e3a7ccbe2def3f5503d309c",
        "fig4b": "37ca8ec256c55be0f366a19f7ebe252355f0b3c1d8e302487f7a0c2faa5e68c3",
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
        "5565c56b0320a1a79a0d05d0bc5c3f3be13a6a221a104dc5f2878bb8be4c73c7",
}

FIT_DIGESTS = {
    "validate": "c88f94cf6496243fe261c2d5c2671d9ece76cdc4c2b698e54095dfa891ee7aee",
    "sine": "78b64e38ee7485fdc80fed72c5469947e50bee4080b65aa93bc1c0184d8f2d02",
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
