"""The package as a whole: its public surface, the CI workflow's command
lines and the oldest Python grammar it supports."""
import ast
import hashlib
import re
import shlex
import types
from pathlib import Path

import polspin
from polspin.cli import main

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# bound on the package by its own imports; from polspin import * must not export them
SUBMODULES = ("config", "constants", "dynamics", "errors", "experiment", "fitting",
              "polarization", "quantum", "transfer")


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from polspin import *", namespace)
    assert [name for name in namespace if name != "__builtins__"] == polspin.__all__


def test_public_names_are_sorted_unique_and_neither_private_nor_modules():
    names = polspin.__all__
    assert names == sorted(set(names))
    assert not [n for n in names if n.startswith("_")]
    assert not [n for n in names if isinstance(getattr(polspin, n), types.ModuleType)]
    assert not set(SUBMODULES) & set(names)


def test_public_surface_changes_only_on_purpose():
    # re-pin only when a public name is added or dropped on purpose
    digest = hashlib.sha256(",".join(polspin.__all__).encode()).hexdigest()
    assert len(polspin.__all__) == 64
    assert digest == "b9a1d170e10a5783492ef9d3d1bb33e3931056e9f470a3cc42b977e2d77abb59"


# one workflow line: the command, then the exit code the step requires
_LINE = re.compile(r'(?:rc=0; )?(polspin .*?)(?: \|\| rc=\$\?; test "\$rc" -eq (\d+))?')


def _entry_point_lines():
    """(command, expected exit) for every line of the workflow's two
    installed-entry-point steps, in order; any other line fails."""
    lines = []
    for step in WORKFLOW.read_text(encoding="utf-8").split("- name: ")[1:]:
        if not step.startswith("Installed entry point"):
            continue
        script = step.split("run: |\n", 1)[1]
        for raw in script.splitlines():
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            match = _LINE.fullmatch(raw)
            assert match, f"workflow line not understood: {raw!r}"
            lines.append((match[1], int(match[2] or 0)))
    return lines


def test_workflow_entry_point_lines_exit_as_the_workflow_expects(tmp_path, capsys):
    """The workflow's installed-script lines, run through cli.main in
    process and in order (later lines read earlier outputs)."""
    lines = _entry_point_lines()
    assert len(lines) == 31
    for command, expected in lines:
        argv = [arg.replace("$RUNNER_TEMP", str(tmp_path)) for arg in shlex.split(command)]
        assert argv[0] == "polspin"
        try:
            code = main(argv[1:])
        except SystemExit as exc:  # argparse
            code = exc.code
        err = capsys.readouterr().err
        assert code == expected, f"{command}: exit {code}, expected {expected}; {err}"
        assert "Traceback" not in err, command


def test_sources_parse_with_the_python_3_10_grammar():
    """requires-python is >=3.10 and this suite runs on one newer Python,
    so every file under src, tests and bench must parse with the 3.10
    grammar.  This catches syntax only, not library APIs added after 3.10."""
    paths = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
