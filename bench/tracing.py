"""Layer spans for the traced benchmark run.

The tracer wraps polspin's public functions, grouped into layers named
after the package's modules, at every name a caller looks them up by: a
function bound elsewhere with a from-import (``polspin.experiment``
binds ``kerr_trace_master``, ``polspin.cli`` binds ``run_sweep``) is
replaced there too.  Spans (layer, function, start, end, parent, counts)
are kept in memory and aggregated per op; a layer's self time is its span
durations minus the time their child spans cover, and its busy time counts
only spans without an enclosing span of the same layer.

Nothing under ``src/`` changes, and importing this module imports no
polspin or numpy, so a traced CLI process pays for its own imports.

Run as a script it is the traced CLI::

    python bench/tracing.py SPAN_FILE polspin-cli-arguments...

which imports ``polspin.cli``, installs the wrappers, runs
``polspin.cli.main`` on the arguments, writes the spans to SPAN_FILE as
JSON and exits with main's exit code.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

LAYERS = {
    "cli": ("polspin.cli", ("main",)),
    "config": ("polspin.config", ("parse_config", "parse_config_items", "serialize_config")),
    "polarization": ("polspin.polarization",
                     ("polarization_from_phase", "named_polarization", "stokes_of")),
    "transfer": ("polspin.transfer", ("spectral_weights", "raw_channel_amplitudes", "excite_lh",
                                      "excite_hh", "validate_vsystem")),
    "dynamics.closed": ("polspin.dynamics", ("kerr_trace_closed_form", "kerr_trace_closed_form_hh")),
    "dynamics.master": ("polspin.dynamics", ("kerr_trace_master", "evolve_master")),
    "experiment.sweep": ("polspin.experiment",
                         ("run_sweep", "run_multi_trace", "run_trace", "field_reversal_check")),
    "experiment.emit": ("polspin.experiment", ("csv_text", "emit_csv")),
    "fitting": ("polspin.fitting", ("fit_damped_sine", "fit_two_gaussian")),
}

# Span layers that are not polspin modules: the op itself (benchmark glue,
# and for a CLI op the interpreter start and exit) and, in a traced CLI
# process, the import of polspin.cli.
ROOT_LAYER = "bench"
IMPORT_LAYER = "import"


def _samples(args, kwargs, out):
    return {"samples": len(out.t_ps)}


def _master_trace(args, kwargs, out):
    # one 16x16 propagation per grid interval of positive length; the
    # interval from t = 0 to the first sample is empty when the grid starts at 0
    n = len(out.t_ps)
    return {"samples": n, "matvecs": n - int(out.t_ps[0] == 0.0)}


def _evolve(args, kwargs, out):
    t = args[1] if len(args) > 1 else kwargs["t_ps"]
    return {"matvecs": int(float(t) > 0.0)}


def _csv(args, kwargs, out):
    header_commas = out[: out.find("\n")].count(",")
    return {"bytes": len(out.encode("utf-8")),
            "cells": out.count(",") - header_commas + out.count("\n") - 1}


COUNTERS = {
    "kerr_trace_closed_form": _samples,
    "kerr_trace_closed_form_hh": _samples,
    "kerr_trace_master": _master_trace,
    "evolve_master": _evolve,
    "run_sweep": lambda a, k, out: {"rows": len(out.theta_k)},
    "run_multi_trace": lambda a, k, out: {"rows": len(out.columns)},
    "run_trace": lambda a, k, out: {"rows": 1},
    "csv_text": _csv,
}

COUNT_KEYS = ("samples", "matvecs", "rows", "bytes", "cells")


class Tracer:
    """Records spans of wrapped polspin calls in this process.

    ``install`` wraps, ``uninstall`` restores the original functions;
    ``call`` runs an op under a root span and ``drain`` returns the per-layer
    totals of everything recorded since the last drain.
    """

    def __init__(self):
        self.spans: list[list] = []  # [layer, function, start, end, parent, outermost, counts]
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._restore: list[tuple] = []
        self._child_stats: list[dict] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "polspin" or n.startswith("polspin."))]
        for layer, (modname, names) in LAYERS.items():
            mod = sys.modules.get(modname)
            for name in names:
                orig = getattr(mod, name, None)
                if orig is None:
                    continue
                wrapper = self._wrap(orig, layer, name, COUNTERS.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    def _wrap(self, fn, layer, name, counter):
        spans, stack, open_ = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = open_.get(layer, 0)
            rec = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, depth == 0, None]
            stack.append(len(spans))
            spans.append(rec)
            open_[layer] = depth + 1
            rec[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
                open_[layer] = depth
            if counter is not None:
                rec[6] = counter(args, kwargs, out)
            return out

        return wrapper

    def call(self, name: str, fn):
        """Run fn() under a root span of the benchmark layer."""
        return self._wrap(fn, ROOT_LAYER, name, None)()

    def add_child(self, span_file) -> None:
        """Merge the spans a traced CLI process wrote into the current op."""
        with open(span_file, encoding="utf-8") as fh:
            self._child_stats.append(aggregate(json.load(fh)))

    def drain(self) -> tuple[dict, list]:
        """(per-layer totals, raw spans) since the last drain; then clear.

        Time that child processes account for is taken out of the root
        span's self time, so self times still add up to the op's wall time.
        """
        stats = aggregate(self.spans)
        for child in self._child_stats:
            for layer, st in child.items():
                mine = stats.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
                for k, v in st.items():
                    mine[k] = mine.get(k, 0) + v
                if ROOT_LAYER in stats:
                    stats[ROOT_LAYER]["self_s"] -= st["self_s"]
        spans = [list(s) for s in self.spans]
        self.spans.clear()
        self._child_stats.clear()
        return stats, spans


def aggregate(spans) -> dict[str, dict]:
    """Per-layer calls, busy time, self time and counts of a span list."""
    covered = [0.0] * len(spans)
    for layer, _fn, start, end, parent, _outer, _counts in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (layer, _fn, start, end, _parent, outermost, counts) in enumerate(spans):
        st = stats.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += (end - start) - covered[i]
        if outermost:
            st["busy_s"] += end - start
        for k, v in (counts or {}).items():
            st[k] = st.get(k, 0) + v
    return stats


def main(argv: list[str]) -> int:
    span_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    t0 = perf_counter()
    cli = importlib.import_module("polspin.cli")
    tracer.spans.append([IMPORT_LAYER, "polspin.cli", t0, perf_counter(), -1, True, None])
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
