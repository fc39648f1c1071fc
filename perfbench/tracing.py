"""Runtime spans at the seams between meanskit's modules, installed from
the benchmark's own code.

Each seam is a function or method that one module calls in another.  The
tracer replaces it, for the duration of a traced run, with a wrapper that
records a span (name, start, end, parent span, operation id) and the
counts named in the benchmark's per-layer metrics.  Spans stay in memory
until the run ends.  A layer's self time is the time of its spans minus
the part their child spans cover.  A seam that no longer exists is listed
in ``missing`` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from routes import route_of


class Seam(NamedTuple):
    span: str      # span name, which is also the layer metric prefix
    module: str
    attr: str      # "function" or "Class.method"
    hook: str      # which counts the wrapper records


_SUITES = ("check_axioms", "check_continuity_from_above", "check_positivity",
           "check_betweenness", "check_strictness_and_order")

SEAMS = (
    *(Seam("verify.suite", "meanskit.verify", name, "suite") for name in _SUITES),
    Seam("connections.apply", "meanskit.connections", "_FunctionBackedConnection._apply_raw", "apply"),
    Seam("connections.apply", "meanskit.connections", "BuiltinConnection._apply_raw", "apply"),
    Seam("connections.apply", "meanskit.connections", "TransposeConnection._apply_raw", "apply"),
    Seam("connections.apply", "meanskit.measures", "MeasureConnection._apply_raw", "apply"),
    # Both symmetric eigen-solvers count as linalg.eigh; each importing
    # module holds its own reference to them.
    Seam("linalg.eigh", "meanskit.linalg", "_eigh", "eigh"),
    Seam("linalg.eigh", "meanskit.linalg", "_eigvalsh", "eigh"),
    Seam("linalg.eigh", "meanskit.connections", "_eigh", "eigh"),
    Seam("linalg.eigh", "meanskit.connections", "_eigvalsh", "eigh"),
    Seam("linalg.eigh", "meanskit.measures", "_eigh", "eigh"),
    Seam("linalg.eigh", "meanskit.verify", "_eigvalsh", "eigh"),
    Seam("linalg.fn_calculus", "meanskit.linalg", "_fn_calculus_raw", "count"),
    Seam("linalg.fn_calculus", "meanskit.connections", "_fn_calculus_raw", "count"),
    Seam("linalg.regularize", "meanskit.connections", "_regularize_raw", "regularize"),
    Seam("linalg.regularize", "meanskit.measures", "_regularize_raw", "regularize"),
    Seam("measures.mix", "meanskit.measures", "MeasureConnection._mix", "mix"),
    Seam("cli.main", "meanskit.cli", "main", "cli"),
    Seam("cli.load", "meanskit.cli", "load_matrix", "plain"),
    Seam("cli.render", "meanskit.cli", "_render_matrix", "plain"),
)


def _measure_nodes(conn) -> int:
    mu = conn.measure
    interior = sum(1 for t, _ in mu.atoms if 0.0 < t < 1.0)
    return interior + (mu.density.plan.n if mu.density is not None else 0)


class Tracer:
    def __init__(self, seams=SEAMS):
        self.seams = seams
        self.spans = []        # [name, start, end, parent index or -1, op id]
        self.counts = Counter()
        self.missing = []
        self.op_id = -1
        self._stack = []
        self._apply_depth = 0
        self._installed = []

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> Counter:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return out

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one span per line;
        ``parent`` is the line index of the parent span among the spans."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                 "missing_seams": self.missing}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- wrappers ------------------------------------------------------
    def _wrap(self, seam: Seam, fn):
        name, hook, counts = seam.span, seam.hook, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook == "apply" and self._apply_depth == 0:
                self._classify(args)
            elif hook == "eigh":
                n = int(np.shape(args[0])[0])
                counts["linalg.eigh.calls"] += 1
                counts["linalg.eigh.n3_computed"] += n**3
            elif hook == "count":
                counts[f"{name}.calls"] += 1
            elif hook == "mix":
                n = int(np.shape(args[1])[0])
                counts["measures.mix.calls"] += 1
                counts["measures.mix.node_n3_computed"] += _measure_nodes(args[0]) * n**3
            elif hook == "cli":
                counts["cli.requests"] += 1
            elif hook == "regularize":
                counts["linalg.regularize.calls"] += 1
                args = (self._count_steps(args[0]), *args[1:])
            idx = self._open(name)
            self._apply_depth += hook == "apply"
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if hook == "regularize":
                    counts["linalg.regularize.raised"] += 1
                raise
            finally:
                self._apply_depth -= hook == "apply"
                self._close(idx)
            if hook == "suite":
                counts["verify.suite_calls"] += 1
                counts["verify.trials"] += result.trials
            return result

        return traced

    def _classify(self, args) -> None:
        # Its own span, so that the eigenvalue probe is not charged to the
        # apply call's parent.
        idx = self._open("trace.classify")
        try:
            conn, a, b = args[0], args[1], args[2]
            route = route_of(conn, a, b, *args[3:4])
        finally:
            self._close(idx)
        self.counts[f"connections.apply.calls.{route}"] += 1

    def _count_steps(self, g):
        counts = self.counts

        def counted(eps):
            counts["linalg.regularize.steps"] += 1
            return g(eps)

        return counted

    # -- installation --------------------------------------------------
    def _resolve(self, seam: Seam):
        try:
            owner = importlib.import_module(seam.module)
        except ImportError:
            return None, None, None
        *path, name = seam.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
        # Methods must be defined on the class itself; wrapping an
        # inherited one would trace its base class twice.
        fn = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if not callable(fn):
            return None, None, None
        return owner, name, fn

    def install(self) -> None:
        self.missing = []
        for seam in self.seams:
            owner, name, fn = self._resolve(seam)
            if owner is None:
                self.missing.append(f"{seam.module}.{seam.attr}")
                continue
            setattr(owner, name, self._wrap(seam, fn))
            self._installed.append((owner, name, fn))

    def uninstall(self) -> None:
        while self._installed:
            owner, name, fn = self._installed.pop()
            setattr(owner, name, fn)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times (seconds)."""
        own = self.self_times()
        out = {key: float(value) for key, value in self.counts.items()}
        out.update({
            "verify.self_s": own["verify.suite"],
            "connections.apply.self_s": own["connections.apply"],
            "linalg.eigh.self_s": own["linalg.eigh"],
            "linalg.fn_calculus.self_s": own["linalg.fn_calculus"],
            "measures.mix.self_s": own["measures.mix"],
            "cli.load_s": own["cli.load"],
            "cli.render_s": own["cli.render"],
            "cli.self_s": own["cli.main"],
            "trace.classify_s": own["trace.classify"],
            "trace.spans": float(len(self.spans)),
            "trace.seams_missing": float(len(self.missing)),
        })
        return out
