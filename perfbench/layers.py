"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public functions and methods of the ``repro``
layers with timing wrappers for the length of a traced rep, and puts the
originals back before the rep's results are validated.  Nothing inside
``src/`` knows about it.

Each wrapped call is a span.  A span's *self time* is its duration minus
the time its child spans cover, so the self times of all spans under one
root add up to the root's duration.  Spans of coarse calls (analysis
phases, mapping, one run, cache I/O) are kept in memory with their
parent and run id and written out when the rep ends; hot calls (sends,
message handlers, slave selection) are only summed, because a P=128 run
makes millions of them.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: (span name, module, attribute, keep each span).  A name shared by
#: several targets sums them.  Names read ``<layer>.<what>`` after the
#: ``src/repro`` package the code lives in.
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("matrices.generate", "repro.matrices.collection", "get", True),
    ("symbolic.analyze", "repro.symbolic.driver", "analyze_matrix", True),
    ("symbolic.ordering", "repro.symbolic.driver", "compute_ordering", True),
    ("symbolic.etree", "repro.symbolic.driver", "elimination_tree", True),
    ("symbolic.etree", "repro.symbolic.driver", "postorder", True),
    ("symbolic.etree", "repro.symbolic.driver", "permute_symmetric", True),
    ("symbolic.column_counts", "repro.symbolic.driver", "column_counts", True),
    ("symbolic.amalgamation", "repro.symbolic.driver",
     "fundamental_supernodes", True),
    ("symbolic.amalgamation", "repro.symbolic.driver",
     "relaxed_amalgamation", True),
    ("symbolic.tree_build", "repro.symbolic.tree",
     "AssemblyTree.from_supernodes", True),
    ("experiments.run", "repro.experiments.runner", "ExperimentRunner.run",
     True),
    ("experiments.cache_get", "repro.experiments.diskcache", "DiskCache.get",
     True),
    ("experiments.cache_put", "repro.experiments.diskcache", "DiskCache.put",
     True),
    ("solver.run", "repro.experiments.runner", "run_factorization", True),
    ("mapping.compute", "repro.solver.driver", "compute_mapping", True),
    ("topology.build", "repro.mechanisms.gossip", "build_topology", True),
    ("topology.build", "repro.mechanisms.neighborhood", "build_topology",
     True),
    ("topology.build", "repro.mechanisms.tree_agg", "build_topology", True),
    ("simcore.run", "repro.simcore.engine", "Simulator.run", True),
    ("simcore.send", "repro.simcore.network", "Network.send", False),
    ("simcore.broadcast", "repro.simcore.network", "Network.broadcast",
     False),
    ("mechanisms.handle", "repro.mechanisms.base", "Mechanism.handle_message",
     False),
    ("scheduling.select", "repro.scheduling.workload",
     "WorkloadStrategy.select_slaves", False),
    ("scheduling.select", "repro.scheduling.memory",
     "MemoryStrategy.select_slaves", False),
    ("solver.truth", "repro.solver.truth", "TruthTracker.errors_against",
     False),
    ("solver.truth", "repro.solver.truth", "TruthTracker.all_errors_against",
     False),
    ("obs.finalize", "repro.obs.monitor", "MetricsMonitor.finalize", True),
    ("obs.finalize", "repro.obs.registry", "MetricsRegistry.to_dict", True),
)


class Tracer:
    """Span recorder patched around the calls into each layer."""

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[name, child_seconds]``.
        self._stack: List[List[Any]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: "Counter[str]" = Counter()
        #: Kept spans: (name, start, end, parent name, run id).
        self.spans: List[Tuple[str, float, float, str, str]] = []
        #: Identity of the run in progress (its ``RunKey``), set by the
        #: benchmark loop; spans recorded during set-up carry "setup".
        self.run_id = "setup"
        self._undo: List[Tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, keep: bool) -> Callable:
        stack, self_s, calls, spans = (
            self._stack, self.self_s, self.calls, self.spans)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if keep:
                    parent = stack[-1][0] if stack else ""
                    spans.append((name, t0, t1, parent, self.run_id))

        return traced

    def install(self) -> None:
        """Wrap every target; call before the first call into the program."""
        for name, module, attr, keep in TARGETS:
            owner: Any = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = (owner.__dict__[leaf] if isinstance(owner, type)
                   else getattr(owner, leaf))
            if isinstance(raw, classmethod):
                new: Any = classmethod(self._wrap(name, raw.__func__, keep))
            else:
                new = self._wrap(name, raw, keep)
            self._undo.append((owner, leaf, raw))
            setattr(owner, leaf, new)

    def uninstall(self) -> None:
        """Put every original back (in reverse, so shared owners unwind)."""
        while self._undo:
            owner, leaf, raw = self._undo.pop()
            setattr(owner, leaf, raw)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([
                {"name": n, "start": s, "end": e, "parent": p, "run": r}
                for n, s, e, p, r in self.spans
            ], fh)
