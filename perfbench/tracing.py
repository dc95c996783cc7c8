"""In-memory span tracing installed around ActiveDP's public calls.

The program itself carries no instrumentation.  :func:`install` replaces
the public functions and methods named in the README's layer table with
thin wrappers that record one span per call: name, start, end, parent
span id and thread.  Spans stay in memory and are written out once, when
the run ends (:meth:`Tracer.dump`).  Worker processes install the same
wrappers through ``perfbench/traced_worker.py`` and dump their own spans,
which the benchmark process merges (:meth:`Tracer.merge`).

Besides spans the tracer keeps exact counts taken at the same boundaries
(EM iterations, glasso sweeps, warm fits, blob bytes) and timestamped
events on the system-wide monotonic clock (enqueue and lease of each
content key), so queue waits can be paired across processes.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

#: Spans whose duration is reported as ``<name>_s`` with a ``<name>_calls``
#: count.  ``core.refit_self`` is derived (refit span minus its children).
TIMED_LAYERS = (
    "datasets.load",
    "simulation.design_lf",
    "active_learning.select_query",
    "labeling.lf_append",
    "core.labelpick",
    "core.confusion_tune",
    "core.confusion_aggregate",
    "core.refit_self",
    "graphical.glasso",
    "graphical.covariance_update",
    "label_models.fit",
    "label_models.predict",
    "models.al_fit",
    "models.al_predict",
    "models.end_fit",
    "serving.session_add_lf",
    "serving.session_labels",
    "serving.submit",
    "serving.status",
    "serving.session_resume",
    "serving.session_evict",
    "brokers.enqueue",
    "brokers.lease_batch",
    "brokers.complete",
    "runner.run_trial",
    "results.put",
    "results.get",
)

#: Per-layer metrics the serving client measures itself; workloads without
#: a service report 0 for them.
CLIENT_LAYERS = ("serving.resumes", "serving.evictions", "serving.http_ms_p50")

#: Service methods whose span is subtracted from the client round trip to
#: give the HTTP layer's own cost (``serving.http_ms_p50``).
SERVICE_SPANS = frozenset(
    {"serving.submit", "serving.status", "serving.session_add_lf", "serving.session_labels"}
)


class Tracer:
    """Span and counter recorder for one process.

    Thread-safe for the way the wrappers use it: each thread keeps its own
    span stack, and finished spans are appended to one list (an atomic
    operation under the interpreter lock).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.events: list[tuple] = []
        self.enabled = True
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether the calling thread is currently within a span *name*."""
        return any(entry[1] == name for entry in self._stack())

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called *name*."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, start, end, self._pid, threading.get_ident())
            )

    def count(self, name: str, amount=1) -> None:
        """Add *amount* to the exact counter *name* (when tracing is on)."""
        if self.enabled:
            self.counters[name] += amount

    def event(self, kind: str, key: str) -> None:
        """Record that *kind* happened to *key* now (system-wide monotonic clock)."""
        if self.enabled:
            self.events.append((kind, key, time.monotonic()))

    @contextlib.contextmanager
    def paused(self):
        """Run output checks without recording them as program work."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    # -- persistence ------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span, counter and event to *path* as JSON."""
        payload = {
            "spans": [list(span) for span in self.spans],
            "counters": dict(self.counters),
            "events": [list(event) for event in self.events],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    def merge(self, path) -> None:
        """Fold another process's :meth:`dump` into this tracer."""
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        self.spans.extend(tuple(span) for span in payload["spans"])
        self.counters.update(payload["counters"])
        self.events.extend(tuple(event) for event in payload["events"])

    # -- reduction --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Busy time and call count per layer, self time of ``refit``, counts."""
        busy: Counter = Counter()
        calls: Counter = Counter()
        child_time: dict[tuple, float] = defaultdict(float)
        for span_id, parent, name, start, end, pid, _thread in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent:
                child_time[(pid, parent)] += end - start
        for span_id, _parent, name, start, end, pid, _thread in self.spans:
            if name == "core.refit":
                busy["core.refit_self"] += (end - start) - child_time[(pid, span_id)]
                calls["core.refit_self"] += 1
        metrics: dict[str, float] = {}
        for layer in TIMED_LAYERS:
            metrics[f"{layer}_s"] = busy[layer]
            metrics[f"{layer}_calls"] = calls[layer]
        c = self.counters
        metrics["graphical.glasso_sweeps"] = c["glasso_sweeps"]
        metrics["graphical.glasso_warm_ratio"] = _ratio(
            c["glasso_warm_fits"], c["glasso_fits"] - c["glasso_first_fits"]
        )
        metrics["label_models.em_iterations"] = c["lm_em_iterations"]
        metrics["label_models.warm_ratio"] = _ratio(
            c["lm_warm_fits"], c["lm_fits"] - c["lm_first_fits"]
        )
        metrics["results.blob_bytes"] = c["blob_bytes"]
        enqueued = {key: at for kind, key, at in self.events if kind == "enqueue"}
        waits = [
            (at - enqueued[key]) * 1e3
            for kind, key, at in self.events
            if kind == "lease" and key in enqueued
        ]
        metrics["brokers.queue_wait_ms_p50"] = statistics.median(waits) if waits else 0.0
        return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


# -- installation ---------------------------------------------------------


def _wrap_attr(tracer: Tracer, owner, attr: str, name) -> None:
    """Replace ``owner.attr`` by a span-recording wrapper.

    *name* is a span name or a callable choosing one per call (used where
    the same method belongs to different layers depending on its caller).
    """
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    is_classmethod = isinstance(original, classmethod)
    function = original.__func__ if is_classmethod else original
    choose = name if callable(name) else (lambda: name)

    @functools.wraps(function)
    def traced(*args, **kwargs):
        return tracer.call(choose(), function, args, kwargs)

    setattr(owner, attr, classmethod(traced) if is_classmethod else traced)


def _wrap_function_everywhere(tracer: Tracer, original, name: str) -> None:
    """Wrap a module-level function in every loaded module that imported it."""

    @functools.wraps(original)
    def traced(*args, **kwargs):
        return tracer.call(name, original, args, kwargs)

    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap every public call of the layer table with *tracer*'s spans."""
    # Import every module whose namespace holds a reference we rebind, so
    # that from-imports made later cannot capture an unwrapped original.
    import repro.core.labelpick as labelpick_module
    import repro.datasets.registry as registry
    import repro.runner.executor  # noqa: F401 - rebinds its load_dataset
    import repro.runner.worker as worker_module
    import repro.serving.sessions  # noqa: F401 - rebinds its load_dataset
    from repro.core.confusion import ConFusion
    from repro.core.framework import ActiveDP
    from repro.core.labelpick import LabelPick
    from repro.graphical.covariance import RunningCovariance
    from repro.label_models.metal import MeTaLLabelModel
    from repro.labeling.incremental import IncrementalLabelMatrix
    from repro.models.logistic_regression import LogisticRegression
    from repro.runner.brokers.spool import SpoolBroker
    from repro.runner.results.pickle_store import ResultCache
    from repro.serving.service import LabelingService
    from repro.serving.sessions import LabelingSession, SessionManager
    from repro.simulation.simulated_user import SimulatedUser

    _wrap_function_everywhere(tracer, registry.load_dataset, "datasets.load")
    _wrap_attr(tracer, SimulatedUser, "design_lf", "simulation.design_lf")
    _wrap_attr(tracer, ActiveDP, "select_query", "active_learning.select_query")
    _wrap_attr(tracer, IncrementalLabelMatrix, "append", "labeling.lf_append")
    _wrap_attr(tracer, LabelPick, "select", "core.labelpick")
    _wrap_attr(tracer, ConFusion, "tune_threshold", "core.confusion_tune")
    _wrap_attr(tracer, ConFusion, "aggregate", "core.confusion_aggregate")
    _wrap_attr(tracer, labelpick_module, "graphical_lasso", "graphical.glasso")
    _wrap_attr(tracer, RunningCovariance, "update", "graphical.covariance_update")
    _wrap_attr(tracer, MeTaLLabelModel, "fit", "label_models.fit")
    _wrap_attr(tracer, MeTaLLabelModel, "predict_proba", "label_models.predict")
    _wrap_attr(
        tracer, LogisticRegression, "fit",
        lambda: "models.al_fit" if tracer.inside("core.refit") else "models.end_fit",
    )
    _wrap_attr(
        tracer, LogisticRegression, "predict_proba",
        lambda: "models.al_predict" if tracer.inside("core.refit") else "models.end_predict",
    )
    _wrap_refit(tracer, ActiveDP)

    _wrap_attr(tracer, LabelingService, "session_add_lf", "serving.session_add_lf")
    _wrap_attr(tracer, LabelingService, "session_labels", "serving.session_labels")
    _wrap_attr(tracer, LabelingService, "submit", "serving.submit")
    _wrap_attr(tracer, LabelingService, "status", "serving.status")
    _wrap_attr(tracer, LabelingSession, "resume", "serving.session_resume")
    # Explicit evictions and LRU evictions both end in _evict_entry.
    _wrap_attr(tracer, SessionManager, "_evict_entry", "serving.session_evict")

    _wrap_brokers(tracer, SpoolBroker)
    _wrap_attr(tracer, worker_module, "run_trial", "runner.run_trial")
    _wrap_attr(tracer, ResultCache, "get", "results.get")
    _wrap_put(tracer, ResultCache)


def _wrap_refit(tracer: Tracer, cls) -> None:
    """Span ``ActiveDP.refit`` and count the fits it ran from state deltas."""
    original = cls.refit

    @functools.wraps(original)
    def refit(self, *args, **kwargs):
        state = self.state
        before = (
            state.lm_fits, state.lm_warm_fits, state.lm_em_iterations,
            state.labelpick.n_fits, state.labelpick.n_warm_fits, state.labelpick.n_sweeps,
        )
        try:
            return tracer.call("core.refit", original, (self, *args), kwargs)
        finally:
            state = self.state
            after = (
                state.lm_fits, state.lm_warm_fits, state.lm_em_iterations,
                state.labelpick.n_fits, state.labelpick.n_warm_fits, state.labelpick.n_sweeps,
            )
            names = (
                "lm_fits", "lm_warm_fits", "lm_em_iterations",
                "glasso_fits", "glasso_warm_fits", "glasso_sweeps",
            )
            for counter, old, new in zip(names, before, after):
                tracer.count(counter, new - old)
            # A run's first fit has nothing to warm-start from; the warm
            # ratios divide by the fits after it.
            if before[0] == 0 and after[0] > 0:
                tracer.count("lm_first_fits")
            if before[3] == 0 and after[3] > 0:
                tracer.count("glasso_first_fits")

    cls.refit = refit


def _wrap_brokers(tracer: Tracer, cls) -> None:
    """Span the spool broker's enqueue/lease/complete and stamp each key."""
    enqueue, lease_batch, complete = cls.enqueue, cls.lease_batch, cls.complete

    @functools.wraps(enqueue)
    def traced_enqueue(self, spec):
        written = tracer.call("brokers.enqueue", enqueue, (self, spec), {})
        if written:
            tracer.event("enqueue", spec.key)
        return written

    @functools.wraps(lease_batch)
    def traced_lease_batch(self, *args, **kwargs):
        leases = tracer.call("brokers.lease_batch", lease_batch, (self, *args), kwargs)
        for lease in leases:
            tracer.event("lease", lease.key)
        return leases

    @functools.wraps(complete)
    def traced_complete(self, lease):
        return tracer.call("brokers.complete", complete, (self, lease), {})

    cls.enqueue = traced_enqueue
    cls.lease_batch = traced_lease_batch
    cls.complete = traced_complete


def _wrap_put(tracer: Tracer, cls) -> None:
    """Span ``ResultCache.put`` and count the bytes of every blob written."""
    put = cls.put

    @functools.wraps(put)
    def traced_put(self, *args, **kwargs):
        path = tracer.call("results.put", put, (self, *args), kwargs)
        tracer.count("blob_bytes", os.path.getsize(path))
        return path

    cls.put = traced_put
