"""Span tracing of pcsmri layers from outside the package.

The package is not edited. Instead, a traced run replaces, at run time,
the names that callers look up: `from .transforms import fft2c` binds a
module global `fft2c` in every importing module, so each such global
that still refers to the original function is swapped for a wrapper.
Methods are wrapped on every class of the module that defines them.

A span records name, start, end, thread, parent span and counters. Spans
are kept in memory under a lock (the sweep runs two worker threads) and
serialized once, when the run ends. A target that no longer exists
after a refactor is reported as absent rather than failing the run.
"""

import functools
import inspect
import sys
import threading
import time

import numpy as np


def _nbytes(arr):
    return int(np.asarray(arr).nbytes)


def _fft_bytes(args, kwargs, result):
    # computed, not measured: input plus output array sizes
    return {"bytes": _nbytes(args[0]) + _nbytes(result)}


def _save_bytes(args, kwargs, result):
    arr = np.asarray(args[1] if len(args) > 1 else kwargs["arr"])
    dtype = args[3] if len(args) > 3 else kwargs.get("dtype", "<c8")
    return {"bytes": int(arr.size * np.dtype(dtype).itemsize)}


def _load_bytes(args, kwargs, result):
    return {"bytes": _nbytes(result[0])}


def _tv_info(args, kwargs, result):
    _, converged, n_iter = result
    return {"inner_iters": int(n_iter), "converged": int(bool(converged))}


# (span name, module, attribute, counter function). "Class.method" in
# the attribute column wraps that method on every class defining it.
TARGETS = (
    ("phantoms.simulate_case", "pcsmri.phantoms", "simulate_case", None),
    ("sensitivity.estimate_maps", "pcsmri.sensitivity", "estimate_maps", None),
    ("masks.load_mask", "pcsmri.masks", "load_mask", None),
    ("container.save_array", "pcsmri.container", "save_array", _save_bytes),
    ("container.load_array", "pcsmri.container", "load_array", _load_bytes),
    ("metrics.evaluate", "pcsmri.metrics", "evaluate", None),
    ("operators.zero_filled", "pcsmri.operators", "zero_filled", None),
    ("solver.solve", "pcsmri.solver", "solve", None),
    ("solver.dc_update", "pcsmri.solver", "dc_update", None),
    ("solver.x_update", "pcsmri.solver", "x_update", None),
    ("transforms.fft2c", "pcsmri.transforms", "fft2c", _fft_bytes),
    ("transforms.ifft2c", "pcsmri.transforms", "ifft2c", _fft_bytes),
    ("priors.prox", "pcsmri.priors", "Prior.prox_info", None),
    ("priors.tv_denoise", "pcsmri.priors", "tv_denoise", _tv_info),
    ("cli.recon", "pcsmri.cli", "_run_recon", None),
    ("cli.sweep.combo", "pcsmri.cli", "_sweep_one", None),
)


class Span:
    __slots__ = ("sid", "name", "start", "end", "thread", "parent", "root",
                 "counters")

    def __init__(self, sid, name, start, thread, parent, root):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.thread = thread
        self.parent = parent
        self.root = root
        self.counters = {}

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "thread": self.thread, "parent": self.parent,
                "root": self.root, "counters": self.counters}


class Tracer:
    """Collects spans from any thread; parents follow each thread's stack.

    A thread with no open span (a sweep worker) adopts the current root
    span, opened by the benchmark around each CLI call, as its parent.
    """

    def __init__(self):
        self.spans = []
        self.absent = set()
        self.counter_errors = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(),
                        threading.get_ident(),
                        None if parent is None else parent.sid,
                        None if parent is None else parent.root)
            if span.root is None:
                span.root = span.sid
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    def root(self, name):
        """Context manager for a top-level span that worker threads adopt."""
        tracer = self

        class _Root:
            def __enter__(self):
                self.span = tracer.open(name)
                tracer._root = self.span
                return self.span

            def __exit__(self, *exc):
                tracer._root = None
                tracer.close(self.span)
                return False

        return _Root()

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                try:
                    span.counters = counter(args, kwargs, result)
                except (TypeError, ValueError, IndexError, KeyError):
                    tracer.counter_errors.add(name)
            return result

        return wrapper

    def install(self, targets=TARGETS):
        """Swap every caller-visible binding of each target for a wrapper."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "pcsmri" or n.startswith("pcsmri.")) and m]
        for name, modname, attr, counter in targets:
            home = sys.modules.get(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                base = getattr(home, cls_name, None)
                classes = [c for _, c in inspect.getmembers(home, inspect.isclass)
                           if base is not None and issubclass(c, base)
                           and meth in vars(c)]
                if not classes:
                    self.absent.add(name)
                for cls in classes:
                    original = vars(cls)[meth]
                    setattr(cls, meth, self._wrap(name, original, counter))
                    self._restore.append((cls, meth, original))
                continue
            original = getattr(home, attr, None)
            if not callable(original):
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.sid] = s.duration - covered
    return out
