"""Span recording around calls into grassdeg, installed from outside the package.

``Tracer.install`` replaces every public function of the package's modules
with a wrapper that records a span (name, start, end, parent, run id).  A
function is wrapped once and the same wrapper is bound under every name that
refers to it, including names re-bound by importing modules such as
``edeg.vol_C_quadrature_log`` or ``incidence.run_kernel``.  Two methods that
sit on hot paths are wrapped too: ``RngStream.substream`` (one call per Monte
Carlo chunk) and ``RadialProfile2.radius``.  Spans stay in memory; the
caller writes them out when the run ends.
"""

import functools
import itertools
import threading
import time

# specfun is left unwrapped: it costs well under a millisecond per command.
TRACED_MODULES = ("zonoid", "edeg", "_quad", "mc", "incidence", "geomlin", "cli")
TRACED_METHODS = (("geomlin", "RngStream", "substream"),
                  ("zonoid", "RadialProfile2", "radius"))
SPANS_PREFIX = "SPANS "  # how a traced CLI child hands its spans back on stderr


class Tracer:
    """In-memory span recorder that can wrap and unwrap the package."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._run_id = None
        self._run_span = None
        self._restore = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name):
        """Context manager recording one span; nests under the current one.

        Worker threads of the Monte Carlo pool start with an empty stack;
        their spans hang under the benchmark call that is running, so the
        parent chain stays whole across the thread pool.
        """
        return _Span(self, name)

    def call(self, name, run_id):
        """Top-level span of one benchmark call; its id is the run id."""
        return _Span(self, name, run_id=run_id)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name):
        """``fn`` wrapped so that every call records a span ``name``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)

        return wrapper

    def install(self, package):
        """Wrap the public functions of ``package``'s traced modules."""
        modules = {m: getattr(package, m) for m in TRACED_MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type):
                    wrappers[fn] = self.wrap(fn, f"{short}.{attr}")
        # re-bound names: any module attribute that is one of those functions
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(modules[short], cls_name)
            fn = cls.__dict__[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(fn, f"{short}.{cls_name}.{meth}"))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    # -- queries ----------------------------------------------------------

    def named(self, name, run_id=None):
        return [s for s in self.spans
                if s["name"] == name and (run_id is None or s["run"] == run_id)]

    def descendants(self, root_id):
        """Spans below ``root_id`` in the parent chain."""
        kids = {}
        for s in self.spans:
            kids.setdefault(s["parent"], []).append(s)
        out, todo = [], [root_id]
        while todo:
            for s in kids.get(todo.pop(), []):
                out.append(s)
                todo.append(s["id"])
        return out


class _Span:
    def __init__(self, tracer, name, run_id=None):
        self.tracer = tracer
        self.name = name
        self.run_id = run_id

    def __enter__(self):
        t = self.tracer
        stack = t._stack()
        self.id = next(t._ids)
        if self.run_id is not None:
            t._run_id, t._run_span = self.run_id, self.id
            self.parent = None
        elif stack:
            self.parent = stack[-1]
        else:
            self.parent = t._run_span
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack().pop()
        t.spans.append({
            "id": self.id, "name": self.name, "start": self.start, "end": end,
            "parent": self.parent, "run": t._run_id,
        })
        if self.run_id is not None:
            t._run_id = t._run_span = None
        return False
