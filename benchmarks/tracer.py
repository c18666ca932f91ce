"""Span tracer installed from outside the program.

The tracer replaces every module attribute and class attribute that binds one of
mxl's functions with a timing wrapper, records one span per call (name, start,
end, parent, run id) in memory, and puts every original object back on
`uninstall`. Modules import names directly (`mxl.solver.mirror_map` is the same
object as `mxl.spectral.mirror_map`), so each alias is patched, not only the
defining module's attribute. Every `numpy.linalg.eigh`/`eigvalsh` call is
recorded as the leaf span `spectral.eig`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

PACKAGE = "mxl"
LAYERS = ("spectral", "games", "families", "solver", "verify", "cli")
# private helpers that are layer boundaries in their own right
EXTRA = {
    "solver": ("_log_record",),
    "cli": ("_run_sweep_cell", "_write_plot_data"),
}
EIG = "spectral.eig"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _targets():
    """Yield (name, owner, attribute, function) for each function to wrap."""
    # import every layer before anything is patched, so no module binds a wrapper
    modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
    for layer, module in zip(LAYERS, modules):
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and (
                not attr.startswith("_") or attr in EXTRA.get(layer, ())
            ):
                yield f"{layer}.{attr}", module, attr, obj
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for meth, fn in vars(obj).items():
                    if (inspect.isfunction(fn) and not meth.startswith("_")
                            and not getattr(fn, "__isabstractmethod__", False)):
                        yield f"{layer}.{obj.__name__}.{meth}", obj, meth, fn


class Tracer:
    """Records nested spans; parents are indices into the same arrays (-1 for a root)."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_run = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.captured: dict[str, list] = {}
        self._stack: list[int] = []
        self._run = 0
        self._patched: list[tuple] = []
        self._wrappers: dict[int, object] = {}  # held, so no id is reused

    # -- installation -------------------------------------------------------

    def _wrap(self, name: str, fn, capture: bool):
        idx = self.name_ids.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        stack = self._stack
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter_ns
        sink = self.captured.setdefault(name, []) if capture else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                tracer._run += 1
            i = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer._run)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if sink is not None:
                sink.append(out)
            return out

        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def install(self, capture=()) -> None:
        """Wrap every target; `capture` names spans whose return values are kept."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        import numpy.linalg

        wrappers = {}
        for name, owner, attr, fn in _targets():
            wrappers[id(fn)] = (fn, self._wrap(name, fn, name in capture))
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)][1])
        # aliases of the same function objects in every loaded package module
        for module in _package_modules():
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        for attr in ("eigh", "eigvalsh"):
            fn = getattr(numpy.linalg, attr)
            self._patched.append((numpy.linalg, attr, fn))
            setattr(numpy.linalg, attr, self._wrap(EIG, fn, False))

    def uninstall(self) -> None:
        """Restore every patched attribute, then check that no wrapper is left anywhere.

        The scan covers numpy.linalg and every attribute of every loaded package
        module and of the classes defined there.
        """
        import numpy.linalg

        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()
        owners = [numpy.linalg]
        for module in _package_modules():
            owners.append(module)
            owners.extend(obj for obj in vars(module).values() if inspect.isclass(obj))
        bad = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner in owners
               for attr, obj in list(vars(owner).items()) if id(obj) in self._wrappers and self._wrappers[id(obj)] is obj]
        if bad:
            raise RuntimeError(f"tracer left wrapped functions behind: {bad}")

    # -- results ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.span_start)

    def self_times(self) -> list[int]:
        """Span duration minus the time its direct children cover, in ns."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        own = [e - s for s, e in zip(starts, ends)]
        out = list(own)
        for i, p in enumerate(parents):
            if p >= 0:
                out[p] -= own[i]
        return out

    def check(self, self_ns: list[int], call_s: list[float]) -> None:
        """Check the spans against themselves and against the caller's own timing.

        Self times are >= 0; every span lies inside its parent's [start, end];
        there is one root span per entry-point call the caller timed (`call_s`),
        and the roots' total is within 1% + 1 ms per call of the time the
        caller measured around those calls.
        """
        if any(t < 0 for t in self_ns):
            raise AssertionError("negative self time in trace")
        starts, ends = self.span_start, self.span_end
        for i, p in enumerate(self.span_parent):
            if p >= 0 and not starts[p] <= starts[i] <= ends[i] <= ends[p]:
                raise AssertionError(f"span {i} does not lie inside its parent span {p}")
        roots = sum(1 for p in self.span_parent if p < 0)
        if roots != len(call_s):
            raise AssertionError(f"{roots} root spans for {len(call_s)} entry-point calls")
        wall = sum(call_s)
        if abs(wall - self.root_total_s()) > 0.01 * wall + 1e-3 * len(call_s):
            raise AssertionError(f"root spans cover {self.root_total_s():.6f} s of the "
                                 f"{wall:.6f} s timed around the entry-point calls")

    def counts(self) -> dict[str, int]:
        out = dict.fromkeys(self.names, 0)
        for idx in self.span_name:
            out[self.names[idx]] += 1
        return out

    def table(self, self_ns: list[int]) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds."""
        rows = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for idx, s, e, own in zip(self.span_name, self.span_start, self.span_end, self_ns):
            row = rows[self.names[idx]]
            row["calls"] += 1
            row["total_s"] += (e - s) * 1e-9
            row["self_s"] += own * 1e-9
        return rows

    def root_total_s(self) -> float:
        return sum((e - s) * 1e-9 for p, s, e in zip(self.span_parent, self.span_start,
                                                      self.span_end) if p < 0)

    def parent_counts(self, child: str, parent: str) -> int:
        """Number of `child` spans whose direct parent is a `parent` span."""
        c, p = self.name_ids.get(child), self.name_ids.get(parent)
        if c is None or p is None:
            return 0
        names, parents = self.span_name, self.span_parent
        return sum(1 for i, idx in enumerate(names)
                   if idx == c and parents[i] >= 0 and names[parents[i]] == p)

    def write(self, path) -> None:
        """Write spans as gzip CSV: index, name, start_ns, end_ns, parent, run."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8", newline="\n") as fh:
            fh.write("span,name,start_ns,end_ns,parent,run\n")
            base = self.span_start[0] if len(self) else 0
            for i, (idx, s, e, p, r) in enumerate(zip(self.span_name, self.span_start,
                                                      self.span_end, self.span_parent,
                                                      self.span_run)):
                fh.write(f"{i},{self.names[idx]},{s - base},{e - base},{p},{r}\n")
