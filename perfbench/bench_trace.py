"""Outside-in tracing of cyclorank's layers.

`Tracer` replaces every public function of the layer modules with a timing
wrapper, in every cyclorank module that holds it by name (`scan.rank3`,
`modmath.is_prime`, the package's re-exports, ...), so calls made inside the
program are traced as well as calls made by the benchmark.  Two spans have no
public function of their own:

* `modmath.context`: `ModulusContext.__post_init__`, the validation each
  context construction pays;
* `primes.sieve`: each `next()` on the generator `primes_in_range` returns.

Spans nest on one stack.  Each closed span adds its duration to its parent,
so a name's self time is its total minus the time of its traced children.
Spans are aggregated in memory per name and per (parent, child) edge and
written out once, at the end of the run.  Leaving the `with` block restores
every original function, so later untraced timing never runs a wrapper.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from types import ModuleType

LAYERS = ("primes", "modmath", "eisenstein", "invariants", "rank", "scan", "reporting")


class Tracer:
    """Install span-recording wrappers into a loaded cyclorank package."""

    def __init__(self, package: ModuleType, clock=time.perf_counter) -> None:
        self.package = package
        self._clock = clock
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total s, self s]
        self.edges: dict[tuple[str, str], list[float]] = {}  # (parent, name) -> [calls, total s]
        self.root_s = 0.0  # time covered by spans with no traced parent
        self._stack: list[list] = []  # [name, start, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, self._clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        dur = self._clock() - frame[1]
        self._stack.pop()
        name = frame[0]
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self.root_s += dur
            key = ("", name)
        else:
            parent[2] += dur
            key = (parent[0], name)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0.0]
        edge[0] += 1
        edge[1] += dur

    def _wrap(self, fn, name: str):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return wrapper

    def _wrap_iter(self, fn, name: str):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))

            def timed():
                while True:
                    frame = enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave(frame)
                    yield item

            return timed()

        return wrapper

    # -- install / restore ------------------------------------------------

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = self.package
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(pkg, layer)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if attr == "primes_in_range":
                    wrappers[obj] = self._wrap_iter(obj, "primes.sieve")
                else:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        prefix = pkg.__name__ + "."
        holders = [m for k, m in sys.modules.items() if k == pkg.__name__ or k.startswith(prefix)]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        ctx = pkg.modmath.ModulusContext
        self._patch(ctx, "__post_init__", self._wrap(ctx.__post_init__, "modmath.context"))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def dump(self) -> dict:
        """Aggregated spans: per name and per parent->child edge."""
        return {
            "layers": {
                k: {"calls": int(v[0]), "total_s": v[1], "self_s": v[2]}
                for k, v in sorted(self.stats.items())
            },
            "edges": [
                {"parent": p or None, "name": n, "calls": int(v[0]), "total_s": v[1]}
                for (p, n), v in sorted(self.edges.items())
            ],
            "root_s": self.root_s,
        }
