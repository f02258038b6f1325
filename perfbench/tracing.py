"""Per-layer tracing installed from outside the package.

Wrappers replace public functions and methods of the kleinmackey modules for
the length of a traced pass.  A span records its name, start, end, parent
span and query id; spans stay in memory until the run writes them out.  A
span's self time is its duration minus the time of the spans directly
inside it.  Calls that run millions of times get cheaper wrappers: the
`groups` lookups are only counted, and the `mackey` res/tr composites are
counted and timed without a span, their time taken out of the enclosing
span's self time.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

from kleinmackey import bredon, f2, groups, hk, mackey, slices, sschart


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, query)
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.query = None
        self._stack = []         # open spans: [id, time of direct children]
        self._opened = 0
        self._patched = []

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(counts, args, result) adds counts."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._opened, 0.0]
            self._opened += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(name, frame, start, end, parent)
            if after is not None:
                after(self.counts, args, result)
            return result
        return wrapper

    def _close(self, name, frame, start, end, parent):
        duration = end - start
        if parent is not None:
            parent[1] += duration
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        self.spans.append((frame[0], name, start, end,
                           parent[0] if parent else None, self.query))

    def timed(self, name, fn):
        """Count and time fn without recording a span."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                if stack:
                    stack[-1][1] += duration
                self.self_s[name] += duration
                self.calls[name] += 1
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        for attr in ("meet", "join", "coset_rep", "cosets"):
            self.patch(groups.GroupData, attr,
                       self.counted("groups.lookups", getattr(groups.GroupData, attr)))
        for attr in ("res_map", "tr_map"):
            self.patch(mackey.Mackey, attr,
                       self.timed("mackey.res_tr_map", getattr(mackey.Mackey, attr)))
        lc = bredon.LevelComplexes
        spans = [
            (bredon, "sphere_complex", "bredon.sphere_complex", _count_cells),
            (bredon, "with_coefficients", "bredon.with_coefficients", None),
            (lc, "differential", "bredon.differential", None),
            (lc, "chain_res", "bredon.chain_maps", None),
            (lc, "chain_tr", "bredon.chain_maps", None),
            (bredon, "homology", "bredon.homology", None),
            # bredon binds homology_reps by name at import
            (bredon, "homology_reps", "f2.homology_reps", _count_bits),
            (f2.BitMatrix, "kernel_basis", "f2.kernel_basis", None),
            (mackey, "identify", "mackey.identify", _count_identified),
            (mackey, "hom_space", "mackey.hom_space", None),
            (sschart, "build_E1", "sschart.build_E1", None),
            (sschart, "solve_differentials", "sschart.solve_differentials", None),
            (sschart, "render", "sschart.render", None),
            (sschart, "check_convergence", "sschart.check_convergence", None),
            (hk, "poincare_K", "hk.poincare_K", None),
        ]
        for owner, attr, name, after in spans:
            self.patch(owner, attr, self.span(name, getattr(owner, attr), after))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "query"]) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def _count_cells(counts, args, cx):
    counts["bredon.cells"] += cx.cell_count()


def _count_bits(counts, args, result):
    d_out, d_in = args
    counts["f2.bits_computed"] += d_out.rows * d_out.cols + d_in.rows * d_in.cols


def _count_identified(counts, args, expr):
    counts["mackey.identify.hits"] += expr is not None


def clear_caches():
    """Empty every lru_cache in the package, as a fresh interpreter has them."""
    for module in (bredon, f2, groups, hk, mackey, slices, sschart):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
