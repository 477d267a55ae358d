"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public function of each fpoly layer module
in every fpoly module namespace that holds it (``count_points`` is also
imported by name into ``polynomial``, ``stabilization`` and ``cli``), and
``RepRecipe.at_prime`` on its class.  Each call or generator resumption is
a span whose parent is the span below it on the stack; a span's self time
is its duration minus the time its child spans cover.  Spans are folded
in memory into per-function totals and per-operation call edges, which
are written out at the end of the run.  Everything runs on one thread,
so nothing waits and no waiting time is recorded.
"""

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("kernels", "grassmannian", "stabilization", "rep", "polynomial",
          "polytope", "cluster", "cli")
# The mod-p primitives are defined in a backend module and re-exported by kernels.
BACKEND_MODULES = ("fpoly._modp_py", "fpoly._modp_c")
SUBSPACE_GENERATORS = ("kernels.subspaces", "kernels.subspaces_containing")
L0_CALL_COUNTS = ("rref", "matmul", "nullspace", "rank", "in_rowspace", "residual")


class Stat:
    __slots__ = ("calls", "yielded", "self_s")

    def __init__(self):
        self.calls = 0
        self.yielded = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stack = []            # frames: [key, time covered by children]
        self.stats = defaultdict(Stat)
        self.edges = defaultdict(lambda: [0, 0.0])   # (op, parent, key) -> [calls, s]
        self.counters = Counter()
        self.distinct = defaultdict(set)
        self.ops = []              # (op id, label, start, end)
        self.op_id = "setup"
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _enter(self, key):
        parent = self.stack[-1][0] if self.stack else None
        frame = [key, 0.0]
        self.stack.append(frame)
        return parent, frame

    def _leave(self, parent, frame, stat, dur):
        self.stack.pop()
        stat.self_s += dur - frame[1]
        if self.stack:
            self.stack[-1][1] += dur
        edge = self.edges[(self.op_id, parent, frame[0])]
        edge[0] += 1
        edge[1] += dur

    def active(self, key):
        return any(frame[0] == key for frame in self.stack)

    def begin_op(self, op_id, label):
        self.op_id = op_id
        self._op_start = time.perf_counter()
        self._op_label = label

    def end_op(self):
        self.ops.append((self.op_id, self._op_label, self._op_start,
                         time.perf_counter()))

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, key, fn, hook=None, on_yield=None):
        stat = self.stats[key]
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat.calls += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        parent, frame = self._enter(key)
                        t0 = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self._leave(parent, frame, stat, clock() - t0)
                        stat.yielded += 1
                        if on_yield:
                            on_yield()
                        yield item
                finally:
                    it.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, frame = self._enter(key)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(parent, frame, stat, clock() - t0)
                stat.calls += 1
            if hook:
                hook(args, kwargs, result)
            return result
        return wrapper

    def _hooks(self):
        c, d = self.counters, self.distinct

        def count_points(args, kwargs, result):
            if result > 0:
                c["count_points.nonzero"] += 1

        def subrep_dim_vectors(args, kwargs, result):
            d["subrep_dim_vectors"].add((args + tuple(kwargs.values()))[0])

        def at_prime(args, kwargs, result):
            d["at_prime"].add((args + tuple(kwargs.values()))[:2])

        def hom_dim(args, kwargs, result):
            if self.active("rep.at_prime"):
                c["at_prime.attempts"] += 1

        def convex_hull(args, kwargs, result):
            points = (args + tuple(kwargs.values()))[0]
            if hasattr(points, "__len__"):
                c["convex_hull.points_in"] += len(points)

        def enumerate_yield():
            if self.active("stabilization.torsion_split"):
                c["torsion_split.subreps_folded"] += 1

        hooks = {"grassmannian.count_points": count_points,
                 "grassmannian.subrep_dim_vectors": subrep_dim_vectors,
                 "rep.at_prime": at_prime,
                 "rep.hom_dim": hom_dim,
                 "polytope.convex_hull": convex_hull}
        return hooks, {"grassmannian.enumerate_subreps": enumerate_yield}

    def install(self, fp):
        """Wrap the layer functions of the fpoly modules loaded in ``fp``."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "fpoly" or name.startswith("fpoly.")}
        hooks, yield_hooks = self._hooks()
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"fpoly.{layer}"]
            homes = (mod.__name__,) + (BACKEND_MODULES if layer == "kernels" else ())
            for name, value in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(value)
                        and value.__module__ in homes):
                    key = f"{layer}.{name}"
                    wrappers[id(value)] = (value, self._wrap(
                        key, value, hooks.get(key), yield_hooks.get(key)))
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(mod, name, wrappers[id(value)][1])
        recipe = fp.rep.RepRecipe
        self._patch(recipe, "at_prime",
                    self._wrap("rep.at_prime", recipe.at_prime, hooks["rep.at_prime"]))

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def uninstall(self):
        for owner, name, old in reversed(self._patches):
            setattr(owner, name, old)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics; every ratio's base is the ``.calls`` beside it."""
        s = self.stats

        def calls(key):
            return s[key].calls if key in s else 0

        def self_s(*keys):
            return sum(s[k].self_s for k in keys if k in s)

        def ratio(num, base):
            return num / base if base else 0.0

        kernel_keys = [k for k in s if k.startswith("kernels.")
                       and k not in SUBSPACE_GENERATORS]
        m = {f"kernels.{name}.calls": calls(f"kernels.{name}") for name in L0_CALL_COUNTS}
        m["kernels.self_s"] = self_s(*kernel_keys)
        m["kernels.subspaces.yielded"] = s["kernels.subspaces"].yielded
        m["kernels.subspaces_containing.yielded"] = s["kernels.subspaces_containing"].yielded
        m["kernels.subspaces.self_s"] = self_s(*SUBSPACE_GENERATORS)

        n = calls("grassmannian.count_points")
        m["grassmannian.count_points.calls"] = n
        m["grassmannian.count_points.nonzero_ratio"] = ratio(
            self.counters["count_points.nonzero"], n)
        m["grassmannian.count_points.self_s"] = self_s("grassmannian.count_points")
        m["grassmannian.enumerate_subreps.yielded"] = s["grassmannian.enumerate_subreps"].yielded
        n = calls("grassmannian.subrep_dim_vectors")
        m["grassmannian.subrep_dim_vectors.calls"] = n
        m["grassmannian.subrep_dim_vectors.distinct_ratio"] = ratio(
            len(self.distinct["subrep_dim_vectors"]), n)
        m["grassmannian.subrep_dim_vectors.self_s"] = self_s("grassmannian.subrep_dim_vectors")

        m["stabilization.torsion_split.calls"] = calls("stabilization.torsion_split")
        m["stabilization.torsion_split.subreps_folded"] = self.counters["torsion_split.subreps_folded"]
        for name in ("torsion_split", "stable_factors", "graded_counts"):
            m[f"stabilization.{name}.self_s"] = self_s(f"stabilization.{name}")

        n = calls("rep.at_prime")
        m["rep.at_prime.calls"] = n
        m["rep.at_prime.distinct_ratio"] = ratio(len(self.distinct["at_prime"]), n)
        m["rep.at_prime.attempts"] = self.counters["at_prime.attempts"]
        m["rep.at_prime.self_s"] = self_s("rep.at_prime")
        m["rep.hom_dim.calls"] = calls("rep.hom_dim")
        m["rep.generic_hom_ext.calls"] = calls("rep.generic_hom_ext")
        m["rep.generic_hom_ext.self_s"] = self_s("rep.generic_hom_ext")

        m["polynomial.f_polynomial.calls"] = calls("polynomial.f_polynomial")
        m["polynomial.euler_characteristic.calls"] = calls("polynomial.euler_characteristic")
        m["polynomial.interpolate_integer_polynomial.self_s"] = self_s(
            "polynomial.interpolate_integer_polynomial")

        m["polytope.convex_hull.calls"] = calls("polytope.convex_hull")
        m["polytope.convex_hull.points_in"] = self.counters["convex_hull.points_in"]
        m["polytope.convex_hull.self_s"] = self_s("polytope.convex_hull")
        m["polytope.primitive_vector.calls"] = calls("polytope.primitive_vector")
        m["polytope.lattice_points.self_s"] = self_s("polytope.lattice_points")
        m["polytope.dual_cone_rays.self_s"] = self_s("polytope.dual_cone_rays")

        m["cluster.mutate.calls"] = calls("cluster.mutate")
        m["cluster.mutate.self_s"] = self_s("cluster.mutate")
        # main plus the cli handlers it dispatches to: the CLI's own cost.
        m["cli.main.self_s"] = self_s(*[k for k in s if k.startswith("cli.")])
        return m

    def dump(self):
        return {
            "functions": {k: {"calls": v.calls, "yielded": v.yielded,
                              "self_s": v.self_s} for k, v in sorted(self.stats.items())},
            "ops": [{"id": i, "label": label, "start": a, "end": b}
                    for i, label, a, b in self.ops],
            "edges": [{"op": op, "parent": parent, "fn": key,
                       "calls": v[0], "total_s": v[1]}
                      for (op, parent, key), v in self.edges.items()],
        }
