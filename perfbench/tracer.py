"""Call tracer for the traced benchmark run.

The tracer wraps the public functions of each atomlab module, the
constructors of its public classes, the public query methods of
FactorEngine and each adapter's candidate_divisors stream.  Wrappers are
installed only in the traced run, by `install`, which replaces every
module attribute that holds a wrapped object, so names imported with
`from .x import y` are traced as well.

Every wrapped call pushes a frame; on return the tracer aggregates count,
total and self time per (name, parent).  A name's total counts only its
outermost activation, so recursion is not counted twice; self time is the
duration minus the time covered by wrapped children.  Claims, benchmark
operations, cli.main and engine queries also get a full span record (name,
start, end, parent span), kept in memory and written out by `dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types

SPAN_CAP = 250_000

_STREAMS = {"SumsetMonoid": "engine.sum_stream",
            "MonomialMonoid": "engine.mon_stream"}


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, layer, start, child_s, span]
        self._open_spans: list[int] = []
        self._depth: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.edges: dict[tuple[str, str], list] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[list] = []
        self.spans_dropped = 0
        self.budgets: list = []

    def enter(self, name: str, layer: str, span: bool = False) -> None:
        start = time.perf_counter()
        idx = -1
        if span:
            if len(self.spans) < SPAN_CAP:
                idx = len(self.spans)
                parent = self._open_spans[-1] if self._open_spans else -1
                self.spans.append([name, start, None, parent])
                self._open_spans.append(idx)
            else:
                self.spans_dropped += 1
        depth = self._depth
        depth[name] = depth.get(name, 0) + 1
        depth[layer] = depth.get(layer, 0) + 1
        self._stack.append([name, layer, start, 0.0, idx])

    def leave(self) -> None:
        end = time.perf_counter()
        name, layer, start, child, idx = self._stack.pop()
        dur = end - start
        own = dur - child
        stack = self._stack
        parent = stack[-1][0] if stack else ""
        if stack:
            stack[-1][3] += dur
        if idx >= 0:
            self.spans[idx][2] = end
            self._open_spans.pop()
        depth = self._depth
        depth[name] -= 1
        depth[layer] -= 1
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        layer_self = layer + ".self_s"
        self.self_s[layer_self] = self.self_s.get(layer_self, 0.0) + own
        if depth[name] == 0:
            self.total[name] = self.total.get(name, 0.0) + dur
        if depth[layer] == 0:
            self.total[layer] = self.total.get(layer, 0.0) + dur
        edge = self.edges.get((name, parent))
        if edge is None:
            self.edges[(name, parent)] = [1, dur, own]
        else:
            edge[0] += 1
            edge[1] += dur
            edge[2] += own

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def dump(self, path) -> None:
        """Write spans and the aggregated call edges as one JSON file."""
        names: dict[str, int] = {}
        spans = []
        for name, start, end, parent in self.spans:
            spans.append([names.setdefault(name, len(names)), start,
                          end, parent])
        payload = {
            "span_names": list(names),
            "spans": spans,
            "spans_dropped": self.spans_dropped,
            "edges": [{"name": n, "parent": p, "count": c, "total_s": t,
                       "self_s": s}
                      for (n, p), (c, t, s) in sorted(self.edges.items())],
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _wrap_call(tr: Tracer, fn, name: str, layer: str, span: bool = False,
               on_call=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(args)
        tr.enter(name, layer, span)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.leave()
    return wrapper


def _wrap_gen(tr: Tracer, fn, name: str, layer: str,
              item: str = "yields"):
    """Trace each resumption of a generator and count what it yields.

    Yields are counted under `<name>.<item>`.  When the generator takes a
    `budget` argument, the nodes ticked while it runs are counted under
    `<name>.nodes`.
    """
    params = list(inspect.signature(fn).parameters)
    budget_pos = params.index("budget") if "budget" in params else None
    items = f"{name}.{item}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        budget = None
        if budget_pos is not None:
            budget = kwargs.get("budget")
            if budget is None and len(args) > budget_pos:
                budget = args[budget_pos]
        gen = fn(*args, **kwargs)
        tr.add(name + ".streams", 1)
        while True:
            before = budget.nodes if budget is not None else 0
            tr.enter(name, layer)
            try:
                value = next(gen)
            except StopIteration:
                return
            finally:
                tr.leave()
                if budget is not None:
                    tr.add(name + ".nodes", budget.nodes - before)
            tr.add(items, 1)
            yield value
    return wrapper


def _wrap_any(tr: Tracer, fn, name: str, layer: str, span: bool = False):
    if inspect.isgeneratorfunction(fn):
        return _wrap_gen(tr, fn, name, layer)
    return _wrap_call(tr, fn, name, layer, span)


def _product_pairs(tr: Tracer):
    def on_call(args):
        if len(args) == 2:
            tr.add("monideal.product.pairs",
                   len(args[0].gens) * len(args[1].gens))
    return on_call


def _wrap_run_claim(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(claim, *args, **kwargs):
        tr.enter("claims." + claim.claim_id, "claims", True)
        try:
            return fn(claim, *args, **kwargs)
        finally:
            tr.leave()
    return wrapper


def _wrap_init_hook(fn, hook):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        hook(self)
    return wrapper


def install(tr: Tracer) -> None:
    """Wrap the atomlab layers and patch every namespace that holds them."""
    from atomlab import claims, cli, engine, graded, monideal, natset, oracle

    modules = {"natset": natset, "monideal": monideal, "graded": graded,
               "engine": engine, "oracle": oracle, "claims": claims,
               "cli": cli}
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, types.FunctionType) \
                    and obj.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                if obj is claims.run_claim:
                    wrapped = _wrap_run_claim(tr, obj)
                elif obj is monideal.product:
                    wrapped = _wrap_call(tr, obj, name, layer,
                                         on_call=_product_pairs(tr))
                else:
                    wrapped = _wrap_any(tr, obj, name, layer,
                                        span=obj is cli.main)
                replaced[id(obj)] = wrapped
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                _wrap_class(tr, obj, layer, engine)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "atomlab"
                               or mod_name.startswith("atomlab.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced and isinstance(obj, types.FunctionType):
                setattr(mod, attr, replaced[id(obj)])


def _wrap_class(tr: Tracer, cls: type, layer: str, engine) -> None:
    if getattr(cls, "_is_protocol", False):
        return
    if cls is engine.Budget:
        cls.__init__ = _wrap_init_hook(cls.__init__, tr.budgets.append)
        return
    if issubclass(cls, BaseException):
        if cls is engine.SearchBudgetExceeded:
            cls.__init__ = _wrap_init_hook(
                cls.__init__, lambda _exc: tr.add("engine.budget_exceeded", 1))
        return
    own = vars(cls)
    if "__init__" in own:
        cls.__init__ = _wrap_call(tr, own["__init__"],
                                  f"{layer}.{cls.__name__}", layer)
    if cls is engine.FactorEngine:
        for attr, fn in list(own.items()):
            if not attr.startswith("_") \
                    and isinstance(fn, types.FunctionType):
                setattr(cls, attr, _wrap_call(
                    tr, fn, f"engine.FactorEngine.{attr}", layer, span=True))
    if "candidate_divisors" in own:
        name = _STREAMS.get(cls.__name__,
                            f"engine.{cls.__name__}.candidate_divisors")
        cls.candidate_divisors = _wrap_gen(tr, own["candidate_divisors"],
                                           name, layer, item="divisors")


CLAIM_IDS = ("atoms-monomial", "splits-monomial", "lengths-monomial",
             "lengths-sumset", "product-identities", "graded-pieces",
             "seed-sum-membership", "sum-free-atoms", "oracle-equivalence",
             "phi-homomorphism", "lengths-monomial-stretch")
_QUERIES = ("lengths", "divisors", "split", "find_split", "is_atom")


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer numbers of one traced batch, by metric name.

    engine.nodes_per_s and trace.overhead_s need the untraced wall time
    and are added by the caller.
    """
    calls, total, own, counts = tr.calls, tr.total, tr.self_s, tr.counts
    m: dict = {}
    for stream in ("engine.mon_stream", "engine.sum_stream"):
        divisors = counts.get(stream + ".divisors", 0)
        nodes = counts.get(stream + ".nodes", 0)
        m[stream + ".s"] = total.get(stream, 0.0)
        m[stream + ".divisors"] = divisors
        m[stream + ".nodes"] = nodes
    m["engine.mon_stream.divisors_per_node"] = (
        m["engine.mon_stream.divisors"] / m["engine.mon_stream.nodes"]
        if m["engine.mon_stream.nodes"] else 0.0)
    m["engine.nodes"] = sum(b.nodes for b in tr.budgets)
    for q in _QUERIES:
        name = "engine.FactorEngine." + q
        m[name + ".calls"] = calls.get(name, 0)
        m[name + ".self_s"] = own.get(name, 0.0)
    m["engine.budget_exceeded"] = counts.get("engine.budget_exceeded", 0)
    for name in ("monideal.MonIdeal", "monideal.product", "monideal.colon",
                 "monideal.phi", "natset.NatSet", "natset.sumset",
                 "natset.set_colon"):
        m[name + ".calls"] = calls.get(name, 0)
        m[name + ".s"] = total.get(name, 0.0)
    m["monideal.product.pairs"] = counts.get("monideal.product.pairs", 0)
    for fn in ("naive_sumset_split_map", "naive_mon_split_map",
               "naive_lengths", "box_ideals"):
        m[f"oracle.{fn}.s"] = total.get("oracle." + fn, 0.0)
    m["graded.s"] = total.get("graded", 0.0)
    for claim_id in CLAIM_IDS:
        m[f"claims.{claim_id}.s"] = total.get("claims." + claim_id, 0.0)
    m["cli.main.self_s"] = own.get("cli.main", 0.0)
    for layer in ("natset", "monideal", "graded", "engine", "oracle",
                  "claims", "cli"):
        m[layer + ".self_s"] = own.get(layer + ".self_s", 0.0)
    return m
