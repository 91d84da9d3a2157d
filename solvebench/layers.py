"""Traced rebuild of ``solve`` and ``solve_positive`` from public layer calls.

The end-to-end pass only times the package's two entry points. This module
rebuilds their loops from the layer functions (``normalize``, ``SubsetTree``,
``subtree_root``/``subtree_children`` or ``binheap_root``/``binheap_children``
behind a timed expand wrapper, ``Frontier``, ``lower_bound_rank_search``
behind a timing proxy for ``select``, and ``unscale``) and records one span
per layer call. Expansions are too many to keep one span each, so their
time and counts are summed onto the enclosing ``select`` span.

A rebuilt loop is only trusted when it reproduces the entry point's subset,
``nodes_expanded`` and ``probes_per_order`` exactly; ``Replica.matches``
is that guard.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter_ns as now

# The public names each layer must export for its spans to be recorded.
LAYER_NAMES = {
    "model": ("normalize", "unscale"),
    "subset_tree": ("SubsetTree", "subtree_root", "subtree_children"),
    "powerset": ("Frontier", "binheap_root", "binheap_children", "lower_bound_rank_search"),
    "cli": ("main", "parse_instance_line"),
    "oracle": ("dp_decision",),
}


def load_layers() -> tuple[dict, list[str]]:
    """Import each layer module; a module missing any listed name is absent."""
    found, absent = {}, []
    for layer, names in LAYER_NAMES.items():
        try:
            module = importlib.import_module(f"subsetsum.{layer}")
        except ImportError:
            absent.append(layer)
            continue
        if all(hasattr(module, name) for name in names):
            found[layer] = module
        else:
            absent.append(layer)
    return found, absent


class Spans:
    """In-memory span store: (solve id, span id, parent id, name, start, end, counts).

    Counts are kept as a tuple of (field, value) pairs so that the garbage
    collector stops tracking stored spans, which keeps the gc.collect()
    before every solve cheap however many spans have been recorded.
    """

    def __init__(self) -> None:
        self.rows: list = []

    def open(self) -> int:
        self.rows.append(None)
        return len(self.rows) - 1

    def close(self, sid: int, solve_id: int, parent: int | None, name: str, start: int, **counts) -> int:
        self.rows[sid] = (solve_id, sid, parent, name, start, now(), tuple(counts.items()))
        return sid

    def add(self, solve_id: int, parent: int | None, name: str, start: int, **counts) -> int:
        return self.close(self.open(), solve_id, parent, name, start, **counts)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for solve_id, sid, parent, name, start, end, counts in self.rows:
                row = {"solve": solve_id, "span": sid, "parent": parent, "name": name,
                       "start_ns": start, "end_ns": end}
                row.update(counts)
                fh.write(json.dumps(row) + "\n")


class _Expansion:
    """Timed expand wrapper; tracks live heap entries for the peak and can memoize."""

    __slots__ = ("children_of", "memo", "calls", "children", "ns", "live", "peak")

    def __init__(self, children_of, memo: dict | None) -> None:
        self.children_of, self.memo = children_of, memo
        self.calls = self.children = self.ns = 0
        self.live = self.peak = 1

    def __call__(self, node):
        start = now()
        kids = self.children_of(node)
        self.ns += now() - start
        if self.memo is not None:
            self.memo[id(node)] = kids
        self.calls += 1
        self.children += len(kids)
        self.live += len(kids) - 1
        if self.live > self.peak:
            self.peak = self.live
        return kids


class _TimedSelect:
    """Stands in for a Frontier inside lower_bound_rank_search, one span per probe."""

    def __init__(self, frontier, expansion: _Expansion, spans: Spans, solve_id: int, parent: int, tree: str):
        self.frontier, self.expansion = frontier, expansion
        self.spans, self.solve_id, self.parent, self.tree = spans, solve_id, parent, tree

    def select(self, k):
        e = self.expansion
        calls, children, ns = e.calls, e.children, e.ns
        start = now()
        subset = self.frontier.select(k)
        self.spans.add(self.solve_id, self.parent, f"powerset.select/{self.tree}", start, rank=k,
                       expanded=e.calls - calls, children=e.children - children, children_ns=e.ns - ns)
        return subset


class Replica:
    """The rebuilt solve loops over one set of layer modules.

    With replay=True, every rank search is also replayed over a fresh
    Frontier whose expand is a lookup of the children recorded in the search,
    and the replay's time and nodes accumulate in replay_ns/replay_nodes:
    the self time of Frontier.select.
    """

    def __init__(self, layers: dict, spans: Spans, replay: bool = False) -> None:
        self.m, self.st, self.ps = layers["model"], layers["subset_tree"], layers["powerset"]
        self.spans = spans
        self.replay = replay
        self.replay_ns = self.replay_nodes = 0

    def _search(self, solve_id, parent, root, children_of, total, target, tree):
        """Time one rank search over a fresh frontier; returns (subset, probes, nodes)."""
        start = now()
        expansion = _Expansion(children_of, {} if self.replay else None)
        frontier = self.ps.Frontier(root, expansion)
        sid = self.spans.open()
        ranks: list[int] = []
        found, probes = self.ps.lower_bound_rank_search(
            _TimedSelect(frontier, expansion, self.spans, solve_id, sid, tree), total, target, ranks
        )
        self.spans.close(sid, solve_id, parent, "powerset.rank_search", start, probes=probes,
                         nodes=frontier.nodes_expanded, final_rank=ranks[-1], peak=expansion.peak)
        if self.replay:
            memo = expansion.memo
            replay = self.ps.Frontier(root, lambda node: memo[id(node)])
            start = now()
            for k in ranks:
                replay.select(k)
            self.replay_ns += now() - start
            self.replay_nodes += replay.nodes_expanded
        return found, probes, frontier.nodes_expanded

    def _unscale(self, solve_id, parent, found, s):
        start = now()
        values = self.m.unscale(found, s)
        self.spans.add(solve_id, parent, "model.unscale", start)
        return values

    def solve(self, solve_id: int, inst, range_check: bool = True):
        """Mirror of solver.solve; returns (subset, nodes_expanded, probes_per_order)."""
        spans, st = self.spans, self.st
        root_start = now()
        root = spans.open()
        start = now()
        s = self.m.normalize(inst)
        spans.add(solve_id, root, "model.normalize", start)
        nodes, probes_per_order, values, skipped = 0, [], None, 0
        for order in range(1, s.size + 1):
            scaled_target = inst.target + s.offset * order
            start = now()
            tree = st.SubsetTree(s, order)
            spans.add(solve_id, root, "subset_tree.build", start, order=order)
            if range_check:
                start = now()
                reachable = sum(s.scaled_values[:order]) <= scaled_target <= sum(s.scaled_values[-order:])
                spans.add(solve_id, root, "solver.window", start, order=order, skipped=int(not reachable))
                if not reachable:
                    skipped += 1
                    probes_per_order.append(0)
                    continue
            start = now()
            tree_root = st.subtree_root(s, order)
            spans.add(solve_id, root, "subset_tree.root", start, order=order)
            found, probes, expanded = self._search(
                solve_id, root, tree_root, lambda node, tree=tree: st.subtree_children(node, tree),
                tree.total, scaled_target, "subset",
            )
            probes_per_order.append(probes)
            nodes += expanded
            if found is not None:
                values = self._unscale(solve_id, root, found, s)
                break
        spans.close(root, solve_id, None, "solver.solve", root_start,
                    orders=len(probes_per_order), skipped=skipped)
        return values, nodes, probes_per_order

    def solve_positive(self, solve_id: int, inst):
        """Mirror of solver.solve_positive; one search over the whole power set."""
        spans, ps = self.spans, self.ps
        root_start = now()
        root = spans.open()
        start = now()
        s = self.m.normalize(inst)
        spans.add(solve_id, root, "model.normalize", start)
        start = now()
        tree_root = ps.binheap_root(s)
        spans.add(solve_id, root, "powerset.root", start)
        found, probes, nodes = self._search(
            solve_id, root, tree_root, lambda node: ps.binheap_children(node, s),
            (1 << s.size) - 1, inst.target, "binheap",
        )
        values = self._unscale(solve_id, root, found, s) if found is not None else None
        spans.close(root, solve_id, None, "solver.solve", root_start, orders=1, skipped=0)
        return values, nodes, [probes]

    def run(self, call: str, solve_id: int, inst):
        if call == "solve_positive":
            return self.solve_positive(solve_id, inst)
        return self.solve(solve_id, inst, range_check=call != "solve_unreachable")

    @staticmethod
    def matches(rebuilt, outcome) -> bool:
        """The replica guard: identical subset, nodes_expanded and probes_per_order."""
        values, nodes, probes = rebuilt
        stats = outcome.stats
        return values == outcome.subset and nodes == stats.nodes_expanded and probes == list(stats.probes_per_order)


def span_totals(spans: Spans) -> dict:
    """Per-name sums of duration, self time, call count and every count field."""
    child_ns: dict[int, int] = defaultdict(int)
    for row in spans.rows:
        if row[2] is not None:
            child_ns[row[2]] += row[5] - row[4]
    totals: dict = defaultdict(lambda: defaultdict(int))
    for solve_id, sid, parent, name, start, end, counts in spans.rows:
        t = totals[name]
        t["calls"] += 1
        t["ns"] += end - start
        t["self_ns"] += end - start - child_ns[sid]
        for field, value in counts:
            t[field] += value
            if field == "peak":
                t["max_peak"] = max(t["max_peak"], value)
    return totals


def _ratio(sources, name: str, num, den: str):
    """num/den over the first span totals in which the named span has a nonzero den.

    num is a field name or a function of the totals. Sources run from the
    workload's own solves to the reference solves, so a layer the workload
    never enters is still measured, on the reference inputs.
    """
    for totals in sources:
        t = totals.get(name)
        if t and t[den]:
            value = num(totals) if callable(num) else t[num]
            return value / t[den]
    return None


def span_metrics(main: dict, ref: dict) -> dict:
    """Per-layer metrics derived from span totals of the main and reference stages."""
    sources = (main, ref)
    tree_sel, heap_sel = "powerset.select/subset", "powerset.select/binheap"
    return {
        "subset_tree.children_ns_per_node": _ratio(sources, tree_sel, "children_ns", "expanded"),
        "subset_tree.children_per_node": _ratio(sources, tree_sel, "children", "expanded"),
        "subset_tree.build_ns_per_order": _ratio(
            sources, "subset_tree.build",
            lambda t: t["subset_tree.build"]["ns"] + t["subset_tree.root"]["ns"], "calls"),
        "powerset.binheap_children_ns_per_node": _ratio(sources, heap_sel, "children_ns", "expanded"),
        "powerset.frontier_peak": main["powerset.rank_search"]["max_peak"],
        "powerset.probes_per_solve": _ratio((main,), "solver.solve",
                                            lambda t: t["powerset.rank_search"]["probes"], "calls"),
        "powerset.rank_search_self_ns_per_probe": _ratio((main,), "powerset.rank_search", "self_ns", "probes"),
        "powerset.rank_useful_share": _ratio((main,), "powerset.rank_search", "final_rank", "nodes"),
        "solver.orders_per_solve": _ratio((main,), "solver.solve", "orders", "calls"),
        "solver.window_skip_share": _ratio((main,), "solver.solve", "skipped", "orders"),
        "solver.self_ns_per_solve": _ratio((main,), "solver.solve", "self_ns", "calls"),
        "model.normalize_ns": _ratio((main,), "model.normalize", "ns", "calls"),
        "model.unscale_ns": _ratio(sources, "model.unscale", "ns", "calls"),
    }
