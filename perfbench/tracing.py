"""Spans around fmtk's layer boundaries, installed from outside ``src/``.

The traced run replaces each listed function at its defining module and at
every ``fmtk`` module that imported it by name (``fmtk.shrink.rank_type``,
``fmtk.translate.evaluate``, ...), so calls between layers are recorded too.
A span is a name, a start, an end and the index of its parent span; spans
live in flat arrays while the run lasts and are written out at the end.
Self time is a span's duration minus the time covered by its children.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import defaultdict

# Wrapped functions, per layer module. Methods are written ``Class.method``.
TRACED = {
    "structures": [
        "Structure.__init__", "induced_substructure", "check_embedding_witness", "find_embedding",
        "is_isomorphic", "complement", "disjoint_union", "cartesian_product", "tensor_product",
        "bowtie", "tree_of_structures", "word_of_structures", "parse_structures",
        "serialize_structures",
    ],
    "equiv": [
        "rank_type", "m_equivalent", "marked_equivalent", "ef_game_equivalent",
        "realized_classes", "class_fingerprint",
    ],
    "folog": ["evaluate", "relativize", "parse", "print_formula"],
    "shrink": [
        "shrink_tree", "shrink_word", "reduce_W_distances", "reduce_height_no_W", "reduce_degree",
        "reduce_root_distance", "to_structure", "from_structure", "is_subtree",
        "trees_equivalent", "SigmaTree.induced", "TreeClasses.of",
    ],
    "algebra": [
        "shrink_algebraic", "shrink_word_of_structures", "shrink_tree_of_structures",
        "reduce_expression_height", "shrink_leaves", "eval_expression_tree",
        "eval_with_provenance", "push_complement_to_leaves", "wqo_scan_marked_words",
    ],
    "translate": [
        "find_cores", "psc_check", "translate_auto", "translate_to_exists_forall",
        "sample_agreement", "forall_star_from_minimal_models", "minimal_models",
        "enumerate_structures",
    ],
    "wqo": [
        "linear_order_embedding_pair", "antichain_certificate", "make_linear_order",
        "make_cycle", "make_path", "make_grid",
    ],
}

OPS = ("complement", "disjoint_union", "cartesian_product", "tensor_product", "bowtie",
       "tree_of_structures")


class Tracer:
    """Span recorder; records only while ``active`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self._stack: list[int] = []
        self.active = False
        # sums taken from call results: embeddings found, shrink sizes in/out
        self.sums: dict[str, float] = defaultdict(float)
        self._patches: list | None = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def open_job(self) -> int:
        """Root span of one job; the spans of its fmtk calls nest below it."""
        return self.open(self.name_id("job"))

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(tracer.sums, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in :data:`TRACED` wherever fmtk holds it.

        The wrappers are made on the first call; later calls put the same
        wrappers back, so jobs built while they were installed keep
        recording into this tracer.
        """
        if self._patches is None:
            self._patches = self._find_patches()
        for setter, _, traced in self._patches:
            setter(traced)

    def uninstall(self) -> None:
        for setter, original, _ in self._patches or ():
            setter(original)

    def _find_patches(self) -> list:
        """``(setter, original, traced)`` for every place fmtk holds a traced
        function: its defining module, every module that imported it by name,
        and dispatch tables such as ``fmtk.algebra._EVAL``."""
        patches = []
        modules = [m for n, m in sys.modules.items() if n == "fmtk" or n.startswith("fmtk.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"fmtk.{layer}"]
            for qual in names:
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[attr]
                    label = f"{layer}.{cls_name}" if attr == "__init__" else f"{layer}.{qual}"
                    traced = self.wrap(label, original, _HOOKS.get(label))
                    patches.append((functools.partial(setattr, owner, attr), original, traced))
                    continue
                original = getattr(home, qual)
                label = f"{layer}.{qual}"
                traced = self.wrap(label, original, _HOOKS.get(label))
                for module in modules:
                    for attr, value in list(module.__dict__.items()):
                        if value is original:
                            patches.append((functools.partial(setattr, module, attr), original, traced))
                        elif isinstance(value, dict):
                            for key in [k for k, v in value.items() if v is original]:
                                patches.append((functools.partial(value.__setitem__, key), original, traced))
        return patches

    def dump(self, path: str) -> None:
        """Write the spans: ``path.json`` (names, layout) and ``path.bin``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".bin", "wb") as fh:
            for column in (self.start, self.end, self.parent, self.name):
                column.tofile(fh)
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "count": len(self.start),
                       "columns": [["start", "d"], ["end", "d"], ["parent", "q"], ["name", "H"]]}, fh)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s``, ``self_s``, and ``child_calls``
        (calls of each other name made directly from this one)."""
        n = len(self.start)
        child_time = [0.0] * n
        start, end, parent, name = self.start, self.end, self.parent, self.name
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_time[p] += end[i] - start[i]
        out: dict[str, dict] = {}
        for i in range(n):
            rec = out.setdefault(self.names[name[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                                       "child_calls": defaultdict(int)})
            dur = end[i] - start[i]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child_time[i]
            p = parent[i]
            if p >= 0:
                out.setdefault(self.names[name[p]], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                                     "child_calls": defaultdict(int)})
                out[self.names[name[p]]]["child_calls"][self.names[name[i]]] += 1
        return out


def _found(sums, args, result):
    sums["find_embedding.found"] += result is not None


def _tree_sizes(sums, args, result):
    sums["shrink.in"] += args[0].size
    sums["shrink.out"] += result[0].size


def _report_sizes(sums, args, result):
    sums["algebra.in"] += result[1].input_size
    sums["algebra.out"] += result[1].output_size


_HOOKS = {
    "structures.find_embedding": _found,
    "shrink.shrink_tree": _tree_sizes,
    "algebra.shrink_algebraic": _report_sizes,
    "algebra.shrink_word_of_structures": _report_sizes,
    "algebra.shrink_tree_of_structures": _report_sizes,
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """The per-layer metrics, each per pass of the job list (counts repeat
    exactly across runs of one seed); ratios are taken over the whole run."""
    s = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "child_calls": {}}

    def g(name: str) -> dict:
        return s.get(name, empty)

    def per_pass(x: float) -> float:
        return x / passes

    m = {
        "equiv.rank_type.calls": per_pass(g("equiv.rank_type")["calls"]),
        "equiv.rank_type.self_s": per_pass(g("equiv.rank_type")["self_s"]),
        "equiv.m_equivalent.total_s": per_pass(g("equiv.m_equivalent")["total_s"]),
        "equiv.ef_game_equivalent.calls": per_pass(g("equiv.ef_game_equivalent")["calls"]),
        "equiv.ef_game_equivalent.self_s": per_pass(g("equiv.ef_game_equivalent")["self_s"]),
        "structures.Structure.built": per_pass(g("structures.Structure")["calls"]),
        "structures.Structure.self_s": per_pass(g("structures.Structure")["self_s"]),
        "structures.induced_substructure.calls": per_pass(g("structures.induced_substructure")["calls"]),
        "structures.induced_substructure.self_s": per_pass(g("structures.induced_substructure")["self_s"]),
        "structures.find_embedding.calls": per_pass(g("structures.find_embedding")["calls"]),
        "structures.find_embedding.self_s": per_pass(g("structures.find_embedding")["self_s"]),
        "structures.find_embedding.found_ratio": _ratio(
            tracer.sums["find_embedding.found"], g("structures.find_embedding")["calls"]),
        "structures.check_embedding_witness.self_s": per_pass(g("structures.check_embedding_witness")["self_s"]),
        "structures.ops.self_s": per_pass(sum(g(f"structures.{op}")["self_s"] for op in OPS)),
        "folog.evaluate.calls": per_pass(g("folog.evaluate")["calls"]),
        "folog.evaluate.self_s": per_pass(g("folog.evaluate")["self_s"]),
        "folog.relativize.self_s": per_pass(g("folog.relativize")["self_s"]),
        "folog.parse.self_s": per_pass(g("folog.parse")["self_s"]),
        "shrink.shrink_tree.calls": per_pass(g("shrink.shrink_tree")["calls"]),
        "shrink.shrink_tree.self_s": per_pass(g("shrink.shrink_tree")["self_s"]),
        "shrink.reduce_W_distances.total_s": per_pass(g("shrink.reduce_W_distances")["total_s"]),
        "shrink.reduce_height_no_W.total_s": per_pass(g("shrink.reduce_height_no_W")["total_s"]),
        "shrink.reduce_degree.total_s": per_pass(g("shrink.reduce_degree")["total_s"]),
        "shrink.to_structure.calls": per_pass(g("shrink.to_structure")["calls"]),
        "shrink.SigmaTree.induced.calls": per_pass(g("shrink.SigmaTree.induced")["calls"]),
        "shrink.TreeClasses.of.calls": per_pass(g("shrink.TreeClasses.of")["calls"]),
        "shrink.TreeClasses.of.miss_ratio": _ratio(
            g("shrink.TreeClasses.of")["child_calls"].get("equiv.rank_type", 0),
            g("shrink.TreeClasses.of")["calls"]),
        "shrink.size_ratio": _ratio(tracer.sums["shrink.out"], tracer.sums["shrink.in"]),
        "algebra.shrink_algebraic.total_s": per_pass(g("algebra.shrink_algebraic")["total_s"]),
        "algebra.shrink_blocks.total_s": per_pass(
            g("algebra.shrink_word_of_structures")["total_s"] + g("algebra.shrink_tree_of_structures")["total_s"]),
        "algebra.reduce_expression_height.self_s": per_pass(g("algebra.reduce_expression_height")["self_s"]),
        "algebra.size_ratio": _ratio(tracer.sums["algebra.out"], tracer.sums["algebra.in"]),
        "translate.find_cores.calls": per_pass(g("translate.find_cores")["calls"]),
        "translate.find_cores.total_s": per_pass(g("translate.find_cores")["total_s"]),
        "translate.translate_auto.total_s": per_pass(g("translate.translate_auto")["total_s"]),
        "translate.translate_auto.tries_per_call": _ratio(
            g("translate.translate_auto")["child_calls"].get("translate.sample_agreement", 0),
            g("translate.translate_auto")["calls"]),
        "translate.sample_agreement.self_s": per_pass(g("translate.sample_agreement")["self_s"]),
        "translate.forall_star_from_minimal_models.total_s": per_pass(
            g("translate.forall_star_from_minimal_models")["total_s"]),
        "translate.minimal_models.self_s": per_pass(g("translate.minimal_models")["self_s"]),
        "wqo.linear_order_embedding_pair.total_s": per_pass(g("wqo.linear_order_embedding_pair")["total_s"]),
        "wqo.antichain_certificate.total_s": per_pass(g("wqo.antichain_certificate")["total_s"]),
        "trace.spans": per_pass(len(tracer.start)),
    }
    return m
