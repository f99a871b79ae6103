"""One benchmark unit in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --unit I [--trace 0|1]
    python3 perfbench/worker.py --series

``run.py`` starts this script once per unit and reads the JSON object on
the last line of its standard output.  A unit sets the workload up from
``(workload, seed, unit)``, runs the measured operations, then checks the
outputs.  With ``--trace 1`` the tracer wraps dendrifam's entry points
for set-up and the measured operations, and the unit also reports the
per-layer metrics.  ``--series`` times single products at growing sizes
instead (the comb and spine growth exponents).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import sys
import time
import traceback
from pathlib import Path

import dendrifam
from dendrifam import axioms, basis, dendriform, pbtrees, rotabaxter, schroder
from dendrifam import semigroups, termio, tridendriform

import gates
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _sized(extra, args, result):
    """Counts characters or terms going into and out of a call."""
    if args and hasattr(args[0], "__len__"):
        extra["in"] = extra.get("in", 0) + len(args[0])
    if hasattr(result, "__len__"):
        extra["out"] = extra.get("out", 0) + len(result)


# (trace name, module, attribute, recursive, observe)
ENTRY_POINTS = [
    ("basis.normalize", basis, "normalize", False, _sized),
    ("pbtrees.graft_binary", pbtrees, "graft_binary", False, None),
    ("pbtrees.tree_key", pbtrees, "tree_key", True, None),
    ("pbtrees.enumerate_bin", pbtrees, "enumerate_bin", False, None),
    ("schroder.intern_node", schroder, "intern_node", False, None),
    ("schroder.tree_key", schroder, "tree_key", True, None),
    ("schroder.enumerate_sch", schroder, "enumerate_sch", False, None),
    ("axioms.dendriform_family_hold", axioms, "dendriform_family_hold", False, None),
    ("axioms.tridendriform_family_hold", axioms, "tridendriform_family_hold", False, None),
    ("termio.parse_span", termio, "parse_span", False, _sized),
    ("termio.parse_tree", termio, "parse_tree", False, _sized),
    ("termio.parse_operand", termio, "parse_operand", False, _sized),
    ("termio.print_span", termio, "print_span", False, _sized),
    ("termio.print_tree", termio, "print_tree", True, None),
    ("rotabaxter.rb_family_counterexample", rotabaxter, "rb_family_counterexample", False, None),
    ("rotabaxter.epsilon", rotabaxter, "epsilon", False, None),
    ("rotabaxter.tensor_rb_counterexample", rotabaxter, "tensor_rb_counterexample", False, None),
]

METHODS = [
    ("semigroups.mul", semigroups.Semigroup, "mul"),
    ("semigroups.mul_ext", semigroups.Semigroup, "mul_ext"),
    ("semigroups.contains", semigroups.Semigroup, "contains"),
    ("rotabaxter.algebra_mul", rotabaxter.FiniteAlgebra, "mul"),
    ("rotabaxter.eta_prec", rotabaxter.EtaOps, "prec"),
    ("rotabaxter.eta_succ", rotabaxter.EtaOps, "succ"),
    ("rotabaxter.epsilon_prec", rotabaxter.EpsilonOps, "prec"),
    ("rotabaxter.epsilon_succ", rotabaxter.EpsilonOps, "succ"),
    ("rotabaxter.epsilon_dot", rotabaxter.EpsilonOps, "dot"),
]
FAMILIES = {
    "dendriform": (dendriform.FreeDendriformFamily, ("prec", "succ"),
                   ("_prec_trees", "_succ_trees"), ("_prec_memo", "_succ_memo")),
    "tridendriform": (tridendriform.FreeTridendriformFamily, ("prec", "succ", "dot"),
                      ("_prec_trees", "_succ_trees", "_dot_trees"),
                      ("_prec_memo", "_succ_memo", "_dot_memo")),
}
for _layer, (_cls, _products, _kernels, _) in FAMILIES.items():
    METHODS += [(f"{_layer}.{m}", _cls, m) for m in _products + _kernels + ("extend", "express")]


def install(tracer: Tracer):
    for name, owner, attr, recursive, observe in ENTRY_POINTS:
        tracer.wrap_function(owner, attr, name, recursive, observe)
    for name, cls, attr in METHODS:
        tracer.wrap_method(cls, attr, name)
    tracer.install_gc_hook()


class SizeProbe:
    """Reads memo and cache sizes of the algebras a unit used.

    Private attributes are read defensively: one that is gone is recorded
    as ``None`` with a note, so a refactor of the internals leaves the
    benchmark running.
    """

    def __init__(self):
        self.memo_entries = {layer: 0 for layer in FAMILIES}
        self.semigroups = {}
        self.notes = set()

    def algebra(self, alg):
        for layer, (cls, _, _, memos) in FAMILIES.items():
            if isinstance(alg, cls):
                for attr in memos:
                    memo = getattr(alg, attr, None)
                    if memo is None:
                        self.memo_entries[layer] = None
                        self.notes.add(f"{cls.__name__}.{attr} not found")
                    elif self.memo_entries[layer] is not None:
                        self.memo_entries[layer] += len(memo)
        sg = getattr(alg, "semigroup", None)
        if sg is not None:
            self.semigroups[id(sg)] = sg

    def mul_cache_entries(self):
        total = 0
        for sg in self.semigroups.values():
            cache = getattr(sg, "_mul_cache", None)
            if cache is None:
                self.notes.add("Semigroup._mul_cache not found")
                return None
            total += len(cache)
        return total


def interned(module, notes):
    table = getattr(module, "_INTERNED", None)
    if table is None:
        notes.add(f"{module.__name__}._INTERNED not found")
        return None
    return len(table)


def ratio(num, den):
    """num / den, or 0.0 when the layer did no work (den == 0)."""
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, probe: SizeProbe, interned_before, interned_after):
    m = {}
    m["basis.normalize_calls"] = tr.calls("basis.normalize")
    terms_in = tr.counter("basis.normalize", "in")
    terms_out = tr.counter("basis.normalize", "out")
    m["basis.normalize_terms_in"] = terms_in
    m["basis.normalize_terms_out"] = terms_out
    m["basis.merge_ratio"] = ratio(terms_out, terms_in)
    m["basis.normalize_s"] = tr.self_s("basis.normalize")

    for layer, grow in (("pbtrees", "graft_binary"), ("schroder", "intern_node")):
        calls = tr.calls(f"{layer}.{grow}")
        before, after = interned_before[layer], interned_after[layer]
        new = None if before is None or after is None else after - before
        m[f"{layer}.{'graft_calls' if layer == 'pbtrees' else 'intern_calls'}"] = calls
        m[f"{layer}.new_node_ratio"] = ratio(new, calls)
        m[f"{layer}.trees_interned"] = after
        m[f"{layer}.enumerate_s"] = tr.total_s(
            "pbtrees.enumerate_bin" if layer == "pbtrees" else "schroder.enumerate_sch")
        m[f"{layer}.tree_key_s"] = tr.total_s(f"{layer}.tree_key")

    sg = ("semigroups.mul", "semigroups.mul_ext", "semigroups.contains")
    m["semigroups.mul_calls"] = tr.calls("semigroups.mul", "semigroups.mul_ext")
    m["semigroups.contains_calls"] = tr.calls("semigroups.contains")
    m["semigroups.self_s"] = tr.self_s(*sg)
    m["semigroups.mul_cache_entries"] = probe.mul_cache_entries()

    products = 0
    for layer, (_, prods, kernels, _) in FAMILIES.items():
        names = [f"{layer}.{x}" for x in prods + kernels + ("extend", "express")]
        product_calls = tr.calls(*(f"{layer}.{x}" for x in prods))
        kernel_calls = tr.calls(*(f"{layer}.{x}" for x in kernels))
        entries = probe.memo_entries[layer]
        products += product_calls
        m[f"{layer}.product_calls"] = product_calls
        m[f"{layer}.kernel_calls"] = kernel_calls
        m[f"{layer}.memo_entries"] = entries
        if entries is None:
            m[f"{layer}.memo_hit_ratio"] = None
        else:
            m[f"{layer}.memo_hit_ratio"] = 1.0 - entries / kernel_calls if kernel_calls else 0.0
        m[f"{layer}.self_s"] = tr.self_s(*names)

    holds = ("axioms.dendriform_family_hold", "axioms.tridendriform_family_hold")
    instances = tr.calls(*holds)
    m["axioms.instances"] = instances
    m["axioms.products_per_instance"] = ratio(products, instances)
    m["axioms.hold_s"] = tr.total_s(*holds)

    parse = ("termio.parse_span", "termio.parse_tree", "termio.parse_operand")
    m["termio.parse_s"] = tr.self_s(*parse)
    m["termio.print_s"] = tr.self_s("termio.print_span", "termio.print_tree")
    m["termio.chars_in"] = sum(tr.counter(n, "in") for n in parse)
    m["termio.chars_out"] = tr.counter("termio.print_span", "out")

    ops = ("rotabaxter.eta_prec", "rotabaxter.eta_succ", "rotabaxter.epsilon_prec",
           "rotabaxter.epsilon_succ", "rotabaxter.epsilon_dot")
    m["rotabaxter.algebra_mul_calls"] = tr.calls("rotabaxter.algebra_mul")
    m["rotabaxter.algebra_mul_s"] = tr.self_s("rotabaxter.algebra_mul")
    m["rotabaxter.ops_calls"] = tr.calls(*ops)
    m["rotabaxter.validate_s"] = tr.total_s(
        "rotabaxter.rb_family_counterexample", "rotabaxter.epsilon",
        "rotabaxter.tensor_rb_counterexample")

    m["runtime.gc_s"] = tr.gc_s
    m["runtime.gc_collections"] = tr.gc_collections
    return m


def run_unit(args):
    result = {"unit": args.unit}
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
        probe = SizeProbe()
        before = {"pbtrees": interned(pbtrees, probe.notes),
                  "schroder": interned(schroder, probe.notes)}
    else:
        probe = workloads.NullProbe()
    scale = workloads.SCALES[args.scale]
    rng = random.Random(f"{args.workload}:{args.seed}:{args.unit}")
    state = workloads.WORKLOADS[args.workload]().setup(rng, scale)
    result["setup_done"] = time.monotonic()
    timer = workloads.StepTimer()
    outputs = state.run(probe, timer)
    latencies = timer.finish()
    result["setup_scale"] = timer.setup_scale()
    result["work_s"] = sum(latencies)
    result["raw_work_s"] = sum(timer.raw)
    if tracer is not None:
        tracer.uninstall()
        after = {"pbtrees": interned(pbtrees, probe.notes),
                 "schroder": interned(schroder, probe.notes)}
        result["layers"] = layer_metrics(tracer, probe, before, after)
        result["trace"] = tracer.dump()
        result["notes"] = sorted(probe.notes) + tracer.notes
    result["latencies"] = latencies
    result["operations"] = state.operations
    attempted, failures = state.check(outputs, gates.load_oracle(ROOT))
    result["attempted"] = attempted
    result["failed"] = len(failures)
    result["failures"] = failures[:20]
    return result


# -- size series ------------------------------------------------------------------

SERIES = {
    # name: (op, [(p, q, repeats)]); comb = right comb prec a single vertex
    "comb": ("prec", [(25, 1, 5), (50, 1, 3), (100, 1, 1)]),
    "spine": ("prec", [(6, 6, 5), (7, 7, 3), (8, 8, 1)]),
}


def slope(points):
    """Least-squares slope of log(time) over log(size)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def run_series(args):
    alphabet = basis.Alphabet(workloads.PRODUCT_ALPHABET)
    semigroup = semigroups.Semigroup.free(workloads.PRODUCT_GENERATORS)
    rng = random.Random(f"series:{args.seed}")
    out = {"attempted": 0, "failed": 0, "failures": []}
    for name, (op, sizes) in SERIES.items():
        points = []
        for p, q, repeats in sizes:
            times = []
            for _ in range(repeats):
                ldecs = [rng.choice(workloads.PRODUCT_ALPHABET) for _ in range(p)]
                rdecs = [rng.choice(workloads.PRODUCT_ALPHABET) for _ in range(q)]
                lhs = termio.parse_span("1*" + workloads.spine_text(
                    "binary", "right", ldecs, ["a"] * p), "binary", alphabet, semigroup)
                rhs = termio.parse_span("1*" + workloads.spine_text(
                    "binary", "left", rdecs, ["b"] * q), "binary", alphabet, semigroup)
                alg = dendriform.FreeDendriformFamily(alphabet, semigroup)
                start = time.perf_counter()
                product = getattr(alg, op)(lhs, rhs, "a")
                times.append(time.perf_counter() - start)
                found = gates.check_terms(termio.print_span(product), gates.spine_terms(op, p, q))
                out["attempted"] += 1
                out["failed"] += bool(found)
                out["failures"] += [f"{name} p={p} q={q}: {m}" for m in found]
            points.append((p, statistics.median(times)))
        out[f"{name}_s"] = {str(p): t for p, t in points}
        out[f"{name}_exponent"] = slope(points)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--unit", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--series", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = run_series(args) if args.series else run_unit(args)
    except Exception:
        traceback.print_exc()
        return 1
    result["dendrifam_file"] = dendrifam.__file__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
