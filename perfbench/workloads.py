"""The four benchmark workloads.

Each workload is driven through dendrifam's public API and split in
three steps that a worker process runs in order:

* ``setup(rng, scale)`` builds the configuration and inputs (this is
  what ``setup_s`` measures, together with interpreter start and import);
* ``run(probe, timer)`` performs the measured operations, timing each
  step with ``timer`` (a ``StepTimer``), and returns the outputs
  (``operations`` says how many operations the steps hold);
* ``check(outputs, oracle)`` applies the gates of ``gates.py`` and returns
  ``(attempted, failure messages)``, one message per failed operation.

Library functions are looked up through their modules at call time, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import itertools
import statistics
import time
from fractions import Fraction

from dendrifam import basis, dendriform, exprs, pbtrees, rotabaxter, schroder
from dendrifam import semigroups, termio, tridendriform

import gates


# -- timing at a reference host speed -----------------------------------------------

# On a shared machine the same Python code runs up to 40 % faster or slower
# from one minute to the next, on every CPU at once.  The timer therefore
# runs a fixed calibration loop every INTERVAL_S of wall time between steps
# and reports each step at the speed at which that loop takes REFERENCE_S.
# Over six minutes on a 2-CPU virtual machine, the means over 20 s of the
# three kinds of step spread over 43-53 % of their median as measured and
# over 9-13 % at reference speed.  The loop allocates nothing the garbage
# collector tracks, so dendrifam's heap and gc settings do not enter its
# time.  REFERENCE_S is about its time on that machine.
CALIBRATION_N = 40000
REFERENCE_S = 0.008
INTERVAL_S = 0.25


def calibration_loop():
    table = {}
    for i in range(CALIBRATION_N):
        key = i * 7919 % 4099
        table[key] = table.get(key, 0) + i
    return len(table)


class StepTimer:
    """Times the measured steps and calibrates between them."""

    def __init__(self):
        self.raw = []        # step latencies in seconds, as measured
        self.bursts = []     # (index of the next step, calibration loop seconds)
        self._start = None
        self._calibrate()

    def _calibrate(self):
        start = time.perf_counter()
        calibration_loop()
        now = time.perf_counter()
        self.bursts.append((len(self.raw), now - start))
        self._due = now + INTERVAL_S

    def start(self):
        self._start = time.perf_counter()

    def stop(self):
        now = time.perf_counter()
        self.raw.append(now - self._start)
        if now >= self._due:
            self._calibrate()

    def setup_scale(self):
        """Scale for the set-up time, from the median calibration of the unit."""
        return REFERENCE_S / statistics.median(t for _, t in self.bursts)

    def finish(self):
        """Calibrate once more and return the latencies at reference speed:
        a step between two calibrations is scaled by REFERENCE_S over their
        mean."""
        self._calibrate()
        scaled = []
        for (first, before), (last, after) in zip(self.bursts, self.bursts[1:]):
            scale = 2 * REFERENCE_S / (before + after)
            scaled += [x * scale for x in self.raw[first:last]]
        return scaled

# Sizes per scale.  "full" is the benchmark; "smoke" is the self-test.  The
# product sizes are capped by run time: a comb of 100 vertices alone takes
# 2-5 s and a spine product at p = q = 8 about 2 s, so those sizes appear
# only in the size series of the traced run (worker.SERIES).
SCALES = {
    "full": {
        "dend_instances": 3000,
        "tri_instances": 450,
        "oracle_pairs": 12,
        "comb_sizes": (8, 12, 16, 20, 24, 28, 32, 36, 40, 48, 56, 64),
        "spine_sizes": ((2, 3), (3, 2), (3, 4), (4, 3), (4, 4), (5, 4), (4, 5),
                        (5, 5), (6, 4), (4, 6), (6, 5), (5, 6), (6, 6), (7, 5)),
        "sch_sizes": ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4),
                      (4, 5), (5, 4), (5, 5), (2, 5), (5, 2)),
        "oracle_every": 3,
        "rb_dim": 5,
        "rb_bin_vertices": 5,
        "rb_sch_leaves": 5,
        "rb_evals": 5000,
        "rb_morphism_pairs": 40,
    },
    "smoke": {
        "dend_instances": 40,
        "tri_instances": 10,
        "oracle_pairs": 3,
        "comb_sizes": (3, 6),
        "spine_sizes": ((2, 3), (3, 3)),
        "sch_sizes": ((2, 2), (3, 2)),
        "oracle_every": 1,
        "rb_dim": 3,
        "rb_bin_vertices": 3,
        "rb_sch_leaves": 3,
        "rb_evals": 20,
        "rb_morphism_pairs": 4,
    },
}


class NullProbe:
    """Receives the algebras a unit used; the traced run reads their sizes."""

    def algebra(self, alg):
        pass


# -- the two axiom sweeps -------------------------------------------------------------

SWEEPS = {
    # name: (tree kind, alphabet, semigroup, max leaves)
    "dend-sweep": ("binary", ("x", "y"), ("cyclic", 2), 3),
    "tri-sweep": ("schroder", ("x",), ("cyclic", 1), 4),
}


class Sweep:
    """A seeded sample of one exhaustive family-axiom sweep.

    The instance space is the CLI's ``check`` loop: (T, U, W, alpha, beta)
    over all basis trees up to the leaf bound and all semigroup elements.
    A unit verifies a seeded sample of it, in the CLI's loop order, on one
    algebra, so memos are shared across instances as in the CLI.

    The timed step is the sampled instances under one pair (T, U).  One
    instance takes about a millisecond, and its latency falls either in a
    memo-hit or in a memo-miss mode, which host noise moves by different
    amounts: over 28-s windows of back-to-back dend-sweep units, the median
    latency of single instances spread twice as widely as that of a pair's
    block (interquartile range 12 % against 6 % of the median).
    """

    def __init__(self, name):
        self.kind, symbols, (sg_kind, order), self.max_leaves = SWEEPS[name]
        self.alphabet = basis.Alphabet(symbols)
        self.semigroup = semigroups.Semigroup(sg_kind, order=order)

    def setup(self, rng, scale):
        enumerate_fn = pbtrees.enumerate_bin if self.kind == "binary" else schroder.enumerate_sch
        self.trees = [t for n in range(1, self.max_leaves)
                      for t in enumerate_fn(n, self.alphabet, self.semigroup)]
        self.omega = self.semigroup.elements()
        family = (dendriform.FreeDendriformFamily if self.kind == "binary"
                  else tridendriform.FreeTridendriformFamily)
        self.algebra = family(self.alphabet, self.semigroup)
        nb, no = len(self.trees), len(self.omega)
        # the same number of instances under every pair (T, U) keeps the work
        # of a unit nearly independent of the seed
        block = nb * no ** 2
        size = scale["dend_instances" if self.kind == "binary" else "tri_instances"]
        per_pair = min(block, max(1, size // nb ** 2))
        self.sample = [pair * block + i for pair in range(nb ** 2)
                       for i in sorted(rng.sample(range(block), per_pair))]
        self.operations = len(self.sample)
        self.blocks = [[self.instance(i) for i in self.sample[k:k + per_pair]]
                       for k in range(0, len(self.sample), per_pair)]
        self.oracle_pairs = [(rng.randrange(nb), rng.randrange(nb), rng.choice(self.omega))
                             for _ in range(scale["oracle_pairs"])]
        return self

    def instance(self, index):
        nb, no = len(self.trees), len(self.omega)
        index, b = divmod(index, no)
        index, a = divmod(index, no)
        index, w = divmod(index, nb)
        t, u = divmod(index, nb)
        return (self.trees[t], self.trees[u], self.trees[w], self.omega[a], self.omega[b])

    def run(self, probe, timer):
        alg = self.algebra
        holds = []
        for block in self.blocks:
            timer.start()
            for instance in block:
                holds.append(alg.axioms_hold(*instance))
            timer.stop()
        probe.algebra(alg)
        return holds

    def check(self, holds, oracle):
        failures = []
        expected = gates.basis_count(self.kind, len(self.alphabet), len(self.omega),
                                     self.max_leaves)
        if len(self.trees) != expected:
            failures.append(f"{len(self.trees)} basis trees, closed form gives {expected}")
        if len(holds) != len(self.sample):
            failures.append(f"{len(holds)} instances verified of {len(self.sample)} sampled")
        failures += [f"axioms fail at instance {i}" for i, ok in zip(self.sample, holds)
                     if not ok]
        ops = ("prec", "succ") if self.kind == "binary" else ("prec", "succ", "dot")
        attempted = len(self.sample) + 1 + len(self.oracle_pairs) * len(ops)
        for ti, ui, omega in self.oracle_pairs:
            t, u = self.trees[ti], self.trees[ui]
            t_plain = gates.read_terms("1*" + termio.print_tree(t))[0][1]
            u_plain = gates.read_terms("1*" + termio.print_tree(u))[0][1]
            for op in ops:
                args = (t, u) if op == "dot" else (t, u, omega)
                text = termio.print_span(getattr(self.algebra, op)(*args))
                expected_span = gates.oracle_product(oracle, self.kind, op, t_plain, u_plain)
                failures += [f"{op}: {m}" for m in gates.check_against_oracle(text, expected_span)]
        return attempted, failures


# -- single deep products -----------------------------------------------------------------

PRODUCT_ALPHABET = ("x", "y")
PRODUCT_GENERATORS = ("a", "b")


def _word(rng):
    return "".join(rng.choice(PRODUCT_GENERATORS) for _ in range(rng.randint(1, 2)))


def spine_text(kind, side, decs, types):
    """Printed right or left spine: decorations top-down, internal edge types."""
    head = "B" if kind == "binary" else "S"
    text = "|"
    for i in reversed(range(len(decs))):
        edge = "1" if i == len(decs) - 1 else types[i]
        child = f"{edge}:{text}"
        text = (f"{head}[{decs[i]};1:|,{child}]" if side == "right"
                else f"{head}[{decs[i]};{child},1:|]")
    return text


class DeepProduct:
    """A seeded mix of single products, each parse -> compute -> print on a
    fresh algebra, as one ``dendrifam product`` call does.

    Every unit holds the same multiset of shapes, sizes and operations; the
    seed picks decorations, edge types, the family index and the order.
    The alphabet, semigroup and algebra are built inside the timed section
    of each product.  The intern tables and ``lru_cache``s of dendrifam are
    process-global, so they stay warm from one product to the next.
    """

    def setup(self, rng, scale):
        specs = [("binary", "prec", n, 1, "comb") for n in scale["comb_sizes"]]
        specs += [("binary", ("prec", "succ")[i % 2], p, q, "spine")
                  for i, (p, q) in enumerate(scale["spine_sizes"])]
        specs += [("schroder", ("prec", "dot")[i % 2], p, q, "spine")
                  for i, (p, q) in enumerate(scale["sch_sizes"])]
        rng.shuffle(specs)
        self.products = []
        for i, (kind, op, p, q, shape) in enumerate(specs):
            ldecs = [rng.choice(PRODUCT_ALPHABET) for _ in range(p)]
            rdecs = [rng.choice(PRODUCT_ALPHABET) for _ in range(q)]
            lhs = spine_text(kind, "right", ldecs, [_word(rng) for _ in range(p)])
            rhs = spine_text(kind, "left", rdecs, [_word(rng) for _ in range(q)])
            self.products.append({
                "kind": kind, "op": op, "p": p, "q": q, "shape": shape,
                "ldecs": ldecs, "rdecs": rdecs, "omega": _word(rng),
                "lhs": "1*" + lhs, "rhs": "1*" + rhs,
                "oracle": i % scale["oracle_every"] == 0,
            })
        self.operations = len(self.products)
        return self

    def run(self, probe, timer):
        outputs = []
        for spec in self.products:
            timer.start()
            kind = spec["kind"]
            alphabet = basis.Alphabet(PRODUCT_ALPHABET)
            semigroup = semigroups.Semigroup.free(PRODUCT_GENERATORS)
            family = (dendriform.FreeDendriformFamily if kind == "binary"
                      else tridendriform.FreeTridendriformFamily)
            alg = family(alphabet, semigroup)
            lhs = termio.parse_span(spec["lhs"], kind, alphabet, semigroup)
            rhs = termio.parse_span(spec["rhs"], kind, alphabet, semigroup)
            if spec["op"] == "dot":
                result = alg.dot(lhs, rhs)
            else:
                result = getattr(alg, spec["op"])(lhs, rhs, spec["omega"])
            text = termio.print_span(result)
            timer.stop()
            probe.algebra(alg)
            outputs.append((result, text, alphabet, semigroup))
        return outputs

    def check(self, outputs, oracle):
        failures = []
        if len(outputs) != len(self.products):
            failures.append(f"{len(outputs)} outputs for {len(self.products)} products")
        for spec, (result, text, alphabet, semigroup) in zip(self.products, outputs):
            label = f"{spec['kind']} {spec['op']} {spec['shape']} p={spec['p']} q={spec['q']}"
            found = []
            if spec["kind"] == "binary":
                # a comb with n vertices prec a vertex is the spine case q = 1
                terms = gates.spine_terms(spec["op"], spec["p"], spec["q"])
                found += gates.check_terms(text, terms)
            if spec["oracle"]:
                t = gates.right_spine(spec["ldecs"], spec["kind"])
                u = gates.left_spine(spec["rdecs"], spec["kind"])
                expected = gates.oracle_product(oracle, spec["kind"], spec["op"], t, u)
                found += gates.check_against_oracle(text, expected)
            if termio.parse_span(text, spec["kind"], alphabet, semigroup) != result:
                found.append("print -> parse_span does not round-trip")
            if found:
                failures.append(f"{label}: {'; '.join(found)}")
        return len(self.products), failures


# -- Rota-Baxter universal morphisms ---------------------------------------------------------

RB_ALPHABET = ("x", "y")
RB_INDICES = ("0", "1")


class RBExtend:
    """Universal-morphism evaluation into the structures induced by a
    Rota-Baxter family: the pointwise algebra k^d, cascading-sum operators
    for both indices of the cyclic group of order 2, weight 1.

    Set-up validates the family the way the CLI does before ``extend``.
    The measured work is ``extend`` through ``eta`` on binary basis trees
    and through ``epsilon`` on Schröder basis trees.
    """

    def setup(self, rng, scale):
        dim = scale["rb_dim"]
        self.alphabet = basis.Alphabet(RB_ALPHABET)
        self.semigroup = semigroups.Semigroup.cyclic(2)
        weight = Fraction(1)
        matrix = rotabaxter.cascading_sum_matrix(dim, weight)
        rb = rotabaxter.RBFamily(rotabaxter.pointwise_algebra(dim), weight,
                                 {w: matrix for w in RB_INDICES})
        if rotabaxter.rb_family_counterexample(rb, self.semigroup, RB_INDICES) is not None:
            raise RuntimeError("Rota-Baxter family identity fails")
        self.eps = rotabaxter.epsilon(rb, self.semigroup, RB_INDICES)
        if rotabaxter.tensor_rb_counterexample(rb, self.semigroup, RB_INDICES) is not None:
            raise RuntimeError("tensor Rota-Baxter identity fails")
        self.eta = rotabaxter.eta(rb)
        self.dend = dendriform.FreeDendriformFamily(self.alphabet, self.semigroup)
        self.tri = tridendriform.FreeTridendriformFamily(self.alphabet, self.semigroup)
        # the algebra skips zero coordinates, so the supports of the generator
        # images set the cost of an evaluation: the maps run through every pair
        # of supports, the same in every unit, and the seed picks the values
        supports = [s for k in range(1, dim + 1) for s in itertools.combinations(range(dim), k)]
        self.maps = [{x: tuple(Fraction(rng.randint(1, 9)) if j in support else Fraction(0)
                               for j in range(dim))
                      for x, support in zip(RB_ALPHABET, pair)}
                     for pair in itertools.product(supports, repeat=len(RB_ALPHABET))]
        bin_sizes = [pbtrees.enumerate_bin(n, self.alphabet, self.semigroup)
                     for n in range(1, scale["rb_bin_vertices"] + 1)]
        sch_sizes = [schroder.enumerate_sch(n, self.alphabet, self.semigroup)
                     for n in range(1, scale["rb_sch_leaves"])]
        bin_trees = [t for trees in bin_sizes for t in trees]
        sch_trees = [t for trees in sch_sizes for t in trees]
        maps = self.maps
        classes = ([(self.dend, self.eta, trees) for trees in bin_sizes]
                   + [(self.tri, self.eps, trees) for trees in sch_sizes])
        # each size class is drawn equally often, so evaluation costs spread
        # smoothly from tens of microseconds to about a millisecond.  A uniform
        # draw over all trees gives 79 % of evaluations to binary trees of 5
        # vertices; the host's speed flips between states about 45 % apart, and
        # with most evaluations at one cost the median latency jumps between
        # two values across runs.
        self.evals = []
        for i in range(scale["rb_evals"]):
            alg, ops, trees = rng.choice(classes)
            self.evals.append((alg, ops, rng.choice(trees), maps[i % len(maps)]))
        self.operations = len(self.evals)
        pairs = scale["rb_morphism_pairs"]
        self.morphism = ([(self.dend, self.eta, rng.choice(bin_trees), rng.choice(bin_trees),
                           rng.choice(RB_INDICES), rng.choice(maps)) for _ in range(pairs)]
                         + [(self.tri, self.eps, rng.choice(sch_trees), rng.choice(sch_trees),
                             rng.choice(RB_INDICES), rng.choice(maps)) for _ in range(pairs)])
        return self

    def run(self, probe, timer):
        outputs = []
        for alg, ops, t, f in self.evals:
            timer.start()
            value = alg.extend(f, ops, t)
            timer.stop()
            outputs.append(value)
        probe.algebra(self.dend)
        probe.algebra(self.tri)
        return outputs

    def check(self, outputs, oracle):
        failures = []
        if len(outputs) != len(self.evals):
            failures.append(f"{len(outputs)} outputs for {len(self.evals)} evaluations")
        attempted = len(self.evals)
        for (alg, ops, t, f), value in zip(self.evals, outputs):
            expected = exprs.evaluate(alg.express(t), ops, f.__getitem__)
            failures += gates.check_vectors(value, expected, "extend != evaluate(express)")
        for alg, ops, s, t, w, f in self.morphism:
            es, et = alg.extend(f, ops, s), alg.extend(f, ops, t)
            products = [("prec", (w,)), ("succ", (w,))]
            if alg is self.tri:
                products.append(("dot", ()))
            for op, index in products:
                lhs = alg.extend(f, ops, getattr(alg, op)(s, t, *index))
                rhs = getattr(ops, op)(es, et, *index)
                failures += gates.check_vectors(lhs, rhs, f"extend is not a {op} morphism")
                attempted += 1
        return attempted, failures


WORKLOADS = {
    "dend-sweep": lambda: Sweep("dend-sweep"),
    "tri-sweep": lambda: Sweep("tri-sweep"),
    "deep-product": DeepProduct,
    "rb-extend": RBExtend,
}
