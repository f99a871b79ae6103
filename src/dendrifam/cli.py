"""Command-line front end.

Subcommands: ``enumerate`` (basis trees), ``product`` (the indexed
products on parsed terms), ``check`` (axiom and identity sweeps) and
``extend`` (universal-morphism evaluation into an induced structure).

Exit codes: 0 success, 1 verified counterexample or axiom failure,
2 usage/config/parse error, 3 semantic misuse, 4 resources exhausted
(recursion depth or memory) before a result.  Sweeps stream progress
to stderr; stdout carries only the results.
"""

from __future__ import annotations

import argparse
import itertools
import re
import sys
from functools import partial

from . import axioms
from .basis import Alphabet
from .dendriform import FreeDendriformFamily
from .errors import AlgebraError, AxiomFailure, IdentityMisuse, LeafOperand
from .pbtrees import enumerate_bin
from .rationals import parse_coefficient
from .rotabaxter import (EpsilonOps, EtaOps, RBFamily, TensorFamily, parse_map_text,
                         parse_rb_text, rb_family_counterexample, tensor_rb_counterexample)
from .schroder import enumerate_sch
from .semigroups import Semigroup, from_config_text
from .termio import parse_operand, print_span, print_tree
from .tridendriform import FreeTridendriformFamily, gamma

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_CONFIG = 2
EXIT_MISUSE = 3
EXIT_RESOURCE = 4

_PROGRESS_EVERY = 5000


def _read(path) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_semigroup(text: str) -> Semigroup:
    if text == "trivial":
        return Semigroup.trivial()
    if text.startswith("cyclic:"):
        return Semigroup.cyclic(int(text[len("cyclic:"):]))
    if text.startswith("free:"):
        gens = [g for g in text[len("free:"):].split(",") if g]
        return Semigroup.free(gens)
    return from_config_text(_read(text))


def _parse_alphabet(text: str) -> Alphabet:
    return Alphabet([s for s in text.split(",") if s])


def _config(args):
    return _parse_alphabet(args.alphabet), _parse_semigroup(args.semigroup)


def _vector_text(v) -> str:
    return " ".join(str(c) for c in v)


def _tensor_rb_text(span) -> str:
    if span.is_zero():
        return "0"
    return " + ".join(f"{c}*e{i}(x){w}" for c, (i, w) in span.terms)


def _counted(instances, total: int):
    """``instances`` passed through, with a progress line every
    ``_PROGRESS_EVERY`` of them on stderr."""
    for done, instance in enumerate(instances, 1):
        if done % _PROGRESS_EVERY == 0:
            print(f"progress {done}/{total}", file=sys.stderr)
        yield instance


# kind -> (free family, tree enumerator, axiom label prefix)
_FAMILIES = {"binary": (FreeDendriformFamily, enumerate_bin, "dd"),
             "schroder": (FreeTridendriformFamily, enumerate_sch, "td")}


def _trees_up_to(kind: str, max_leaves: int, alphabet, semigroup, max_word):
    if max_leaves < 2:
        raise ValueError("--max-leaves must be at least 2")
    listed = _FAMILIES[kind][1]
    return [t for n in range(1, max_leaves) for t in listed(n, alphabet, semigroup, max_word)]


# a tree head: the word B or S, then '[', with any whitespace between them
_TREE_HEAD = re.compile(r"\b([BS])\s*\[")


def _infer_kind(op: str, *texts: str) -> str:
    for text in texts:
        if head := _TREE_HEAD.search(text):
            return "binary" if head[1] == "B" else "schroder"
    return "schroder" if op == "dot" else "binary"


# -- subcommands -------------------------------------------------------------

def cmd_enumerate(args) -> int:
    alphabet, semigroup = _config(args)
    if args.n < 1:
        raise ValueError("n must be at least 1")
    trees = _FAMILIES[args.kind][1](args.n, alphabet, semigroup, args.max_word)
    for t in trees:
        print(print_tree(t))
    print(f"count={len(trees)}")
    return EXIT_OK


def cmd_product(args) -> int:
    alphabet, semigroup = _config(args)
    if args.op == "dot" and args.omega is not None:
        raise ValueError("dot takes no --omega")
    if args.op != "dot" and args.omega is None:
        raise ValueError(f"{args.op} requires --omega")
    kind = _infer_kind(args.op, args.lhs, args.rhs)
    if args.op == "dot" and kind == "binary":
        raise ValueError("dot is defined on Schröder terms only")
    lhs = parse_operand(args.lhs, kind, alphabet, semigroup)
    rhs = parse_operand(args.rhs, kind, alphabet, semigroup)
    algebra = _FAMILIES[kind][0](alphabet, semigroup)
    index = () if args.op == "dot" else (args.omega,)
    print(print_span(getattr(algebra, args.op)(lhs, rhs, *index)))
    return EXIT_OK


def _check_axioms(args, kind: str, tensor: bool):
    """The family axioms of ``kind`` on every triple of enumerated trees and
    pair of indices, or (``tensor``) the classical axioms on every triple of
    tree (x) element tensors of A (x) kOmega, through :func:`axioms.search`."""
    alphabet, semigroup = _config(args)
    trees = _trees_up_to(kind, args.max_leaves, alphabet, semigroup, args.max_word)
    omega = semigroup.elements(args.max_word)
    family, _, prefix = _FAMILIES[kind]
    algebra = family(alphabet, semigroup)
    if tensor:
        ops = TensorFamily(algebra)
        elements = [ops.element(t, w) for t in trees for w in omega]
        ops, triples = axioms._Unindexed(ops), [(None, None, None)]
    else:
        ops, elements, prefix = algebra, [algebra.span(t) for t in trees], prefix + "f"
        triples = [(a, b, semigroup.mul(a, b)) for a in omega for b in omega]
    total = len(elements) ** 3 * len(triples)
    instances = itertools.product(elements, elements, elements, triples)
    failure = axioms.search(family.axiom_table, ops, _counted(instances, total))
    if failure is None:
        return total, None
    terms = [next(iter(failure[name].map)) for name in "xyz"]  # each operand's one term
    if tensor:
        shown = " ".join(f"{name}={print_tree(t)}(x){w}" for name, (t, w) in zip("xyz", terms))
    else:
        shown = " ".join(f"{name}={print_tree(t)}" for name, t in zip("TUW", terms))
        shown += (f" alpha={failure['alpha']} beta={failure['beta']} "
                  f"residual={print_span(failure['residual'])}")
    return total, f"counterexample suite={args.suite} axiom={prefix}{failure['axiom']} {shown}"


def _load_rb(args):
    """The alphabet, the semigroup, the Rota-Baxter family of ``--rb-file`` over an
    associative algebra, and its operator sample, checked to be product-closed."""
    alphabet, semigroup = _config(args)
    if not args.rb_file:
        raise ValueError("this suite requires --rb-file")
    algebra, operators = parse_rb_text(_read(args.rb_file))
    algebra.validate()
    rb = RBFamily(algebra, parse_coefficient(args.weight), operators)
    sample = sorted(operators, key=semigroup.element_key)
    for a in sample:
        for b in sample:
            ab = semigroup.mul(a, b)
            if ab not in operators:
                raise ValueError(
                    f"operator sample is not product-closed: {a}*{b} = {ab} "
                    "has no declared operator")
    return alphabet, semigroup, rb, sample


def _identity_line(suite: str, failure: dict, shown: str) -> str:
    """The counterexample line of a failed Rota-Baxter identity, ``shown`` after its place."""
    return (f"counterexample suite={suite} alpha={failure['alpha']} beta={failure['beta']} "
            f"i={failure['i']} j={failure['j']} {shown}")


def _check_rb(args, counterexample, text):
    """The Rota-Baxter identity of the family (``rb``) or of the tensor
    operator (``tensor-rb``); ``text`` prints a side of a counterexample."""
    _, semigroup, rb, sample = _load_rb(args)
    failure = counterexample(rb, semigroup, sample)
    return (len(sample) * rb.algebra.dim) ** 2, failure and _identity_line(
        args.suite, failure, f"lhs={text(failure['lhs'])} rhs={text(failure['rhs'])}")


def _check_diagram(args):
    """gamma . epsilon against eta on basis pairs, once the family identity holds."""
    _, semigroup, rb, sample = _load_rb(args)
    dim = rb.algebra.dim
    total = dim * dim * len(sample)
    failure = rb_family_counterexample(rb, semigroup, sample)
    if failure is not None:
        return total, _identity_line("diagram", failure, "reason=not-a-Rota-Baxter-family")
    through_epsilon, direct = gamma(EpsilonOps(rb)), EtaOps(rb)
    for i, j, w, name in itertools.product(range(dim), range(dim), sample, ("prec", "succ")):
        x, y = rb.algebra.basis_vector(i), rb.algebra.basis_vector(j)
        left, right = (getattr(ops, name)(x, y, w) for ops in (through_epsilon, direct))
        if left != right:
            return total, (f"counterexample suite=diagram op={name} i={i} j={j} omega={w} "
                           f"gamma.epsilon={_vector_text(left)} eta={_vector_text(right)}")
    return total, None


_SUITES = {
    "dendriform": partial(_check_axioms, kind="binary", tensor=False),
    "tridendriform": partial(_check_axioms, kind="schroder", tensor=False),
    "rb": partial(_check_rb, counterexample=rb_family_counterexample, text=_vector_text),
    "tensor-rb": partial(_check_rb, counterexample=tensor_rb_counterexample,
                         text=_tensor_rb_text),
    "tensor-dend": partial(_check_axioms, kind="binary", tensor=True),
    "tensor-tridend": partial(_check_axioms, kind="schroder", tensor=True),
    "diagram": _check_diagram,
}


def cmd_check(args) -> int:
    """Run a suite, which returns its instance count and its counterexample line or None."""
    total, counterexample = _SUITES[args.suite](args)
    print(counterexample or f"instances={total} failures=0")
    return EXIT_OK if counterexample is None else EXIT_COUNTEREXAMPLE


def cmd_extend(args) -> int:
    alphabet, semigroup, rb, sample = _load_rb(args)
    images = parse_map_text(_read(args.map_file), rb.algebra.dim)
    missing = [x for x in alphabet if x not in images]
    if missing:
        raise ValueError(f"map file has no image for generators: {missing}")
    f = {x: rb.algebra.basis_vector(i) for x, i in images.items()}
    validate_rb = rb_family_counterexample(rb, semigroup, sample)
    if validate_rb is not None:
        raise AxiomFailure("the supplied family is not Rota-Baxter", counterexample=validate_rb)
    kind, ops = ("binary", EtaOps(rb)) if args.functor == "eta" else ("schroder", EpsilonOps(rb))
    span = parse_operand(args.term, kind, alphabet, semigroup)
    print(_vector_text(_FAMILIES[kind][0](alphabet, semigroup).extend(f, ops, span)))
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alphabet", required=True,
                        help="comma-separated decoration symbols, in order")
    common.add_argument("--semigroup", required=True,
                        help="trivial | cyclic:N | free:g1,g2 | path to config file")
    common.add_argument("--max-word", type=int, default=None,
                        help="word-length bound for free semigroups")

    parser = argparse.ArgumentParser(prog="dendrifam")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common],
                       help="list basis trees with n+1 leaves")
    p.add_argument("kind", choices=["binary", "schroder"])
    p.add_argument("n", type=int)
    p.set_defaults(run=cmd_enumerate)

    p = sub.add_parser("product", parents=[common],
                       help="compute prec/succ/dot on two terms")
    p.add_argument("op", choices=["prec", "succ", "dot"])
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--omega", default=None, help="family index (prec/succ only)")
    p.set_defaults(run=cmd_product)

    p = sub.add_parser("check", parents=[common], help="run an axiom or identity sweep")
    p.add_argument("--suite", required=True,
                   choices=list(_SUITES))
    p.add_argument("--max-leaves", type=int, default=2)
    p.add_argument("--rb-file", default=None)
    p.add_argument("--lambda", dest="weight", default="1")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("extend", parents=[common],
                       help="evaluate the universal morphism on a term")
    p.add_argument("--functor", required=True, choices=["eta", "epsilon"])
    p.add_argument("--rb-file", required=True)
    p.add_argument("--lambda", dest="weight", default="1")
    p.add_argument("--map-file", required=True)
    p.add_argument("term")
    p.set_defaults(run=cmd_extend)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for n in reversed(range(len(argv) - 1)):  # argparse takes '-3' for a value, '-3/6' not
        if len(argv[n]) > 2 and "--lambda".startswith(argv[n]) and re.match(r"-\d", argv[n + 1]):
            argv[n:n + 2] = [f"{argv[n]}={argv[n + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (IdentityMisuse, LeafOperand) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISUSE
    except AxiomFailure as exc:
        print(f"axiom failure: {exc}")
        return EXIT_COUNTEREXAMPLE
    except (AlgebraError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RecursionError, MemoryError) as exc:
        # distinct from EXIT_COUNTEREXAMPLE: nothing was verified
        print(f"error: resources exhausted ({type(exc).__name__})", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
