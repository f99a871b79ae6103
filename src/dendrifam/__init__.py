"""Exact computer algebra for free dendriform and tridendriform family
algebras over a semigroup, built on typed decorated planar trees, with
Rota-Baxter family constructions and axiom verifiers."""

from .basis import LEAF, Alphabet, LinComb
from .dendriform import FreeDendriformFamily
from .pbtrees import BinNode, enumerate_bin, graft_binary
from .rotabaxter import FiniteAlgebra, RBFamily, epsilon, eta, tensor_rb
from .schroder import SchNode, enumerate_sch
from .semigroups import IDENTITY, Semigroup
from .termio import parse_span, parse_tree, print_span, print_tree
from .tridendriform import FreeTridendriformFamily, gamma

__all__ = [
    "LEAF", "Alphabet", "LinComb",
    "FreeDendriformFamily", "FreeTridendriformFamily",
    "BinNode", "SchNode", "graft_binary",
    "enumerate_bin", "enumerate_sch",
    "FiniteAlgebra", "RBFamily", "eta", "epsilon", "gamma", "tensor_rb",
    "IDENTITY", "Semigroup",
    "parse_tree", "parse_span", "print_tree", "print_span",
]
