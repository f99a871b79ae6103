import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dendrifam import tridendriform
from dendrifam.cli import main
from dendrifam.rotabaxter import EtaOps, RBFamily, cascading_sum_matrix, pointwise_algebra
from dendrifam.semigroups import Semigroup

RB_K3 = """\
dim=3
sc 0 0 0 1
sc 1 1 1 1
sc 2 2 2 1
op 0 -1 0 0 -1 -1 0 -1 -1 -1
op 1 -1 0 0 -1 -1 0 -1 -1 -1
"""

RB_K3_PERTURBED = RB_K3.replace("op 0 -1 0 0", "op 0 -1 1 0")

MAP_XY = "x 0\ny 1\n"

DATA = Path(__file__).parent / "data"
DIGITS = sys.get_int_max_str_digits()  # 4,300 by default, read when the tests start
RB_HALF = str(DATA / "rb_weight_half.txt")
MAP_HALF = str(DATA / "map_xy.txt")


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def rb_file(tmp_path):
    path = tmp_path / "rb.txt"
    path.write_text(RB_K3)
    return str(path)


@pytest.fixture
def bad_rb_file(tmp_path):
    path = tmp_path / "rb-bad.txt"
    path.write_text(RB_K3_PERTURBED)
    return str(path)


@pytest.fixture
def map_file(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text(MAP_XY)
    return str(path)


# -- enumerate ------------------------------------------------------------------

def test_enumerate_binary(capsys):
    code, out, _ = run(capsys, "enumerate", "binary", "2",
                       "--alphabet", "x", "--semigroup", "trivial")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count=2"
    assert len(lines) == 3


def test_enumerate_schroder(capsys):
    code, out, _ = run(capsys, "enumerate", "schroder", "2",
                       "--alphabet", "x", "--semigroup", "trivial")
    assert code == 0
    assert out.strip().splitlines()[-1] == "count=3"


def test_enumerate_zero_rejected(capsys):
    code, _, err = run(capsys, "enumerate", "binary", "0",
                       "--alphabet", "x", "--semigroup", "trivial")
    assert code == 2 and "error" in err


def test_enumerate_free_needs_bound(capsys):
    code, _, _ = run(capsys, "enumerate", "binary", "2",
                     "--alphabet", "x", "--semigroup", "free:a")
    assert code == 2
    code, out, _ = run(capsys, "enumerate", "binary", "2",
                       "--alphabet", "x", "--semigroup", "free:a", "--max-word", "1")
    assert code == 0 and out.strip().splitlines()[-1] == "count=2"


def test_enumerate_semigroup_config_file(capsys, tmp_path):
    cfg = tmp_path / "sg.cfg"
    cfg.write_text("kind=table\n,e,g\ne,e,g\ng,g,e\n")
    code, out, _ = run(capsys, "enumerate", "binary", "2",
                       "--alphabet", "x", "--semigroup", str(cfg))
    assert code == 0 and out.strip().splitlines()[-1] == "count=4"


def test_enumerate_semigroup_config_file_with_trailing_comments(capsys, tmp_path):
    cfg = tmp_path / "sg.cfg"
    cfg.write_text("kind=cyclic  # Z2\norder=2  # two elements\n")
    code, out, _ = run(capsys, "enumerate", "binary", "2",
                       "--alphabet", "x", "--semigroup", str(cfg))
    assert code == 0 and out.strip().splitlines()[-1] == "count=4"


@pytest.mark.parametrize("config, error", [
    ("kind=table\n,x,y\nx,y,x\ny,x,x\n", "associativity fails: (xx)y = x but x(xy) = y\n"),
    ("kind=table\n,x\nx,z\n", "closure fails: x*x = 'z'\n"),
], ids=["nonassociative", "not-closed"])
def test_enumerate_refuses_a_bad_table_config(capsys, tmp_path, config, error):
    cfg = tmp_path / "sg.cfg"
    cfg.write_text(config)
    assert run(capsys, "enumerate", "binary", "1", "--alphabet", "x",
               "--semigroup", str(cfg)) == (2, "", f"error: {cfg}: {error}")


VALID_CONFIGS = ["kind=free\ngenerators=a,b\n", "kind=cyclic\norder=3\n",
                 "kind=table\n,e,g\ne,e,g\ng,g,e\n",
                 "# Z2\nkind=table  # a group\n,0,1\n0,0,1  # 0 is the unit\n1,1,0\n"]
CHARS = st.one_of(st.sampled_from(",=# \t019aegkz"), st.characters(blacklist_categories=["Cs"]))


@st.composite
def mutated_configs(draw, texts=VALID_CONFIGS):
    lines = draw(st.sampled_from(texts)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        change = draw(st.sampled_from(["drop", "duplicate", "garble"]))
        if change == "drop":
            del lines[i]
        elif change == "duplicate":
            lines.insert(i, lines[i])
        else:
            j = draw(st.integers(0, len(lines[i])))
            k = draw(st.integers(j, len(lines[i])))
            lines[i] = lines[i][:j] + draw(st.text(CHARS, max_size=4)) + lines[i][k:]
    return "\n".join(lines) + "\n"


@st.composite
def table_configs(draw):
    # every row of its own length, or square with products that may be no element
    names = ["a", "b", "c", "d"][:draw(st.integers(1, 4))]
    cells = st.sampled_from(names + ["z"] if draw(st.booleans()) else names)
    if draw(st.booleans()):
        rows = [draw(st.lists(cells, max_size=5)) for _ in names]
    else:
        rows = [[draw(cells) for _ in names] for _ in names]
    return "kind=table\n" + "".join(
        ",".join(row) + "\n" for row in [["", *names]] + [[a, *r] for a, r in zip(names, rows)])


SEMIGROUP_CONFIGS = st.one_of(
    st.one_of(mutated_configs(), table_configs()).map(str.encode),
    st.builds(lambda digit, n: f"kind=cyclic\norder={digit * n}\n".encode(),
              st.sampled_from("0159"), st.one_of(st.integers(1, 20),
                                                 st.integers(DIGITS - 10, DIGITS + 10))),
    st.builds(lambda text, tail: text.encode() + b"\xff" + tail,
              st.sampled_from(VALID_CONFIGS), st.binary(max_size=8)),
)


@settings(max_examples=150, deadline=2000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=SEMIGROUP_CONFIGS)
def test_semigroup_config_files_are_read_or_refused_cleanly(capsys, tmp_path, config):
    # every example rewrites one file; one vertex has no internal edge, so no
    # cyclic element is listed, however large the order
    cfg = tmp_path / "sg.cfg"
    cfg.write_bytes(config)
    code, out, err = run(capsys, "enumerate", "binary", "1", "--alphabet", "x",
                         "--semigroup", str(cfg))
    assert code in (0, 2) and "Traceback" not in out + err
    assert "set_int_max_str_digits" not in err
    if code == 0:
        assert out.endswith("count=1\n")
    else:
        assert out == "" and err.startswith("error: ") and err.endswith("\n")
        assert err.count("\n") == 1


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_enumerate_one_vertex_over_a_huge_cyclic_semigroup(capsys, kind):
    # a single vertex has no internal edge, so no element is ever listed
    code, out, _ = run(capsys, "enumerate", kind, "1",
                       "--alphabet", "x", "--semigroup", "cyclic:1000000000000")
    assert code == 0 and out.strip().splitlines()[-1] == "count=1"


# -- product --------------------------------------------------------------------

def test_product_prec_golden(capsys):
    code, out, _ = run(capsys, "product", "prec", "--omega", "w",
                       "B[x;1:|,1:|]", "B[y;1:|,1:|]",
                       "--alphabet", "x,y", "--semigroup", "free:w")
    assert code == 0
    assert out.strip() == "1*B[x;1:|,w:B[y;1:|,1:|]]"


def test_product_dot_golden(capsys):
    code, out, _ = run(capsys, "product", "dot",
                       "S[x;1:|,1:|]", "S[y;1:|,1:|]",
                       "--alphabet", "x,y", "--semigroup", "trivial")
    assert code == 0
    assert out.strip() == "1*S[x,y;1:|,1:|,1:|]"


def test_product_over_a_huge_cyclic_semigroup(capsys):
    # cyclic elements are numerals checked by arithmetic, never listed
    code, out, _ = run(capsys, "product", "succ", "--omega", "999999999999",
                       "B[x;1:|,1:|]", "B[y;5:B[x;1:|,1:|],1:|]",
                       "--alphabet", "x,y", "--semigroup", "cyclic:1000000000000")
    assert code == 0
    assert out.strip() == ("1*B[y;4:B[x;1:|,5:B[x;1:|,1:|]],1:|] + "
                           "1*B[y;4:B[x;999999999999:B[x;1:|,1:|],1:|],1:|]")
    for omega in ("1000000000000", "01"):
        code, _, _ = run(capsys, "product", "succ", "--omega", omega,
                         "B[x;1:|,1:|]", "B[y;1:|,1:|]",
                         "--alphabet", "x,y", "--semigroup", "cyclic:1000000000000")
        assert code == 2


def test_product_infers_the_kind_across_whitespace_after_the_head(capsys):
    # the grammar allows whitespace between the B or S head and its '['
    code, out, err = run(capsys, "product", "prec", "S [x;1:|,1:|]", "S [y;1:|,1:|]",
                         "--alphabet", "x,y", "--semigroup", "cyclic:2", "--omega", "0")
    assert (code, out, err) == (0, "1*S[x;1:|,0:S[y;1:|,1:|]]\n", "")
    code, out, err = run(capsys, "product", "dot", "B [x;1:|,1:|]", "B [y;1:|,1:|]",
                         "--alphabet", "x,y", "--semigroup", "cyclic:2")
    assert (code, out, err) == (2, "", "error: dot is defined on Schröder terms only\n")


def test_product_dot_rejects_omega(capsys):
    code, _, _ = run(capsys, "product", "dot", "--omega", "0",
                     "S[x;1:|,1:|]", "S[y;1:|,1:|]",
                     "--alphabet", "x,y", "--semigroup", "trivial")
    assert code == 2


def test_product_prec_requires_omega(capsys):
    code, _, _ = run(capsys, "product", "prec",
                     "B[x;1:|,1:|]", "B[y;1:|,1:|]",
                     "--alphabet", "x,y", "--semigroup", "trivial")
    assert code == 2


def test_product_identity_index_is_misuse(capsys):
    code, _, _ = run(capsys, "product", "prec", "--omega", "1",
                     "B[x;1:|,1:|]", "B[y;1:|,1:|]",
                     "--alphabet", "x,y", "--semigroup", "free:a")
    assert code == 3


def test_product_parse_and_typing_errors(capsys):
    code, _, _ = run(capsys, "product", "prec", "--omega", "a",
                     "B[x;a:|,1:|]", "B[y;1:|,1:|]",
                     "--alphabet", "x,y", "--semigroup", "free:a")
    assert code == 2
    code, _, _ = run(capsys, "product", "prec", "--omega", "a",
                     "B[q;1:|,1:|]", "B[y;1:|,1:|]",
                     "--alphabet", "x,y", "--semigroup", "free:a")
    assert code == 2


def test_product_on_too_deep_input_is_not_a_counterexample(capsys):
    comb = "B[x;1:|,1:|]"
    for _ in range(1199):
        comb = f"B[x;1:|,a:{comb}]"
    code, out, err = run(capsys, "product", "prec", "--omega", "a",
                         comb, "B[y;1:|,1:|]",
                         "--alphabet", "x,y", "--semigroup", "free:a")
    assert code == 4
    assert out == ""
    assert err.startswith("error: resources exhausted") and err.count("\n") == 1


@pytest.mark.parametrize("head,op", [("B", "prec"), ("S", "dot")])
def test_typing_error_under_a_deep_comb_is_a_parse_error(capsys, head, op):
    comb = f"{head}[x;1:|,1:|]"
    for _ in range(399):
        comb = f"{head}[x;1:|,a:{comb}]"
    omega = ["--omega", "a"] if op == "prec" else []
    code, out, err = run(capsys, "product", op, *omega, f"{head}[x;1:{comb},1:|]",
                         f"{head}[x;1:|,1:|]", "--alphabet", "x", "--semigroup", "free:a")
    edge = "left edge" if head == "B" else "edge"
    assert (code, out, err) == (2, "", f"error: {edge} 1 inconsistent with a vertex child\n")


def test_product_leaf_operands(capsys):
    code, out, _ = run(capsys, "product", "prec", "--omega", "0",
                       "B[x;1:|,1:|]", "|",
                       "--alphabet", "x", "--semigroup", "trivial")
    assert code == 0 and out.strip() == "1*B[x;1:|,1:|]"
    code, out, _ = run(capsys, "product", "prec", "--omega", "0",
                       "|", "B[x;1:|,1:|]",
                       "--alphabet", "x", "--semigroup", "trivial")
    assert code == 0 and out.strip() == "0"
    code, _, _ = run(capsys, "product", "prec", "--omega", "0", "|", "|",
                     "--alphabet", "x", "--semigroup", "trivial")
    assert code == 3


@pytest.mark.parametrize("argv, code, error", [
    (["prec", "B[x;1:|,1:|]", "|", "--semigroup", "free:a", "--omega", "b"], 2,
     "error: 'b' is not an element of the semigroup\n"),
    (["succ", "|", "B[x;1:|,1:|]", "--semigroup", "trivial", "--omega", "1"], 3,
     "error: the adjoined identity is not a family index\n"),
], ids=["foreign-index", "identity-index"])
def test_product_refuses_a_bad_index_next_to_a_leaf_operand(capsys, argv, code, error):
    # the leaf rules used to answer first, with the other operand or 0, and exit 0
    assert run(capsys, "product", *argv, "--alphabet", "x") == (code, "", error)


def test_product_span_operands(capsys):
    code, out, _ = run(capsys, "product", "succ", "--omega", "0",
                       "1*B[x;1:|,1:|] + 1*B[y;1:|,1:|]", "B[x;1:|,1:|]",
                       "--alphabet", "x,y", "--semigroup", "trivial")
    assert code == 0
    assert out.strip() == ("1*B[x;0:B[x;1:|,1:|],1:|]"
                           " + 1*B[x;0:B[y;1:|,1:|],1:|]")


# -- check ----------------------------------------------------------------------

def test_check_dendriform(capsys):
    code, out, _ = run(capsys, "check", "--suite", "dendriform",
                       "--alphabet", "x,y", "--semigroup", "cyclic:2",
                       "--max-leaves", "2")
    assert code == 0 and out.strip() == "instances=32 failures=0"


def test_check_tridendriform(capsys):
    code, out, _ = run(capsys, "check", "--suite", "tridendriform",
                       "--alphabet", "x,y", "--semigroup", "cyclic:2",
                       "--max-leaves", "2")
    assert code == 0 and out.strip() == "instances=32 failures=0"


def test_check_deterministic(capsys):
    args = ("check", "--suite", "dendriform", "--alphabet", "x,y",
            "--semigroup", "cyclic:2", "--max-leaves", "2")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_check_rb(capsys, rb_file):
    code, out, _ = run(capsys, "check", "--suite", "rb",
                       "--alphabet", "x", "--semigroup", "cyclic:2",
                       "--rb-file", rb_file, "--lambda", "1")
    assert code == 0 and out.strip() == "instances=36 failures=0"


def test_check_rb_counterexample(capsys, bad_rb_file):
    code, out, _ = run(capsys, "check", "--suite", "rb",
                       "--alphabet", "x", "--semigroup", "cyclic:2",
                       "--rb-file", bad_rb_file, "--lambda", "1")
    assert code == 1
    assert out.startswith("counterexample suite=rb")
    assert "alpha=" in out and "lhs=" in out


def test_check_tensor_rb(capsys, rb_file):
    code, out, _ = run(capsys, "check", "--suite", "tensor-rb",
                       "--alphabet", "x", "--semigroup", "cyclic:2",
                       "--rb-file", rb_file, "--lambda", "1")
    assert code == 0 and out.strip() == "instances=36 failures=0"


def test_check_diagram(capsys, rb_file):
    code, out, _ = run(capsys, "check", "--suite", "diagram",
                       "--alphabet", "x", "--semigroup", "cyclic:2",
                       "--rb-file", rb_file, "--lambda", "1")
    assert code == 0 and out.strip() == "instances=18 failures=0"


def test_check_tensor_families(capsys):
    code, out, _ = run(capsys, "check", "--suite", "tensor-dend",
                       "--alphabet", "x,y", "--semigroup", "cyclic:2",
                       "--max-leaves", "2")
    assert code == 0 and out.strip() == "instances=64 failures=0"
    code, out, _ = run(capsys, "check", "--suite", "tensor-tridend",
                       "--alphabet", "x,y", "--semigroup", "cyclic:2",
                       "--max-leaves", "2")
    assert code == 0 and out.strip() == "instances=64 failures=0"


def test_check_missing_rb_file(capsys):
    code, _, _ = run(capsys, "check", "--suite", "rb",
                     "--alphabet", "x", "--semigroup", "cyclic:2")
    assert code == 2


@pytest.mark.parametrize("suite", ["rb", "tensor-rb", "diagram"])
def test_check_rb_file_without_operators(capsys, tmp_path, suite):
    # a file with no operator leaves the Rota-Baxter suites nothing to check
    path = tmp_path / "no-op.txt"
    path.write_text("dim=2\nsc 0 0 0 1\nsc 1 1 1 1\n")
    code, out, err = run(capsys, "check", "--suite", suite,
                         "--alphabet", "x", "--semigroup", "cyclic:2", "--rb-file", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: algebra file declares no operators\n"


# -- extend --------------------------------------------------------------------------

def test_extend_generator_image(capsys, rb_file, map_file):
    code, out, _ = run(capsys, "extend", "--functor", "eta",
                       "--rb-file", rb_file, "--lambda", "1",
                       "--map-file", map_file, "B[x;1:|,1:|]",
                       "--alphabet", "x,y", "--semigroup", "cyclic:2")
    assert code == 0 and out.strip() == "1 0 0"


def test_extend_is_morphism_via_two_invocations(capsys, rb_file, map_file):
    # first invocation: the free product;  second: its image under extend
    code, product_text, _ = run(capsys, "product", "prec", "--omega", "1",
                                "B[x;1:|,1:|]", "B[y;1:|,1:|]",
                                "--alphabet", "x,y", "--semigroup", "cyclic:2")
    assert code == 0
    code, image_text, _ = run(capsys, "extend", "--functor", "eta",
                              "--rb-file", rb_file, "--lambda", "1",
                              "--map-file", map_file, product_text.strip(),
                              "--alphabet", "x,y", "--semigroup", "cyclic:2")
    assert code == 0
    rb = RBFamily(pointwise_algebra(3), Fraction(1),
                  {w: cascading_sum_matrix(3, Fraction(1)) for w in ("0", "1")})
    ops = EtaOps(rb)
    expected = ops.prec(rb.algebra.basis_vector(0), rb.algebra.basis_vector(1), "1")
    assert image_text.strip() == " ".join(str(c) for c in expected)


def test_extend_epsilon(capsys, rb_file, map_file):
    code, out, _ = run(capsys, "extend", "--functor", "epsilon",
                       "--rb-file", rb_file, "--lambda", "1",
                       "--map-file", map_file, "S[x,y;1:|,1:|,1:|]",
                       "--alphabet", "x,y", "--semigroup", "cyclic:2")
    assert code == 0
    rb = RBFamily(pointwise_algebra(3), Fraction(1),
                  {w: cascading_sum_matrix(3, Fraction(1)) for w in ("0", "1")})
    expected = rb.algebra.mul(rb.algebra.basis_vector(0), rb.algebra.basis_vector(1))
    assert out.strip() == " ".join(str(c) for c in expected)


def test_extend_epsilon_rejects_invalid_family(capsys, bad_rb_file, map_file):
    code, out, _ = run(capsys, "extend", "--functor", "epsilon",
                       "--rb-file", bad_rb_file, "--lambda", "1",
                       "--map-file", map_file, "S[x;1:|,1:|]",
                       "--alphabet", "x,y", "--semigroup", "cyclic:2")
    assert code == 1 and "axiom failure" in out
    assert "the supplied family is not Rota-Baxter" in out


def test_extend_malformed_map_file(capsys, rb_file, tmp_path):
    bad_map = tmp_path / "bad-map.txt"
    bad_map.write_text("x zero\n")
    code, _, _ = run(capsys, "extend", "--functor", "eta",
                     "--rb-file", rb_file, "--lambda", "1",
                     "--map-file", str(bad_map), "B[x;1:|,1:|]",
                     "--alphabet", "x,y", "--semigroup", "cyclic:2")
    assert code == 2


def test_extend_missing_generator_image(capsys, rb_file, tmp_path):
    partial = tmp_path / "partial.txt"
    partial.write_text("x 0\n")
    code, _, _ = run(capsys, "extend", "--functor", "eta",
                     "--rb-file", rb_file, "--lambda", "1",
                     "--map-file", str(partial), "B[x;1:|,1:|]",
                     "--alphabet", "x,y", "--semigroup", "cyclic:2")
    assert code == 2


# -- non-integer values, pinned byte for byte --------------------------------------------------

@pytest.mark.parametrize("suite", ["rb", "tensor-rb"])
def test_check_rb_weight_half(capsys, suite):
    code, out, _ = run(capsys, "check", "--suite", suite,
                       "--alphabet", "x", "--semigroup", "cyclic:2",
                       "--rb-file", RB_HALF, "--lambda", "1/2")
    assert (code, out) == (0, "instances=36 failures=0\n")


def test_check_rb_weight_half_counterexample(capsys, tmp_path):
    perturbed = tmp_path / "rb-half-bad.txt"
    text = Path(RB_HALF).read_text()
    perturbed.write_text(text.replace("op 0 -1/2 0 0 -1/2 -1/2", "op 0 -1/2 0 0 -1/2 -1/3"))
    code, out, _ = run(capsys, "check", "--suite", "rb",
                       "--alphabet", "x", "--semigroup", "cyclic:2",
                       "--rb-file", str(perturbed), "--lambda", "1/2")
    assert code == 1
    assert out == ("counterexample suite=rb alpha=0 beta=0 i=1 j=1 "
                   "lhs=0 1/9 1/4 rhs=0 1/18 1/12\n")


def test_check_tensor_rb_weight_half_counterexample(capsys, tmp_path):
    perturbed = tmp_path / "rb-half-bad.txt"
    text = Path(RB_HALF).read_text()
    perturbed.write_text(text.replace("op 0 -1/2 0 0", "op 0 -1/3 0 0"))
    code, out, _ = run(capsys, "check", "--suite", "tensor-rb",
                       "--alphabet", "x", "--semigroup", "cyclic:2",
                       "--rb-file", str(perturbed), "--lambda", "1/2")
    assert code == 1
    assert out == ("counterexample suite=tensor-rb alpha=0 beta=0 i=0 j=0 "
                   "lhs=1/9*e0(x)0 + 1/4*e1(x)0 + 1/4*e2(x)0 "
                   "rhs=1/18*e0(x)0 + 1/12*e1(x)0 + 1/12*e2(x)0\n")


@pytest.mark.parametrize("functor,term,image", [
    ("eta", "B[y;0:B[x;1:|,1:|],1:|]", "0 -1/2 0"),
    ("epsilon", "S[y,y;0:S[x,x;1:|,1:|,1:|],1:|,0:S[y;1:|,1:|]]", "0 1/16 0"),
])
def test_extend_weight_half(capsys, functor, term, image):
    code, out, _ = run(capsys, "extend", "--functor", functor,
                       "--rb-file", RB_HALF, "--lambda", "1/2",
                       "--map-file", MAP_HALF, term,
                       "--alphabet", "x,y", "--semigroup", "cyclic:2")
    assert (code, out) == (0, image + "\n")


@pytest.mark.parametrize("command", ["check", "extend"])
def test_repeated_dim_is_a_config_error(capsys, tmp_path, command):
    # the operators are 3x3 but the last dim= says 2
    redeclared = tmp_path / "rb-redim.txt"
    redeclared.write_text(RB_K3 + "dim=2\n")
    map_path = tmp_path / "map.txt"
    map_path.write_text(MAP_XY)
    common = ("--alphabet", "x,y", "--semigroup", "cyclic:2",
              "--rb-file", str(redeclared), "--lambda", "1")
    if command == "check":
        code, out, err = run(capsys, "check", "--suite", "rb", *common)
    else:
        code, out, err = run(capsys, "extend", "--functor", "eta", *common,
                             "--map-file", str(map_path), "B[x;1:|,1:|]")
    assert code == 2 and out == ""
    assert "dim=" in err


def test_repeated_operator_is_a_config_error(capsys, tmp_path):
    # without the second op line, 5 is reported as a counterexample
    redeclared = tmp_path / "rb-reop.txt"
    redeclared.write_text("dim=1\nsc 0 0 0 1\nop 0 5\nop 0 -1\n")
    code, out, err = run(capsys, "check", "--suite", "rb", "--alphabet", "x",
                         "--semigroup", "cyclic:2", "--rb-file", str(redeclared))
    assert code == 2 and out == ""
    assert "declared only once" in err


@pytest.mark.parametrize("suite", ["rb", "tensor-rb", "diagram"])
def test_operator_index_outside_the_semigroup_is_a_config_error(capsys, tmp_path, suite):
    path = tmp_path / "rb-index.txt"
    path.write_text("dim=1\nsc 0 0 0 1\nop 2 -1\n")
    code, out, err = run(capsys, "check", "--suite", suite, "--alphabet", "x",
                         "--semigroup", "cyclic:2", "--rb-file", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: line 3: '2' is not an element of the semigroup\n"


def test_repeated_generator_image_is_a_config_error(capsys, tmp_path):
    # without the check, the later `x 2` silently replaced `x 0`
    redeclared = tmp_path / "map-rex.txt"
    redeclared.write_text("x 0\ny 1\nx 2\n")
    code, out, err = run(capsys, "extend", "--functor", "eta", "--alphabet", "x,y",
                         "--semigroup", "cyclic:2", "--rb-file", RB_HALF,
                         "--lambda", "1/2", "--map-file", str(redeclared),
                         "B[x;1:|,0:B[y;1:|,1:|]]")
    assert code == 2 and out == ""
    assert "declared only once" in err


@pytest.mark.parametrize("algebra, images, field", [
    (RB_K3, "x 0\ny one\n", "line 2: basis index"),
    (RB_K3.replace("sc 1 1 1 1", "sc 0 x 0 1"), MAP_XY, "line 3: sc j"),
    (RB_K3.replace("dim=3", "dim=two"), MAP_XY, "line 1: dim="),
])
def test_a_non_numeral_integer_field_is_refused_naming_its_line(capsys, tmp_path, algebra,
                                                                 images, field):
    # each refusal names the file, the field and its line, for the algebra file and the map file
    rb, map_file = tmp_path / "rb.txt", tmp_path / "map.txt"
    rb.write_text(algebra)
    map_file.write_text(images)
    code, out, err = run(capsys, "extend", "--functor", "eta", "--alphabet", "x,y",
                         "--semigroup", "cyclic:2", "--rb-file", str(rb), "--lambda", "1",
                         "--map-file", str(map_file), "B[x;1:|,1:|]")
    named = rb if algebra != RB_K3 else map_file
    assert (code, out, err) == (2, "", f"error: {named}: {field} must be an integer\n")


def test_operator_length_refusal_never_formats_dim_squared(capsys, tmp_path):
    # dim^2 of a dim with more than half the int-to-str limit's digits is past the limit
    nines = "9" * (DIGITS // 2 + 1)
    path = tmp_path / "rb-huge.txt"
    path.write_text(f"dim={nines}\nsc 0 0 0 1\nop 0 -1\n")
    code, out, err = run(capsys, "check", "--suite", "rb", "--alphabet", "x",
                         "--semigroup", "cyclic:2", "--rb-file", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: line 3: operator for '0' needs {nines}x{nines} entries, got 1\n"


@pytest.mark.parametrize("name, text, error", [
    ("sg.cfg", b"kind=ring\n", "unknown semigroup kind: 'ring'"),
    ("rb.txt", b"dim=1\nsc 0 0 0 1\nop 0 -1\nbogus\n", "line 4: unrecognised line in algebra file"),
    ("map.txt", b"x 0\ny\n", "line 2: bad map line"),
    ("map.txt", b"x 0\n\xff\n", "'utf-8' codec can't decode byte 0xff in position 4: "
                                  "invalid start byte"),
], ids=["semigroup-config", "algebra", "map", "map-bytes"])
def test_every_file_refusal_names_its_file(capsys, tmp_path, name, text, error):
    # a refusal used to name the line at best; with several files, the file was a guess
    path = tmp_path / name
    path.write_bytes(text)
    files = {"sg.cfg": "cyclic:2", "rb.txt": RB_HALF, "map.txt": MAP_HALF, name: str(path)}
    code, out, err = run(capsys, "extend", "--functor", "eta", "--alphabet", "x,y",
                         "--semigroup", files["sg.cfg"], "--rb-file", files["rb.txt"],
                         "--lambda", "1/2", "--map-file", files["map.txt"], "B[x;1:|,1:|]")
    assert (code, out, err) == (2, "", f"error: {path}: {error}\n")


@pytest.mark.parametrize("argv, config, error", [
    (("--semigroup", "cyclic:abc"), None, "cyclic:<n> must be an integer"),
    (("--semigroup", "cyclic:" + "9" * 5000), None, f"cyclic:<n> has more than {DIGITS} digits"),
    ((), "kind=cyclic\norder=abc\n", "line 2: order= must be an integer"),
    ((), "kind=cyclic\norder=" + "9" * 5000 + "\n",
     f"line 2: order= has more than {DIGITS} digits"),
], ids=["option-word", "option-long", "config-word", "config-long"])
def test_a_cyclic_order_is_read_as_a_numeral_or_refused_naming_its_field(capsys, tmp_path, argv,
                                                                         config, error):
    # the option used to pass int()'s own message through, and the config file called a
    # numeral past the int-to-str limit no integer
    if config is not None:
        cfg = tmp_path / "sg.cfg"
        cfg.write_text(config)
        argv, error = ("--semigroup", str(cfg)), f"{cfg}: {error}"
    assert run(capsys, "enumerate", "binary", "1", "--alphabet", "x", *argv) == (
        2, "", f"error: {error}\n")


RB_ONE = "dim=1\nsc 0 0 0 1\nop 0 -1\nop 1 -1\n"
ENUMERATE = ("enumerate", "binary", "1", "--alphabet", "x", "--semigroup")
CHECK_RB = ("check", "--suite", "rb", "--alphabet", "x", "--semigroup", "cyclic:2",
            "--rb-file", "rb.txt")
EXTEND = ("extend", "--functor", "eta", "--alphabet", "x", "--semigroup", "cyclic:2",
          "--rb-file", "rb.txt", "--map-file", "map.txt", "B[x;1:|,1:|]")
PRODUCT = ("product", "prec", "B[x;1:|,1:|]", "--alphabet", "x", "--semigroup", "cyclic:2",
           "--omega", "0")
# site -> (the command line, the file that holds the numeral and its text, or None, and the
# field that the refusal names, with what it must be); "{}" is where the numeral goes
NUMERAL_SITES = {
    "cyclic": (ENUMERATE + ("cyclic:{}",), None, "cyclic:<n> must be an integer"),
    "order": (ENUMERATE + ("sg.cfg",), ("sg.cfg", "kind=cyclic\norder={}\n"),
              "line 2: order= must be an integer"),
    "dim": (CHECK_RB, ("rb.txt", "dim={}\nsc 0 0 0 1\nop 0 -1\nop 1 -1\n"),
            "line 1: dim= must be an integer"),
    "sc-index": (CHECK_RB, ("rb.txt", "dim=1\nsc 0 {} 0 1\nop 0 -1\nop 1 -1\n"),
                 "line 2: sc j must be an integer"),
    "sc-coefficient": (CHECK_RB, ("rb.txt", "dim=1\nsc 0 0 0 {}\nop 0 -1\nop 1 -1\n"),
                       "line 2: sc coefficient must be a rational"),
    "op-entry": (CHECK_RB, ("rb.txt", "dim=1\nsc 0 0 0 1\nop 0 {}\nop 1 -1\n"),
                 "line 3: op entry must be a rational"),
    "map-index": (EXTEND, ("map.txt", "x {}\n"), "line 1: basis index must be an integer"),
    "lambda": (CHECK_RB + ("--lambda", "{}"), None, "--lambda must be a rational"),
    "numerator": (PRODUCT + ("{}*B[x;1:|,1:|]",), None,
                  "coefficient must be a rational (line 1, column 1)"),
    "denominator": (PRODUCT + ("1/{}*B[x;1:|,1:|]",), None,
                    "coefficient must be a rational (line 1, column 1)"),
}


@pytest.mark.parametrize("numeral", ["\u0663", "1_0", "long"],
                         ids=["arabic-indic", "underscore", "past-the-limit"])
@pytest.mark.parametrize("site", list(NUMERAL_SITES))
def test_every_numeral_site_refuses_the_same_numerals_naming_its_field(capsys, tmp_path, site,
                                                                      numeral):
    # one reader: int() and Fraction() took a non-ASCII digit and '_' in the files and in
    # --lambda, and a numeral past the int-to-str limit got Python's own message or an echo
    argv, holder, error = NUMERAL_SITES[site]
    if numeral == "long":
        numeral = "9" * (DIGITS + 1)
        error = re.sub(r"must be an? \w+", f"has more than {DIGITS} digits", error)
    elif numeral == "\u0663" and "column" in error:  # a character that no term token has
        column = 3 if site == "denominator" else 1
        error = f"unexpected character '\u0663' (line 1, column {column})"
    files = {"rb.txt": RB_ONE, "map.txt": "x 0\n"}
    if holder is not None:
        files[holder[0]] = holder[1].format(numeral)
        error = f"{tmp_path / holder[0]}: {error}"
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / a) if a in files else a.format(numeral) for a in argv]
    assert run(capsys, *argv) == (2, "", f"error: {error}\n")


# N with three quarters of the limit's digits: N and -N are read, N^2 cannot be printed
N = "9" * (DIGITS * 3 // 4)


@pytest.mark.parametrize("argv", [
    ("product", "prec", f"{N}*B[x;1:|,1:|]", f"{N}*B[x;1:|,1:|]", "--semigroup", "trivial",
     "--omega", "0"),
    ("extend", "--functor", "eta", "B[y;0:B[x;0:B[x;1:|,1:|],1:|],1:|]", "--semigroup",
     "cyclic:2", "--rb-file", "rb.txt", "--map-file", "map.txt", "--lambda", N),
    ("check", "--suite", "rb", "--semigroup", "cyclic:2", "--rb-file", "rb.txt"),
    ("check", "--suite", "tensor-rb", "--semigroup", "cyclic:2", "--rb-file", "rb.txt"),
], ids=["product", "extend", "rb-counterexample", "tensor-rb-counterexample"])
def test_a_result_number_past_the_int_to_str_limit_is_refused_unprinted(capsys, tmp_path, argv):
    # N^2 is a coefficient of the product, a coordinate of the extend vector (P = -N at
    # weight N on k^1) and the left side of the counterexample (weight 1); each exited 2
    # with Python's advice to call sys.set_int_max_str_digits(), after the work was done
    (tmp_path / "rb.txt").write_text(f"dim=1\nsc 0 0 0 1\nop 0 -{N}\nop 1 -{N}\n")
    (tmp_path / "map.txt").write_text("x 0\ny 0\n")
    argv = [str(tmp_path / a) if a in ("rb.txt", "map.txt") else a for a in argv]
    assert run(capsys, *argv, "--alphabet", "x,y") == (
        4, "", f"error: resources exhausted (a result number has more than {DIGITS} digits)\n")


TERM = ("product", "prec", "--alphabet", "x", "--semigroup", "cyclic:2", "--omega", "0")
TREE = "B[x;1:|,1:|]"
# site -> (the command line, the file that holds the text and its contents, or None, the
# refused piece of text, and the refusal); "{}" is where the text goes, and the refusal
# shows the piece in "{}" (a file refusal names its line instead); the text is nines, so
# the algebra file's sc line is out of range before its coefficient is read
TEXT_SITES = {
    "term-word": (TERM + ("B[{};1:|,1:|]", TREE), None, "{}",
                  "undeclared decoration symbol {} (line 1, column 3)"),
    "edge-token": (TERM + ("B[x;{}:|,1:|]", TREE), None, "{}",
                   "undeclared semigroup element {} (line 1, column 5)"),
    "trailing-word": (TERM + (TREE + " {}", TREE), None, "{}",
                      "unexpected trailing input, found {} (line 1, column 14)"),
    "omega": (TERM[:-1] + ("{}", TREE, TREE), None, "{}",
              "{} is not an element of the semigroup"),
    "alphabet-symbol": (ENUMERATE[:-2] + ("{}-", "--semigroup", "cyclic:2"), None, "{}-",
                        "bad decoration symbol: {}"),
    "free-generator": (ENUMERATE + ("free:{}-", "--max-word", "1"), None, "{}-",
                       "bad element token: {}"),
    "sc-line": (CHECK_RB, ("rb.txt", "dim=1\nsc 0 5 0 {}\nop 0 -1\nop 1 -1\n"), None,
                "line 2: basis index out of range"),
    "algebra-line": (CHECK_RB, ("rb.txt", RB_ONE + "{}\n"), None,
                     "line 5: unrecognised line in algebra file"),
    "op-index": (CHECK_RB, ("rb.txt", RB_ONE + "op {} -1\n"), "{}",
                 "line 5: {} is not an element of the semigroup"),
    "map-line": (EXTEND, ("map.txt", "x 0 {}\n"), None, "line 1: bad map line"),
    "missing-image": (EXTEND[:4] + ("x,y{}",) + EXTEND[5:], None, "y{}",
                      "map file has no image for 1 of 2 generators, first {}"),
    "config-line": (ENUMERATE + ("sg.cfg",), ("sg.cfg", "kind=cyclic\norder=2\n{}\n"), None,
                    "line 3: unrecognised line in semigroup config"),
    "table-row": (ENUMERATE + ("sg.cfg",), ("sg.cfg", "kind=table\n,e\ne,e\n{},e\n"), None,
                  "line 4: unexpected table row"),
}


@pytest.mark.parametrize("size", [4, 10_000])
@pytest.mark.parametrize("site", list(TEXT_SITES))
def test_every_refusal_of_outside_text_shows_it_bounded(capsys, tmp_path, site, size):
    # each refusal echoed the text whole, so an input of 10,000 characters wrote over 10,000
    # bytes of stderr; a short piece is shown as before, and a file line is named by number
    argv, holder, piece, error = TEXT_SITES[site]
    text = "9" * size
    if piece is not None:
        piece = piece.format(text)
        error = error.format(repr(piece) if size == 4 else f"a string of {len(piece)} characters")
    files = {"rb.txt": RB_ONE, "map.txt": "x 0\n"}
    prefix = ""
    if holder is not None:
        files[holder[0]] = holder[1].format(text)
        prefix = f"{tmp_path / holder[0]}: "
    for name, contents in files.items():
        (tmp_path / name).write_text(contents)
    argv = [str(tmp_path / a) if a in files else a.format(text) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {prefix}{error}\n")
    assert len(err.encode()) <= 200 + len(prefix)


def test_an_operator_index_is_refused_at_its_line_before_later_lines(capsys, tmp_path):
    # the index was checked after the whole file was read, and its refusal named no file
    path = tmp_path / "rb.txt"
    path.write_text("dim=1\nsc 0 0 0 1\nop q -1\nbogus\n")
    assert run(capsys, *CHECK_RB[:-1], str(path)) == (
        2, "", f"error: {path}: line 3: 'q' is not an element of the semigroup\n")


@pytest.mark.parametrize("argv, code, error", [
    (("check", "--suite", "rb", "--alphabet", "x", "--semigroup", "cyclic:2", "--rb-file",
      "rb.txt"), 2, "operator sample is not product-closed: 1*1 = 0 has no declared operator"),
    (("check", "--suite", "dendriform", "--alphabet", "x", "--semigroup", "cyclic:2",
      "--max-leaves", "1"), 2, "--max-leaves must be at least 2"),
    (("extend", "--functor", "eta", "|", "--alphabet", "x", "--semigroup", "cyclic:2",
      "--rb-file", RB_HALF, "--lambda", "1/2", "--map-file", "map.txt"), 3,
     "the leaf has no image under the universal morphism"),
    (("enumerate", "binary", "1", "--alphabet", ",", "--semigroup", "cyclic:2"), 2,
     "alphabet must be nonempty"),
    (("enumerate", "binary", "1", "--alphabet", "x,x", "--semigroup", "cyclic:2"), 2,
     "alphabet symbols must be distinct"),
    (("enumerate", "binary", "1", "--alphabet", "x", "--semigroup", "free:"), 2,
     "free semigroup needs distinct nonempty generators"),
    (("enumerate", "binary", "1", "--alphabet", "x", "--semigroup", "free:a,a"), 2,
     "free semigroup needs distinct nonempty generators"),
    (("enumerate", "binary", "1", "--alphabet", "x", "--semigroup", "free:a,aa",
      "--max-word", "1"), 2,
     "free generators are not uniquely decodable: some word is a product of generators in two "
     "ways"),
], ids=["sample-not-closed", "max-leaves", "extend-leaf", "empty-alphabet", "repeated-symbol",
        "no-generators", "repeated-generator", "ambiguous-generators"])
def test_command_refusals_exit_with_their_exact_message(capsys, tmp_path, argv, code, error):
    # the operator for 1 alone: 1*1 = 0 in cyclic:2 has none
    (tmp_path / "rb.txt").write_text("dim=1\nsc 0 0 0 1\nop 1 -1\n")
    (tmp_path / "map.txt").write_text("x 0\n")
    argv = [str(tmp_path / a) if a in ("rb.txt", "map.txt") else a for a in argv]
    assert run(capsys, *argv) == (code, "", f"error: {error}\n")


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize("command", [
    ("check", "--suite", "dendriform", "--max-leaves", "3"),
    ("check", "--suite", "tensor-dend", "--max-leaves", "3"),
    ("enumerate", "binary", "2"),
])
def test_word_bound_below_one_is_a_config_error(capsys, command, bound):
    # a bound below 1 left no semigroup element, so every sweep passed vacuously
    code, out, err = run(capsys, *command, "--alphabet", "x", "--semigroup", "free:a",
                         "--max-word", bound)
    assert code == 2 and out == ""
    assert "word-length bound" in err


def _comb(n, side):
    """A right (side 1) or left (side 0) comb of n vertices over x,y and cyclic:2."""
    tree = "|"
    for i in range(n):
        edge = "1" if tree == "|" else str(i % 2)
        branches = ("1:|", f"{edge}:{tree}")[::1 if side else -1]
        tree = f"B[{'xy'[i % 2]};{branches[0]},{branches[1]}]"
    return tree


@pytest.mark.parametrize("argv", [
    ("product", "prec", "--omega", "1", _comb(12, 1), _comb(3, 0)),
    ("enumerate", "schroder", "3"),
])
def test_output_does_not_depend_on_hash_values(capsys, argv):
    # trees hash by identity, i.e. by memory address, and tokens by the hash
    # seed: neither may reach the printed order
    argv = argv + ("--alphabet", "x,y", "--semigroup", "cyclic:2")
    code, expected, _ = run(capsys, *argv)
    assert code == 0 and len(expected.split()) > 200
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "dendrifam", *argv], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout == expected


@pytest.mark.parametrize("alphabet", ["x y", "x,+", "é", "x,y/2"])
@pytest.mark.parametrize("command", [
    ("enumerate", "binary", "1"),
    ("product", "prec", "--omega", "0", "B[x;1:|,1:|]", "B[x;1:|,1:|]"),
])
def test_alphabet_outside_the_token_rule_is_a_config_error(capsys, command, alphabet):
    # such a symbol printed a tree that the term grammar could not read back
    code, out, err = run(capsys, *command, "--alphabet", alphabet, "--semigroup", "cyclic:2")
    assert code == 2 and out == ""
    assert "bad decoration symbol" in err


# -- Rota-Baxter failures, pinned byte for byte -------------------------------------------

def test_check_diagram_counterexample_line(capsys, bad_rb_file):
    code, out, _ = run(capsys, "check", "--suite", "diagram",
                       "--alphabet", "x", "--semigroup", "cyclic:2",
                       "--rb-file", bad_rb_file, "--lambda", "1")
    assert (code, out) == (1, "counterexample suite=diagram alpha=0 beta=0 i=0 j=1 "
                              "reason=not-a-Rota-Baxter-family\n")


def test_check_diagram_op_counterexample_line(capsys, monkeypatch):
    # gamma's prec without the dot: gamma . epsilon differs from eta at prec
    monkeypatch.setattr(tridendriform.GammaOps, "prec",
                        lambda self, a, b, omega: self.tri.prec(a, b, omega))
    code, out, _ = run(capsys, "check", "--suite", "diagram",
                       "--alphabet", "x", "--semigroup", "cyclic:2",
                       "--rb-file", RB_HALF, "--lambda", "1/2")
    assert (code, out) == (1, "counterexample suite=diagram op=prec i=0 j=0 omega=0 "
                              "gamma.epsilon=-1/2 0 0 eta=0 0 0\n")


def test_extend_eta_rejects_invalid_family_line(capsys, bad_rb_file, map_file):
    code, out, _ = run(capsys, "extend", "--functor", "eta",
                       "--rb-file", bad_rb_file, "--lambda", "1",
                       "--map-file", map_file, "B[x;1:|,1:|]",
                       "--alphabet", "x,y", "--semigroup", "cyclic:2")
    assert (code, out) == (1, "axiom failure: the supplied family is not Rota-Baxter\n")


def test_check_tensor_rb_counterexample_line(capsys, bad_rb_file):
    code, out, _ = run(capsys, "check", "--suite", "tensor-rb",
                       "--alphabet", "x", "--semigroup", "cyclic:2",
                       "--rb-file", bad_rb_file, "--lambda", "1")
    assert (code, out) == (1, "counterexample suite=tensor-rb alpha=0 beta=0 i=0 j=1 "
                              "lhs=-1*e0(x)0 + 1*e1(x)0 + 1*e2(x)0 rhs=-2*e0(x)0\n")


RB_K3_NOT_ASSOCIATIVE = RB_K3.replace("sc 2 2 2 1\n", "sc 2 2 2 1\nsc 1 2 0 1\n")


@pytest.mark.parametrize("argv", [
    ["check", "--suite", "rb", "--alphabet", "x"],
    ["check", "--suite", "tensor-rb", "--alphabet", "x"],
    ["check", "--suite", "diagram", "--alphabet", "x"],
    ["extend", "--functor", "eta", "B[x;1:|,1:|]", "--alphabet", "x,y"],
    ["extend", "--functor", "epsilon", "S[x;1:|,1:|]", "--alphabet", "x,y"],
], ids=["rb", "tensor-rb", "diagram", "extend-eta", "extend-epsilon"])
def test_non_associative_algebra_file_line(capsys, tmp_path, map_file, argv):
    # e1 e2 = e0 on k^3: (e0 e1) e2 = 0 but e0 (e1 e2) = e0, the least failing triple
    path = tmp_path / "rb-not-associative.txt"
    path.write_text(RB_K3_NOT_ASSOCIATIVE)
    extra = ["--map-file", map_file] if argv[0] == "extend" else []
    code, out, _ = run(capsys, *argv, "--semigroup", "cyclic:2", "--rb-file", str(path), *extra)
    assert (code, out) == (1, "axiom failure: structure constants are not associative "
                              "at basis triple (0, 1, 2)\n")


VALID_ALGEBRAS = [RB_K3, (DATA / "rb_weight_half.txt").read_text(), RB_K3_PERTURBED,
                  RB_K3_NOT_ASSOCIATIVE, "dim=1\nsc 0 0 0 1\nop 0 -1\nop 1 -1\n",
                  "dim=2\nsc 0 0 0 1\nsc 1 1 1 1\n"]
HUGE = st.one_of(st.integers(1, 20), st.integers(DIGITS - 10, DIGITS + 10))  # also past the limit


@st.composite
def edited_algebras(draw):
    # one sc or op line with a zero denominator, an entry too few or too many, repeated, or
    # with one numeral of many digits, also past the limit
    lines = draw(st.sampled_from(VALID_ALGEBRAS)).splitlines()
    i = draw(st.sampled_from([i for i, ln in enumerate(lines) if ln[:3] in ("sc ", "op ")]))
    edit = draw(st.sampled_from(["zero", "short", "long", "repeat", "huge"]))
    if edit == "repeat":
        lines.insert(i, lines[i])
    elif edit == "huge":
        parts = lines[i].split()
        parts[draw(st.integers(1 if parts[0] == "sc" else 2, len(parts) - 1))] = (
            draw(st.sampled_from(["", "-", "1/"])) + "9" * draw(HUGE))
        lines[i] = " ".join(parts)
    else:
        head, _, last = lines[i].rpartition(" ")
        lines[i] = {"zero": f"{head} {draw(st.integers(-2, 2))}/0", "short": head,
                    "long": f"{lines[i]} {last}"}[edit]
    return "\n".join(lines) + "\n"


ALGEBRA_FILES = st.one_of(
    st.one_of(st.sampled_from(VALID_ALGEBRAS), mutated_configs(VALID_ALGEBRAS),
              edited_algebras()).map(str.encode),
    st.builds(lambda n: f"dim={'9' * n}\nsc 0 0 0 1\nop 0 -1\nop 1 -1\n".encode(), HUGE),
    st.builds(lambda text, tail: text.encode() + b"\xff" + tail,
              st.sampled_from(VALID_ALGEBRAS), st.binary(max_size=8)),
)
MAP_FILES = st.one_of(  # missing, repeated, out-of-range and extra symbols among the bad ones
    st.one_of(st.just(MAP_XY), mutated_configs([MAP_XY]),
              st.sampled_from(["x 0\n", "x 0\ny 1\nx 2\n", "x 0\ny 3\n", "x -1\ny 0\n",
                               "x 0\ny 1\nz 2\n", "", "x\ny 1\n"])).map(str.encode),
    st.builds(lambda tail: MAP_XY.encode() + b"\xff" + tail, st.binary(max_size=8)),
    st.builds(lambda n: f"x 0\ny {'9' * n}\n".encode(), HUGE),
)
WEIGHTS = st.one_of(
    st.sampled_from(["1", "1/2"]), st.sampled_from(["-3/6", "0", "1/0", "1/3"]),
    st.builds(lambda head, n: head + "3" * n, st.sampled_from(["", "-", "1/"]), HUGE),
)
COMMANDS = st.sampled_from([
    ["check", "--suite", "rb", "--alphabet", "x"],
    ["check", "--suite", "tensor-rb", "--alphabet", "x"],
    ["check", "--suite", "diagram", "--alphabet", "x"],
    ["extend", "--functor", "eta", "B[y;0:B[x;1:|,1:|],1:|]", "--alphabet", "x,y"],
    ["extend", "--functor", "epsilon", "S[y;0:S[x;1:|,1:|],1:|]", "--alphabet", "x,y"],
])


@settings(max_examples=150, deadline=2000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=COMMANDS, algebra=ALGEBRA_FILES, images=MAP_FILES, weight=WEIGHTS,
       joined=st.booleans())
def test_algebra_and_map_files_are_read_or_refused_cleanly(capsys, tmp_path, command,
                                                          algebra, images, weight, joined):
    # every example rewrites the two files; a file of dim at most 3 is all that is drawn,
    # so a mutated dim= never meets an operator line of dim^2 entries above 3
    rb, map_file = tmp_path / "rb.txt", tmp_path / "map.txt"
    rb.write_bytes(algebra)
    map_file.write_bytes(images)
    extra = ["--map-file", str(map_file)] if command[0] == "extend" else []
    code, out, err = run(capsys, *command, "--semigroup", "cyclic:2", "--rb-file", str(rb),
                         *([f"--lambda={weight}"] if joined else ["--lambda", weight]), *extra)
    assert code in (0, 1, 2, 3, 4) and "Traceback" not in out + err
    assert "set_int_max_str_digits" not in err
    if code == 1:
        assert out.startswith(("counterexample suite=", "axiom failure: "))
        assert out.count("\n") == 1
    elif code in (2, 3):
        assert out == "" and err.startswith("error: ") and err.endswith("\n")
        assert err.count("\n") == 1
    elif code == 4:  # a result with a number too long to print: never printed
        assert out == "" and err == ("error: resources exhausted (a result number has more "
                                     f"than {DIGITS} digits)\n")


# cascading-sum families on k^3 of weight -1/2 and, checked at -1/2 to fail, of weight -1/4
RB_K3_NEGATIVE_HALF, RB_K3_NEGATIVE_QUARTER = RB_K3.replace("-1", "1/2"), RB_K3.replace("-1", "1/4")


@pytest.mark.parametrize("text, argv, expected", [
    (RB_K3_NEGATIVE_HALF, ["check", "--suite", "rb", "--alphabet", "x"],
     (0, "instances=36 failures=0\n")),
    (RB_K3_NEGATIVE_HALF, ["check", "--suite", "diagram", "--alphabet", "x"],
     (0, "instances=18 failures=0\n")),
    (RB_K3_NEGATIVE_HALF, ["extend", "--functor", "eta", "B[y;0:B[x;1:|,1:|],1:|]",
                           "--alphabet", "x,y"], (0, "0 1/2 0\n")),
    (RB_K3_NEGATIVE_QUARTER, ["check", "--suite", "rb", "--alphabet", "x"],
     (1, "counterexample suite=rb alpha=0 beta=0 i=0 j=0 lhs=1/16 1/16 1/16 rhs=0 0 0\n")),
], ids=["rb", "diagram", "extend", "counterexample"])
@pytest.mark.parametrize("spelling", [["--lambda", "-3/6"], ["--lambda=-3/6"], ["--lam", "-3/6"]],
                         ids=["separate", "joined", "abbreviated"])
def test_negative_fractional_weight_in_both_spellings(capsys, tmp_path, map_file, text, argv,
                                                      expected, spelling):
    # argparse took '-3/6' after --lambda for an option and exited 2
    path = tmp_path / "rb-negative-weight.txt"
    path.write_text(text)
    extra = ["--map-file", map_file] if argv[0] == "extend" else []
    code, out, _ = run(capsys, *argv, "--semigroup", "cyclic:2", "--rb-file", str(path),
                       *spelling, *extra)
    assert (code, out) == expected


# -- axiom failures, pinned byte for byte --------------------------------------------------

_SWAPPED_AXIOM_LINES = {
    "dendriform": "counterexample suite=dendriform axiom=ddf1 T=B[x;1:|,1:|] U=B[x;1:|,1:|] "
                  "W=B[x;1:|,1:|] alpha=a beta=b residual=-1*B[x;1:|,ab:B[x;1:|,b:B[x;1:|,1:|]]] "
                  "+ -1*B[x;1:|,ab:B[x;a:B[x;1:|,1:|],1:|]] + 1*B[x;1:|,ba:B[x;1:|,b:B[x;1:|,1:|]]] "
                  "+ 1*B[x;1:|,ba:B[x;a:B[x;1:|,1:|],1:|]]\n",
    "tridendriform": "counterexample suite=tridendriform axiom=tdf1 T=S[x;1:|,1:|] U=S[x;1:|,1:|] "
                     "W=S[x;1:|,1:|] alpha=a beta=b "
                     "residual=-1*S[x;1:|,ab:S[x;1:|,b:S[x;1:|,1:|]]] "
                     "+ -1*S[x;1:|,ab:S[x;a:S[x;1:|,1:|],1:|]] + -1*S[x;1:|,ab:S[x,x;1:|,1:|,1:|]] "
                     "+ 1*S[x;1:|,ba:S[x;1:|,b:S[x;1:|,1:|]]] "
                     "+ 1*S[x;1:|,ba:S[x;a:S[x;1:|,1:|],1:|]] + 1*S[x;1:|,ba:S[x,x;1:|,1:|,1:|]]\n",
    "tensor-dend": "counterexample suite=tensor-dend axiom=dd1 x=B[x;1:|,1:|](x)a "
                   "y=B[x;1:|,1:|](x)a z=B[x;1:|,1:|](x)b\n",
    "tensor-tridend": "counterexample suite=tensor-tridend axiom=td1 x=S[x;1:|,1:|](x)a "
                      "y=S[x;1:|,1:|](x)a z=S[x;1:|,1:|](x)b\n",
}


@pytest.mark.parametrize("suite", list(_SWAPPED_AXIOM_LINES))
def test_axiom_counterexample_line(capsys, monkeypatch, suite):
    # edge types multiplied in the wrong order break axiom 1 over a free semigroup
    mul_ext = Semigroup.mul_ext
    monkeypatch.setattr(Semigroup, "mul_ext", lambda self, a, b: mul_ext(self, b, a))
    code, out, _ = run(capsys, "check", "--suite", suite, "--alphabet", "x",
                       "--semigroup", "free:a,b", "--max-word", "1", "--max-leaves", "3")
    assert (code, out) == (1, _SWAPPED_AXIOM_LINES[suite])
