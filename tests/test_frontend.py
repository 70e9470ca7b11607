import argparse
import contextlib
import hashlib
import io
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqhom
from eqhom import cli, collapse, homology, morse
from eqhom.cli import _parser, cell_json, cli_dispatch, emit_json
from eqhom.chains import enumerate_chains
from eqhom.homology import inequality_report
from eqhom.monoid import Srs, render_word
from eqhom.parser import (
    ParseError,
    parse_presentation,
    parse_srs,
    print_presentation,
)
from eqhom.terms import Var

from conftest import DATA

ABELIAN = """\
sorts X
op plus : X X -> X
op zero : -> X
var x : X
rule r1 : plus(x, zero) -> x
rule r2 : plus(zero, x) -> x
"""


def test_parse_abelian_counts():
    trs = parse_presentation(ABELIAN)
    assert len(trs.signature.sorts) == 1
    assert len(trs.signature.ops) == 2
    assert len(trs.rules) == 2


def test_parse_rejects_variable_lhs():
    text = ABELIAN + "rule bad : x -> x\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert err.value.kind == "variable-on-lhs-root"


def test_parse_rejects_free_rhs_variable():
    text = """\
sorts X
op f : X -> X
op g : X -> X
var x : X
var y : X
rule bad : f(x) -> g(y)
"""
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert err.value.kind == "rhs-variable-not-in-lhs"


def test_parse_error_kinds():
    with pytest.raises(ParseError) as err:
        parse_presentation("sorts X\nop f : X -> Y\n")
    assert err.value.kind == "undeclared-name"
    with pytest.raises(ParseError) as err:
        parse_presentation("sorts X\nop f : X -> X\nvar x : X\nrule r : f(x -> x\n")
    assert err.value.kind == "syntax-error"
    with pytest.raises(ParseError) as err:
        parse_presentation("flub X\n")
    assert err.value.kind == "syntax-error"


@pytest.mark.parametrize("rule, message", [
    ("rule r : f(x) -> f(,x)", "syntax-error at line 4:20: expected identifier, found ',x)'"),
    ("   rule r :    f(q) -> x", "undeclared-name at line 4:18: unknown name 'q'"),
    ("rule r : f(x x) -> x", "syntax-error at line 4:14: expected ')'"),
])
def test_a_term_error_names_the_column_of_its_token_in_the_source_line(rule, message):
    with pytest.raises(ParseError) as err:
        parse_presentation(f"sorts X\nop f : X -> X\nvar x : X\n{rule}\n")
    assert str(err.value) == message


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_parse_reads_a_rule_side_nested_20000_deep(side):
    deep = "f(" * 20000 + "x" + ")" * 20000
    rule = f"{deep} -> x" if side == "lhs" else f"f(x) -> {deep}"
    trs = parse_presentation(f"sorts X\nop f : X -> X\nvar x : X\nrule r : {rule}\n")
    u = getattr(trs.rules[0], side)
    for _ in range(20000):
        assert u.op == "f"
        (u,) = u.args
    assert u == Var("x", "X")


@pytest.mark.parametrize("declaration", ["op 1 : -> X", "var x 2y : X", "op é : -> X", "sorts Y-Z"])
def test_a_name_no_term_can_spell_is_refused_where_it_is_declared(declaration):
    with pytest.raises(ParseError) as err:
        parse_presentation(f"sorts X\n{declaration}\n")
    assert (err.value.kind, err.value.line) == ("syntax-error", 2)
    trs = parse_presentation("sorts X\nop _e1 : -> X\nvar y_2 z : X\nrule r : _e1 -> _e1\n")
    assert trs.rules[0].lhs == trs.signature.app("_e1")


@pytest.mark.parametrize("declaration", ["op x1 : -> X", "op x12 : X -> X"])
def test_an_operation_named_like_a_printed_variable_is_refused(declaration):
    # printed terms name their variables x1, x2, ...: such a constant would print as one
    with pytest.raises(ParseError) as err:
        parse_presentation(f"sorts X\n{declaration}\n")
    assert (err.value.kind, err.value.line) == ("syntax-error", 2)
    assert repr(declaration.split()[1]) in str(err.value)
    # variables may keep such names, and only x[1-9][0-9]* is taken
    trs = parse_presentation("sorts X\nop x0 : -> X\nop x01 : X -> X\nvar x1 : X\n"
                             "rule r : x01(x1) -> x0\n")
    assert trs.rules[0].lhs == trs.signature.app("x01", Var("x1", "X"))


def test_parse_print_round_trip(ab_trs, group_trs, unreduced_trs):
    for trs in (ab_trs, group_trs, unreduced_trs):
        assert parse_presentation(print_presentation(trs)) == trs


def test_order_directive(data_dir):
    text = (data_dir / "abelian_unit.lwv").read_text() + "order r2 r1\n"
    trs = parse_presentation(text)
    assert [r.name for r in trs.rules] == ["r2", "r1"]
    # each error cites the order directive's own line
    for order, message in (
            ("r1 q", "undeclared-name at line 7:0: order names unknown rules ['q']"),
            ("r1", "syntax-error at line 7:0: order must list every rule once")):
        with pytest.raises(ParseError) as err:
            parse_presentation(ABELIAN + f"order {order}\n\n")
        assert str(err.value) == message


def test_budget_directive():
    trs = parse_presentation(ABELIAN + "budget steps 123\nbudget join 45\n")
    assert trs.step_budget == 123 and trs.join_budget == 45
    assert parse_presentation(print_presentation(trs)) == trs


def test_parse_srs(z2_srs):
    assert z2_srs.alphabet == ("a",)
    assert z2_srs.rules[0].lhs == "aa"
    assert z2_srs.rules[0].rhs == ""
    with pytest.raises(ParseError):
        parse_srs("letters a\nrule r : -> a\n")


def test_a_letter_no_rule_can_spell_is_refused_where_it_is_declared():
    # a rule's first -> cuts its sides, so no left side could hold this letter;
    # each refusal names the letter or sort
    with pytest.raises(ParseError) as err:
        parse_srs("letters a->b c\n")
    assert str(err.value) == "syntax-error at line 1:0: letter 'a->b' holds ->"
    with pytest.raises(ParseError) as err:
        parse_presentation("sorts X Y-Z\n")
    assert str(err.value) == "syntax-error at line 1:0: sort 'Y-Z' is not a word"


def test_srs_letters_are_one_character_each(data_dir):
    with pytest.raises(ValueError, match=r"letters are one character each: \('a', 'ab'\)"):
        Srs(("a", "ab"), ())
    # declared tau rho_long ab: each name coded in the sorted order of the names
    srs = parse_srs((data_dir / "respelled.srs").read_text())
    assert srs.alphabet == ("c", "b", "a")
    assert (srs.rules[2].lhs, srs.rules[2].rhs) == ("cb", "bbc")
    assert render_word(srs.rules[2].rhs, srs) == "rho_long rho_long tau"


def test_cell_json_matches_contract(ab_trs):
    two = enumerate_chains(ab_trs, 2)[2][0]
    got = cell_json(two)
    assert got["entries"][0]["terms"] == ["plus(x1,x2)"]
    assert got["entries"][1]["terms"] == ["x1", "zero"]
    assert got["entries"][0]["context"] == ["X", "X"]


def test_emit_json_versioned_and_deterministic():
    a = emit_json({"payload": [1, 2, 3]})
    b = emit_json({"payload": [1, 2, 3]})
    assert a == b
    assert json.loads(a)["version"] == 1
    assert emit_json({"empty": []}).count('"empty": []') == 1


def _run(capsys, *argv):
    code = cli_dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_check(capsys, data_dir):
    code, out, _ = _run(capsys, "check", str(data_dir / "abelian_unit.lwv"))
    assert code == 0
    assert "complete (reduced + locally confluent + termination probed): yes" in out
    code, out, _ = _run(capsys, "check", str(data_dir / "abelian_unit.lwv"),
                        "--assume-terminating")
    assert code == 0 and "acknowledged" in out


def test_cli_chains_table_and_json(capsys, data_dir):
    path = str(data_dir / "abelian_unit.lwv")
    code, out, _ = _run(capsys, "chains", path, "--max-dim", "3")
    assert code == 0
    assert "dimension 3: 1 chain(s)" in out
    assert "<(plus(x1,x2)); (x1,zero); (zero)>" in out
    code, out, _ = _run(capsys, "chains", path, "--max-dim", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["version"] == 1
    dims = {d["dim"]: d for d in data["chains"]}
    assert dims[4]["cells"] == []
    assert dims[2]["count"] == 2


def test_cli_homology_json(capsys, data_dir):
    code, out, _ = _run(capsys, "homology", str(data_dir / "abelian_unit.lwv"),
                        "--max-dim", "2", "--json")
    assert code == 0
    data = json.loads(out)
    rec = [r for r in data["homology"] if r["dim"] == 2][0]
    assert rec["H"] == {"rank": 0, "torsion": []}
    assert rec["chains"] == 2
    mats = {m["dim"]: m["entries"] for m in data["matrices"]}
    assert mats[1] == [[1], [-1]]  # dense integer rows, one per chain
    assert mats[3] == [[-1, 1]]


def test_cli_homology_group_inequality_line(capsys, data_dir, group_trs):
    code, out, _ = _run(capsys, "homology", str(data_dir / "group.lwv"),
                        "--max-dim", "2")
    assert code == 0
    # the bound line reuses the homology just printed; it must read as
    # the full inequality report does
    assert out.splitlines()[-1] == inequality_report(group_trs, 2, 2).lines()[-1]
    assert "axiom-count bound" in out


def test_the_axiom_count_line_counts_the_presentation(capsys, tmp_path):
    # f(x) is a left side, so f drops out of the 1-chains and r out of the
    # 2-chains; the line still counts the presentation's 1 rule, 2 ops, 1 sort
    path = tmp_path / "f.lwv"
    path.write_text("sorts X\nop f : X -> X\nop e : -> X\nvar x : X\nrule r : f(x) -> x\n")
    for argv in (("inequality", "--dim", "2"), ("homology", "--max-dim", "2")):
        code, out, _ = _run(capsys, argv[0], str(path), *argv[1:])
        assert code == 0
        assert out.splitlines()[-1] == "axiom-count bound: #rules - #ops + #sorts = 1 - 2 + 1 = 0 >= 0"


def test_cli_inequality(capsys, data_dir):
    code, out, _ = _run(capsys, "inequality", str(data_dir / "group.lwv"), "--dim", "2")
    assert code == 0
    assert "[holds]" in out and "VIOLATED" not in out


@pytest.mark.parametrize("argv", [("homology", "--max-dim", "0"), ("homology", "--max-dim", "1"),
                                  ("homology", "--max-dim", "2"), ("inequality", "--dim", "0")],
                         ids=" ".join)
def test_top_chains_built_as_read_print_what_enumerated_ones_print(
        capsys, monkeypatch, data_dir, argv):
    # the eager path enumerates the top dimension up front, so boundary_rows
    # builds no chain; at --max-dim 0 the top chains are the 1-chains
    def build_none(cells, trs):
        raise AssertionError("the eager path builds no chain")

    seen = set()
    for path in sorted(data_dir.glob("*.lwv")):
        lazy = _run(capsys, argv[0], str(path), *argv[1:])
        if lazy[0] == 2:  # not certified
            continue
        with monkeypatch.context() as m:
            m.setattr(homology, "extend_chains", build_none)
            for module in (cli, homology):
                m.setattr(module, "enumerate_chains", lambda trs, n: enumerate_chains(trs, n + 1))
            assert _run(capsys, argv[0], str(path), *argv[1:]) == lazy
        assert lazy[0] == 0, (path.name, lazy)
        seen.add(path.name)
    assert seen == {"abelian_unit.lwv", "group.lwv", "involution.lwv", "involution3.lwv",
                    "two_sorted.lwv"}


def test_cli_resolution(capsys, data_dir):
    code, out, _ = _run(capsys, "resolution", str(data_dir / "abelian_unit.lwv"),
                        "--max-dim", "2", "--mode", "count")
    assert code == 0
    assert "d ->" in out


def test_cli_reduce(capsys, data_dir):
    code, out, _ = _run(capsys, "reduce", str(data_dir / "unreduced.lwv"))
    assert code == 0
    assert "rule r3 : d(x) -> x" in out
    assert "r4" not in out


@pytest.mark.parametrize("name", ["empty", "unreduced"])
def test_cli_reduce_output_parses_and_checks(capsys, data_dir, tmp_path, name):
    # a system with no sorts prints no sorts line: an empty one does not parse
    given, reduced = tmp_path / "given.lwv", tmp_path / "reduced.lwv"
    given.write_text("" if name == "empty" else (data_dir / f"{name}.lwv").read_text())
    code, out, _ = _run(capsys, "reduce", str(given))
    assert code == 0
    reduced.write_text(out)
    code, _, err = _run(capsys, "check", str(reduced))
    assert (code, err) == (0, "")


def test_cli_monoid(capsys, data_dir):
    path = str(data_dir / "z2.srs")
    code, out, _ = _run(capsys, "monoid", "chains", path, "--max-dim", "3")
    assert code == 0
    code, out, _ = _run(capsys, "monoid", "homology", path, "--max-dim", "3")
    assert code == 0
    assert "H_1: Z/2" in out and "H_3: Z/2" in out


NONCONFLUENT = ("sorts X\nop f : X -> X\nop a : -> X\nop b : -> X\nvar x : X\n"
                "rule r1 : f(x) -> a\nrule r2 : f(x) -> b\n")


def test_cli_exit_codes(capsys, data_dir, tmp_path):
    code, _, err = _run(capsys, "chains", "missing.lwv", "--max-dim", "2")
    assert code == 1 and "no such file" in err

    code, _, err = _run(capsys, "homology", str(data_dir / "group.lwv"),
                        "--max-dim", "2", "--coeff", "6")
    assert code == 4
    # 2^61 - 1 is prime but does not divide the group degree 2; testing
    # primality first would take about 1.5e9 trial divisions
    code, out, err = _run(capsys, "homology", str(data_dir / "group.lwv"),
                          "--max-dim", "1", "--coeff", str(2**61 - 1))
    assert (code, out) == (4, "")
    assert err == f"error: modulus {2**61 - 1} does not divide the system degree 2\n"

    nonconfluent = tmp_path / "bad.lwv"
    nonconfluent.write_text(NONCONFLUENT)
    code, out, _ = _run(capsys, "check", str(nonconfluent))
    assert code == 2

    loop = tmp_path / "loop.lwv"
    loop.write_text(
        "sorts X\nop f : X -> X\nop c : -> X\nvar x : X\n"
        "rule r : f(x) -> f(x)\nbudget steps 100\n")
    code, _, _ = _run(capsys, "check", str(loop))
    assert code == 3

    # refused by the certification every command runs, whose probe ran out
    for argv in (("chains", "--max-dim", "2"), ("resolution", "--max-dim", "2"),
                 ("homology", "--max-dim", "2"), ("inequality", "--dim", "1")):
        code, out, err = _run(capsys, argv[0], str(loop), *argv[1:])
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: system is not certified reduced complete: ")

    code, _, _ = _run(capsys, "bogus-command")
    assert code == 1


@pytest.mark.parametrize("argv", [("check",), ("monoid", "homology", "--max-dim", "2")],
                         ids=["check", "monoid homology"])
def test_cli_reports_unreadable_input_in_one_line(capsys, tmp_path, argv):
    binary = tmp_path / "bad.lwv"
    binary.write_bytes(b"\xff\xfe")
    code, out, err = _run(capsys, *argv, str(binary))
    assert (code, out) == (1, "")
    assert err == f"error: cannot read {binary}: not UTF-8 text\n"
    code, out, err = _run(capsys, *argv, str(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"error: cannot read {tmp_path}: Is a directory\n"


def test_cli_reports_a_matching_failure_in_one_line(capsys, data_dir, monkeypatch):
    # doubled boundaries give the router a matched coefficient of 2
    original = morse.normalized_boundary

    def doubled(cell, trs, mode="count"):
        return {face: 2 * c for face, c in original(cell, trs, mode).items()}

    monkeypatch.setattr(morse, "normalized_boundary", doubled)
    code, _, err = _run(capsys, "homology", str(data_dir / "group.lwv"), "--max-dim", "2")
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: matched coefficient") and "not a unit" in err


def test_cli_reports_an_exhausted_lift_budget_in_one_line(capsys, data_dir, monkeypatch):
    # both engines read the documented budget when a differential starts, one
    # step per memo entry it writes: the word engine's lift and the term engine's routing
    monkeypatch.setattr(collapse, "DEFAULT_ROUTE_BUDGET", 5)
    for argv, err in [
        (("monoid", "homology", "s3.srs"),
         "error: lift budget exhausted: one differential computed more than 5 entries\n"),
        (("homology", "group.lwv"),
         "error: routing budget exhausted: one differential routed more than 5 cells\n"),
    ]:
        *command, name = argv
        assert _run(capsys, *command, str(data_dir / name), "--max-dim", "3") == (3, "", err)


def test_cli_check_reports_a_rewrite_cycle(capsys, tmp_path):
    # each rewrite at the root loops in the normaliser, so the default
    # 10 000-step budget runs out without reaching the recursion limit
    cycle = tmp_path / "cycle.lwv"
    cycle.write_text(
        "sorts X\nop f : X -> X\nop g : X -> X\nvar x : X\n"
        "rule r1 : f(x) -> g(x)\nrule r2 : g(x) -> f(x)\n")
    code, out, err = _run(capsys, "check", str(cycle))
    assert code == 3 and not err
    assert "termination probe (44 terms): FAILED (g(x))" in out
    assert "complete (reduced + locally confluent + termination probed): NO" in out


@pytest.mark.parametrize("name, text, argv, names", [
    ("grow.srs", "letters a b\nrule r : a -> b b a\n", ("monoid", "homology"),
     "reduced: FAILED; rhs of r not in normal form\n"),
    *[("contain.srs", "letters a b\nrule r : a b ->\nrule s : a ->\n", ("monoid", what),
       "reduced: FAILED; lhs of r reducible by another rule\n") for what in ("chains", "homology")],
    ("bad.lwv", NONCONFLUENT, ("homology",),
     "locally confluent: FAILED; unjoinable: <r1/r2@ε: a vs b>; "),
], ids=["srs-unreduced", "srs-contained-chains", "srs-contained-homology", "lwv-nonconfluent"])
def test_cli_names_the_failed_checks_of_uncertified_input_in_one_line(
        capsys, tmp_path, name, text, argv, names):
    # only the failed checks, stripped: no flag hint and no unrun probe
    path = tmp_path / name
    path.write_text(text)
    code, out, err = _run(capsys, *argv, str(path), "--max-dim", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: system is not certified reduced complete: ")
    assert err.count("\n") == 1 and names in err
    assert "--assume-terminating" not in err and "None" not in err and "  " not in err


def test_cli_reports_the_probes_an_unreduced_srs_never_ran_as_not_run(capsys, tmp_path):
    path = tmp_path / "grow.srs"
    path.write_text("letters a b\nrule r1 : a -> b b a\n")
    code, out, err = _run(capsys, "monoid", "homology", str(path), "--max-dim", "2")
    assert (code, out) == (2, "")
    assert err == ("error: system is not certified reduced complete: "
                   "reduced: FAILED; rhs of r1 not in normal form\n")


def test_cli_survives_a_rule_that_nests_its_redex(capsys, tmp_path):
    # each step nests the next redex one level deeper, so a recursive
    # normaliser would meet the recursion limit before the step budget
    path = tmp_path / "nest.lwv"
    path.write_text("sorts X\nop f : X -> X\nop a : -> X\nvar x : X\n"
                    "rule r : f(x) -> f(f(x))\n")
    code, out, err = _run(capsys, "check", str(path))
    assert (code, err) == (3, "")
    assert "termination probe (42 terms): FAILED (f(f(x)))" in out
    assert out.endswith("complete (reduced + locally confluent + termination probed): NO\n")
    code, out, err = _run(capsys, "chains", str(path), "--max-dim", "1")
    assert (code, out) == (3, "")
    assert err.startswith("error: system is not certified reduced complete: ")
    assert err.count("\n") == 1 and "FAILED (f(f(x)))" in err


@pytest.mark.parametrize("depth", [600, 3000, 20000])
@pytest.mark.parametrize("argv", [("check",), ("chains", "--max-dim", "2"),
                                  ("homology", "--max-dim", "2"),
                                  ("resolution", "--max-dim", "2"), ("reduce",)],
                         ids=["check", "chains", "homology", "resolution", "reduce"])
def test_cli_reports_a_term_past_the_recursion_limit_in_one_line(capsys, tmp_path, depth, argv):
    # every depth parses, then fails in terms.substitute under critical_pairs
    path = tmp_path / "deep.lwv"
    lhs = "f(" * depth + "x" + ")" * depth
    path.write_text(f"sorts X\nop f : X -> X\nop a : -> X\nvar x : X\nrule r : {lhs} -> x\n")
    code, out, err = _run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (3, "")
    assert err == "error: recursion limit exceeded: a term is nested too deeply\n"


def test_check_on_a_deep_rule_holds_no_position_per_subterm(tmp_path):
    # a scan that kept every position of a 6000-deep side peaked near 140 MiB
    path = tmp_path / "deep.lwv"
    lhs = "f(" * 6000 + "x" + ")" * 6000
    path.write_text(f"sorts X\nop f : X -> X\nop a : -> X\nvar x : X\nrule r : {lhs} -> x\n")
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_dispatch(["check", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err.getvalue()) == (3, "error: recursion limit exceeded: a term is nested too deeply\n")
    assert peak < 20 * 2**20


_FIXTURES = {p.name: p.read_text() for p in sorted(DATA.iterdir())}
_LINES = sorted({line for text in _FIXTURES.values() for line in text.splitlines(keepends=True)})
_CHARS = sorted(set("".join(_FIXTURES.values())))
# (command words, options) around the input path
_FUZZED = [(("check",), ()), (("homology",), ("--max-dim", "2")),
           (("resolution",), ("--max-dim", "2")), (("monoid", "homology"), ("--max-dim", "3"))]


@st.composite
def _mutant(draw):
    """A fixture with a few characters or lines deleted, inserted or duplicated,
    or one line's span wrapped in a unary operation applied k times."""
    text = _FIXTURES[draw(st.sampled_from(sorted(_FIXTURES)))]
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["delete", "insert", "duplicate", "nest"]))
        by_line = edit == "nest" or draw(st.booleans())
        parts = text.splitlines(keepends=True) if by_line else list(text)
        i = draw(st.integers(0, len(parts) - 1))
        if edit == "delete":
            del parts[i]
        elif edit == "insert":
            parts.insert(i, draw(st.sampled_from(_LINES if by_line else _CHARS)))
        elif edit == "duplicate":
            parts.insert(i, parts[i])
        else:
            line = parts[i].rstrip("\n")
            start = draw(st.integers(0, len(line)))
            end = draw(st.integers(start, len(line)))
            op, k = draw(st.sampled_from(["i", "d"])), draw(st.sampled_from([1, 60, 600, 3000]))
            parts[i] = line[:start] + f"{op}(" * k + line[start:end] + ")" * k + parts[i][end:]
        text = "".join(parts)
    return text


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_mutant())
def test_mutated_fixtures_exit_with_a_documented_code_and_one_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "mutant"
    path.write_text(text)
    for words, options in _FUZZED:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_dispatch([*words, str(path), *options])
        assert 0 <= code <= 4, (words, text)
        assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue(), \
            (words, text, err.getvalue())


def test_coeff_auto_takes_the_least_prime_dividing_the_degree(capsys, tmp_path):
    # f(x,x,x,x,x) -> x has degree 4, so auto means Z/2; 4 itself is refused
    quintic = tmp_path / "quintic.lwv"
    quintic.write_text("sorts X\nop f : X X X X X -> X\nvar x : X\nrule r : f(x,x,x,x,x) -> x\n")
    argv = ("homology", str(quintic), "--max-dim", "2")
    auto, explicit = _run(capsys, *argv), _run(capsys, *argv, "--coeff", "2")
    assert auto == explicit and auto[0] == 0
    assert auto[1].splitlines()[0] == "coefficients: Z/2  (degree 4)"
    assert _run(capsys, "inequality", str(quintic), "--dim", "2")[0] == 0
    assert _run(capsys, *argv, "--coeff", "4") == (4, "", "error: modulus 4 is neither 0 nor prime\n")
    # degree 1 admits no modulus, which is said once the system certifies
    square = tmp_path / "square.lwv"
    square.write_text("sorts X\nop f : X X -> X\nvar x : X\nrule r : f(x, x) -> x\n")
    refused = "error: system has degree 1, which admits no modulus: " \
        "0 needs degree 0 and no prime divides 1\n"
    for coeff in ("auto", "0", "1", "2"):
        assert _run(capsys, "homology", str(square), "--max-dim", "2", "--coeff", coeff) \
            == (4, "", refused)
    # f(a, a) rewrites to a and to b: not confluent, so certification fails first
    split = tmp_path / "split.lwv"
    split.write_text("sorts X\nop f : X X -> X\nop a : -> X\nop b : -> X\nvar x : X\n"
                     "rule r : f(x, x) -> x\nrule s : f(a, x) -> b\n")
    code, out, err = _run(capsys, "homology", str(split), "--max-dim", "2")
    assert (code, out) == (2, "") and err.startswith("error: system is not certified")


def test_cli_tests_a_huge_prime_modulus_at_once(capsys, data_dir):
    # abelian_unit has degree 0, which every modulus divides
    path = str(data_dir / "abelian_unit.lwv")
    code, out, err = _run(capsys, "homology", path, "--max-dim", "1",
                          "--coeff", "2305843009213693951")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "coefficients: Z/2305843009213693951  (degree 0)"
    assert [line.split("   ")[0] for line in out.splitlines()[1:]] == ["H_0: 0", "H_1: 0"]
    # (2^31 - 1)^2: about 2e9 trial divisions before the prime test
    code, out, err = _run(capsys, "homology", path, "--max-dim", "1",
                          "--coeff", str((2**31 - 1) ** 2))
    assert (code, out) == (4, "")
    assert err == f"error: modulus {(2**31 - 1) ** 2} is neither 0 nor prime\n"
    code, out, err = _run(capsys, "homology", path, "--max-dim", "1", "--coeff", str(2**89 - 1))
    assert (code, out) == (4, "")
    assert err == f"error: modulus {2**89 - 1} is too large to test for primality\n"


def test_public_api_and_cli_surface_are_pinned():
    # a rename, addition or removal here must be deliberate and versioned
    public = sorted(n for n, v in vars(eqhom).items()
                    if not n.startswith("_") and not inspect.ismodule(v))
    assert public == [
        "App", "BoundaryMatrix", "Cell", "HomologyGroup", "Morphism", "Rule",
        "Signature", "Srs", "SrsRule", "Term", "Trs", "Var", "boundary_matrices",
        "canonicalize", "check_complete", "classify", "critical_pairs", "degree",
        "enumerate_chains", "enumerate_word_chains", "homology_group",
        "inequality_report", "is_chain", "match_term", "mgu", "monoid_homology",
        "morse_differential", "normal_form", "normalized_boundary",
        "parse_presentation", "parse_srs", "print_presentation", "reduce_trs",
        "rewrite_steps", "smith_normal_form",
    ]
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {name: sorted(opt for a in p._actions for opt in a.option_strings or [a.dest])
               for name, p in sub.choices.items()}
    common = ["--help", "-h", "file"]
    assert surface == {
        "check": sorted(common + ["--assume-terminating", "--cp-budget", "--term-budget"]),
        "reduce": common,
        "chains": sorted(common + ["--json", "--max-dim"]),
        "resolution": sorted(common + ["--max-dim", "--mode"]),
        "homology": sorted(common + ["--coeff", "--json", "--max-dim"]),
        "inequality": sorted(common + ["--coeff", "--dim"]),
        "monoid": sorted(common + ["--max-dim", "what"]),
    }


@pytest.mark.parametrize("argv", [
    ("homology", "abelian_unit.lwv", "--max-dim", "2"),
    ("monoid", "homology", "z2.srs", "--max-dim", "3"),
])
def test_cli_accepts_a_utf8_bom(capsys, data_dir, tmp_path, argv):
    name = next(a for a in argv if a.endswith((".lwv", ".srs")))
    marked = tmp_path / name
    marked.write_bytes(b"\xef\xbb\xbf" + (data_dir / name).read_bytes())
    plain = _run(capsys, *[str(data_dir / a) if a == name else a for a in argv])
    assert plain[0] == 0
    assert _run(capsys, *[str(marked) if a == name else a for a in argv]) == plain


@pytest.mark.parametrize("argv", [
    ("chains", "abelian_unit.lwv", "--max-dim", "-1"),
    ("resolution", "abelian_unit.lwv", "--max-dim", "-1"),
    ("homology", "abelian_unit.lwv", "--max-dim", "-1"),
    ("inequality", "group.lwv", "--dim", "-1"),
    ("monoid", "homology", "z2.srs", "--max-dim", "-2"),
    ("monoid", "chains", "z2.srs", "--max-dim", "-1"),
    ("check", "group.lwv", "--cp-budget", "-3"),
    ("check", "group.lwv", "--term-budget", "-1"),
])
def test_cli_rejects_negative_dimensions(capsys, data_dir, argv):
    argv = [str(data_dir / a) if a.endswith((".lwv", ".srs")) else a for a in argv]
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --") and err.count("\n") == 1


@pytest.mark.parametrize("name, text, duplicate, line", [
    ("letters.srs", "letters a a\nrule r : a a ->\n", "letter 'a'", 1),
    ("rules.srs", "letters a\nrule r : a a ->\nrule r : a a a ->\n", "rule 'r'", 3),
    ("rules.lwv", "sorts X\nop e : -> X\nop f : X -> X\nvar x : X\n"
                  "rule r : f(e) -> e\n\nrule r : f(f(x)) -> x\n", "rule 'r'", 7),
    ("sorts.lwv", "sorts X\nsorts Y X\nop e : -> X\n", "sort 'X'", 2),
    ("ops.lwv", "sorts X\nop e : -> X\nop f : X -> X\nop e : -> X\n", "operation 'e'", 4),
    ("vars.lwv", "sorts A B\nvar x y : A\nvar x : B\n", "variable 'x'", 3),
    # an operation and a variable share the namespace of terms, in either order
    ("op-var.lwv", "sorts X\nop e : -> X\nop f : X -> X\nvar e : X\nrule r : f(e) -> e\n",
     "variable 'e' already declared at line 2", 4),
    ("var-op.lwv", "sorts X\nvar e : X\nop f : X -> X\nop e : -> X\nrule r : f(e) -> e\n",
     "operation 'e' already declared at line 2", 4),
    # a directive that sets one value is refused a second time, not overridden
    ("order.lwv", "sorts X\nop e : -> X\nop f : X -> X\nrule a : f(e) -> e\n"
                  "rule b : f(f(e)) -> e\n\norder a b\norder b a\n",
     "directive 'order' already declared at line 7", 8),
    ("steps.lwv", "sorts X\nop e : -> X\nbudget steps 5\nbudget join 9\nbudget steps 5\n",
     "directive 'budget steps' already declared at line 3", 5),
    ("join.lwv", "sorts X\nop e : -> X\nbudget join 9\nbudget steps 5\nbudget join 8\n",
     "directive 'budget join' already declared at line 3", 5),
], ids=["srs-letters", "srs-rules", "lwv-rules", "lwv-sorts", "lwv-ops", "lwv-vars",
        "lwv-op-then-var", "lwv-var-then-op", "lwv-order", "lwv-budget-steps", "lwv-budget-join"])
def test_cli_reports_a_duplicate_name_in_one_line(capsys, tmp_path, name, text, duplicate, line):
    path = tmp_path / name
    path.write_text(text)
    argv = ["monoid", "homology"] if name.endswith(".srs") else ["homology"]
    code, out, err = _run(capsys, *argv, str(path), "--max-dim", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: duplicate-name at line ") and err.count("\n") == 1
    assert f"at line {line}:" in err and duplicate in err


# sha256 of stdout: any change to the printed chains, differentials or
# groups shows here
PINNED_STDOUT = [
    (("homology", "group.lwv", "--max-dim", "3"),
     "357cb48e1370071b43467199afc2128173d2a9a5577106cff94cc49fafea21b2"),
    (("homology", "group.lwv", "--max-dim", "3", "--json"),
     "a4f3c22e27faf17351f63448df6f96467ac3accea5695ec5b0d373e60595271e"),
    (("resolution", "group.lwv", "--max-dim", "4", "--mode", "symbolic"),
     "c2418170c9034951153dc4e397c5151c20323151969c30121580099a5b83b181"),
    (("resolution", "group.lwv", "--max-dim", "4", "--mode", "count"),
     "4de180e87f7e9b762d6dce42decc66c3eddaa651ff576cc43ac331db60495db7"),
    (("resolution", "abelian_unit.lwv", "--max-dim", "4", "--mode", "symbolic"),
     "fa6c75c62dec7a50e91b489d6bde5433310faec7beb57f494a1cf598bcafebe4"),
    (("resolution", "involution.lwv", "--max-dim", "4", "--mode", "symbolic"),
     "9c6aa435d858d9c6134bc3eaf90b95011fd3d6a1f873cce6d830a408c4f1f743"),
    (("resolution", "involution3.lwv", "--max-dim", "4", "--mode", "symbolic"),
     "102bb0e96ad22e7fc044966e49505ebbd2abc7f7b6eacb2f7bd608d545dc54a3"),
    (("chains", "group.lwv", "--max-dim", "5"),
     "df8b45e752545f74dc4934b02b970e7c46a594e0f2dc8a8eb7ebb0163b1ed7e4"),
    (("inequality", "group.lwv", "--dim", "3"),
     "eab2dbed17a5fa370efbb6944bd3dc3887854a456607f0843645f5cd1d51ea65"),
    (("monoid", "homology", "s3.srs", "--max-dim", "8"),
     "a61506b024788d86b13375e65fd942f659c051f3dc30ce807cbb1ea521fb8372"),
    (("monoid", "chains", "s3.srs", "--max-dim", "5"),
     "3000afeccca5f607a5b4ef547620e2da1d258bb699928f4796a36c77134d2f13"),
    (("monoid", "chains", "respelled.srs", "--max-dim", "4"),
     "72e227f69443e9b1588e5d5d1d6bb98e7ade9ebc7cdbcd5aa55b29c3fe020713"),
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT,
                         ids=[" ".join(argv) for argv, _ in PINNED_STDOUT])
def test_cli_stdout_matches_its_pinned_digest(capsys, data_dir, argv, digest):
    argv = [str(data_dir / a) if a.endswith((".lwv", ".srs")) else a for a in argv]
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("chains", "group.lwv", "--max-dim", "5"),  # 54 KB: fails while printing
    ("monoid", "homology", "z2.srs", "--max-dim", "2"),  # fails at the final flush
], ids=["chains", "monoid homology"])
def test_cli_exits_1_in_one_line_on_a_closed_stdout(data_dir, argv):
    read, write = os.pipe()
    os.close(read)  # before the child starts: no race with a pipe buffer
    src = str(Path(eqhom.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    argv = [str(data_dir / a) if a.endswith((".lwv", ".srs")) else a for a in argv]
    try:
        proc = subprocess.run([sys.executable, "-m", "eqhom.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr.decode() == "error: standard output closed before all output was written\n"


@pytest.mark.skipif(os.environ.get("EQHOM_SLOW") != "1",
                    reason="takes about 15 s; set EQHOM_SLOW=1 to run it")
def test_symbolic_resolution_to_dim_5_matches_its_pinned_digest(capsys, data_dir):
    test_cli_stdout_matches_its_pinned_digest(
        capsys, data_dir, ("resolution", "group.lwv", "--max-dim", "5", "--mode", "symbolic"),
        "7d29d0597f801e97353d79da531d3f06e149bf6ecbb98282c1a2ce55f162a59d")


def test_homology_to_dim_4_matches_its_pinned_digest(capsys, data_dir):
    test_cli_stdout_matches_its_pinned_digest(
        capsys, data_dir, ("homology", "group.lwv", "--max-dim", "4"),
        "4a2cbbf234532007aec0b042fcaca81d3f45f68092add6be9ba8504ea1a3b376")


@pytest.mark.skipif(os.environ.get("EQHOM_SLOW") != "1",
                    reason="takes about 20 s; set EQHOM_SLOW=1 to run it")
def test_homology_to_dim_5_matches_its_pinned_digest(capsys, data_dir):
    test_cli_stdout_matches_its_pinned_digest(
        capsys, data_dir, ("homology", "group.lwv", "--max-dim", "5"),
        "f039421fa0d7dfced30bc17fa774c31ea4abc70a8bf2fba7c15529a2c609ad6e")
