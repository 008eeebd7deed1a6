"""The survey layer, structure battery, and the command-line interface.

CLI tests run the installed console script in a subprocess so argument
parsing, exit codes, and stream handling are exercised end to end.
"""

import io
import itertools
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from levibridge import canon, groups, survey
from levibridge.canon import canonical_form
from levibridge.construction import bridge_census, bridge_graph, goedgebeur_graph
from levibridge.groups import (
    PermGroup,
    compose,
    edge_action,
    groups_isomorphic,
    inverse,
    perm_order,
)
from levibridge.graphs import build, graph6_encode, heawood, k33, pappus, petersen
from levibridge.survey import (
    StructureError,
    aut_structure,
    refutation_check,
    run_survey,
    survey_json,
)
from levibridge.twofactors import ALL_ODD, MIXED, pseudo_2fi
from schreier_sims import (SiftedGroup, cyclic, d4xz2, dihedral, direct_product, pauli, q8,
                           regular, z3z3, z4_by_z4)


class TestSurvey:
    def test_rows_mirror_census(self):
        rows = run_survey()
        census = bridge_census()
        assert len(rows) == 17
        assert [r["size"] for r in rows] == [len(c.specs) for c in census]
        assert [r["aut_order"] for r in rows] == [c.aut_order for c in census]
        assert rows[0]["aut_order"] == 144
        assert sum(r["size"] for r in rows) == 576

    def test_diagonal_flags(self):
        rows = run_survey()
        assert [r["aut_order"] for r in rows if r["diagonal"]] == [144, 24]

    def test_representative_is_class_certificate(self):
        rows = run_survey()
        for row, cls in zip(rows, bridge_census()):
            assert row["representative"] == cls.certificate.decode("ascii")
        assert rows[0]["representative"] == canonical_form(
            goedgebeur_graph()
        ).certificate.decode("ascii")

    def test_json_is_deterministic(self):
        rows = run_survey()
        assert survey_json(rows) == survey_json(run_survey())
        payload = json.loads(survey_json(rows))
        assert payload["schema"] == 1
        assert len(payload["rows"]) == 17
        assert payload["rows"] == rows
        assert "p2fi_status" not in rows[0]

    def test_p2fi_sweep_singles_out_the_identified_class(self):
        rows = run_survey(p2fi=True)
        assert rows[0]["p2fi_status"] == ALL_ODD
        others = {r["p2fi_status"] for r in rows[1:]}
        assert others == {MIXED}
        payload = json.loads(survey_json(rows))
        assert payload["rows"][0]["p2fi_status"] == ALL_ODD

    def test_diagonal_alphas_form_a_dihedral_group(self):
        # The alphas of the eight diagonal joins in the 144-automorphism
        # class form a dihedral group of order 8 over the Klein group
        # generated by (0 2) and (1 3), not the normal Klein subgroup of S4.
        class_144 = next(c for c in bridge_census() if c.aut_order == 144)
        alphas = {s.alpha for s in class_144.specs if s.alpha == s.beta}
        eight = SiftedGroup(4, alphas)
        assert len(alphas) == 8 and eight.elements == alphas
        assert {(0, 1, 2, 3), (2, 1, 0, 3), (0, 3, 2, 1), (2, 3, 0, 1)} <= alphas
        assert groups_isomorphic(eight, dihedral(4))


class TestAutStructure:
    def test_full_battery(self):
        report = aut_structure()
        assert report["all_ok"]
        assert report["aut_order"] == 144
        assert report["k_order"] == 9
        assert report["k_profile"] == {1: 1, 3: 8}
        assert report["k_abelian"] and report["k_iso_z3xz3"]
        assert report["k_normal"] and report["k_regular_on_marked"]
        assert report["h_order"] == 16
        assert not report["h_abelian"]
        assert report["h_profile"] == {1: 1, 2: 11, 4: 4}
        assert report["h_iso_d4xz2"]
        assert report["semidirect"]
        assert report["sigma_two_m"] and report["sigma_two_f"]
        assert report["rho"] and report["delta"]
        assert report["tau_count"] == 1
        assert report["stabilizer_orders"] == [16] * 9
        assert report["stabilizers_conjugate"]

    def test_marked_edges_transport_to_relabeled_copies(self):
        g = goedgebeur_graph()
        relabeled = build(g.n, [(29 - u, 29 - v) for u, v in g.edges])
        report = aut_structure(relabeled)
        assert report["all_ok"]

    def test_one_canonical_search_per_graph(self, fresh_goedgebeur, monkeypatch):
        # The census searched the identified graph's class already, but keeps
        # only its certificate and |Aut|: the battery searches each graph
        # once, and a graph searched before, not at all.
        fresh = fresh_goedgebeur
        relabeled = build(fresh.n, [(29 - u, 29 - v) for u, v in fresh.edges])
        monkeypatch.setattr(survey, "goedgebeur_graph", lambda: fresh)
        searched = []

        class Counted(canon._Search):
            def __init__(self, g, cells):
                searched.append(g)
                super().__init__(g, cells)

        monkeypatch.setattr(canon, "_Search", Counted)
        aut_structure()
        assert len(searched) == 1 and searched[0] is fresh
        searched.clear()
        aut_structure(relabeled)
        assert len(searched) == 1 and searched[0] is relabeled
        searched.clear()
        aut_structure(relabeled)
        assert searched == []

    def test_two_reports_on_one_graph_close_no_group(self, monkeypatch):
        """Aut(g)'s 144 elements are listed off its stabilizer chain, so two
        reports on one graph object run no product closure, and agree."""
        g = _relabelled_goedgebeur()
        closure, orders = groups.closure, []

        def counted(generators, degree):
            out = closure(generators, degree)
            orders.append(len(out))
            return out

        monkeypatch.setattr(groups, "closure", counted)
        first, second = aut_structure(g), aut_structure(g)
        assert first["all_ok"] and first == second
        assert orders == []

    def test_rejects_foreign_graph(self):
        with pytest.raises(StructureError):
            aut_structure(heawood())

    def test_report_depends_on_the_group_not_the_labelling(self):
        """Only `marked_edges` names vertices: under 12 relabellings the
        rest of the report, key order included, is the pinned one."""
        g = goedgebeur_graph()
        pinned = json.loads((PAPER / "aut_structure.out").read_bytes())
        del pinned["marked_edges"]
        forms = set()
        for seed in range(12):
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            report = aut_structure(build(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
            del report["marked_edges"]
            forms.add(json.dumps(report))
        assert forms == {json.dumps(pinned)}


def _relabelled_goedgebeur():
    g = goedgebeur_graph()
    return build(g.n, [(29 - u, 29 - v) for u, v in g.edges])


def _setwise_stabilizer(group, vertices):
    """Oracle: scan every element for the ones mapping the vertex set onto
    itself, as the structure report did before it read its edge table."""
    key = frozenset(vertices)
    return SiftedGroup(group.degree,
                       (p for p in group.elements if frozenset(p[v] for v in key) == key))


def _failed_flags(exc: StructureError) -> set[str]:
    """The checks a failure message names, each as `key = value`."""
    message = str(exc)
    assert message.startswith("structure analysis failed: ")
    return set(re.findall(r"(\w+) = ", message))


def _patch_rows(monkeypatch, corrupt):
    """Route survey.edge_action's rows through corrupt(p, row, real), in the
    order the report builds its table; real(q) is q's true row."""
    real = survey.edge_action

    def patched(p, edges):
        return tuple(corrupt(p, list(real(p, edges)), lambda q: real(q, edges)))

    monkeypatch.setattr(survey, "edge_action", patched)


class TestMarkedEdgeTable:
    @pytest.mark.parametrize("make", [goedgebeur_graph, _relabelled_goedgebeur],
                             ids=["identified", "relabelled"])
    def test_table_fixers_and_cosets_match_the_scanned_stabilizers(self, make):
        g = make()
        marked, aut = survey._marked_edges_on(g)
        table = {p: edge_action(p, tuple(marked)) for p in aut.elements}
        stabs = [_setwise_stabilizer(aut, x) for x in marked]
        for i, stab in enumerate(stabs):
            assert stab.elements == {p for p, row in table.items() if row[i] == i}
        # The nine stabilizers are distinct, so conjugating by an element of
        # the wrong coset cannot pass; and every element of the coset sending
        # e to edge i conjugates H onto that edge's stabilizer.
        assert len({s.elements for s in stabs}) == 9
        h = stabs[0]
        for p, row in table.items():
            conj = {compose(compose(p, q), inverse(p)) for q in h.elements}
            assert conj == stabs[row[0]].elements
        report = aut_structure(g)
        assert report["all_ok"]
        assert report["stabilizer_orders"] == [s.order for s in stabs] == [16] * 9

    def test_a_row_off_its_coset_fails_the_conjugacy_check(self, monkeypatch):
        # The first element outside K that moves e keeps its fixed points,
        # so every stabilizer stays, but claims a target no earlier row
        # reached: it becomes that target's consulted element.
        hit, corrupted = set(), []

        def corrupt(p, row, real):
            if not corrupted and row[0] != 0 and perm_order(p) not in (1, 3, 9):
                t = row[0]
                k = next(k for k in range(1, 9)
                         if k != t and row[k] not in (0, k) and row[k] not in hit)
                row[0], row[k] = row[k], t
                corrupted.append(p)
            hit.add(row[0])
            return row

        _patch_rows(monkeypatch, corrupt)
        with pytest.raises(StructureError) as info:
            aut_structure()
        assert corrupted
        assert _failed_flags(info.value) == {"stabilizers_conjugate"}
        assert str(info.value).endswith("stabilizers_conjugate = False")

    def test_a_k_row_repeating_a_target_fails_regularity(self, monkeypatch):
        # Every element of order 3 lies in the normal Sylow subgroup K. The
        # first one reports its inverse's row: K then misses one edge.
        swapped = []

        def corrupt(p, row, real):
            if not swapped and perm_order(p) == 3:
                swapped.append(p)
                return real(inverse(p))
            return row

        _patch_rows(monkeypatch, corrupt)
        with pytest.raises(StructureError) as info:
            aut_structure()
        assert swapped
        assert _failed_flags(info.value) == {"k_regular_on_marked"}

    def test_a_target_no_row_reaches_is_not_conjugate(self, monkeypatch, capsys):
        # Rows sending e to the last marked edge claim to fix e instead, so
        # no element is found for that target; the check reads False and
        # raises no StopIteration.
        def corrupt(p, row, real):
            if row[0] == 8:
                k = row.index(0)
                row[0], row[k] = 0, 8
            return row

        _patch_rows(monkeypatch, corrupt)
        with pytest.raises(StructureError) as info:
            aut_structure()
        assert {"k_regular_on_marked", "stabilizers_conjugate"} <= _failed_flags(info.value)
        # The corruption keeps no state, so the CLI sees it too and names
        # each failed check with its value.
        from levibridge import cli

        assert cli.main(["aut", "--structure"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "levibridge: structural failure: structure analysis failed: ")
        assert "k_regular_on_marked = False" in captured.err
        assert "stabilizers_conjugate = False" in captured.err


def _presentation_cases():
    """Groups of order 16 and 9, by name, each a Schreier-Sims chain."""
    c2 = cyclic(2)
    return {
        "Z16": cyclic(16),
        "Z8 x Z2": direct_product(cyclic(8), c2),
        "Z4 x Z4": z4_by_z4(False),
        "Z4 x Z2 x Z2": direct_product(cyclic(4), c2, c2),
        "Z2^4": direct_product(c2, c2, c2, c2),
        "D8": dihedral(8),
        "D4 x Z2": d4xz2(),
        "D4 x Z2, regular": regular(d4xz2()),
        "Q8 x Z2": direct_product(q8(), c2),
        "Z4 x| Z4": z4_by_z4(True),
        "Pauli": pauli(),
        "Z9": cyclic(9),
        "Z3 x Z3": z3z3(),
    }


class TestPresentationChecks:
    def test_agree_with_the_isomorphism_oracle(self):
        """The report's presentation checks read each group's element set
        as a `from_elements` chain, and a random conjugate of it, as
        `groups_isomorphic` against the model groups does; only D4 x Z2 and
        Z3 x Z3 pass."""
        rng = random.Random(36)
        passed = set()
        for name, model in _presentation_cases().items():
            p = list(range(model.degree))
            rng.shuffle(p)
            conjugate = {compose(p, compose(g, inverse(p))) for g in model.elements}
            for elements in (model.elements, conjugate):
                group = PermGroup.from_elements(model.degree, elements)
                assert group.elements == elements, name
                verdicts = survey._is_d4xz2(group), survey._is_z3xz3(group)
                assert verdicts == (groups_isomorphic(group, d4xz2()),
                                    groups_isomorphic(group, z3z3())), name
                if any(verdicts):
                    passed.add(name)
        assert passed == {"D4 x Z2", "D4 x Z2, regular", "Z3 x Z3"}

    def test_an_unclosed_edge_stabilizer_names_its_product(self, monkeypatch):
        # The first row outside K that moves e claims to fix it instead. The
        # rows still reach every edge, and K's each edge once, but the 17
        # rows fixing e do not close: the failure names the first product,
        # in sorted order, that leaves them.
        claimed = []

        def corrupt(p, row, real):
            if not claimed and row[0] != 0 and perm_order(p) not in (1, 3, 9):
                k = row.index(0)
                row[0], row[k] = 0, row[0]
                claimed.append(p)
            return row

        _patch_rows(monkeypatch, corrupt)
        with pytest.raises(StructureError) as info:
            aut_structure()
        marked, aut = survey._marked_edges_on(goedgebeur_graph())
        fixers = sorted(p for p in aut.elements
                        if p in claimed or edge_action(p, tuple(marked))[0] == 0)
        assert len(claimed) == 1 and len(fixers) == 17
        a, b = next((a, b) for a, b in itertools.product(fixers, repeat=2)
                    if compose(a, b) not in fixers)
        assert str(info.value) == (
            f"H is not closed: {a} * {b} = {compose(a, b)} lies outside it")


class TestRefutation:
    def test_report(self):
        report = refutation_check()
        assert report["refutation_holds"]
        assert report["vertices"] == 30 and report["edges"] == 45
        assert report["girth"] == 6
        assert report["cyclic_edge_connectivity"] == 6
        assert report["essentially_4_edge_connected"]
        assert report["matching_count"] == 312
        assert report["p2fi_status"] == ALL_ODD
        assert report["distinct_from"] == {
            "k33": True, "heawood": True, "pappus": True
        }

    def test_a_mixed_parity_names_the_failed_check(self, monkeypatch, capsys):
        # The parity of the order-24 diagonal class stands in for the
        # identified graph's: the check and the CLI name it with its value.
        from levibridge import cli

        mixed = pseudo_2fi(bridge_graph(bridge_census()[1].representative))
        assert mixed.status == MIXED
        monkeypatch.setattr(survey, "pseudo_2fi", lambda g: mixed)
        with pytest.raises(StructureError) as info:
            refutation_check()
        assert str(info.value) == "refutation check failed: p2fi_status = 'Mixed'"
        assert cli.main(["refute"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("levibridge: structural failure: refutation check "
                                "failed: p2fi_status = 'Mixed'\n")


def _cli(*args, stdin: str | None = None):
    return subprocess.run(
        [sys.executable, "-m", "levibridge.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=300,
    )


PAPER = Path(__file__).resolve().parents[1] / "bench" / "data" / "paper"


@pytest.mark.parametrize("name, args", [
    ("gen_goedgebeur", ["gen", "goedgebeur"]),
    ("survey_p2fi", ["survey", "--p2fi"]),
    ("refute", ["refute"]),
    ("aut_structure", ["aut", "--structure"]),
])
def test_paper_commands_print_the_pinned_bytes(name, args):
    out = subprocess.run([sys.executable, "-m", "levibridge.cli", *args],
                         capture_output=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout == (PAPER / f"{name}.out").read_bytes()


# Runs a CLI command in a cold process, counting canonical searches, 2-factor
# DPs and bridge joins, and prints [exit status, searches, DPs, joins].
_COUNT_WORK = """
import contextlib, io, json, sys
from levibridge import canon, cli, construction, twofactors

counts = [0, 0, 0]

def counted(i, fn):
    def wrapper(*args):
        counts[i] += 1
        return fn(*args)
    return wrapper

canon._Search = counted(0, canon._Search)
twofactors._frontier_histogram = counted(1, twofactors._frontier_histogram)
construction.bridge_join = counted(2, construction.bridge_join)
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[1:])
print(json.dumps([status, *counts]))
"""


@pytest.mark.parametrize("args, work", [
    (["gen", "goedgebeur"], [18, 1, 17]),
    (["survey", "--p2fi"], [18, 17, 17]),
    (["refute"], [18, 1, 17]),
    (["aut", "--structure"], [18, 1, 17]),
    (["config", "goedgebeur"], [18, 1, 17]),
])
def test_paper_commands_compute_each_answer_once(args, work):
    """One search per distinct graph (the 17 census classes and W's hub
    graph), one DP per graph asked about and one join per spec."""
    out = subprocess.run([sys.executable, "-c", _COUNT_WORK, *args],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [0, *work]


class TestCli:
    def test_gen_goedgebeur(self):
        out = _cli("gen", "goedgebeur")
        assert out.returncode == 0
        assert out.stdout.strip().encode("ascii") \
            == graph6_encode(goedgebeur_graph())

    def test_gen_labels(self):
        out = _cli("gen", "goedgebeur", "--labels")
        assert out.returncode == 0
        lines = out.stdout.splitlines()
        labels = json.loads(lines[1])
        assert labels[:2] == ["fp0", "fp1"] and labels[-1] == "ml7"

    def test_gen_bridge_and_gp(self):
        out = _cli("gen", "bridge", "0123", "0123")
        assert out.returncode == 0
        assert out.stdout.strip() == _cli("gen", "goedgebeur").stdout.strip()
        out = _cli("gen", "gp", "5", "2")
        assert out.returncode == 0
        assert out.stdout.strip().encode() == graph6_encode(petersen())

    def test_gen_bridge_bad_perm_exits_1(self):
        out = _cli("gen", "bridge", "0124", "0123")
        assert out.returncode == 1

    def test_props_pipeline(self):
        gen = _cli("gen", "goedgebeur")
        out = _cli("props", stdin=gen.stdout)
        assert out.returncode == 0
        report = json.loads(out.stdout)
        assert report["vertices"] == 30
        assert report["cubic"] and report["bipartite"]
        assert report["girth"] == 6
        assert report["cyclic_edge_connectivity"] == 6
        assert report["essentially_4_edge_connected"]
        assert report["aut_order"] == 144

    def test_props_reports_ess4_above_the_cyclic_cap(self):
        # gp(21, 2) has 42 vertices: past cyclic_edge_connectivity's 40-vertex
        # cap, but essential 4-edge-connectivity has no cap.
        out = _cli("props", stdin=_cli("gen", "gp", "21", "2").stdout)
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert report["vertices"] == 42 and report["cubic"]
        assert report["essentially_4_edge_connected"] is True
        assert report["cyclic_edge_connectivity"] is None

    @pytest.mark.parametrize("g6", ["G~?GW[", "?"])  # two disjoint K4s; no vertices
    def test_props_disconnected_cubic_has_null_cuts(self, g6):
        out = _cli("props", stdin=g6 + "\n")
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert report["cubic"]
        assert report["essentially_4_edge_connected"] is None
        assert report["cyclic_edge_connectivity"] is None

    def test_p2fi_pipeline(self):
        out = _cli("p2fi", stdin=_cli("gen", "k33").stdout)
        assert out.returncode == 0
        report = json.loads(out.stdout)
        assert report == {
            "schema": 2,
            "matching_count": 6,
            "histogram": [[1, 6]],
            "status": "AllOdd",
        }

    def test_aut_default_and_structure(self):
        out = _cli("aut")
        assert out.returncode == 0
        assert json.loads(out.stdout)["aut_order"] == 144
        out = _cli("aut", "--structure")
        assert out.returncode == 0
        report = json.loads(out.stdout)
        assert report["all_ok"] and report["tau_count"] == 1

    def test_iso_exit_codes(self, tmp_path):
        a = tmp_path / "a.g6"
        b = tmp_path / "b.g6"
        c = tmp_path / "c.g6"
        a.write_text(graph6_encode(petersen()).decode() + "\n")
        shuffled = build(10, [(9 - u, 9 - v) for u, v in petersen().edges])
        b.write_text(graph6_encode(shuffled).decode() + "\n")
        c.write_text(graph6_encode(k33()).decode() + "\n")
        same = _cli("iso", str(a), str(b))
        assert same.returncode == 0
        mapping = json.loads(same.stdout)["mapping"]
        assert sorted(mapping) == list(range(10))
        assert _cli("iso", str(a), str(c)).returncode == 2
        one_piped = _cli("iso", "-", str(b), stdin=a.read_text())
        assert one_piped.returncode == 0 and json.loads(one_piped.stdout)["isomorphic"]

    def test_iso_refuses_stdin_for_both_graphs(self, monkeypatch, capsys):
        """stdin holds one stream: `iso - -` exits 1 before reading it, with
        a message naming the repeated `-` rather than blaming the input."""
        from levibridge.cli import main

        class Unread:
            @property
            def buffer(self):
                raise AssertionError("iso read stdin")

            def read(self):
                raise AssertionError("iso read stdin")

        monkeypatch.setattr(sys, "stdin", Unread())
        assert main(["iso", "-", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "iso reads stdin for one graph only, not for both: '-' given twice" \
            in captured.err
        out = _cli("iso", "-", "-", stdin=graph6_encode(petersen()).decode() + "\n")
        assert (out.returncode, out.stdout) == (1, "")
        assert "'-' given twice" in out.stderr and "no graph6" not in out.stderr

    def test_iso_refuses_a_file_of_several_graphs(self, tmp_path, capsys):
        from levibridge.cli import main

        one, two = tmp_path / "one.g6", tmp_path / "two.g6"
        one.write_text(graph6_encode(heawood()).decode() + "\n")
        two.write_text(graph6_encode(heawood()).decode() + "\n"
                       + graph6_encode(pappus()).decode() + "\n")
        for files in ((two, one), (one, two)):
            assert main(["iso", *map(str, files)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"iso compares one graph per file; {two} holds 2" in captured.err
        assert main(["iso", str(one), str(one)]) == 0

    def test_config_commands(self):
        out = _cli("config", "fano")
        assert out.returncode == 0
        assert json.loads(out.stdout)["lines"][0] == [0, 1, 2]
        out = _cli("config", "mk", "--self-dual")
        assert json.loads(out.stdout) == {"self_dual": True}
        out = _cli("config", "goedgebeur", "--levi")
        assert out.returncode == 0
        assert out.stdout.strip().encode() == graph6_encode(goedgebeur_graph())

    def test_survey_json_file(self, tmp_path):
        path = tmp_path / "survey.json"
        out = _cli("survey", "--json", str(path))
        assert out.returncode == 0
        payload = json.loads(path.read_text())
        assert len(payload["rows"]) == 17
        assert payload["rows"][0]["aut_order"] == 144

    def test_refute(self):
        out = _cli("refute")
        assert out.returncode == 0
        assert json.loads(out.stdout)["refutation_holds"]

    def test_usage_errors_exit_1(self):
        assert _cli("gen", "nosuch").returncode == 1
        assert _cli().returncode == 1
        out = _cli("props", stdin="not-a-graph6-line\n")
        assert out.returncode == 1

    def test_unreadable_input_exits_1(self, tmp_path, capsys):
        # In-process: an input error fails before any census work.
        from levibridge.cli import main

        assert main(["props", str(tmp_path / "missing.g6")]) == 1
        assert "levibridge: input error:" in capsys.readouterr().err
        empty = tmp_path / "empty.g6"
        empty.write_text("\n")
        assert main(["props", str(empty)]) == 1
        assert "no graph6 input lines" in capsys.readouterr().err
        bad = tmp_path / "bad.g6"
        bad.write_bytes(b"E\xc3\xa9z_\n")
        assert main(["props", str(bad)]) == 1
        assert "input error: non-ASCII character in graph6 input (byte offset 1)" \
            in capsys.readouterr().err

    def test_survey_bad_json_path_fails_before_census(self, tmp_path, capsys,
                                                      monkeypatch):
        from levibridge import cli

        def no_census(**kwargs):
            raise AssertionError("census ran before the output was opened")

        monkeypatch.setattr(cli, "run_survey", no_census)
        assert cli.main(["survey", "--json", str(tmp_path / "no" / "x.json")]) == 1
        assert "input error" in capsys.readouterr().err

    def test_gen_extra_arguments_exit_1(self, capsys):
        from levibridge.cli import main

        assert main(["gen", "heawood", "extra"]) == 1
        assert "gen heawood takes no arguments" in capsys.readouterr().err
        assert main(["gen", "gp", "8"]) == 1
        assert "gen gp takes two integers" in capsys.readouterr().err
        # Only ASCII [+-]?[0-9]+: no underscores, other Unicode digits or blanks.
        for n, k in (("1_0", "3"), ("\u0668", "3"), ("8", "\u00b3"), (" 8", "3"), ("8", "3.0")):
            assert main(["gen", "gp", n, k]) == 1
            bad = n if n != "8" else k
            assert f"gen gp takes two integers, got {bad!r}" in capsys.readouterr().err
        for a, b in (("\u0660\u0661\u0662\u0663", "0123"), ("0123", "\u00b2123")):
            assert main(["gen", "bridge", a, b]) == 1
            bad = a if a != "0123" else b
            assert f"expected a 4-digit one-line image, got {bad!r}" in capsys.readouterr().err

    def test_gen_gp_out_of_range_exits_1(self, capsys):
        from levibridge.cli import main

        for n, k in (("3", "5"), ("0", "0"), ("-4", "1")):
            assert main(["gen", "gp", n, k]) == 1
            err = capsys.readouterr().err
            assert f"levibridge: error: gp({n}, {k}) needs 1 <= k < n/2" in err

    def test_gen_gp_beyond_graph6_exits_1_before_building(self, capsys, monkeypatch):
        # 2N vertices above graph6's limit is bad input, refused before gp runs.
        from levibridge import cli

        def no_build(n, k):
            raise AssertionError(f"gp({n}, {k}) was built")

        monkeypatch.setattr(cli, "gp", no_build)
        for n in ("130000", "99999999"):
            assert cli.main(["gen", "gp", n, "1"]) == 1
            err = capsys.readouterr().err
            assert f"graph6 supports n <= 258047, got {2 * int(n)}" in err

    def test_config_flags_are_mutually_exclusive(self, capsys):
        from levibridge.cli import main

        for a, b in itertools.combinations(("--dual", "--self-dual", "--levi"), 2):
            with pytest.raises(SystemExit) as info:
                main(["config", "fano", a, b])
            assert info.value.code == 1
            assert "not allowed with argument" in capsys.readouterr().err
        assert main(["config", "fano", "--dual"]) == 0
        assert json.loads(capsys.readouterr().out)["points"] == 7

    def test_config_labels_needs_levi(self, capsys):
        from levibridge.cli import main

        for flags in (["--labels"], ["--dual", "--labels"]):
            with pytest.raises(SystemExit) as info:
                main(["config", "fano", *flags])
            assert info.value.code == 1
            assert "--labels needs --levi" in capsys.readouterr().err
        assert main(["config", "fano", "--levi", "--labels"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_aut_of_k8(self, tmp_path, capsys):
        from levibridge.cli import main

        k8 = build(8, list(itertools.combinations(range(8), 2)))
        path = tmp_path / "k8.g6"
        path.write_bytes(graph6_encode(k8) + b"\n")
        assert main(["aut", str(path)]) == 0
        assert capsys.readouterr().out == '{"aut_order": 40320}\n'

    def test_structural_error_exits_2(self):
        # p2fi on a non-cubic graph is a structural failure, not usage.
        hexagon = build(6, [(i, (i + 1) % 6) for i in range(6)])
        out = _cli("p2fi", stdin=graph6_encode(hexagon).decode() + "\n")
        assert out.returncode == 2

    def test_p2fi_on_k3_names_the_report_and_the_degree(self, tmp_path, capsys):
        from levibridge.cli import main

        path = tmp_path / "k3.g6"
        path.write_bytes(graph6_encode(build(3, [(i, (i + 1) % 3) for i in range(3)])) + b"\n")
        assert main(["p2fi", str(path)]) == 2
        assert capsys.readouterr().err == (
            "levibridge: structural failure: the 2-factor parity report needs "
            "a cubic graph; vertex 0 has degree 2\n")

    def test_a_search_too_deep_for_the_stack_exits_1(self, tmp_path):
        """A recursion limit the search outgrows is refused input, not a
        structural failure and not a traceback."""
        path = tmp_path / "empty300.g6"
        path.write_bytes(graph6_encode(build(300, [])) + b"\n")
        script = ("import sys; from levibridge.cli import main; "
                  "sys.setrecursionlimit(200); sys.exit(main(['aut', sys.argv[1]]))")
        out = subprocess.run([sys.executable, "-c", script, str(path)],
                             capture_output=True, text=True, timeout=60)
        assert (out.returncode, out.stdout) == (1, "")
        assert out.stderr == "levibridge: error: input too large for the recursive search\n"

    def test_running_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch):
        """A MemoryError inside a subcommand is one stderr line and exit 1,
        not a structural failure and not a traceback."""
        from levibridge import cli

        def no_memory(g):
            raise MemoryError

        monkeypatch.setattr(cli, "pseudo_2fi", no_memory)
        path = tmp_path / "heawood.g6"
        path.write_bytes(graph6_encode(heawood()) + b"\n")
        assert cli.main(["p2fi", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "levibridge: error: input too large for memory (MemoryError)\n"


HEAWOOD, K33 = graph6_encode(heawood()), graph6_encode(k33())


class TestGraph6Reader:
    """The CLI reads graph6 as bytes, line by line, from a file or stdin."""

    @staticmethod
    def _aut(data: bytes, source: str, tmp_path, monkeypatch, capsys):
        from levibridge.cli import main

        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            status = main(["aut", "-"])
        else:
            path = tmp_path / "in.g6"
            path.write_bytes(data)
            status = main(["aut", str(path)])
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("data", [
        HEAWOOD + b"\r\n" + K33 + b"\r\n",
        HEAWOOD + b"\r" + K33 + b"\r",
        HEAWOOD + b"\r" + K33,
        b"\n \n" + HEAWOOD + b"\n\t\n\r\n\x0b\n" + K33 + b"\n  \n",
    ], ids=["crlf", "lone-cr", "lone-cr-no-final-end", "blank-lines"])
    def test_line_ends_and_blank_lines(self, data, source, tmp_path, monkeypatch, capsys):
        assert self._aut(data, source, tmp_path, monkeypatch, capsys) \
            == (0, '{"aut_order": 336}\n{"aut_order": 72}\n', "")

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("data, offset", [
        (b"E\xc3\xa9z_\n", 1),
        (HEAWOOD + b"\r\nEF\xffz_\n", 2),
    ], ids=["utf-8-first-line", "byte-255-second-line"])
    def test_a_non_ascii_byte_is_named_with_its_offset(self, data, offset, source, tmp_path,
                                                       monkeypatch, capsys):
        assert self._aut(data, source, tmp_path, monkeypatch, capsys) == (
            1, "", "levibridge: input error: non-ASCII character in graph6 input "
                   f"(byte offset {offset})\n")

    def test_a_non_ascii_byte_on_the_real_stdin(self):
        out = subprocess.run([sys.executable, "-m", "levibridge.cli", "aut", "-"],
                             input=K33 + b"\r\nEF\xffz_\r\n", capture_output=True, timeout=60)
        assert (out.returncode, out.stdout) == (1, b"")
        assert out.stderr == (b"levibridge: input error: non-ASCII character in graph6 "
                              b"input (byte offset 2)\n")

    @pytest.mark.parametrize("sep", [0x0B, 0x0C, 0x1C, 0x1D, 0x1E])
    def test_only_cr_and_lf_end_a_line(self, sep, tmp_path, monkeypatch, capsys):
        """str.splitlines splits at these bytes too; the reader ends a line
        only at \\r or \\n, so the byte stays in the line and is refused."""
        first = self._aut(bytes([sep]) + K33 + b"\n", "file", tmp_path, monkeypatch, capsys)
        assert first == (1, "", f"levibridge: input error: byte {sep} outside graph6 range "
                                "(byte offset 0)\n")
        inside = self._aut(K33 + bytes([sep]) + K33 + b"\n", "file", tmp_path, monkeypatch,
                           capsys)
        assert inside == (1, "", f"levibridge: input error: byte {sep} outside graph6 range "
                                 "(byte offset 4)\n")
