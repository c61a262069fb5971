import random

import pytest
from hypothesis import given, settings

import bnras
from bnras import Evidence

from conftest import positive_networks

AB_DOC = """\
# Two-node demo
network AB

node A { outcomes: t, f }
cpt A:
  0.5 0.5

node B { outcomes: t, f }
parents B: A
cpt B:
  0.9 0.1
  0.2 0.8
"""


def test_parse_ab_document():
    net = bnras.parse_network(AB_DOC)
    assert net.name == "AB"
    assert [nd.name for nd in net.nodes] == ["A", "B"]
    assert net.node("B").parents == ("A",)
    assert bnras.conditional_probability(net, "B", 0, [0, 0]) == 0.9
    assert bnras.validate_network(net).ok


def test_parse_matches_builtin(ab):
    assert bnras.parse_network(AB_DOC) == ab


def test_undeclared_parent_is_semantic_error():
    doc = "network X\nnode B { outcomes: t, f }\nparents B: Q\ncpt B:\n 0.5 0.5\n"
    with pytest.raises(bnras.NetworkFormatError, match="unknown parent Q"):
        bnras.parse_network(doc)


def test_empty_input_is_syntax_error():
    with pytest.raises(bnras.NetworkFormatError, match="no network declared"):
        bnras.parse_network("")
    with pytest.raises(bnras.NetworkFormatError, match="no network declared"):
        bnras.parse_network("   # only a comment\n")


def test_errors_carry_line_numbers():
    doc = "network X\nnode A { outcomes: t, f }\ncpt A:\n  0.6 0.5\n"
    with pytest.raises(bnras.NetworkFormatError) as info:
        bnras.parse_network(doc)
    assert info.value.line == 3  # the cpt declaration
    assert "line 3" in str(info.value)
    # validation issues name their block and land on its line
    head = "network X\nnode A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n"  # lines 1-4
    cases = [
        (
            head + "node B { outcomes: t, f }\nparents B: A, A\ncpt B:\n" + " 0.5 0.5\n" * 4,
            "parents B: repeated parent",
            6,
        ),
        (
            head + "node B { outcomes: t, t }\ncpt B:\n 0.5 0.5\n",
            "node B: duplicate outcome labels",
            5,
        ),
        (head + "node A { outcomes: t, f }\n", "node A: duplicate node", 5),
        (
            head + "node B { outcomes: t, f }\ncpt B:\n 1.5 -0.5\n",
            "cpt B: row 0 has entries outside",
            6,
        ),
        (
            "network X\nnode A { outcomes: t, f }\nnode B { outcomes: t, f }\n"
            "parents A: B\nparents B: A\n"  # lines 4-5
            "cpt A:\n 0.5 0.5\n 0.5 0.5\ncpt B:\n 0.5 0.5\n 0.5 0.5\n",
            "parent relation contains a cycle",
            4,
        ),
    ]
    for text, message, line in cases:
        with pytest.raises(bnras.NetworkFormatError, match=f"line {line}, column \\d+: {message}"):
            bnras.parse_network(text)


def test_bad_row_sum_names_node_and_row():
    doc = (
        "network X\n"
        "node A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n"
        "node B { outcomes: t, f }\nparents B: A\n"
        "cpt B:\n 0.9 0.1\n 0.7 0.5\n"
    )
    with pytest.raises(bnras.NetworkFormatError, match=r"cpt B: row 1 sums"):
        bnras.parse_network(doc)


def test_wrong_probability_count():
    doc = "network X\nnode A { outcomes: t, f }\ncpt A:\n 0.5 0.5 0.3\n"
    with pytest.raises(bnras.NetworkFormatError, match="expected 1 rows of 2"):
        bnras.parse_network(doc)


def test_cpt_sizes_judged_at_the_cpt_line():
    head = "network X\nnode A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n"  # lines 1-4
    child = "node B { outcomes: t, f }\nparents B: A\ncpt B:\n"  # cpt B on line 7
    cases = [
        (" 0.5 0.5\n", "cpt B: 2 probabilities, expected 2 rows of 2"),  # a whole row missing
        (" 0.5 0.5\n 1\n", "cpt B: row 1 has 1 entries, expected 2"),  # a short last row
    ]
    for numbers, message in cases:
        with pytest.raises(bnras.NetworkFormatError, match=f"^line 7, column \\d+: {message}$"):
            bnras.parse_network(head + child + numbers)


def test_first_validation_issue_reported():
    # validate_network lists A's bad row sum before B's unknown parent
    doc = (
        "network X\nnode A { outcomes: t, f }\ncpt A:\n 0.6 0.5\n"
        "node B { outcomes: t, f }\nparents B: Q\ncpt B:\n 0.5 0.5\n 0.5 0.5\n"
    )
    with pytest.raises(bnras.NetworkFormatError, match=r"^line 3, column \d+: cpt A: row 0 sums"):
        bnras.parse_network(doc)


def test_duplicate_declarations_rejected():
    base = "network X\nnode A { outcomes: t, f }\n"
    with pytest.raises(bnras.NetworkFormatError, match="duplicate node"):
        bnras.parse_network(base + "node A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n")
    with pytest.raises(bnras.NetworkFormatError, match="duplicate cpt"):
        bnras.parse_network(base + "cpt A:\n 0.5 0.5\ncpt A:\n 0.5 0.5\n")
    doc = (
        "network X\nnode A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n"
        "node B { outcomes: t, f }\nparents B: A\nparents B: A\ncpt B:\n 0.5 0.5\n 0.5 0.5\n"
    )
    with pytest.raises(bnras.NetworkFormatError, match="duplicate parents"):
        bnras.parse_network(doc)


def test_missing_cpt_rejected():
    with pytest.raises(bnras.NetworkFormatError, match="no cpt declared"):
        bnras.parse_network("network X\nnode A { outcomes: t, f }\n")


def test_cycle_rejected_at_parse():
    doc = (
        "network X\n"
        "node A { outcomes: t, f }\nnode B { outcomes: t, f }\n"
        "parents A: B\nparents B: A\n"
        "cpt A:\n 0.5 0.5\n 0.5 0.5\ncpt B:\n 0.5 0.5\n 0.5 0.5\n"
    )
    with pytest.raises(bnras.NetworkFormatError, match="cycle"):
        bnras.parse_network(doc)


def test_probability_out_of_range_rejected():
    doc = "network X\nnode A { outcomes: t, f }\ncpt A:\n 1.5 -0.5\n"
    with pytest.raises(bnras.NetworkFormatError, match="outside"):
        bnras.parse_network(doc)


def test_scientific_notation_accepted():
    doc = "network X\nnode A { outcomes: t, f }\ncpt A:\n 5e-1 5.0e-1\n"
    net = bnras.parse_network(doc)
    assert net.node("A").cpt.rows == ((0.5, 0.5),)


def test_near_one_row_renormalized_on_load():
    doc = "network X\nnode A { outcomes: t, f }\ncpt A:\n 0.5 0.5000000001\n"
    net = bnras.parse_network(doc)
    row = net.node("A").cpt.rows[0]
    assert abs(sum(row) - 1.0) < 1e-12
    assert row != (0.5, 0.5000000001)


def test_round_trip_identity_on_bundled(nets):
    for net in nets.values():
        assert bnras.parse_network(bnras.serialize_network(net)) == net


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(positive_networks())
def test_round_trip_identity_on_random_networks(case):
    net, _ = case
    assert bnras.parse_network(bnras.serialize_network(net)) == net


def test_parse_serialize_parse_idempotent(nets):
    for net in nets.values():
        text = bnras.serialize_network(net)
        assert bnras.serialize_network(bnras.parse_network(text)) == text


def test_serialize_isolated_node_has_no_parents_line():
    net = bnras.parse_network("network ONE\nnode A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n")
    text = bnras.serialize_network(net)
    assert "parents" not in text
    assert "node A" in text


def test_serialize_survives_ugly_floats():
    third = 1.0 / 3.0
    doc = f"network T\nnode A {{ outcomes: a, b, c }}\ncpt A:\n {third!r} {third!r} {third!r}\n"
    net = bnras.parse_network(doc)
    assert bnras.parse_network(bnras.serialize_network(net)) == net


def test_parse_document_collects_diagnostics():
    doc = bnras.parse_document("network X\nnode A {")
    assert doc.network is None
    assert doc.diagnostics
    assert doc.diagnostics[0].line >= 1


def test_diagnostic_carries_bare_message():
    doc = bnras.parse_document(AB_DOC.replace("0.2 0.8", "0.2 0.9"))
    (diag,) = doc.diagnostics
    assert not diag.message.startswith("line")
    assert str(diag) == f"line {diag.line}, column {diag.column}: {diag.message}"
    with pytest.raises(bnras.NetworkFormatError) as info:
        bnras.parse_network(AB_DOC.replace("0.2 0.8", "0.2 0.9"))
    assert info.value.message == diag.message
    assert str(info.value) == str(diag)


def test_parse_document_ok():
    doc = bnras.parse_document(AB_DOC)
    assert doc.network is not None and doc.diagnostics == []
    assert doc.network.name == "AB"


def test_fuzz_never_crashes():
    rng = random.Random(2024)
    alphabet = "network node parents cpt outcomes {}:,.0123456789ef\n\t #ABC\x00\x7f\u00e9"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
        doc = bnras.parse_document(text)
        assert doc.network is not None or doc.diagnostics
        for diag in doc.diagnostics:
            assert diag.line >= 1


def test_parse_evidence_basic(ab):
    ev = bnras.parse_evidence("B=t", ab)
    assert ev.assignments == {"B": 0}
    assert bnras.parse_evidence("", ab).assignments == {}
    ev2 = bnras.parse_evidence(" A = f , B = t ", ab)
    assert ev2.assignments == {"A": 1, "B": 0}


def test_parse_evidence_errors(ab):
    with pytest.raises(bnras.NetworkFormatError, match="no outcome 'maybe'"):
        bnras.parse_evidence("B=maybe", ab)
    with pytest.raises(bnras.NetworkFormatError, match="unknown node"):
        bnras.parse_evidence("Q=t", ab)
    with pytest.raises(bnras.NetworkFormatError, match="twice"):
        bnras.parse_evidence("B=t,B=f", ab)
    with pytest.raises(bnras.NetworkFormatError, match="not Name=outcome"):
        bnras.parse_evidence("B", ab)


def test_format_evidence_declaration_order(ab):
    ev = bnras.parse_evidence("B=t,A=f", ab)
    assert bnras.format_evidence(ev, ab) == "A=f,B=t"
    assert bnras.format_evidence(Evidence.empty(), ab) == ""


def test_builtin_catalog(nets):
    assert len(nets) >= 4
    assert {"AB", "PATH2", "CHAIN5", "MINIALARM"} <= set(nets)
    path2 = nets["PATH2"]
    assert bnras.conditional_probability(path2, "B", 0, [0, 0]) == 0.99
    for net in nets.values():
        report = bnras.validate_network(net)
        assert report.ok and all(nd.cpt.positive for nd in net.nodes)


def test_minialarm_shape(minialarm):
    assert len(minialarm.nodes) == 8
    assert all(len(nd.outcomes) == 2 for nd in minialarm.nodes)
    assert max(len(nd.parents) for nd in minialarm.nodes) == 3
    for nd in minialarm.nodes:
        assert nd.cpt.min_entry >= 0.05
        assert nd.cpt.max_entry <= 0.95
    # multiply connected: two directed paths from PUMPFAIL to PRESSURE
    assert "RATE" in bnras.markov_blanket(minialarm, "PRESSURE")
    assert "OUTPUT" in bnras.markov_blanket(minialarm, "PRESSURE")
