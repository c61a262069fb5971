"""Text format for belief networks, evidence strings, and the bundled nets.

Network documents (extension ``.bn``) are token streams:

    document    := "network" IDENT block*
    block       := nodedecl | parentsdecl | cptdecl
    nodedecl    := "node" IDENT "{" "outcomes" ":" IDENT ("," IDENT)+ "}"
    parentsdecl := "parents" IDENT ":" IDENT ("," IDENT)*
    cptdecl     := "cpt" IDENT ":" NUMBER+

``#`` starts a comment running to end of line; whitespace only separates
tokens. A cpt block's numbers are reshaped into rows of one entry per
outcome, with one row per combination of parent outcomes, the last declared
parent varying fastest. Probabilities may use scientific notation and are
read as 64-bit floats.

The parser checks only what needs the document: blocks naming undeclared
nodes, repeated ``parents``/``cpt`` blocks and a node without a cpt. It
cuts each cpt's numbers into rows of the node's outcome count; the network
it builds is then judged by :func:`bnras.network.validate_network` (outcome
counts and labels, duplicate nodes, unknown and repeated parents, table
sizes, entry range, row sums, cycles), whose first issue is raised at the
block it names. Rows must sum to 1 within 1e-9 and are renormalized on
load (see :func:`bnras.network.normalize_rows`).

Evidence strings are ``Name=outcome`` pairs separated by commas; the empty
string means no evidence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources

from .errors import NetworkFormatError
from .network import BeliefNetwork, Cpt, Evidence, Node, normalize_rows, validate_network

_BUILTIN_FILES = {
    "AB": "ab.bn",
    "PATH2": "path2.bn",
    "CHAIN5": "chain5.bn",
    "MINIALARM": "minialarm.bn",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}:,])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "ident" | "punct" | "eof"
    text: str
    line: int
    column: int


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


@dataclass
class NetworkDocument:
    """Parse result: the resolved network (if any) and location-tagged
    diagnostics."""

    network: BeliefNetwork | None
    diagnostics: list[Diagnostic]


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise NetworkFormatError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise NetworkFormatError(message, tok.line, tok.column)

    def expect_ident(self, what: str) -> Token:
        tok = self.take()
        if tok.kind != "ident":
            self.fail(f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}", tok)
        return tok

    def expect_punct(self, char: str) -> Token:
        tok = self.take()
        if tok.kind != "punct" or tok.text != char:
            self.fail(f"expected {char!r}, found {tok.text!r}" if tok.text else f"expected {char!r}", tok)
        return tok

    def ident_list(self, what: str) -> list[str]:
        """The texts of ``IDENT ("," IDENT)*``, each IDENT a ``what``."""
        items = [self.expect_ident(what).text]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.take()
            items.append(self.expect_ident(what).text)
        return items

    def parse(self) -> BeliefNetwork:
        head = self.take()
        if head.kind == "eof":
            self.fail("no network declared", head)
        if head.kind != "ident" or head.text != "network":
            self.fail(f"expected 'network', found {head.text!r}", head)
        name = self.expect_ident("network name").text

        # declaration order, then two-phase resolution so block order is free
        node_decls: list[tuple[Token, str, list[str]]] = []
        parent_decls: dict[str, tuple[Token, list[str]]] = {}
        cpt_decls: dict[str, tuple[Token, list[float]]] = {}

        while True:
            tok = self.take()
            if tok.kind == "eof":
                break
            if tok.kind != "ident" or tok.text not in ("node", "parents", "cpt"):
                self.fail(f"expected 'node', 'parents' or 'cpt', found {tok.text!r}", tok)
            if tok.text == "node":
                name_tok = self.expect_ident("node name")
                self.expect_punct("{")
                key = self.expect_ident("'outcomes'")
                if key.text != "outcomes":
                    self.fail(f"expected 'outcomes', found {key.text!r}", key)
                self.expect_punct(":")
                outcomes = self.ident_list("outcome label")
                self.expect_punct("}")
                node_decls.append((name_tok, name_tok.text, outcomes))
            elif tok.text == "parents":
                name_tok = self.expect_ident("node name")
                self.expect_punct(":")
                plist = self.ident_list("parent name")
                if name_tok.text in parent_decls:
                    self.fail(f"duplicate parents declaration for {name_tok.text}", name_tok)
                parent_decls[name_tok.text] = (name_tok, plist)
            else:  # cpt
                name_tok = self.expect_ident("node name")
                self.expect_punct(":")
                numbers = []
                while self.peek().kind == "number":
                    numbers.append(float(self.take().text))
                if not numbers:
                    self.fail(f"cpt {name_tok.text}: expected at least one probability")
                if name_tok.text in cpt_decls:
                    self.fail(f"duplicate cpt declaration for {name_tok.text}", name_tok)
                cpt_decls[name_tok.text] = (name_tok, numbers)

        return self.resolve(name, node_decls, parent_decls, cpt_decls)

    def resolve(self, name, node_decls, parent_decls, cpt_decls) -> BeliefNetwork:
        declared = {node_name for _, node_name, _ in node_decls}
        for kind, decls in (("parents", parent_decls), ("cpt", cpt_decls)):
            for node_name, (tok, _) in decls.items():
                if node_name not in declared:
                    self.fail(f"{kind} declared for unknown node {node_name}", tok)

        nodes = []
        for name_tok, node_name, outcomes in node_decls:
            plist = parent_decls.get(node_name, (None, []))[1]
            if node_name not in cpt_decls:
                self.fail(f"node {node_name}: no cpt declared", name_tok)
            numbers, k = cpt_decls[node_name][1], len(outcomes)
            # rows of k numbers; validate_network judges their count and widths
            rows = [numbers[r : r + k] for r in range(0, len(numbers), k)]
            nodes.append(Node(node_name, tuple(outcomes), tuple(plist), Cpt.from_rows(rows)))

        net = BeliefNetwork(name, tuple(nodes))
        issues = validate_network(net).issues
        if issues:
            # "kind X: ..." lands on X's kind block (a repeated node name on
            # its last node block); network-wide issues, such as the cycle,
            # on the first parents block
            blocks = {("node", n): tok for tok, n, _ in node_decls}
            blocks.update({("parents", n): tok for n, (tok, _) in parent_decls.items()})
            blocks.update({("cpt", n): tok for n, (tok, _) in cpt_decls.items()})
            kind, _, rest = issues[0].partition(" ")
            first = next(iter(parent_decls.values()))[0] if parent_decls else self.tokens[0]
            self.fail(issues[0], blocks.get((kind, rest.partition(":")[0]), first))
        return replace(
            net, nodes=tuple(replace(nd, cpt=Cpt(normalize_rows(nd.cpt.rows))) for nd in nodes)
        )


def parse_network(text: str) -> BeliefNetwork:
    """Parse a network document; raises NetworkFormatError with a location
    on the first syntactic problem or validation issue."""
    return _Parser(text).parse()


def parse_document(text: str) -> NetworkDocument:
    """Like :func:`parse_network` but never raises: problems come back as
    diagnostics, which makes this safe to run on arbitrary bytes."""
    try:
        net = parse_network(text)
    except NetworkFormatError as exc:
        return NetworkDocument(
            network=None,
            diagnostics=[Diagnostic(exc.line or 1, exc.column or 1, exc.message)],
        )
    return NetworkDocument(network=net, diagnostics=[])


def _fmt(p: float) -> str:
    return f"{p:.17g}"


def serialize_network(net: BeliefNetwork) -> str:
    """Canonical document for a network: one node block per node in
    declaration order, probabilities printed with 17 significant digits so
    parsing the output reproduces the network exactly."""
    lines = [f"network {net.name}"]
    for nd in net.nodes:
        lines.append("")
        lines.append(f"node {nd.name} {{ outcomes: {', '.join(nd.outcomes)} }}")
        if nd.parents:
            lines.append(f"parents {nd.name}: {', '.join(nd.parents)}")
        lines.append(f"cpt {nd.name}:")
        for row in nd.cpt.rows:
            lines.append("  " + " ".join(_fmt(p) for p in row))
    lines.append("")
    return "\n".join(lines)


def parse_evidence(spec: str, net: BeliefNetwork) -> Evidence:
    """Resolve a ``Name=outcome(,Name=outcome)*`` string against a network."""
    assignments: dict[str, int] = {}
    text = spec.strip()
    if not text:
        return Evidence({})
    for part in text.split(","):
        part = part.strip()
        if "=" not in part:
            raise NetworkFormatError(f"evidence item {part!r} is not Name=outcome")
        name, _, label = part.partition("=")
        name, label = name.strip(), label.strip()
        if name not in net.node_index:
            raise NetworkFormatError(f"evidence names unknown node {name!r}")
        if name in assignments:
            raise NetworkFormatError(f"evidence assigns node {name} twice")
        nd = net.node(name)
        if label not in nd.outcomes:
            raise NetworkFormatError(
                f"node {name} has no outcome {label!r} (has: {', '.join(nd.outcomes)})"
            )
        assignments[name] = nd.outcome_index(label)
    return Evidence(assignments)


def format_evidence(ev: Evidence, net: BeliefNetwork) -> str:
    """Canonical evidence string, nodes in declaration order."""
    parts = []
    for nd in net.nodes:
        if nd.name in ev:
            parts.append(f"{nd.name}={nd.outcomes[ev.get(nd.name)]}")
    return ",".join(parts)


@lru_cache(maxsize=1)
def builtin_networks() -> dict[str, BeliefNetwork]:
    """The bundled demonstration networks, parsed from package data.

    AB and PATH2 are two-node chains (PATH2 with near-deterministic
    coupling, the classic hard case for cyclic-scan simulation), CHAIN5 is
    a five-node chain, and MINIALARM is an eight-node multiply connected
    monitoring model. All pass validation with strictly positive tables.
    """
    catalog: dict[str, BeliefNetwork] = {}
    for name, filename in _BUILTIN_FILES.items():
        text = resources.files(__package__).joinpath(f"data/{filename}").read_text()
        catalog[name] = parse_network(text)
    return catalog
