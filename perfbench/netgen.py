"""Seeded synthetic belief networks for the synthetic-oracle workload.

Every network has the same shape for every seed, so its cost does not
depend on the seed: binary nodes X00, X01, ... where node i has parents
i-1, i-2 and i-3 (those that exist). The skip edges close undirected
cycles, so the network is multiply connected, and an inner node's Markov
blanket holds six nodes and four tables, wider than any in MINIALARM. The
seed draws each CPT row's first entry uniformly from [LOW, HIGH], which
keeps every table strictly positive, and picks the evidence outcomes.

Regenerate the networks of a seed by hand with

    python3 perfbench/netgen.py --seed 0 --out some/dir
"""

from __future__ import annotations

import argparse
import os
import random

LOW, HIGH = 0.2, 0.8
OFFSETS = (1, 2, 3)


def layered(name: str, size: int, evidence_nodes: tuple[int, ...], rng: random.Random) -> dict:
    names = [f"X{i:02d}" for i in range(size)]
    parents = [[names[i - d] for d in sorted(OFFSETS, reverse=True) if i - d >= 0]
               for i in range(size)]
    rows = []
    for ps in parents:
        table = []
        for _ in range(2 ** len(ps)):
            p = rng.uniform(LOW, HIGH)
            table.append([p, 1.0 - p])
        rows.append(table)
    evidence = {names[i]: rng.randrange(2) for i in evidence_nodes}
    return {"name": name, "names": names, "outcomes": [["t", "f"]] * size,
            "parents": parents, "rows": rows, "evidence": evidence}


def synthetic_networks(seed: int) -> list[dict]:
    """SYNEXACT: 18 nodes, 2 observed, so 2^16 free joint states for the
    enumeration oracle. SYNMIX: 12 nodes, 1 observed, so a 2^11-state chain
    for the transition matrix and the mixing figures."""
    rng = random.Random(f"synthetic-oracle/{seed}")
    return [layered("SYNEXACT", 18, (8, 17), rng), layered("SYNMIX", 12, (11,), rng)]


def to_bn(spec: dict) -> str:
    lines = ["# generated by perfbench/netgen.py", f"network {spec['name']}"]
    for name, outcomes, ps, table in zip(spec["names"], spec["outcomes"],
                                         spec["parents"], spec["rows"]):
        lines += ["", f"node {name} {{ outcomes: {', '.join(outcomes)} }}"]
        if ps:
            lines.append(f"parents {name}: {', '.join(ps)}")
        lines.append(f"cpt {name}:")
        lines += ["  " + " ".join(repr(p) for p in row) for row in table]
    return "\n".join(lines) + "\n"


def evidence_string(spec: dict) -> str:
    return ",".join(f"{name}={spec['outcomes'][spec['names'].index(name)][v]}"
                    for name, v in spec["evidence"].items())


def write_networks(seed: int, out: str) -> dict[str, str]:
    """Write the seed's networks as <out>/<NAME>.bn; return name -> path."""
    os.makedirs(out, exist_ok=True)
    paths = {}
    for spec in synthetic_networks(seed):
        path = os.path.join(out, f"{spec['name']}.bn")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(to_bn(spec))
        paths[spec["name"]] = path
    return paths


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for name, path in write_networks(args.seed, args.out).items():
        print(path)
