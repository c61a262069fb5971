"""The three user sessions, generated from the workload seed.

A plan lists the networks the session sets up, its steps and the probe of
traced runs. Each step is a bnras CLI invocation or a library call, with a
``check`` entry that only the checker reads. Every path is relative to the
root of the checkout.
"""

from __future__ import annotations

import os
import random

import netgen

TOLERANCES = ["--alpha", "0.1", "--delta", "0.1", "--gamma", "0.1"]
RPD_T = [1, 4, 16]


def _bounds(network: str, evidence: str, name: str) -> list[dict]:
    return [{"cli": ["bounds", "--network", network, "--evidence", evidence,
                     *TOLERANCES, "--mode", mode],
             "check": {"kind": "bounds", "net": name, "evidence": evidence, "mode": mode}}
            for mode in ("exact", "factored")]


def _mixing(network: str, evidence: str, name: str) -> dict:
    return {"network": network, "evidence": evidence, "t": RPD_T,
            "check": {"kind": "mixing", "net": name, "evidence": evidence}}


def _compare(network, evidence, name, total, transitions, seeds, stride, out) -> dict:
    runs = []
    for s in seeds:
        runs.append({"algorithm": "bnras", "seed": s, "trials": total // transitions,
                     "t": transitions})
        runs.append({"algorithm": "straight", "seed": s, "total": total})
    return {"cli": ["compare", "--network", network, "--evidence", evidence,
                    "--total", str(total), "--transitions", str(transitions),
                    "--seeds", f"{seeds[0]}:{seeds[-1] + 1}", "--stride", str(stride),
                    "--out", out],
            "check": {"kind": "csv", "path": out, "net": name, "evidence": evidence,
                      "stride": stride, "runs": runs}}


def alarm_compare(seed: int, workdir: str) -> dict:
    """The paper's experiment on its multiply connected medical model."""
    rng = random.Random(f"alarm-compare/{seed}")
    evidence = f"ALARM={rng.choice('tf')}"
    first = rng.randrange(1_000_000)
    return {
        "networks": ["MINIALARM"],
        "steps": [
            {"cli": ["exact", "--network", "MINIALARM", "--evidence", evidence],
             "check": {"kind": "exact", "net": "MINIALARM", "evidence": evidence}},
            *_bounds("MINIALARM", evidence, "MINIALARM"),
            _compare("MINIALARM", evidence, "MINIALARM", 40_000, 100,
                     list(range(first, first + 8)), 2000,
                     os.path.join(workdir, "compare.csv")),
            _mixing("MINIALARM", evidence, "MINIALARM"),
        ],
        "probe": {"network": "MINIALARM", "evidence": evidence, "t": 100},
    }


def path2_restarts(seed: int, workdir: str) -> dict:
    """Acceptance 07's quantity arm and acceptance 08's straight arm."""
    rng = random.Random(f"path2-restarts/{seed}")
    restart_seed = rng.randrange(1_000_000)
    first = rng.randrange(1_000_000)
    quantity = os.path.join(workdir, "quantity.csv")
    straight = os.path.join(workdir, "straight.csv")
    seeds = list(range(first, first + 30))
    return {
        "networks": ["PATH2"],
        "steps": [
            *_bounds("PATH2", "B=t", "PATH2"),
            _mixing("PATH2", "", "PATH2"),
            {"cli": ["sweep", "--network", "PATH2", "--evidence", "B=t",
                     "--algorithm", "bnras", "--trials", "100000", "--transitions", "1",
                     "--seeds", str(restart_seed), "--out", quantity],
             "check": {"kind": "csv", "path": quantity, "net": "PATH2", "evidence": "B=t",
                       "stride": 0, "runs": [{"algorithm": "bnras", "seed": restart_seed,
                                              "trials": 100_000, "t": 1}]}},
            {"cli": ["sweep", "--network", "PATH2", "--algorithm", "straight",
                     "--total", "10000", "--seeds", f"{first}:{first + 30}", "--out", straight],
             "check": {"kind": "csv", "path": straight, "net": "PATH2", "evidence": "",
                       "stride": 0, "exact_law": True,
                       "runs": [{"algorithm": "straight", "seed": s, "total": 10_000}
                                for s in seeds]}},
        ],
        "probe": {"network": "PATH2", "evidence": "B=t", "t": 1},
        "basin_flips": True,
    }


def synthetic_oracle(seed: int, workdir: str) -> dict:
    """Generated networks sized for the enumeration oracle and the matrix."""
    rng = random.Random(f"synthetic-oracle/sessions/{seed}")
    paths = netgen.write_networks(seed, os.path.join(workdir, "nets"))
    specs = {spec["name"]: spec for spec in netgen.synthetic_networks(seed)}
    big, mix = paths["SYNEXACT"], paths["SYNMIX"]
    ev_big = netgen.evidence_string(specs["SYNEXACT"])
    ev_mix = netgen.evidence_string(specs["SYNMIX"])
    first = rng.randrange(1_000_000)
    return {
        "networks": [big, mix],
        "steps": [
            {"cli": ["validate", big],
             "check": {"kind": "validate", "net": "SYNEXACT", "nodes": 18}},
            {"cli": ["validate", mix],
             "check": {"kind": "validate", "net": "SYNMIX", "nodes": 12}},
            {"cli": ["exact", "--network", big, "--evidence", ev_big],
             "check": {"kind": "exact", "net": "SYNEXACT", "evidence": ev_big}},
            *_bounds(mix, ev_mix, "SYNMIX"),
            _mixing(mix, ev_mix, "SYNMIX"),
            _compare(mix, ev_mix, "SYNMIX", 5000, 50, list(range(first, first + 16)), 1000,
                     os.path.join(workdir, "compare.csv")),
        ],
        "probe": {"network": mix, "evidence": ev_mix, "t": 50},
        "synthetic": seed,
    }


WORKLOADS = {
    "alarm-compare": alarm_compare,
    "path2-restarts": path2_restarts,
    "synthetic-oracle": synthetic_oracle,
}
