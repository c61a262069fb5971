"""Shows that the benchmark's checks reject wrong outputs.

    python3 perfbench/selftest.py

Run from the root of a checkout. Each case feeds a check genuine bnras
output, which must pass, and a doctored copy, which must be rejected:

* ``exact`` output with one marginal shifted by 0.05, and with every
  posterior off by 1e-6;
* a randomized-sampler row with its errors shifted by 0.05, and a t=0 run
  labelled t=1 (PATH2 with B=t, 10^5 trials, as in path2-restarts);
* an rpd sequence that rises with t.

Exits 0 when every doctored copy is rejected and every genuine one passes.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _cli(bnras, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bnras.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"bnras {' '.join(argv)} exited {code}")
    return out.getvalue()


def _shift_posteriors(stdout: str, delta: float, first_only: bool) -> str:
    count = 1 if first_only else 0
    return re.sub(r"^(P\(\w+=\w+\|[^)]*\)=)(\S+)$",
                  lambda m: f"{m[1]}{float(m[2]) + delta:.6f}", stdout, count=count, flags=re.M)


def main() -> int:
    if not os.path.isfile(os.path.join("src", "bnras", "__init__.py")):
        print("error: run from the root of a bnras checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.abspath("src")]
    import bnras
    import bnras.cli
    import checks
    import oracle

    workdir = os.path.join(".perfbench", "selftest")
    os.makedirs(workdir, exist_ok=True)
    nets = bnras.builtin_networks()
    refs = checks.References(lambda name: oracle.network_tables(nets[name]))
    alarm = refs.model("MINIALARM", "ALARM=t")
    path2 = refs.model("PATH2", "B=t")
    cases = []

    exact = _cli(bnras, ["exact", "--network", "MINIALARM", "--evidence", "ALARM=t"])
    cases += [
        ("exact output", checks.check_exact(exact, alarm), False),
        ("exact marginal shifted by 0.05",
         checks.check_exact(_shift_posteriors(exact, 0.05, True), alarm), True),
        ("exact posteriors off by 1e-6",
         checks.check_exact(_shift_posteriors(exact, 1e-6, False), alarm), True),
    ]

    def sweep(t: int) -> list[dict]:
        path = os.path.join(workdir, f"path2-t{t}.csv")
        _cli(bnras, ["sweep", "--network", "PATH2", "--evidence", "B=t", "--algorithm",
                     "bnras", "--trials", "100000", "--transitions", str(t), "--seeds", "7",
                     "--out", path])
        with open(path, encoding="utf-8") as handle:
            return checks.parse_csv(handle.read())[1]

    genuine = sweep(1)
    shifted = [dict(r, avg_error=str(float(r["avg_error"]) + 0.05),
                    max_error=str(float(r["max_error"]) + 0.05)) for r in genuine]
    relabelled = [dict(r, transitions_per_trial="1", total_transitions="100000")
                  for r in sweep(0)]
    key = ("PATH2", "B=t")
    cases += [
        ("randomized t=1 row", checks.check_bnras_rows(genuine, path2, refs, key), False),
        ("randomized row errors shifted by 0.05",
         checks.check_bnras_rows(shifted, path2, refs, key), True),
        ("randomized t=0 run labelled t=1",
         checks.check_bnras_rows(relabelled, path2, refs, key), True),
    ]

    ts = (1, 10, 100)
    report = bnras.mixing_report(nets["MINIALARM"], bnras.parse_evidence("ALARM=t",
                                                                          nets["MINIALARM"]), ts)
    out = {"pi_min": report.pi_min, "p0": report.p0,
           "rpd": {str(t): v for t, v in report.rpd.items()}}
    rising = dict(out, rpd={str(t): report.rpd[u] for t, u in zip(ts, reversed(ts))})
    reference = alarm.rpd(ts)
    cases += [
        ("mixing report", checks.check_mixing(out, alarm, reference), False),
        ("rpd sequence that rises", checks.check_mixing(rising, alarm, reference), True),
    ]

    ok = True
    for name, fails, should_fail in cases:
        rejected = bool(fails)
        good = rejected == should_fail
        ok &= good
        verdict = "rejected" if rejected else "accepted"
        print(f"{'ok  ' if good else 'FAIL'} {name}: {verdict}"
              + (f" ({fails[0]})" if fails else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
