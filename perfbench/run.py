"""Benchmark of bnras: one user session per workload, each in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's inputs are generated from
the seed; sessions are repeated, each in a new process, until S seconds have
passed (at least three). With --trace 0 the end-to-end metrics are the
medians over sessions; with --trace 1 sessions alternate untraced and
traced, and the per-layer metrics are the medians over the traced ones.
Every session's outputs are checked; the last line printed is the JSON
result. Work files go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import os

# BLAS threads are capped at the processors this process may run on; set
# before numpy is imported, here and in every session
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import netgen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_ROUNDS = 3
# Timings are scaled to the speed at which the session's probe loop takes
# this long; see SpeedProbe in session.py and the README.
REFERENCE_PROBE_S = 0.0005
SESSION_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "session_s": "s",
    "bnras_transitions_per_s": "transitions/s",
    "straight_steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "rng.stream_setup_us": "us", "rng.draw_ns": "ns",
    "model_io.parse_ms": "ms", "network.validate_ms": "ms", "network.compile_ms": "ms",
    "chain.full_conditional_us": "us", "chain.lazy_step_us": "us", "chain.trial_us": "us",
    "chain.cyclic_step_us": "us", "chain.holds": "count", "chain.resamples": "count",
    "estimate.bnras_s": "s", "estimate.straight_s": "s", "estimate.error_metrics_us": "us",
    "exact.enumerate_s": "s", "exact.states": "count", "exact.matrix_s": "s",
    "exact.rpd_s": "s", "bounds.exact_s": "s", "bounds.factored_us": "us",
    "bounds.enumerations": "count", "cli.command_s": "s", "cli.scoring_s": "s",
    "cli.rows": "count", "trace.overhead_s": "s",
}


def _session(plan_path: str, workdir: str, index: int, traced: bool) -> dict:
    result = os.path.join(workdir, f"session-{index}.json")
    trace_path = os.path.join(workdir, f"trace-{index}.jsonl") if traced else None
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "session.py"), plan_path, result, repr(spawned)]
    proc = subprocess.run(cmd + ([trace_path] if traced else []), env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=SESSION_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"session process exited {proc.returncode}:\n{proc.stderr}")
    out = _read_json(result)
    out["trace"] = trace_path
    return out


def _read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _tables(plan: dict, name: str) -> tuple:
    """(names, outcomes, parents, CPT rows) of a network the plan names:
    from the generator for synthetic networks, else the bundled network."""
    import bnras

    for spec in netgen.synthetic_networks(plan["synthetic"]) if "synthetic" in plan else []:
        if spec["name"] == name:
            return spec["names"], spec["outcomes"], spec["parents"], spec["rows"]
    return oracle.network_tables(bnras.builtin_networks()[name])


def check_round(plan: dict, outputs: list[dict], refs) -> tuple[int, list[str], dict]:
    """(failed operations, check failures, sampler totals) of one session."""
    failed, fails = 0, []
    totals = {"bnras": [0, 0.0], "straight": [0, 0.0]}
    for step, out in zip(plan["steps"], outputs):
        if out["code"] != 0:
            failed += 1
            continue
        check = step["check"]
        kind = check["kind"]
        if kind == "validate":
            fails += checks.check_validate(out["stdout"], check["net"], check["nodes"])
            continue
        model = refs.model(check["net"], check["evidence"])
        if kind == "exact":
            fails += checks.check_exact(out["stdout"], model)
        elif kind == "bounds":
            factored = refs.factored(check["net"], check["evidence"])
            fails += checks.check_bounds(out["stdout"], check["mode"], model, factored)
        elif kind == "mixing":
            rpd = refs.cached(("rpd", check["net"], check["evidence"]),
                              lambda: model.rpd(step["t"]))
            fails += checks.check_mixing(out, model, rpd)
        elif kind == "csv":
            text = out["csv"]
            fails += checks.check_csv(text, check, model, refs)
            for algorithm, (n, wall) in checks.sampler_rates(checks.parse_csv(text)[1]).items():
                totals[algorithm][0] += n
                totals[algorithm][1] += wall
    return failed, fails, totals


def end_to_end(s: dict) -> tuple[dict, dict]:
    """End-to-end figures of one untraced session, as measured and scaled
    to the reference speed. The probe's pauses are taken out first; the
    sampler rows' wall times lose the share of the session the probe took."""
    scale = REFERENCE_PROBE_S / statistics.mean(s["speed_samples"])
    busy = 1.0 - s["session_paused_s"] / s["session_s"]
    raw = {"setup_s": s["setup_s"] - s["setup_paused_s"],
           "session_s": s["session_s"] - s["session_paused_s"]}
    for algorithm, name in (("bnras", "bnras_transitions_per_s"),
                            ("straight", "straight_steps_per_s")):
        n, wall = s["totals"][algorithm]
        raw[name] = n / (wall * busy) if wall > 0 else 0.0
    raw["peak_rss_mb"] = s["peak_rss_mb"]
    s["scale"] = scale
    scaled = {"setup_s": raw["setup_s"] * scale, "session_s": raw["session_s"] * scale,
              "bnras_transitions_per_s": raw["bnras_transitions_per_s"] / scale,
              "straight_steps_per_s": raw["straight_steps_per_s"] / scale,
              "peak_rss_mb": raw["peak_rss_mb"]}
    return raw, scaled


def basin_flips(panel: int = 20000) -> tuple[list[str], str]:
    """Count how often straight simulation on PATH2 switches basin.

    Over a fixed panel of seeds, each chain starts uniform, runs one sweep
    (A then B) and then one more; a flip is A changing value during the
    second sweep. The flips are independent across seeds, so their count is
    Binomial(panel, p) with p the exact flip probability of that sweep,
    2 * 0.99 * 0.01 = 0.0198, since the first sweep already leaves PATH2 at
    its stationary law. The count must lie in the central band that holds
    it with probability 1 - 1e-6.
    """
    import bnras

    net = bnras.builtin_networks()["PATH2"]
    empty = bnras.Evidence.empty()
    p = oracle.sweep_flip_probability(oracle.Model(*oracle.network_tables(net), {}), 0,
                                      warm_sweeps=1)
    flips = 0
    for seed in range(panel):
        rng = bnras.RandomStream(seed)
        cs = bnras.init_random_state(net, empty, rng)
        for _ in range(2):
            bnras.straight_step(net, cs, rng)
        before = cs.state[0]
        for _ in range(2):
            bnras.straight_step(net, cs, rng)
        flips += cs.state[0] != before
    lo, hi = oracle.binomial_band(panel, p, 1e-6)
    line = (f"basin flips on PATH2: {flips} in {panel} sweeps ({flips / panel:.4f} per sweep; "
            f"exact {p:.4f}, accepted [{lo}, {hi}] at false alarm 1e-6)")
    fails = [] if lo <= flips <= hi else [f"basin flips {flips} outside [{lo}, {hi}]"]
    return fails, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "bnras", "__init__.py")):
        print("error: run from the root of a bnras checkout; src/bnras is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(".perfbench", f"{args.workload}-seed{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    plan = workloads.WORKLOADS[args.workload](args.seed, workdir)
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle, indent=1)

    sessions = []
    begin = time.monotonic()
    while len(sessions) < MIN_ROUNDS * (1 + args.trace) or time.monotonic() - begin < args.seconds:
        traced = bool(args.trace) and len(sessions) % 2 == 1
        session = _session(plan_path, workdir, len(sessions), traced)
        for step, out in zip(plan["steps"], session["outputs"]):
            if step["check"]["kind"] == "csv" and out["code"] == 0:
                out["csv"] = _read_text(step["check"]["path"])
        sessions.append(session)

    refs = checks.References(lambda name: _tables(plan, name))
    attempted = failed = 0
    fails: list[str] = []
    for s in sessions:
        n_failed, round_fails, s["totals"] = check_round(plan, s["outputs"], refs)
        attempted += len(s["outputs"])
        failed += n_failed
        fails += round_fails
    if plan.get("basin_flips"):
        flip_fails, line = basin_flips()
        fails += flip_fails
        print(line)

    plain = [s for s in sessions if not s["trace"]]
    traced = [s for s in sessions if s["trace"]]
    for s in plain:
        s["raw"], s["scaled"] = end_to_end(s)
    for i, s in enumerate(sessions):
        b, st = s["totals"]["bnras"], s["totals"]["straight"]
        print(f"session {i}{' traced' if s['trace'] else ''}: setup {s['setup_s']:.4f} s, "
              f"session {s['session_s']:.4f} s, rss {s['peak_rss_mb']:.1f} MB, "
              f"bnras {b[0]} transitions in {b[1]:.4f} s, straight {st[0]} steps in {st[1]:.4f} s"
              + (f", speed scale {s['scale']:.3f}" if "scale" in s else ""))
    for message in dict.fromkeys(fails):
        print(f"CHECK FAILED: {message}")

    if args.trace:
        layers = [spans.layer_metrics(spans.read(s["trace"])) for s in traced]
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in layers[0]}
        values["cli.rows"] = sum(len(checks.parse_csv(out["csv"])[1])
                                 for out in traced[0]["outputs"] if "csv" in out)
        values["trace.overhead_s"] = (statistics.median(s["session_s"] for s in traced)
                                      - statistics.median(s["raw"]["session_s"] for s in plain))
        units = PER_LAYER
    else:
        for name in END_TO_END:
            print(f"unscaled {name} = {statistics.median(s['raw'][name] for s in plain):.6g}")
        values = {name: statistics.median(s["scaled"][name] for s in plain)
                  for name in END_TO_END}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": not fails, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(workdir, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
