"""One user session of a benchmark workload, in a fresh process.

    python3 perfbench/session.py PLAN RESULT SPAWNED [TRACE]

PLAN is the JSON plan run.py wrote: the networks to set up, the session's
steps (bnras CLI invocations and library calls) and, for traced runs, the
probe. SPAWNED is the parent's time.monotonic() just before it started this
process, so set-up time counts from process start. With TRACE, spans are
recorded and written there; probes of the fine-grained public functions
run after the session and do not count in its time.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import signal
import sys
import time
import traceback


class SpeedProbe:
    """Samples how fast this process runs interpreter-bound code.

    Every PERIOD seconds a timer interrupts the session between bytecodes
    and times a fixed loop of table lookups, float products and draws. The
    samples are spread evenly over time, so their mean follows the
    machine's speed through the session; ``paused`` is the time the probe
    took away from it.
    """

    PERIOD = 0.05

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0
        self._draw = random.Random(1304).random
        self._table = [0.1 * i for i in range(64)]

    def _tick(self, signum, frame):
        entered = time.perf_counter()
        draw, table, acc = self._draw, self._table, 0.0
        for _ in range(2000):
            j = int(draw() * 64)
            acc += table[j] * table[(j * 7) & 63]
        took = time.perf_counter() - entered
        self.samples.append(took)
        self.paused += took

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _load(bnras, ref: str):
    """A builtin name or a .bn path, parsed, validated and compiled."""
    catalog = bnras.builtin_networks()
    if ref in catalog:
        net = catalog[ref]
    else:
        with open(ref, encoding="utf-8") as handle:
            doc = bnras.parse_document(handle.read())
        if doc.network is None:
            raise SystemExit(f"{ref}: {doc.diagnostics}")
        report = bnras.validate_network(doc.network)
        if not report.ok:
            raise SystemExit(f"{ref}: {report.issues}")
        net = doc.network
    net.tables
    return net


def _step(bnras, nets, step, span) -> dict:
    if "cli" in step:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                span("cli.command", cmd=step["cli"][0]):
            code = bnras.cli.main(step["cli"])
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    net = nets[step["network"]]
    ev = bnras.parse_evidence(step["evidence"], net)
    report = bnras.mixing_report(net, ev, tuple(step["t"]))
    return {"code": 0, "pi_min": report.pi_min, "p0": report.p0,
            "rpd": {str(t): v for t, v in report.rpd.items()}}


def _probes(bnras, net, ev, t: int, span) -> None:
    """Time single calls of the chain and rng layers on the session's
    network, from fixed seeds, and count the draws of lazy transitions."""
    seed = 20131304

    class CountingStream(bnras.RandomStream):
        draws = 0

        def random(self):
            self.draws += 1
            return super().random()

    rs = bnras.RandomStream(seed)
    with span("rng.spawn", calls=20000):
        for j in range(20000):
            rs.spawn(j)
    draw = rs.random
    with span("rng.draw", calls=200000):
        for _ in range(200000):
            draw()
    cs = bnras.init_random_state(net, ev, rs)
    with span("chain.lazy_step", calls=20000):
        for _ in range(20000):
            bnras.do_transition(net, cs, rs)
    free = bnras.free_nodes(net, ev)
    state = tuple(cs.state)
    with span("chain.full_conditional", calls=10000):
        for j in range(10000):
            bnras.full_conditional(net, state, free[j % len(free)])
    trials = max(20, 20000 // max(t, 1))
    streams = [rs.spawn(j) for j in range(trials)]
    with span("chain.trial", calls=trials):
        for stream in streams:
            bnras.next_trial(net, ev, t, stream)
    cs = bnras.init_random_state(net, ev, rs)
    with span("chain.cyclic_step", calls=20000):
        for _ in range(20000):
            bnras.straight_step(net, cs, rs)
    counting = CountingStream(seed)
    cs = bnras.init_random_state(net, ev, counting)
    holds = resamples = 0
    with span("chain.draw_count", calls=10000) as record:
        for _ in range(10000):
            before = counting.draws
            bnras.do_transition(net, cs, counting)
            used = counting.draws - before
            holds += used == 1
            resamples += used == 3
        record.update(holds=holds, resamples=resamples)


def main(argv: list[str]) -> int:
    plan_path, result_path, spawned = argv[0], argv[1], float(argv[2])
    trace_path = argv[3] if len(argv) > 3 else None
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    # the speed probe runs in untraced sessions only, so spans hold no pauses
    probe = contextlib.nullcontext(None) if trace_path else SpeedProbe()

    with probe as speed:
        import bnras
        import bnras.cli

        tracer = None
        span = lambda name, **attrs: contextlib.nullcontext({})  # noqa: E731
        if trace_path:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
            span = tracer.span

        nets = {ref: _load(bnras, ref) for ref in plan["networks"]}
        setup_end = time.monotonic()
        setup_paused = speed.paused if speed else 0.0

        outputs = []
        start = time.perf_counter()
        for step in plan["steps"]:
            try:
                outputs.append(_step(bnras, nets, step, span))
            except Exception:  # a failed operation is counted, not fatal
                outputs.append({"code": -1, "stderr": traceback.format_exc()})
        session_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        spec = plan["probe"]
        net = nets[spec["network"]]
        _probes(bnras, net, bnras.parse_evidence(spec["evidence"], net), spec["t"], span)
        tracer.write(trace_path)

    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"setup_s": setup_end - spawned, "setup_paused_s": setup_paused,
                   "session_s": session_s,
                   "session_paused_s": speed.paused - setup_paused if speed else 0.0,
                   "speed_samples": speed.samples if speed else [],
                   "peak_rss_mb": peak_rss_mb, "outputs": outputs}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
