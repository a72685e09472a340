"""One benchmark process: set up a workload, repeat it, report as JSON.

``run.py`` starts this script once per measured set-up, always in a
fresh interpreter, and reads the single JSON object it prints last.
Modes:

- ``reps``: set up, run one warm-up repetition, then repeat the workload
  until the window is used.  With ``--trace 1`` every other repetition
  records spans (tracemalloc stays off, so span times are real timings),
  and the sampler-route probes run after the repetitions.
- ``cold``: time one cold public call that builds sampler state, or,
  with ``--tracemalloc 1``, measure its traced peak memory instead.

Span: name, start, end, CPU seconds, parent span, run id; all kept in
memory and returned with the result.  CPU time is recorded but is no
end-to-end metric: a change that adds process workers would otherwise
count as a regression for using the second core.

numpy and erwlab are imported inside functions, so that ``import_s``
covers their import.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path

CLOCK = time.CLOCK_MONOTONIC  # shared by all processes, so set-up can start in the parent


def now() -> float:
    return time.clock_gettime(CLOCK)


class Tracer:
    """Spans around public calls, kept in memory; a no-op when disabled."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, force: bool = False):
        """Record a span; ``force`` records it even while call spans are off."""
        if not (self.enabled or force):
            yield None
            return
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "name": name, "start": now(), "end": None,
               "cpu_s": None}
        cpu = time.process_time()
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            rec["end"] = now()
            rec["cpu_s"] = time.process_time() - cpu

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def totals(self, root: int) -> dict:
        """Summed duration per span name among the descendants of ``root``."""
        inside = {root}
        out: dict[str, float] = {}
        for s in self.spans[root + 1:]:
            if s["parent"] in inside:
                inside.add(s["id"])
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out


def rep_seed(seed: int, worker: int, rep: int) -> int:
    """Master seed of one repetition, a pure function of the run seed."""
    import numpy as np

    ss = np.random.SeedSequence([seed, worker, rep])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_routes(size: dict, seed: int) -> dict:
    """Draw throughput of each sampler route, reached through public calls.

    Each route is warmed with one draw first, so the rate excludes the
    cold build, which the ``cold`` mode measures on its own; the rate is
    taken from the median of three timed batches.
    """
    import erwlab
    from erwlab.seeding import TAG_GENERAL, substream

    from workloads import BOUNDED, TRANSIENT

    env = erwlab.parse_env(TRANSIENT)
    bounded = erwlab.parse_env(BOUNDED)
    rng = substream(seed, TAG_GENERAL, 1)
    n = size["draws"]
    rates = {}
    routes = [(f"kks.sample_U_many.x{label}.draws_per_s", env, x)
              for label, x in (("5", 5), ("20", 20), ("100", 100), ("500", 500),
                               ("1e4", 10_000), ("1e6", 1_000_000))]
    routes.append(("kks.sample_U_many.bounded.x100.draws_per_s", bounded, 100))
    for name, e, x in routes:
        erwlab.sample_U_many(e, x, 1, rng)
        rates[name] = n / median_time(lambda: erwlab.sample_U_many(e, x, n, rng))
    m = size["scalar_draws"]
    erwlab.sample_U(env, 10_000, rng)
    rates["kks.sample_U.x1e4.draws_per_s"] = m / median_time(
        lambda: [erwlab.sample_U(env, 10_000, rng) for _ in range(m)])
    return rates


def median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t = now()
        fn()
        times.append(now() - t)
    return statistics.median(times)


def run_reps(args) -> dict:
    tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{args.worker}")
    with tracer.span("worker", force=args.trace):
        with tracer.span("setup", force=args.trace) as setup_id:
            t = now()
            import erwlab  # noqa: F401  (timed: part of set-up)
            import_s = now() - t
            import workloads

            size_set = workloads.SIZES[args.size]
            wl = workloads.WORKLOADS[args.workload]
            size = size_set[args.workload]
            tracer.enabled = args.trace
            state = wl.setup(tracer, size, args.seed)
            tracer.enabled = False
        setup_s = now() - args.t_spawn
        setup_spans = tracer.totals(setup_id) if args.trace else {}

        # Repetition 0 warms caches and lazy state: its checks count, its
        # time does not.  With tracing, measured repetitions alternate
        # between span-recorded and plain.
        reps = []
        checks = []
        counts = {}
        digest = None
        start = now()
        r = 0
        while True:
            traced = bool(args.trace) and r % 2 == 1
            tracer.enabled = traced
            seed = rep_seed(args.seed, args.worker, r)
            with tracer.span("rep", force=traced) as rep_id:
                t = now()
                res = wl.rep(tracer, state, size, seed)
                wall = now() - t
            tracer.enabled = False
            checks += [{"rep": r, "name": n, "passed": p, "detail": d}
                       for n, p, d in res.checks]
            if r == 0:
                counts = res.counts
                digest = res.digest()
            else:
                rep = {"index": r, "wall_s": wall, "steps": res.steps, "traced": traced}
                if traced:
                    rep["spans"] = tracer.totals(rep_id)
                    rep["layer_steps"] = res.layer_steps
                reps.append(rep)
            r += 1
            if not reps:
                continue
            elapsed = now() - start
            typical = statistics.median(x["wall_s"] for x in reps)
            if elapsed + typical > args.window and (len(reps) >= 2 or not args.trace):
                break

        probes = {}
        if args.trace:
            with tracer.span("probes", force=True):
                probes = probe_routes(size_set["probe"], args.seed)

    return {
        "setup_s": setup_s,
        "import_s": import_s,
        "setup_spans": setup_spans,
        "peak_rss_mb": peak_rss_mb(),
        "reps": reps,
        "checks": checks,
        "counts": counts,
        "digest": digest,
        "probes": probes,
        "spans": tracer.spans if args.trace else [],
    }


def run_cold(args) -> dict:
    """Time, or trace the memory of, one cold sampler build."""
    import tracemalloc

    import erwlab
    from erwlab.seeding import TAG_GENERAL, substream

    import workloads

    size = workloads.SIZES[args.size]
    if args.cold == "x1e6":
        env = erwlab.parse_env(workloads.TRANSIENT)
        build = partial(erwlab.sample_U_many, env, max(size["ladder"]["xs"]), 1,
                        substream(args.seed, TAG_GENERAL))
    else:
        # The transient pile builds the larger table; the cap depends on
        # the horizon, so the probe uses the chain workload's.
        env = erwlab.parse_env(workloads.TRANSIENT)
        build = partial(erwlab.simulate_Z_ensemble, env, "right", size["chain"]["horizon"], 1,
                        master_seed=args.seed)
    if args.tracemalloc:
        tracemalloc.start()
    t = now()
    build()
    cold_s = now() - t
    out = {"cold_s": cold_s}
    if args.tracemalloc:
        out["cold_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True, help="directory holding the erwlab package")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--worker", type=int, default=0, help="index of this set-up within the run")
    p.add_argument("--window", type=float, default=5.0, help="seconds of repetitions")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t-spawn", type=float, required=True,
                   help="CLOCK_MONOTONIC time at which the parent started this process")
    p.add_argument("--cold", choices=("x1e6", "chain"))
    p.add_argument("--tracemalloc", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    out = run_cold(args) if args.cold else run_reps(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
