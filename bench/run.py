"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/``. With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run. The line
before it holds the machine facts and the reference-kernel times, and the
whole record is also written under ``bench/out/``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in the workload process; must precede numpy's import.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

from host import REFERENCE_S, Clock, reference_kernel

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SPEC = BENCH_DIR.parent / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"
SETUP_SECONDS = 1.0  # set-up time per batch of set-ups, before and between rounds
PROBE_SECONDS = 6.0  # map-probe wall time of a BA workload's run, spread over its rounds


def import_library():
    """Import pointline from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC_DIR))
    try:
        import pointline
    except ImportError as e:
        raise SystemExit(f"bench: cannot import pointline from {SRC_DIR}: {e}")
    if Path(pointline.__file__).resolve().parent.parent != SRC_DIR:
        raise SystemExit(f"bench: pointline was imported from {pointline.__file__}, not {SRC_DIR}")


def machine_facts() -> dict:
    import numpy as np

    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):  # the config layout differs across numpy versions
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def per_layer(setup_tracer, round_tracer, n_setups: int, n_rounds: int, overhead_s: float) -> dict:
    """Per-layer metrics: set-up layers per set-up, the rest per traced round."""
    out = {}
    for tracer, per in ((setup_tracer, n_setups), (round_tracer, n_rounds)):
        for name, agg in tracer.totals().items():
            for stat in ("calls", "s", "self_s"):
                out[f"{name}.{stat}"] = agg[stat] / per
    counters = round_tracer.counters
    for name, value in counters.items():
        # sizes of the last map and of the largest H are not summed over rounds
        out[name] = value if name in ("ba.dense_h.mb", "voma.map.cells") else value / n_rounds
    iterations = out.get("ba.lm.iterations", 0.0)
    accepted = out.get("ba.lm.accepted", 0.0)
    out["ba.lm.accept_ratio"] = accepted / iterations if iterations else 0.0
    out["ba.linearize.per_accepted"] = out.get("ba.linearize.calls", 0.0) / accepted if accepted else 0.0
    out["trace.overhead_s"] = overhead_s
    return out


@dataclass
class Loop:
    """What a run measured. Times are seconds at the reference host speed
    (host.py) unless named wall."""

    setup_s: list = field(default_factory=list)
    setup_wall_s: list = field(default_factory=list)
    rounds: list = field(default_factory=list)  # (traced, Clock) per round
    map_clocks: list = field(default_factory=list)  # (Clock, keyframes fused) per map sample
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    solves: dict = field(default_factory=dict)  # scene seed: (scene, values, report, experiment)
    peak_rss_mb: float | None = None

    def round_s(self, traced: bool) -> list[float]:
        return [clock.total() for t, clock in self.rounds if t == traced]


def timed_setups(wl, seed: int, index: int, loop: Loop, tracer):
    """Set up the inputs of round ``index`` at least once and until
    SETUP_SECONDS of wall time have been spent; returns the last inputs.
    Short set-ups thus give as many samples as long ones."""
    spent = 0.0
    while spent < SETUP_SECONDS:
        inputs = None  # drop this batch's previous inputs first
        gc.collect()
        clock = Clock()
        with tracer.installed() if tracer else contextlib.nullcontext():
            inputs = wl.setup(seed, index, clock)
        clock.close()
        loop.setup_s.append(clock.total())
        loop.setup_wall_s.append(sum(clock.wall().values()))
        spent += loop.setup_wall_s[-1]
    return inputs


def run_rounds(wl, seed: int, seconds: float, setup_tracer, round_tracer) -> Loop:
    """Set up, warm up, then a closed loop of whole rounds, until ``seconds``
    of round wall time have passed and at least the workload's ``rounds``
    have run, or in a traced run at least two untraced and two traced rounds,
    alternating. Between the rounds of an untraced run come, outside the
    rounds' time, a BA workload's map probe and the timed set-ups of the
    next round's inputs, so that those samples spread over the run as the
    rounds do; a traced run repeats its first inputs, so that its traced and
    untraced rounds do the same work."""
    loop = Loop()
    inputs = timed_setups(wl, seed, 0, loop, setup_tracer)
    wl.warmup()
    traced = round_tracer is not None
    probe_s, probe_inputs = 0.0, None
    while True:
        tracing = traced and len(loop.rounds) % 2 == 1
        gc.collect()  # every round starts from the same heap
        with round_tracer.installed() if tracing else contextlib.nullcontext():
            rnd = wl.round(inputs)
        loop.rounds.append((tracing, rnd.clock.close()))
        if loop.peak_rss_mb is None:
            # Rounds make allocations of the same sizes; the high-water mark
            # after the first leaves out the probe, later set-ups and checks.
            loop.peak_rss_mb = peak_rss_mb()
        loop.attempted += rnd.attempted
        loop.failed += rnd.failed
        loop.problems += wl.check(inputs, rnd)
        for solve in rnd.solves:
            seed_i, cost = solve[0].cfg.seed, solve[2].final_cost
            if seed_i in loop.solves and loop.solves[seed_i][2].final_cost != cost:
                loop.problems.append(f"scene seed {seed_i}: a repeated solve gave another final cost")
            loop.solves.setdefault(seed_i, solve)
        if rnd.fused_keyframes:
            loop.map_clocks.append((rnd.clock, rnd.fused_keyframes))
        if not traced and hasattr(wl, "map_probe"):  # map metrics of ba_*
            probe_inputs = probe_inputs or wl.probe_setup()
            while probe_s < PROBE_SECONDS * len(loop.rounds) / wl.rounds:
                gc.collect()
                # Collections in the probe scan only its own objects, not the
                # run's scenes and solves, whose number varies with the seed.
                gc.freeze()
                probe = wl.map_probe(probe_inputs)
                gc.unfreeze()
                loop.map_clocks.append((probe.clock.close(), probe.fused_keyframes))
                probe_s += sum(probe.clock.wall().values())
        rounds = len(loop.rounds)
        round_time = sum(sum(clock.wall().values()) for _, clock in loop.rounds)
        enough = rounds >= 4 and rounds % 2 == 0 if traced else rounds >= wl.rounds
        if enough and round_time >= seconds:
            return loop
        rnd = None
        if not traced:
            inputs = None  # drop this round's inputs before the next set-up
            inputs = timed_setups(wl, seed, rounds, loop, setup_tracer)


def end_to_end(loop: Loop) -> dict:
    samples = [s for clock, _ in loop.map_clocks for s in clock.scaled_samples()]
    fuse_s = sum(t for name, t in samples if name.startswith("fuse."))
    rebuilds = [t for name, t in samples if name.startswith("rebuild.")]
    experiments = [e for *_, e in loop.solves.values()]
    return {
        "setup_s": statistics.median(loop.setup_s),
        "run_s": statistics.median(loop.round_s(False)),
        "peak_rss_mb": loop.peak_rss_mb,
        "ate_mm": statistics.median(e.pose_translation_rmse for e in experiments) * 1e3,
        "line_rmse_mm": statistics.median(e.line_endpoint_rmse for e in experiments) * 1e3,
        "fuse_kf_per_s": sum(k for _, k in loop.map_clocks) / fuse_s,
        "rebuild_s": statistics.median(rebuilds),
    }


def trace_overhead(loop: Loop) -> float:
    """Median over pairs of alternating rounds of traced minus untraced time."""
    return statistics.median(t - u for u, t in zip(loop.round_s(False), loop.round_s(True)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import checks
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    spec = json.loads(SPEC.read_text())
    facts = machine_facts()
    reference_s = [reference_kernel(7)]

    traced = args.trace == 1
    setup_tracer, round_tracer = (Tracer(), Tracer()) if traced else (None, None)
    loop = run_rounds(wl, args.seed, args.seconds, setup_tracer, round_tracer)
    gains = [(sc.truth, sc.smap, values) for sc, values, _, _ in loop.solves.values()]
    problems = loop.problems + wl.run_checks(args.seed)
    problems += checks.check_accuracy_gain(gains) if gains else []

    if traced:
        values = per_layer(
            setup_tracer, round_tracer, len(loop.setup_s), len(loop.round_s(True)),
            trace_overhead(loop),
        )
        names = spec["per_layer"]
    else:
        values = end_to_end(loop)
        names = spec["end_to_end"]
    reference_s.append(reference_kernel(7))
    result = {
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in names
        },
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": facts, "reference_kernel_s": reference_s, "reference_speed_s": REFERENCE_S,
        "setup_s": loop.setup_s, "setup_wall_s": loop.setup_wall_s,
        "rounds": [
            {"traced": t, "steps": clock.scaled(), "wall_steps": clock.wall(), "reference_s": clock.refs}
            for t, clock in loop.rounds
        ],
        "map_steps": [clock.scaled() for clock, _ in loop.map_clocks],
        "accuracy_m": {
            seed: [e.pose_translation_rmse, e.line_endpoint_rmse] for seed, (*_, e) in loop.solves.items()
        },
        "problems": problems,
        "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        spans = {"setup": setup_tracer.rows(), "rounds": round_tracer.rows()}
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"machine": facts, "reference_kernel_s": reference_s}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
