"""The dcalc benchmark: time to verdict on one seeded workload.

    python3 bench/run.py --workload corpus|pool|arith|deep --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout it lives in and writes only
under .bench_out/ there. It builds the workload's deck from the seed and
runs it as a closed loop of one client: fresh worker processes
(bench/worker.py), one after another, each making one pass over the deck's
distinct inputs, until S seconds have passed. An input's time to verdict is
the median over the passes of its latency scaled by a reference job timed
next to it (see end_to_end). With --trace 0 it also times fresh interpreters
importing dcalc.cli (setup_s) and reports the end-to-end figures; with
--trace 1 it alternates untraced and traced passes and reports per-layer
figures from the traced ones instead.

Standard output ends with one JSON line:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}
The line before it holds the details: provenance, the tail percentile and
its sample count, failures by kind and the traced work counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Launches timed before and after the worker; the median of all of them is
# setup_s. Splitting them lets one slow spell of the machine touch only half.
SETUP_LAUNCHES = 5
# No pass starts after STOP_S, and a worker still running at DEADLINE_S is
# killed, so a run ends within the 180 s it is allowed.
STOP_S = 120.0
DEADLINE_S = 170.0
MIN_PASSES = 2
# Latencies are reported at the host speed where the worker's reference job
# (worker.reference_s) takes this long, its median on a 2-core 2.0 GHz Xeon VM.
REFERENCE_NOMINAL_S = 0.010

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

WORKLOADS = ("corpus", "pool", "arith", "deep")


def per_layer_unit(name: str) -> str:
    suffix = name.split(".", 1)[1]
    if suffix == "self_s":
        return "s"
    return {"us_per_token": "us/token", "visits_per_contraction": "ratio", "overhead": "x"}.get(
        suffix, "count"
    )


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("DCALC_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def time_setup(launches: int) -> list[float]:
    """Wall times of fresh interpreters importing dcalc.cli."""
    argv = [sys.executable, "-c", "import dcalc.cli"]
    times = []
    for _ in range(launches):
        t0 = perf_counter()
        subprocess.run(argv, env=child_env(), cwd=ROOT, check=True, timeout=30)
        times.append(perf_counter() - t0)
    return times


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(
        len(p.read_text().splitlines())
        for p in SRC.rglob("*.py")
        if "__pycache__" not in p.parts
    )


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }


def run_worker(deck_path: Path, started: float, offset: int = 0,
               spans: Path | None = None) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), str(deck_path), "--offset", str(offset)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    done = subprocess.run(
        argv, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=DEADLINE_S - (perf_counter() - started),
    )
    sys.stderr.write(done.stderr[-4000:])
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def weighted_figures(deck: dict, inputs: list[dict], times: dict[int, float]) -> dict:
    """ops_per_s, p50 and tail over the deck, each request at its input's time."""
    import workloads

    index = {workloads.input_key(req): i for i, req in enumerate(inputs)}
    latencies = sorted(
        times[i]
        for i in map(index.__getitem__, map(workloads.input_key, deck["requests"]))
        if i in times
    )
    if not latencies:
        return {"ops_per_s": 0.0, "verdict_ms_p50": 0.0, "verdict_ms_tail": 0.0,
                "tail_percentile": None, "tail_samples": 0}
    tail_p = deck["tail_percentile"]
    if len(latencies) * (100 - tail_p) < 1000 - 1e-9:
        # Some inputs failed: fall back to what the rest allow.
        tail_p = workloads.tail_percentile(len(latencies))
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "verdict_ms_p50": percentile(latencies, 50) * 1e3,
        "verdict_ms_tail": percentile(latencies, tail_p) * 1e3,
        "tail_percentile": tail_p,
        "tail_samples": len(latencies),
    }


def end_to_end(deck: dict, deck_path: Path, seconds: int, started: float) -> dict:
    """Passes until the time is up; one time per input from all its attempts.

    The host's speed swings by up to a factor of 1.8 over spells of
    seconds, long enough to cover a whole run. So each attempt's latency is
    scaled by REFERENCE_NOMINAL_S over the reference time the worker took
    just before it, and an input's time is the median of its scaled
    latencies. The report also gives the figures from each input's best raw
    latency. Each request of the deck counts with its input's time, so the
    deck's repeats weigh the inputs.
    """
    import workloads

    inputs = workloads.distinct_inputs(deck["requests"])
    samples: list[list[tuple[float, float]]] = [[] for _ in inputs]
    failed_inputs: set[int] = set()
    failures: Counter[str] = Counter()
    passes, peak_rss = 0, []
    loop_start = perf_counter()
    while passes < MIN_PASSES or perf_counter() - loop_start < seconds:
        if perf_counter() - started > STOP_S:
            break
        result = run_worker(deck_path, started, offset=passes)
        passes += 1
        failures.update(result["failures"])
        peak_rss.append(result["peak_rss_mb"])
        for i, (latency, reference) in enumerate(zip(result["latencies"], result["references"])):
            if latency is None:
                failed_inputs.add(i)
            else:
                samples[i].append((latency, reference))
    good = [i for i in range(len(inputs)) if i not in failed_inputs]
    scaled = {
        i: statistics.median(t * REFERENCE_NOMINAL_S / ref for t, ref in samples[i]) for i in good
    }
    best = {i: min(t for t, _ in samples[i]) for i in good}
    figures = weighted_figures(deck, inputs, scaled)
    attempted = passes * len(inputs)
    failed = sum(failures.values())
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": dict(failures),
        "ops_per_s": figures.pop("ops_per_s"),
        "verdict_ms_p50": figures.pop("verdict_ms_p50"),
        "verdict_ms_tail": figures.pop("verdict_ms_tail"),
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(peak_rss),
        "details": {
            **figures,
            "inputs": len(inputs),
            "passes": passes,
            "loop_s": perf_counter() - loop_start,
            "failed_share": failed / attempted,
            "reference_s": statistics.median(r for s in samples for _, r in s),
            "best_raw": weighted_figures(deck, inputs, best),
        },
    }


def per_layer(deck: dict, deck_path: Path, seconds: int, started: float) -> dict:
    """Untraced and traced passes, alternating.

    The figures and the spans file kept come from the fastest traced pass;
    tracing overhead is the fastest traced pass over the fastest untraced
    one. Every traced pass runs the same inputs in the same order in a fresh
    process, so their work counts must agree.
    """
    failures: Counter[str] = Counter()
    untraced: list[float] = []
    traced: list[dict] = []
    attempted = 0
    loop_start = perf_counter()
    while len(traced) < MIN_PASSES or perf_counter() - loop_start < seconds:
        if perf_counter() - started > STOP_S:
            break
        spans = deck_path.with_suffix(f".spans-{len(traced)}.jsonl")
        for trace in (None, spans):
            result = run_worker(deck_path, started, spans=trace)
            attempted += len(result["latencies"])
            failures.update(result["failures"])
            pass_s = sum(t for t in result["latencies"] if t is not None)
            if trace:
                traced.append({**result, "pass_s": pass_s, "spans_file": str(trace)})
            else:
                untraced.append(pass_s)
    fastest = min(traced, key=lambda r: r["pass_s"])
    for other in traced:
        if other is not fastest:
            Path(other["spans_file"]).unlink()
    counts_repeat = all(r["counts"] == fastest["counts"] for r in traced)
    return {
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "metrics": {**fastest["metrics"], "trace.overhead": fastest["pass_s"] / min(untraced)},
        "details": {
            "counts_repeat": counts_repeat,
            "counts_sha256": hashlib.sha256(
                json.dumps(fastest["counts"], sort_keys=True).encode()
            ).hexdigest(),
            "untraced_s": untraced,
            "traced_s": [r["pass_s"] for r in traced],
            "spans": fastest["spans"],
            "spans_dropped": fastest["spans_dropped"],
            "spans_file": fastest["spans_file"],
            "counts": fastest["counts"],
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="dcalc benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    started = perf_counter()

    if not (SRC / "dcalc" / "__init__.py").is_file():
        print(f"error: no dcalc package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import dcalc
    import workloads

    if Path(dcalc.__file__).resolve().parent != SRC / "dcalc":
        print(f"error: dcalc imported from {dcalc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    setup = []
    if args.trace == 0:
        time_setup(1)  # may still write bytecode caches
        setup += time_setup(SETUP_LAUNCHES)
    deck = workloads.build(args.workload, args.seed, OUT, ROOT)
    deck_path = OUT / f"deck-{args.workload}-{args.seed}.json"
    deck_path.write_text(json.dumps(deck))

    if args.trace == 0:
        result = end_to_end(deck, deck_path, args.seconds, started)
        setup += time_setup(SETUP_LAUNCHES)
        result["setup_s"] = statistics.median(setup)
        result["details"]["setup_launches_s"] = setup
        metrics = {n: {"value": result[n], "unit": u} for n, u in END_TO_END.items()}
        correct = result["failed"] == 0
    else:
        result = per_layer(deck, deck_path, args.seconds, started)
        metrics = {
            n: {"value": v, "unit": per_layer_unit(n)} for n, v in result["metrics"].items()
        }
        correct = result["failed"] == 0 and result["details"]["counts_repeat"]
    report = {
        "workload": args.workload,
        "provenance": provenance(args.seed),
        "deck_size": len(deck["requests"]),
        "failures": result["failures"],
        **result["details"],
    }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
