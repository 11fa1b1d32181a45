"""Repository benchmark: end-to-end and per-layer metrics of four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory.  Inputs
(arrival times, tenant tags, traces) come from ``--seed``.  Episodes (set
up, run, read back) repeat until ``--seconds`` have passed; the first is
a warm-up whose timings are dropped, and every episode's deterministic
outputs must equal the first's.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` pairs each untraced episode with a traced one and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` (requests offered), ``failed``
(requests that errored) and ``metrics``.  Wrong outputs print
``correct: false`` and exit 1; a checkout without the program exits 2.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics: name -> (unit, better).  Defined on every workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "req_per_s": ("1/s", "higher"),
    "sim_s_per_s": ("s/s", "higher"),
    "tick_ms_p50": ("ms", "lower"),
    "tick_ms_p99": ("ms", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "slo_good_frac": ("ratio", "higher"),
    "machine_hours": ("h", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program at {src / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"benchmark: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def _check_contract() -> None:
    """The metric names here must be the ones BENCHMARK.json declares."""
    from layers import PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layered = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    ours = {name: (unit, better) for name, (unit, better, _, _) in PER_LAYER.items()}
    if declared != END_TO_END or layered != ours:
        print("benchmark: metrics differ from BENCHMARK.json", file=sys.stderr)
        raise SystemExit(2)


def _stop_processes() -> None:
    """Stop and reap every process this run started, on any way out.

    The session's ``close()`` reaps ``soak-pipe``'s workers; this catches
    any that a failed path left, then the multiprocessing resource tracker
    that spawning a worker starts.  The tracker otherwise ends only after
    this process has exited, orphaned and unreaped.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it to exit
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _peak_rss_mb(worker_processes: int) -> float:
    """Peak resident memory of this process plus its worker processes.

    ``RUSAGE_CHILDREN`` gives the largest peak among reaped children; the
    workers run the same code on equal shares, so that peak stands in for
    each of them.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker_processes * child) / 1024.0


def _quantile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def _trace_episode(workload, untraced, reference):
    """Run one traced episode after ``untraced``; its per-layer metrics."""
    from layers import EXACT_COUNTS, UNATTRIBUTED_MARGIN, LayerTracer, read_layers
    from workloads import CheckFailed, check_outputs, run_episode

    tracer = LayerTracer()
    episode = run_episode(workload, tracer)
    check_outputs(reference, episode.outputs, "traced episode")
    values = read_layers(
        tracer, episode.offered,
        episode.setup_wall_s + episode.run_wall_s,
        untraced.setup_wall_s + untraced.run_wall_s,
    )
    if values["trace.unattributed_frac"] > UNATTRIBUTED_MARGIN:
        raise CheckFailed(
            f"layer self times cover {1 - values['trace.unattributed_frac']:.1%}"
            f" of the traced wall, below {1 - UNATTRIBUTED_MARGIN:.0%}"
        )
    return episode, values, tracer.absent, {name: values[name] for name in EXACT_COUNTS}


def _end_to_end(workload, episodes) -> Dict[str, float]:
    """End-to-end metrics of the timed episodes, with a wall-clock line."""
    ticks = [t for episode in episodes for t in episode.tick_s]
    walls = [t for episode in episodes for t in episode.tick_wall_s]
    print(f"ticks timed: {len(ticks)} | wall, for reference: "
          f"{statistics.median(e.offered / e.run_wall_s for e in episodes):.6g} req/s, "
          f"tick p50 {1e3 * _quantile(walls, 50.0):.4g} ms, "
          f"p99 {1e3 * _quantile(walls, 99.0):.4g} ms")
    return {
        "setup_s": statistics.median(e.setup_s for e in episodes),
        "req_per_s": statistics.median(e.offered / e.run_s for e in episodes),
        "sim_s_per_s": statistics.median(e.outputs["virtual_s"] / e.run_s for e in episodes),
        "tick_ms_p50": 1e3 * _quantile(ticks, 50.0),
        "tick_ms_p99": 1e3 * _quantile(ticks, 99.0),
        **episodes[0].metrics,
        "peak_rss_mb": _peak_rss_mb(workload.worker_processes),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from layers import PER_LAYER, layer_table
    from workloads import WORKLOADS, CheckFailed, check_outputs, run_episode

    workload = WORKLOADS[name](seed)
    timed: List = []
    layers: List[Dict[str, float]] = []
    absent: List[str] = []
    attempted = failed = 0
    reference = counts = None
    started = time.perf_counter()
    try:
        while len(timed) < 2 or time.perf_counter() - started < seconds:
            episode = run_episode(workload)
            reference = reference or episode.outputs
            check_outputs(reference, episode.outputs, "episode")
            timed.append(episode)
            ran = [episode]
            if trace:
                traced, values, absent, episode_counts = _trace_episode(
                    workload, episode, reference
                )
                counts = counts or episode_counts
                if episode_counts != counts:
                    raise CheckFailed(f"counts {episode_counts} differ from {counts}")
                layers.append(values)
                ran.append(traced)
            attempted += sum(e.offered for e in ran)
            failed += sum(int(e.outputs["errored"]) for e in ran)
    except CheckFailed as exc:
        print(f"CHECK FAILED [{name} seed {seed}]: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": failed, "metrics": {}}))
        return 1

    # The first episode (or pair) is a warm-up: its outputs were checked,
    # its timings are dropped.
    print(f"workload {name} | seed {seed} | episodes {len(timed)} (1 warm-up) | "
          f"{'traced' if trace else 'untraced'}")
    print("outputs: " + json.dumps(reference, sort_keys=True))
    if trace:
        metrics = {
            metric: statistics.median(values[metric] for values in layers[1:])
            for metric in PER_LAYER
        }
        print(layer_table(metrics, absent))
    else:
        metrics = _end_to_end(workload, timed[1:])
        for metric, (unit, _) in END_TO_END.items():
            print(f"{metric:16s} {metrics[metric]:14.6g} {unit}")
    units = {metric: spec[0] for metric, spec in (PER_LAYER if trace else END_TO_END).items()}
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in units.items()},
    }))
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A terminated run still unwinds, so _stop_processes runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _run(args, parser)
    finally:
        _stop_processes()


def _run(args, parser) -> int:
    _load_program()
    sys.path.insert(0, str(HERE))
    _check_contract()
    from workloads import WORKLOADS

    if args.workload == "all":
        # One child process per workload keeps peak_rss_mb per workload.
        status = 0
        for name in WORKLOADS:
            child = subprocess.run([
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ], check=False)
            status = max(status, child.returncode)
        return status
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; use all or "
                     + ", ".join(WORKLOADS))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
