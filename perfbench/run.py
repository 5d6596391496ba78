"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload fig4-verify --seed 0 --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``fig4-verify`` -- exhaustive BFS over the Fig. 4 intact budget, one
  worker; must be SAFE with exactly 75,727 states and 81,297 transitions.
* ``differential-smoke`` -- 7 schemes x 5 ablations on the smoke budgets,
  guided search; must reproduce the committed ``determinism_key``.
* ``net-kv`` -- a 3-node localhost cluster under a seeded closed loop of
  2 connections (75% get, 25% put/add, 64 keys); the history must pass
  the Wing-Gong linearizability check.
* ``monitor-replay`` -- a seeded 1,500-entry 3-replica ``log_advance``
  stream through ``Monitor.on_event``; must end ``ok`` with zero gaps,
  and a seeded divergent-commit stream must be flagged at its fork event.

The checker and monitor workloads run each repetition in a fresh
interpreter (``worker.py``), repeating until ``--seconds`` of work and at
least three repetitions have been measured, and report medians.  Set-up
is sampled several more times with ``--setup-only`` so its median is
steady.  ``--trace 1`` runs one untraced and one traced repetition,
requires their outputs to agree, and reports the per-layer metrics plus
the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
read from ``BENCHMARK.json``.  The exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

WORKER = os.path.join(HERE, "worker.py")
#: Extra set-up-only launches per run of an in-process workload.
SETUP_PROBES = 7
#: Fewest measured repetitions per run.  On a shared host the CPU can
#: slow down for a few seconds at a time; the median of three keeps one
#: slowed repetition out of the result.
MIN_REPS = 3
WORKER_TIMEOUT_S = 170


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as handle:
        return json.load(handle)


def run_worker(workload: str, seed: int, trace: bool = False, setup_only: bool = False) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Output checks: each returns the list of verdicts a run produced, True
# for every one that matched its expectation.
# ----------------------------------------------------------------------

def _verdicts(workload: str, rep: dict, expected: dict) -> list:
    if workload == "fig4-verify":
        want = expected["fig4-verify"]
        return [rep["safe"] and rep["exhausted"]
                and rep["states"] == want["states"]
                and rep["transitions"] == want["transitions"]]
    if workload == "differential-smoke":
        return [rep["determinism_key"] == expected["differential-smoke"]["determinism_key"]]
    fork = rep["fork"]
    return [
        rep["ok"] and rep["gaps"] == 0 and rep["entries"] == expected["monitor-replay"]["entries"],
        fork["flagged_index"] == fork["expected_index"],
    ]


#: Per-workload output fields that a traced repetition must reproduce.
_COUNTS = {
    "fig4-verify": ("safe", "exhausted", "states", "transitions"),
    "differential-smoke": ("determinism_key", "states", "transitions"),
    "monitor-replay": ("ok", "gaps", "events", "entries", "caches", "commits", "fork"),
}


def run_in_process(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    expected = _expected()
    if trace:
        plain = run_worker(workload, seed)
        traced = run_worker(workload, seed, trace=True)
        reps = [plain, traced]
        same = all(plain[k] == traced[k] for k in _COUNTS[workload])
    else:
        run_worker(workload, seed, setup_only=True)  # compile bytecode, untimed
        reps = []
        while len(reps) < MIN_REPS or sum(r["verdict_s"] for r in reps) < seconds:
            reps.append(run_worker(workload, seed))
        same = True
    checks = [ok for rep in reps for ok in _verdicts(workload, rep, expected)]
    out = {
        "attempted": len(checks),
        "failed": checks.count(False),
        "correct": all(checks) and same,
        "detail": "" if same else "traced and untraced outputs differ",
    }
    if not trace:
        setups = reps + [run_worker(workload, seed, setup_only=True)
                         for _ in range(SETUP_PROBES)]
        out["setup_s"] = statistics.median(r["setup_s"] for r in setups)
        out["verdict_s"] = statistics.median(r["verdict_s"] for r in reps)
        out["ops_per_s"] = statistics.median(r["ops"] / r["verdict_s"] for r in reps)
        out["peak_rss_mib"] = statistics.median(r["peak_rss_mib"] for r in reps)
        return out
    out["layers"] = _layer_metrics(workload, traced, plain)
    return out


def _layer_metrics(workload: str, traced: dict, plain: dict) -> dict:
    from layers import LAYERS

    run_s = traced["verdict_s"]
    totals = traced["layers"]
    out = {}
    for name in LAYERS:
        calls, self_s, _ = totals.get(name, (0, 0.0, 0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.share"] = 100.0 * self_s / run_s
    calls, _, new = totals.get("mc.fpset.add", (0, 0.0, 0))
    out["mc.fpset.new_ratio"] = new / calls if calls else 0.0
    out["core.cachemgr.tree_flushes"] = traced["cachemgr"]["flushes"]
    out["core.cachemgr.occupancy"] = traced["cachemgr"]["occupancy"]
    if workload == "monitor-replay":
        per_quarter = traced["entries"] / 4
        q1, q4 = (traced["quarter_s"][i] * 1000.0 / per_quarter for i in (0, 3))
        out["monitor.entry_ms.q1"] = q1
        out["monitor.entry_ms.q4"] = q4
        out["monitor.entry_growth"] = q4 / q1
    out["trace.overhead"] = traced["verdict_s"] / plain["verdict_s"]
    return out


def run_net_kv(seed: int, seconds: float, trace: bool) -> dict:
    import netkv

    parent = os.path.join(ROOT, ".perfbench-work")
    work_dir = os.path.join(parent, str(os.getpid()))
    try:
        return netkv.run(seed, seconds, trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(parent)
        except OSError:  # another run is using it
            pass


def main() -> int:
    spec = _benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.workload == "net-kv":
        result = run_net_kv(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_in_process(args.workload, args.seed, args.seconds, bool(args.trace))

    metrics = {}
    if args.trace:
        # A layer this workload never reaches did no work: it reads 0.
        for metric in spec["per_layer"]:
            value = result["layers"].get(metric["name"], 0)
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    else:
        for metric in spec["end_to_end"]:
            metrics[metric["name"]] = {"value": result[metric["name"]], "unit": metric["unit"]}
    if result.get("detail"):
        sys.stderr.write(result["detail"] + "\n")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
