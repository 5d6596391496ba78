"""One measured repetition of an in-process workload, in a fresh process.

    python3 perfbench/worker.py --workload fig4-verify --seed 0 --trace 0

Runs ``fig4-verify``, ``differential-smoke`` or ``monitor-replay`` once
and prints one JSON object: the set-up time (imports plus building the
explorer or monitor), the time to the verdict, the peak RSS of *this*
process, the counts the output checks compare, and, with ``--trace 1``,
the per-layer totals from :mod:`layers`.  ``--setup-only`` stops after
set-up, so the caller can sample set-up time cheaply.

A fresh interpreter per repetition keeps the intern tables cold, as they
are for a user's run, and makes the process's peak RSS the work's own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

#: Entries the leader appends in the monitor history.  The monitor's
#: cost per entry grows with the history, and at this length the last
#: quarter dominates the run; do not shorten it to hide that growth.
MONITOR_ENTRIES = 1500
#: Entries in the seeded divergent-commit stream.
FORK_ENTRIES = 200


def peak_rss_mib() -> float:
    """This process's peak resident set (VmHWM), in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _fig4():
    from repro.mc import verify_intact_explorer

    explorer = verify_intact_explorer()
    setup_done = time.perf_counter()

    def work():
        result = explorer.run()
        return {
            "safe": result.safe,
            "exhausted": result.exhausted,
            "states": result.states_visited,
            "transitions": result.transitions,
            "ops": result.states_visited,
        }

    return setup_done, work


def _differential():
    from repro.mc import SMOKE_BUDGETS, default_scenarios, run_differential

    scenarios = default_scenarios()
    setup_done = time.perf_counter()

    def work():
        report = run_differential(scenarios, budgets=SMOKE_BUDGETS)
        key = json.loads(json.dumps(report.determinism_key()))
        states = sum(rec.states for rec in report.records)
        return {
            "determinism_key": key,
            "cells": len(report.records),
            "states": states,
            "transitions": sum(rec.transitions for rec in report.records),
            "ops": states,
        }

    return setup_done, work


def _monitor(seed, traced):
    import monitor_stream

    events = monitor_stream.generate(seed, MONITOR_ENTRIES)
    fork_events, fork_index = monitor_stream.generate_fork(seed, FORK_ENTRIES)
    # Quarter of the history each event falls in, by the leader's log
    # length when it arrives (benchmark bookkeeping, not timed).
    quarters, longest = [], 0
    for event in events:
        quarters.append(min(3, 4 * longest // MONITOR_ENTRIES))
        longest = max(longest, event["base"] + len(event["entries"]))

    start = time.perf_counter()
    from repro.monitor.service import Monitor, MonitorConfig

    def new_monitor():
        return Monitor(MonitorConfig(host="127.0.0.1", port=0, conf0=frozenset({1, 2, 3})))

    monitor = new_monitor()
    setup_done = time.perf_counter()

    def work():
        on_event = monitor.on_event
        if not traced:
            for event in events:
                on_event(event["node"], event)
            quarter_s = None
        else:
            clock = time.perf_counter
            quarter_s = [0.0] * 4
            for event, quarter in zip(events, quarters):
                began = clock()
                on_event(event["node"], event)
                quarter_s[quarter] += clock() - began
        status = monitor.status()
        return {
            "ok": status.ok,
            "gaps": status.gaps,
            "events": status.events,
            "entries": status.entries,
            "caches": status.caches,
            "commits": status.commits,
            "ops": status.entries,
            "quarter_s": quarter_s,
        }

    def fork_check():
        forked = new_monitor()
        for event in fork_events:
            forked.on_event(event["node"], event)
        verdict = forked.verdict
        return {
            "expected_index": fork_index,
            "flagged_index": None if verdict is None else verdict.event_index,
            "violations": [] if verdict is None else verdict.violations,
        }

    return start, setup_done, work, fork_check


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("fig4-verify", "differential-smoke", "monitor-replay"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    clock = None
    if args.trace:
        from layers import LayerClock, install_checker_layers, install_monitor_layers

        clock = LayerClock()
        if args.workload == "monitor-replay":
            install_monitor_layers(clock)
        else:
            install_checker_layers(clock)

    fork_check = None
    if args.workload == "monitor-replay":
        start, setup_done, work, fork_check = _monitor(args.seed, clock is not None)
    else:
        start = time.perf_counter()
        prepare = _fig4 if args.workload == "fig4-verify" else _differential
        setup_done, work = prepare()
    out = {"setup_s": setup_done - start}
    if not args.setup_only:
        began = time.perf_counter()
        out.update(work())
        out["verdict_s"] = time.perf_counter() - began
        out["peak_rss_mib"] = peak_rss_mib()
        if clock is not None:
            clock.restore()
            out["layers"] = clock.report()
            from repro.core import cachemgr

            out["cachemgr"] = cachemgr.stats()["tree_interns"]
        if fork_check is not None:
            out["fork"] = fork_check()
    print(json.dumps(out), flush=True)
    # Skip tearing down hundreds of MiB of interned trees: the result is
    # out, and the caller waits for this process to exit.
    os._exit(0)


if __name__ == "__main__":
    main()
