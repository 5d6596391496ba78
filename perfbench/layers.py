"""Layer timing for the traced runs, installed from outside the program.

:class:`LayerClock` replaces public functions and methods of the program
with wrappers that count calls and accumulate *self* time: a layer's
elapsed time minus the time spent in layers it called.  Everything is
kept in memory and read out once, when the run ends.  Nothing under the
program's source tree knows about it; :meth:`LayerClock.restore` puts
every original back.

The layer names are the benchmark's vocabulary (see ``BENCHMARK.json``):
``core.*`` for the ADORE model, ``mc.*`` for the search engine,
``monitor.*`` for the live monitor and ``wire.*`` for the codec.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Tuple

#: ``check_*`` functions ``check_state`` reaches, by invariant label.
SAFETY_CHECKS = (
    ("safety", "check_replicated_state_safety"),
    ("descendant-order", "check_descendant_order"),
    ("leader-time-uniqueness", "check_leader_time_uniqueness"),
    ("election-commit-order", "check_election_commit_order"),
    ("ccache-in-rcache-fork", "check_ccache_in_rcache_fork"),
    ("version-reset", "check_version_reset"),
)

#: Every timed layer, in report order.
LAYERS = (
    "core.semantics.pull",
    "core.semantics.invoke",
    "core.semantics.reconfig",
    "core.semantics.push",
    "core.oracle.enumerate",
    "core.aux.gates",
    "core.tree.build",
    "core.safety.check_state",
    *(f"core.safety.check_state.{label}" for label, _ in SAFETY_CHECKS),
    "mc.explorer.state_key",
    "mc.fpset.add",
    "mc.explorer.loop",
    "monitor.on_event",
    "core.safety.observe",
)


class LayerClock:
    """Counts calls and self seconds per layer name."""

    def __init__(self) -> None:
        #: name -> [calls, self seconds, calls that returned True]
        self.totals: Dict[str, List] = {}
        self._stack: List[float] = []
        self._patched: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        cell = self.totals.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell[0] += 1
                cell[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if result is True:
                cell[2] += 1
            return result

        return timed

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a timed wrapper named ``name``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def report(self) -> Dict[str, List]:
        return {name: list(cell) for name, cell in self.totals.items()}


def install_checker_layers(clock: LayerClock) -> None:
    """Time the model checker's layers at the calls the engine makes.

    Successor generation is timed at ``repro.mc.explorer``'s ``apply_*``
    references (push at each explorer's ``push_step``, which ablations
    replace), so tree construction and the aux gates they call count as
    their own layers.  ``mc.explorer.loop`` is ``Explorer.run``'s self
    time: the search loop minus every layer above.
    """
    from repro.core import semantics
    from repro.mc import explorer
    from repro.mc.fpset import FingerprintSet

    for op in ("pull", "invoke", "reconfig"):
        clock.patch(explorer, f"apply_{op}", f"core.semantics.{op}")
    init = explorer.Explorer.__init__

    @functools.wraps(init)
    def init_with_timed_push(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.push_step = clock.wrap("core.semantics.push", self.push_step)

    clock._patched.append((explorer.Explorer, "__init__", init))
    explorer.Explorer.__init__ = init_with_timed_push
    clock.patch(explorer, "enumerate_pull_outcomes", "core.oracle.enumerate")
    clock.patch(explorer, "enumerate_push_outcomes", "core.oracle.enumerate")
    for module in (explorer, semantics):
        for gate in ("active_cache", "r2_holds", "r3_holds"):
            clock.patch(module, gate, "core.aux.gates")
    clock.patch(explorer, "check_state", "core.safety.check_state")
    clock.patch(explorer.Explorer, "state_key", "mc.explorer.state_key")
    clock.patch(explorer.Explorer, "run", "mc.explorer.loop")
    clock.patch(FingerprintSet, "add", "mc.fpset.add")
    install_tree_and_safety_layers(clock)


def install_tree_and_safety_layers(clock: LayerClock) -> None:
    """Tree construction and the per-invariant checkers (shared by the
    checker and the monitor: both grow trees and call ``check_state``)."""
    from repro.core import safety
    from repro.core.tree import CacheTree

    clock.patch(CacheTree, "add_leaf", "core.tree.build")
    clock.patch(CacheTree, "insert_btw", "core.tree.build")
    for label, fn in SAFETY_CHECKS:
        clock.patch(safety, fn, f"core.safety.check_state.{label}")


def install_monitor_layers(clock: LayerClock) -> None:
    """Time the monitor's event fold down to tree growth and checking."""
    from repro.core import safety
    from repro.monitor.service import Monitor

    clock.patch(Monitor, "on_event", "monitor.on_event")
    clock.patch(safety.IncrementalTreeChecker, "observe", "core.safety.observe")
    clock.patch(safety, "check_state", "core.safety.check_state")
    install_tree_and_safety_layers(clock)
