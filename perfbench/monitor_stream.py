"""Seeded 3-replica ``log_advance`` streams for the monitor workload.

The generator plays a small Raft cluster forward at the level the live
monitor observes it: the leader appends bursts of entries, followers
catch up in batches of random size, the leader advances its commit point
once a majority holds an entry of its own term, and leadership moves to
the most up-to-date follower a few times per history.  Each step yields
the event dict a node's trace exporter would ship (``kind``, ``node``,
``base``, packed ``entries``, ``commit``, ``term``), so the monitor
receives exactly the shape it receives from live nodes.

Only the standard library is used: the stream is built before any of the
program under test is imported, and the program receives only the
generated events.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

NODES = (1, 2, 3)
KEYS = 64
#: Entries per leader append; followers catch up by random batches of 1
#: to 2 * BURST entries.
BURST = 4
#: Seed of the history's shape: the batch sizes and the order in which
#: followers report.  The shape is the same for every ``--seed``, which
#: varies the payloads: with a seeded shape the monitor's peak RSS jumps
#: by a quarter between some seeds (an effect of heap layout, not of the
#: work done), and the work itself varies by seed.
SHAPE_SEED = 0


def _event(node: int, base: int, entries: List, commit: int, term: int) -> Dict:
    return {
        "kind": "log_advance",
        "node": node,
        "base": base,
        "entries": entries,
        "commit": commit,
        "term": term,
    }


def _common_prefix(a: List, b: List) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


class _Cluster:
    """The replicated logs the stream describes (packed entries)."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.logs: Dict[int, List] = {n: [] for n in NODES}
        self.commits: Dict[int, int] = {n: 0 for n in NODES}
        self.leader = NODES[0]
        self.term = 1
        self.seq = 0

    def append(self, count: int) -> Dict:
        log = self.logs[self.leader]
        base = len(log)
        new = []
        for _ in range(count):
            vrsn = log[-1][1] + 1 if log and log[-1][0] == self.term else 1
            self.seq += 1
            key = self.rng.randrange(KEYS)
            entry = [
                self.term, vrsn, f"put k{key:02d} {self.rng.randrange(10_000):04d}",
                False, f"c{self.seq % 2}:{self.seq:05d}",
            ]
            log.append(entry)
            new.append(entry)
        return _event(self.leader, base, new, self.commits[self.leader], self.term)

    def catch_up(self, node: int, batch: int) -> Dict:
        log, lead = self.logs[node], self.logs[self.leader]
        base = _common_prefix(log, lead)
        entries = lead[base:base + batch]
        del log[base:]
        log.extend(entries)
        # A follower learns the leader's commit point once it holds it.
        # Commit points are then the leader's alone, one per round, so
        # the number of commit markers (which dominate the monitor's
        # cost) is the same for every seed.
        if len(log) >= self.commits[self.leader]:
            self.commits[node] = self.commits[self.leader]
        commit = self.commits[node]
        return _event(node, base, list(entries), commit, self.term)

    def advance_commit(self) -> Dict:
        """The leader's commit move, or ``None`` when it cannot move."""
        lead = self.logs[self.leader]
        majority = sorted(
            _common_prefix(self.logs[n], lead) for n in NODES
        )[len(NODES) // 2]
        if majority <= self.commits[self.leader] or lead[majority - 1][0] != self.term:
            return None
        self.commits[self.leader] = majority
        return _event(self.leader, len(lead), [], majority, self.term)

    def elect(self) -> None:
        """Hand leadership to the follower with the longest log."""
        followers = [n for n in NODES if n != self.leader]
        self.leader = max(followers, key=lambda n: (len(self.logs[n]), n))
        self.term += 1


def generate(seed: int, entries: int, elections: int = 2) -> List[Dict]:
    """A clean history in which the leader appends ``entries`` entries.

    Leadership moves ``elections`` times, at evenly spaced points, so the
    tree holds a few abandoned uncommitted tails besides the main branch.
    """
    rng = random.Random(seed)
    shape = random.Random(SHAPE_SEED)
    cluster = _Cluster(rng)
    events: List[Dict] = []
    appended = 0
    next_election = entries // (elections + 1)
    while appended < entries:
        count = min(BURST, entries - appended)
        events.append(cluster.append(count))
        appended += count
        for node in shape.sample(NODES, len(NODES)):
            if node != cluster.leader:
                events.append(cluster.catch_up(node, shape.randint(1, 2 * BURST)))
        moved = cluster.advance_commit()
        if moved is not None:
            events.append(moved)
        if elections and appended >= next_election and appended < entries:
            cluster.elect()
            next_election += entries // (elections + 1)
    # Drain: every follower catches up and learns the final commit point.
    for _ in range(entries):
        behind = [
            n for n in NODES
            if n != cluster.leader and (
                cluster.logs[n] != cluster.logs[cluster.leader]
                or cluster.commits[n] < cluster.commits[cluster.leader]
            )
        ]
        if not behind:
            break
        for node in behind:
            events.append(cluster.catch_up(node, 8))
        moved = cluster.advance_commit()
        if moved is not None:
            events.append(moved)
    return events


def generate_fork(seed: int, entries: int) -> Tuple[List[Dict], int]:
    """A history with one divergent commit, and the index of its event.

    The clean stream runs until some follower lags the leader's commit
    point; that follower then reports a different entry at the first
    position it has not committed yet -- a position the leader already
    committed -- and claims it committed.  Two commit markers on
    different branches at one log position violate replicated state
    safety, and the monitor must flag exactly this event.
    """
    clean = generate(seed, entries, elections=0)
    commits: Dict[int, int] = {n: 0 for n in NODES}
    for index, event in enumerate(clean):
        node = event["node"]
        commits[node] = max(commits[node], event["commit"])
        leader_commit = commits[NODES[0]]
        lagging = [n for n in NODES[1:] if commits[n] < leader_commit]
        if index > len(clean) // 4 and lagging:
            node = lagging[0]
            pos = commits[node]
            rogue = [event["term"] + 1, 1, "put rogue 0", False, "rogue:1"]
            fork = _event(node, pos, [rogue], pos + 1, event["term"] + 1)
            return clean[:index + 1] + [fork], index + 1
    raise ValueError("stream never left a follower behind the commit point")
