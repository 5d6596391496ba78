"""The ``net-kv`` workload: a real 3-node cluster on localhost TCP.

Three node processes (``LocalCluster``, no injected delay, so latency is
processor time plus loopback) serve a seeded closed loop from this one
process: 2 connections to the leader, each sending its next request only
after the previous reply.  75% of the requests are ``get`` (the ReadIndex
path) and 25% ``put``/``add`` (the replication path), over 64 keys.  No
monitor is attached: an attached monitor's backlog grows without bound
(see the ``monitor-replay`` workload), so the cluster would never reach a
steady state.

Set-up is what a user pays before the first request is served: spawning
the nodes, electing a leader and answering one ``get``.  It is timed by
polling every 2 ms, not by ``LocalCluster``'s 50 ms health checks.

Per-layer figures come from outside the nodes: CPU from ``/proc/<pid>``
deltas over the timed window, bytes and fast reads from the public
``StatusRequest``, and the client codec from wrappers around
``repro.net.wire`` in this process.
"""

from __future__ import annotations

import asyncio
import os
import random
import socket
import statistics
import time
from typing import Dict, List, Optional, Tuple

from layers import LayerClock
from repro.net import wire
from repro.net.client import NetClient
from repro.net.procs import LocalCluster
from repro.raft.messages import CommitReq, LogEntry
from repro.runtime.history import History
from repro.runtime.linearize import check_history

NIDS = (1, 2, 3)
CONNECTIONS = 2
KEYS = 64
READ_SHARE = 0.75
#: Cluster starts per run; ``setup_s`` is their median.
SETUPS = 7
#: Requests per block: ``verdict_s`` is the median time to serve one
#: block, and ``ops_per_s`` the matching rate.
BLOCK = 250
WARMUP_S = 0.5
REQUEST_TIMEOUT_S = 2.0
POLL_S = 0.002
CLK_TCK = os.sysconf("SC_CLK_TCK")


def generate_commands(seed: int, count: int) -> List[List[Tuple]]:
    """Each connection's command sequence, from the seed alone."""
    rng = random.Random(seed)
    streams = []
    for conn in range(CONNECTIONS):
        commands = []
        for i in range(count):
            key = f"k{rng.randrange(KEYS)}"
            if rng.random() < READ_SHARE:
                commands.append(("get", key))
            elif rng.random() < 0.5:
                # Distinct values keep the linearizability search narrow.
                commands.append(("put", key, conn * count + i))
            else:
                commands.append(("add", key, rng.randrange(1, 5)))
        streams.append(commands)
    return streams


def _cpu_ticks(pid: Optional[int] = None) -> int:
    path = f"/proc/{pid}/stat" if pid else "/proc/self/stat"
    with open(path) as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])  # utime + stime


def _vm_hwm_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing for pid {pid}")


def _serve_once(address: Tuple[str, int]) -> Optional[wire.ClientResponse]:
    """One ``get`` round trip, or ``None`` while the node is not up."""
    try:
        with socket.create_connection(address, timeout=0.5) as sock:
            sock.settimeout(0.5)
            sock.sendall(wire.encode_frame(
                wire.ClientRequest(client_id="setup", seq=0, command=("get", "k0"))
            ))
            header = _recv_exact(sock, 4)
            reply = wire.decode_message(_recv_exact(sock, int.from_bytes(header, "big")))
    except (OSError, wire.ProtocolError):
        return None
    return reply if isinstance(reply, wire.ClientResponse) else None


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("closed")
        buf += chunk
    return buf


def start_cluster(seed: int, log_dir: str, timeout_s: float = 30.0) -> Tuple[LocalCluster, float, int]:
    """Spawn the nodes and poll until one serves a ``get``.

    Returns the cluster, the set-up time and the serving leader.
    """
    began = time.perf_counter()
    cluster = LocalCluster(nids=NIDS, seed=seed, log_dir=log_dir)
    try:
        for nid in NIDS:
            cluster.spawn(nid)
        addresses = cluster.addresses
        target = NIDS[0]
        deadline = began + timeout_s
        while time.perf_counter() < deadline:
            reply = _serve_once(addresses[target])
            if reply is not None and reply.ok:
                return cluster, time.perf_counter() - began, target
            if reply is not None and reply.leader_hint in addresses:
                target = reply.leader_hint
                continue
            if reply is None or reply.error == "not-leader":
                target = NIDS[(NIDS.index(target) + 1) % len(NIDS)]
            time.sleep(POLL_S)
        raise RuntimeError("no node served a request within the deadline")
    except BaseException:
        cluster.shutdown()
        raise


class LoadGen:
    """The seeded closed loop: ``CONNECTIONS`` connections, one
    outstanding request each."""

    def __init__(self, addresses: Dict[int, Tuple[str, int]], leader: int,
                 commands: List[List[Tuple]]) -> None:
        self.addresses = addresses
        self.leader = leader
        self.commands = commands
        self.history = History()
        self.attempted = 0
        self.failed = 0
        self._cursor = [0] * CONNECTIONS
        self._seq = [0] * CONNECTIONS

    def run(self, seconds: float) -> Dict:
        """Drive load for ``seconds``; the window's samples."""
        return asyncio.run(self._window(seconds))

    async def _window(self, seconds: float) -> Dict:
        samples = {"reads": [], "writes": [], "done": [], "failed": 0}
        end = time.perf_counter() + seconds
        began = time.perf_counter()
        await asyncio.gather(*(
            self._connection(conn, end, samples) for conn in range(CONNECTIONS)
        ))
        samples["wall_s"] = time.perf_counter() - began
        return samples

    async def _connection(self, conn: int, end: float, samples: Dict) -> None:
        cid = f"load-{conn}"
        commands = self.commands[conn]
        target = self.leader
        reader = writer = None
        try:
            while time.perf_counter() < end:
                if self._cursor[conn] >= len(commands):
                    raise RuntimeError("command stream exhausted; generate more")
                command = commands[self._cursor[conn]]
                self._cursor[conn] += 1
                seq = self._seq[conn]
                self._seq[conn] += 1
                kind, key = command[0], command[1]
                value = command[2] if len(command) > 2 else None
                operation = self.history.invoke(cid, kind, key, value, time.monotonic() * 1000.0)
                self.attempted += 1
                started = time.perf_counter()
                reply = None
                try:
                    if writer is None:
                        reader, writer = await asyncio.open_connection(*self.addresses[target])
                        writer.get_extra_info("socket").setsockopt(
                            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                        )
                    writer.write(wire.encode_frame(
                        wire.ClientRequest(client_id=cid, seq=seq, command=command)
                    ))
                    reply = await asyncio.wait_for(_read_reply(reader), REQUEST_TIMEOUT_S)
                except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                        wire.ProtocolError):
                    reply = None
                finished = time.perf_counter()
                if isinstance(reply, wire.ClientResponse) and reply.ok and reply.seq == seq:
                    self.history.complete(operation, time.monotonic() * 1000.0, reply.result)
                    (samples["reads"] if kind == "get" else samples["writes"]).append(
                        (finished - started) * 1000.0
                    )
                    samples["done"].append(finished)
                    continue
                # Refused, timed out or garbled: a failure; the outcome
                # stays unknown in the history.
                self.failed += 1
                samples["failed"] += 1
                if writer is not None:
                    writer.close()
                reader = writer = None
                hint = getattr(reply, "leader_hint", None)
                target = hint if hint in self.addresses else NIDS[
                    (NIDS.index(target) + 1) % len(NIDS)
                ]
                self.leader = target
        finally:
            if writer is not None:
                writer.close()


async def _read_reply(reader: asyncio.StreamReader):
    header = await reader.readexactly(4)
    return wire.decode_message(await reader.readexactly(int.from_bytes(header, "big")))


def _percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _block_seconds(done: List[float]) -> float:
    """Median time to serve ``BLOCK`` consecutive requests."""
    done = sorted(done)
    blocks = [done[i + BLOCK] - done[i] for i in range(0, len(done) - BLOCK, BLOCK)]
    if not blocks:
        raise RuntimeError(f"fewer than {BLOCK} requests served in the window")
    return statistics.median(blocks)


def _node_status(probe: NetClient) -> Dict[int, wire.StatusResponse]:
    out = {}
    for nid in NIDS:
        status = probe.status(nid)
        if status is None:
            raise RuntimeError(f"node {nid} stopped answering status")
        out[nid] = status
    return out


def _counters(cluster: LocalCluster, probe: NetClient) -> Dict:
    return {
        "status": _node_status(probe),
        "ticks": {nid: _cpu_ticks(cluster.handles[nid].process.pid) for nid in NIDS},
        "self_ticks": _cpu_ticks(),
    }


def wire_microbench(rounds: int = 5, iterations: int = 2000) -> Dict[str, float]:
    """Per-call µs of ``encode_message``/``decode_message`` on messages
    shaped like this workload's traffic (median over ``rounds``)."""
    entries = tuple(
        LogEntry(time=3, vrsn=100 + i, payload=("put", f"k{i}", 1000 + i),
                 request_id=("load-0", 500 + i))
        for i in range(2)
    )
    messages = {
        "ClientRequest": wire.ClientRequest(client_id="load-0", seq=1234, command=("put", "k12", 4321)),
        "ClientResponse": wire.ClientResponse(client_id="load-0", seq=1234, ok=True, result=4321),
        "CommitReq": CommitReq(frm=1, to=2, time=3, log=entries, commit_len=101),
    }
    out = {}
    clock = time.perf_counter
    for name, message in messages.items():
        payload = wire.encode_message(message)
        for label, fn, arg in (("encode", wire.encode_message, message),
                               ("decode", wire.decode_message, payload)):
            per_call = []
            for _ in range(rounds):
                began = clock()
                for _ in range(iterations):
                    fn(arg)
                per_call.append((clock() - began) / iterations * 1e6)
            out[f"wire.{label}_us.{name}"] = statistics.median(per_call)
    return out


def run(seed: int, seconds: float, trace: bool, work_dir: str) -> Dict:
    """One ``net-kv`` run; returns the result pieces for ``run.py``.

    Node logs go under ``work_dir``, which the caller removes.
    """
    commands = generate_commands(seed, count=int(max(seconds, 1) * 4000) + 2000)
    setups = []
    cluster = None
    try:
        for i in range(1 if trace else SETUPS):
            if cluster is not None:
                cluster.shutdown()
            cluster, setup_s, leader = start_cluster(seed * 100 + i, os.path.join(work_dir, str(i)))
            setups.append(setup_s)
        load = LoadGen(cluster.addresses, leader, commands)
        load.run(WARMUP_S)
        with cluster.client(client_id="bench-probe") as probe:
            if trace:
                plain = load.run(seconds / 2)
                clock = LayerClock()
                clock.patch(wire, "encode_frame", "wire.client.encode")
                clock.patch(wire, "decode_message", "wire.client.decode")
                before = _counters(cluster, probe)
                window = load.run(seconds / 2)
                after = _counters(cluster, probe)
                clock.restore()
            else:
                before = _counters(cluster, probe)
                window = load.run(seconds)
                after = _counters(cluster, probe)
            leader = load.leader
            rss = _vm_hwm_mib(cluster.handles[leader].process.pid)
    finally:
        if cluster is not None:
            cluster.shutdown()

    verdict = check_history(load.history)
    served = len(window["done"])
    block_s = _block_seconds(window["done"])
    out = {
        "attempted": load.attempted,
        "failed": load.failed,
        "correct": verdict.ok and served > 0,
        "detail": verdict.describe() if not verdict.ok else "",
        "setup_s": statistics.median(setups),
        "verdict_s": block_s,
        "ops_per_s": BLOCK / block_s,
        "peak_rss_mib": rss,
    }
    if not trace:
        return out
    plain_rate = len(plain["done"]) / plain["wall_s"]
    traced_rate = served / window["wall_s"]
    ms_per_tick = 1000.0 / CLK_TCK
    followers = [nid for nid in NIDS if nid != leader]

    def cpu_ms(nid):
        return (after["ticks"][nid] - before["ticks"][nid]) * ms_per_tick / served

    reads = len(window["reads"])
    fast = after["status"][leader].reads_fast - before["status"][leader].reads_fast
    codec = clock.report()
    layers = {
        "net.leader.cpu_ms_per_op": cpu_ms(leader),
        "net.follower.cpu_ms_per_op": statistics.mean(cpu_ms(nid) for nid in followers),
        "net.loadgen.cpu_ms_per_op": (after["self_ticks"] - before["self_ticks"]) * ms_per_tick / served,
        "net.bytes_per_op": sum(
            after["status"][nid].bytes_sent - before["status"][nid].bytes_sent for nid in NIDS
        ) / served,
        "net.reads_fast_ratio": fast / reads if reads else 0.0,
        "net.term_changes": max(s.term for s in after["status"].values())
        - max(s.term for s in before["status"].values()),
        "net.client.codec_us": sum(cell[1] for cell in codec.values()) * 1e6
        / (served + window["failed"]),
        "net.client.read_p50_ms": _percentile(window["reads"], 0.50),
        "net.client.write_p50_ms": _percentile(window["writes"], 0.50),
        "net.client.p99_ms": _percentile(window["reads"] + window["writes"], 0.99),
        "trace.overhead": plain_rate / traced_rate,
    }
    layers.update(wire_microbench())
    out["layers"] = layers
    return out
