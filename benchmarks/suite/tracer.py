"""Outside-in span tracer for the layer pass.

Wraps the *public* methods of each simulator module from here — no
source file under ``src/`` knows about it. A layer is a module name
(``net.link``, ``core.aq`` ...). Every wrapped call is a span; spans nest
on one stack, and a span's **self time** is its duration minus the time
its child spans cover, so the per-layer self times add up to the traced
wall clock (the root ``harness`` span closes the sum).

Private event callbacks (sender pacing, serialization finish, RTO
timers) are not wrapped: their time is self time of the ``Simulator.run``
span, i.e. of ``sim.engine``.

Patching happens *before* the scenario is built, because links and hosts
capture bound methods (``switch.receive``) as handlers at construction.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns
from typing import Callable, Dict, List

#: One raw span in this many is kept verbatim beside the aggregates.
SAMPLE_EVERY = 1000

#: layer -> [(module, class or None, attribute)] — the public calls wrapped.
PATCHES = {
    "sim.engine": [("repro.sim.engine", "Simulator", "run")],
    "net.link": [
        ("repro.net.link", "Transmitter", "offer"),
        ("repro.net.link", "Link", "deliver"),
        ("repro.net.link", "Link", "deliver_now"),
        ("repro.net.link", "BoundaryLink", "deliver"),
        ("repro.net.link", "BoundaryLink", "deliver_now"),
    ],
    "net.switch": [("repro.net.switch", "Switch", "receive")],
    "net.host": [
        ("repro.net.host", "Host", "send"),
        ("repro.net.host", "Host", "receive"),
    ],
    "queues.fifo": [
        ("repro.queues.fifo", "PhysicalFifoQueue", "enqueue"),
        ("repro.queues.fifo", "PhysicalFifoQueue", "dequeue"),
    ],
    "core.aq": [("repro.core.aq", "AugmentedQueue", "process")],
    "transport.tcp": [
        ("repro.transport.tcp", "TcpSender", "on_packet"),
        ("repro.transport.tcp", "TcpReceiver", "on_packet"),
    ],
    "transport.udp": [("repro.transport.udp", "UdpSink", "on_packet")],
    # "cc" is filled from the CC registry in install().
    "harness": [("repro.harness.common", None, "install_sharing")],
    "harness.fabric": [
        ("repro.harness.fabric", None, "fabric_mixed_spec"),
        ("repro.harness.fabric", None, "build_fabric_partition"),
        ("repro.harness.fabric", None, "merge_results"),
        ("repro.harness.fabric", None, "fabric_fct_summary"),
    ],
    "topology.fattree": [
        ("repro.topology.fattree", "FatTreePlan", "__init__"),
        ("repro.topology.fattree", None, "build_fattree"),
    ],
    "sim.shard": [
        ("repro.sim.shard", "ShardRuntime", "run_epoch"),
        ("repro.sim.shard", "ShardRuntime", "apply_inbound"),
    ],
    "obs.timewin": [("repro.obs.timewin", None, "stitch_window_dumps")],
    "obs.metrics": [("repro.obs.metrics", None, "merge_metrics_snapshots")],
    "obs.runledger": [
        ("repro.obs.runledger", "RunLedger", "begin"),
        ("repro.obs.runledger", "RunLedger", "write_json"),
        ("repro.obs.runledger", "RunLedger", "finalize"),
    ],
}

#: Classes whose instances are collected at construction so the public
#: ``stats`` objects can be read when the run ends.
TRACKED = {
    "sims": ("repro.sim.engine", "Simulator"),
    "links": ("repro.net.link", "Link"),
    "switches": ("repro.net.switch", "Switch"),
    "queues": ("repro.queues.fifo", "PhysicalFifoQueue"),
    "aqs": ("repro.core.aq", "AugmentedQueue"),
    "tcp_senders": ("repro.transport.tcp", "TcpSender"),
    "shards": ("repro.sim.shard", "ShardRuntime"),
}

ROOT_LAYER = "harness"
#: The tracer's own work inside the traced run (pickling boundary batches).
TRACER_LAYER = "trace"


class Tracer:
    """Span stack + in-memory aggregates; see the module docstring."""

    def __init__(self) -> None:
        self._root_start = perf_counter_ns()
        # A stack frame is [layer, child_ns, span_id]; the root span is open
        # from construction, so imports and set-up count as harness time.
        self._stack: List[list] = [[ROOT_LAYER, 0, 0]]
        self._next_id = 1
        #: function name -> (layer, {caller layer: [calls, total_ns, self_ns]})
        self._rows: Dict[str, tuple] = {}
        self.samples: List[dict] = []
        self.instances: Dict[str, list] = {key: [] for key in TRACKED}
        self.batch_pkts = 0
        self.batch_bytes = 0
        self.batch_pickle_ns = 0
        self.wall_ns = 0
        self._root_self_ns = 0

    # -- wrapping --------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` as a span of ``layer``; aggregates per calling layer."""
        stack = self._stack
        samples = self.samples
        clock = perf_counter_ns
        rows: Dict[str, list] = {}
        self._rows[name] = (layer, rows)
        tracer = self

        def span(*args, **kwargs):
            parent = stack[-1]
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [layer, 0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[1] += duration
                row = rows.get(parent[0])
                if row is None:
                    row = rows[parent[0]] = [0, 0, 0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                if span_id % SAMPLE_EVERY == 0:
                    samples.append({
                        "id": span_id, "parent": parent[2], "name": name,
                        "layer": layer, "start_ns": start - tracer._root_start,
                        "dur_ns": duration,
                    })

        span.__wrapped__ = fn
        return span

    def _track(self, key: str, cls: type) -> None:
        init = cls.__init__
        bucket = self.instances[key]

        def tracked_init(instance, *args, **kwargs):
            bucket.append(instance)
            init(instance, *args, **kwargs)

        cls.__init__ = tracked_init

    def install(self) -> None:
        """Patch every listed call (before any scenario object exists)."""
        import importlib

        from repro.cc.registry import available_ccs, make_cc

        patches = dict(PATCHES)
        # The class that *defines* on_ack for each registered CC (NewReno
        # inherits its own from the AIMD base).
        cc_classes = sorted(
            {
                next(c for c in type(make_cc(name)).__mro__ if "on_ack" in vars(c))
                for name in available_ccs()
            },
            key=lambda cls: cls.__name__,
        )
        patches["cc"] = [(cls.__module__, cls.__name__, "on_ack") for cls in cc_classes]
        for key, (module, cls_name) in TRACKED.items():
            self._track(key, getattr(importlib.import_module(module), cls_name))
        for layer, targets in patches.items():
            for module_name, cls_name, attr in targets:
                module = importlib.import_module(module_name)
                if cls_name is None:
                    original = getattr(module, attr)
                    wrapped = self.wrap(layer, attr, original)
                    # ``from .common import install_sharing`` copies the
                    # reference: rebind it in every module that holds one.
                    for mod in list(sys.modules.values()):
                        if (getattr(mod, "__name__", "").startswith("repro")
                                and getattr(mod, attr, None) is original):
                            setattr(mod, attr, wrapped)
                else:
                    cls = getattr(module, cls_name)
                    # ``vars`` not ``getattr``: BoundaryLink aliases
                    # deliver_now = deliver and must keep its own function.
                    original = vars(cls)[attr]
                    setattr(cls, attr, self.wrap(layer, f"{cls_name}.{attr}", original))
        self._wrap_run_epoch()

    def _wrap_run_epoch(self) -> None:
        """Pickle the batches ``run_epoch`` returns — what the spawn driver
        would put on the pipe — as a span of the tracer's own layer, so the
        cost never inflates another layer."""
        import pickle

        from repro.sim.shard import ShardRuntime

        run_epoch = ShardRuntime.run_epoch

        def weigh(batches) -> None:
            filled = [batch for batch in batches if len(batch)]
            if filled:
                start = perf_counter_ns()
                blob = pickle.dumps(filled, protocol=pickle.HIGHEST_PROTOCOL)
                self.batch_pickle_ns += perf_counter_ns() - start
                self.batch_bytes += len(blob)
                self.batch_pkts += sum(len(batch) for batch in filled)

        weigh = self.wrap(TRACER_LAYER, "weigh_batches", weigh)

        def run_epoch_and_weigh(runtime, until):
            batches = run_epoch(runtime, until)
            weigh(batches)
            return batches

        ShardRuntime.run_epoch = run_epoch_and_weigh

    # -- reporting -------------------------------------------------------------

    def finish(self) -> None:
        """Close the root span; everything not inside a wrapped call is
        the root layer's self time."""
        self.wall_ns = perf_counter_ns() - self._root_start
        self._root_self_ns = self.wall_ns - self._stack.pop()[1]

    def report(self) -> dict:
        """Aggregates: per layer, per function, per (function, caller)."""
        layers: Dict[str, dict] = {
            ROOT_LAYER: {"calls": 1, "self_s": self._root_self_ns / 1e9}
        }
        functions: Dict[str, dict] = {}
        edges = []
        for name, (layer, rows) in sorted(self._rows.items()):
            calls = sum(row[0] for row in rows.values())
            total = sum(row[1] for row in rows.values())
            self_ns = sum(row[2] for row in rows.values())
            functions[name] = {"layer": layer, "calls": calls,
                               "total_s": total / 1e9, "self_s": self_ns / 1e9}
            entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += self_ns / 1e9
            for caller, row in sorted(rows.items()):
                edges.append({"name": name, "layer": layer, "caller": caller,
                              "calls": row[0], "total_s": row[1] / 1e9,
                              "self_s": row[2] / 1e9})
        return {
            "wall_s": self.wall_ns / 1e9,
            "layers": layers,
            "functions": functions,
            "edges": edges,
            "counts": self.counts(),
        }

    def counts(self) -> dict:
        """Work counts read from the public stats objects of every
        component built during the traced run."""
        inst = self.instances
        links = [link.stats for link in inst["links"]]
        queues = [queue.stats for queue in inst["queues"]]
        aqs = [aq.stats for aq in inst["aqs"]]
        switches = [switch.stats for switch in inst["switches"]]
        senders = [sender.stats for sender in inst["tcp_senders"]]
        return {
            "sim.engine.events": sum(sim.events_processed for sim in inst["sims"]),
            "sim.engine.compactions": sum(sim.compactions for sim in inst["sims"]),
            "net.link.pkt_hops": sum(s.delivered_packets for s in links),
            "net.link.drops": sum(s.dropped_packets for s in links),
            "net.switch.ingress_drops": sum(s.ingress_dropped_packets for s in switches),
            "queues.fifo.drops": sum(s.dropped_packets for s in queues),
            "queues.fifo.ecn_marks": sum(s.ecn_marked_packets for s in queues),
            "queues.fifo.max_bytes": max((s.max_bytes_queued for s in queues), default=0),
            "core.aq.drops": sum(s.dropped_packets for s in aqs),
            "core.aq.marks": sum(s.marked_packets for s in aqs),
            "core.aq.max_gap_bytes": max((s.max_gap for s in aqs), default=0.0),
            "transport.tcp.retransmissions": sum(s.retransmissions for s in senders),
            "transport.tcp.timeouts": sum(s.timeouts for s in senders),
            "sim.shard.boundary_pkts": sum(rt.exported_packets for rt in inst["shards"]),
            "sim.shard.batch_pkts": self.batch_pkts,
            "sim.shard.batch_bytes": self.batch_bytes,
            "sim.shard.batch_pickle_ns": self.batch_pickle_ns,
        }

    def dump(self, path: str, report: dict) -> None:
        """Write ``report()`` and the raw-span sample (end of run only)."""
        payload = dict(report)
        payload["sample_every"] = SAMPLE_EVERY
        payload["spans"] = self.samples
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
