"""Fat-tree-lite fabric: pods of ToRs behind one agg switch, core layer.

The paper's scaling argument (Section 5) is about *fabrics*, not single
switches: thousands of queues across pods connected by a core layer.
This module builds the smallest topology with that structure:

* pod ``p`` = one aggregation switch ``agg{p}``, ``tors_per_pod`` ToR
  switches ``t{p}-{i}``, and ``hosts_per_tor`` hosts ``h{p}-{i}-{j}``
  under each ToR;
* ``num_cores`` core switches ``core{c}``, each connected to every agg
  (a 2-ary folded Clos with one agg per pod — "lite" because the paper's
  experiments never need multiple aggs per pod);
* routing is structural, not BFS: ToRs send unknown destinations up to
  their agg, aggs parse the destination pod from the host name and pick
  a core by ``flow_id % num_cores`` (per-flow ECMP, like
  :mod:`repro.topology.leafspine`), cores send down to the destination
  pod's agg.

The same builder serves two callers:

* :func:`build_fattree` with no boundary context — a plain single-
  process :class:`~repro.topology.base.Network` (unit tests, small
  runs);
* :func:`build_fattree` with a *boundary context* (from
  :mod:`repro.sim.shard`) — builds only the elements **owned** by one
  partition and replaces every agg<->core link with a
  :class:`~repro.net.link.BoundaryLink` capture/import pair. Crucially
  the agg<->core links are *always* routed through the boundary
  machinery when a context is given, even when both endpoints share a
  partition (including ``shards=1``): the cut set depends only on the
  topology, so the event pattern — and therefore every results digest —
  is identical at any shard count.

Partitioning (:class:`FatTreePlan`) is by pod: pod ``p`` (agg + ToRs +
hosts) maps to partition ``p % shards`` and core ``c`` to ``c % shards``,
so the only links crossing partitions are agg<->core — the ToR-pod cuts
of docs/SCALING.md. The conservative lookahead is the minimum cut-link
propagation delay, which here is simply ``core_prop_delay``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..topology.base import Network, QueueConfig
from ..units import MTU_BYTES, gbps, us


@dataclass(frozen=True)
class FatTreeConfig:
    """Shape and line parameters of one fat-tree-lite fabric."""

    pods: int = 4
    tors_per_pod: int = 2
    hosts_per_tor: int = 2
    num_cores: int = 2
    seed: int = 1

    host_rate_bps: float = gbps(10)
    host_prop_delay: float = us(2)
    pod_rate_bps: float = gbps(20)
    pod_prop_delay: float = us(5)
    core_rate_bps: float = gbps(40)
    #: Propagation delay of every agg<->core link. This is the shard
    #: lookahead: one barrier exchange per ``core_prop_delay`` of
    #: simulated time, so larger values mean fewer synchronization
    #: rounds (datacenter inter-pod fiber runs are genuinely the long
    #: wires of the fabric).
    core_prop_delay: float = us(50)

    queue_limit_bytes: int = 200 * MTU_BYTES

    def __post_init__(self) -> None:
        if self.pods < 1 or self.tors_per_pod < 1 or self.hosts_per_tor < 1:
            raise ConfigurationError(
                f"fat-tree needs >=1 pod/tor/host, got {self.pods}/"
                f"{self.tors_per_pod}/{self.hosts_per_tor}"
            )
        if self.num_cores < 1:
            raise ConfigurationError(f"need >=1 core switch, got {self.num_cores}")
        if self.core_prop_delay <= 0:
            raise ConfigurationError(
                "core_prop_delay must be positive (it is the shard lookahead)"
            )

    # -- naming --------------------------------------------------------------

    def agg_name(self, pod: int) -> str:
        return f"agg{pod}"

    def tor_name(self, pod: int, tor: int) -> str:
        return f"t{pod}-{tor}"

    def host_name(self, pod: int, tor: int, host: int) -> str:
        return f"h{pod}-{tor}-{host}"

    def core_name(self, core: int) -> str:
        return f"core{core}"

    def host_names(self) -> List[str]:
        """Every host, in global build order."""
        return [
            self.host_name(p, i, j)
            for p in range(self.pods)
            for i in range(self.tors_per_pod)
            for j in range(self.hosts_per_tor)
        ]


#: Parse results for fabric node names; see :func:`node_location`.
LOC_HOST = "host"
LOC_TOR = "tor"
LOC_AGG = "agg"
LOC_CORE = "core"


def node_location(name: str) -> Tuple[str, int]:
    """Classify a fabric node name: ``(kind, pod-or-core-index)``.

    Raises :class:`ConfigurationError` for names outside the fat-tree
    naming scheme — the partitioner must never silently guess an owner.
    """
    try:
        if name.startswith("agg"):
            return LOC_AGG, int(name[3:])
        if name.startswith("core"):
            return LOC_CORE, int(name[4:])
        if name.startswith("t"):
            return LOC_TOR, int(name[1:].split("-", 1)[0])
        if name.startswith("h"):
            return LOC_HOST, int(name[1:].split("-", 1)[0])
    except ValueError:
        pass
    raise ConfigurationError(f"not a fat-tree node name: {name!r}")


@dataclass(frozen=True)
class CutLink:
    """One simplex agg<->core link, the unit of boundary exchange.

    ``link_id`` is the position in the stable global enumeration (see
    :meth:`FatTreePlan.cut_links`); boundary batches are ordered by
    ``(arrival_time, link_id, departure_seq)``, so the id must not
    depend on the shard count — and it does not: the enumeration is a
    pure function of the topology.
    """

    link_id: int
    src: str
    dst: str
    src_partition: int
    dst_partition: int

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"


class FatTreePlan:
    """Partition assignment and cut-link enumeration for one config."""

    def __init__(self, config: FatTreeConfig, shards: int) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.config = config
        self.shards = shards
        self._cuts: List[CutLink] = []
        link_id = 0
        for p in range(config.pods):
            agg = config.agg_name(p)
            for c in range(config.num_cores):
                core = config.core_name(c)
                self._cuts.append(CutLink(
                    link_id, agg, core, self.partition_of(agg),
                    self.partition_of(core),
                ))
                self._cuts.append(CutLink(
                    link_id + 1, core, agg, self.partition_of(core),
                    self.partition_of(agg),
                ))
                link_id += 2

    def partition_of(self, node: str) -> int:
        """The partition owning ``node`` (pods round-robin, cores too)."""
        kind, index = node_location(node)
        return index % self.shards

    def owner_of_target(self, target: str) -> int:
        """Partition owning a fault-plan target (a node, or a link
        ``"src->dst"`` — owned by the sending side, where the queue,
        transmitter, and fault state live)."""
        if "->" in target:
            target = target.split("->", 1)[0]
        return self.partition_of(target)

    def cut_links(self) -> List[CutLink]:
        return list(self._cuts)

    @property
    def lookahead(self) -> float:
        """Conservative lookahead: the minimum cut-link propagation
        delay. Every cut link here shares ``core_prop_delay``."""
        return self.config.core_prop_delay


class FatTree:
    """A built fabric (or one partition of it) plus its metadata."""

    def __init__(
        self,
        config: FatTreeConfig,
        network: Network,
        plan: Optional[FatTreePlan] = None,
        partition: Optional[int] = None,
    ) -> None:
        self.config = config
        self.network = network
        self.plan = plan
        self.partition = partition

    @property
    def sim(self):
        return self.network.sim

    def owns(self, node: str) -> bool:
        if self.plan is None or self.partition is None:
            return True
        return self.plan.partition_of(node) == self.partition


def _install_routes(config: FatTreeConfig, net: Network, loc_cache: Dict[str, Tuple[int, int]]) -> None:
    """Install structural ``route_for`` closures on every built switch."""

    def host_loc(dst: str) -> Tuple[int, int]:
        loc = loc_cache.get(dst)
        if loc is None:
            head = dst[1:].split("-")
            loc = loc_cache[dst] = (int(head[0]), int(head[1]))
        return loc

    num_cores = config.num_cores
    for p in range(config.pods):
        for i in range(config.tors_per_pod):
            tor = net.switches.get(config.tor_name(p, i))
            if tor is None:
                continue
            agg_port = tor.ports[config.agg_name(p)]

            def tor_route(dst, packet=None, _ports=tor.ports, _up=agg_port):
                port = _ports.get(dst)
                return port if port is not None else _up

            tor.route_for = tor_route

        agg = net.switches.get(config.agg_name(p))
        if agg is not None:
            tor_ports = [
                agg.ports[config.tor_name(p, i)]
                for i in range(config.tors_per_pod)
            ]
            core_ports = [
                agg.ports[config.core_name(c)] for c in range(num_cores)
            ]

            def agg_route(
                dst, packet=None, _pod=p, _tors=tor_ports, _cores=core_ports
            ):
                pod, tor_idx = host_loc(dst)
                if pod == _pod:
                    return _tors[tor_idx]
                # Per-flow ECMP across the core layer, deterministic in
                # the flow id (leafspine's hash discipline).
                return _cores[packet.flow_id % num_cores]

            agg.route_for = agg_route

    for c in range(num_cores):
        core = net.switches.get(config.core_name(c))
        if core is None:
            continue
        agg_ports = {
            p: core.ports[config.agg_name(p)] for p in range(config.pods)
        }

        def core_route(dst, packet=None, _aggs=agg_ports):
            return _aggs[host_loc(dst)[0]]

        core.route_for = core_route


def build_fattree(
    config: Optional[FatTreeConfig] = None,
    boundary=None,
) -> FatTree:
    """Build the fabric (or the partition a boundary context owns).

    ``boundary`` is a :class:`repro.sim.shard.BoundaryContext`-shaped
    object (``partition_id``, ``plan``, ``make_egress(sim, cut, ...)``,
    ``register_import(cut, handler)``); ``None`` builds the whole fabric
    single-process with ordinary core links.
    """
    config = config or FatTreeConfig()
    plan = boundary.plan if boundary is not None else None
    partition = boundary.partition_id if boundary is not None else None

    def owned(node: str) -> bool:
        return plan is None or plan.partition_of(node) == partition

    net = Network(seed=config.seed)
    queue_cfg = QueueConfig(limit_bytes=config.queue_limit_bytes)

    # 1. Switches, in fixed global order (cores, then pods).
    for c in range(config.num_cores):
        name = config.core_name(c)
        if owned(name):
            net.add_switch(name)
    for p in range(config.pods):
        agg = config.agg_name(p)
        if not owned(agg):
            continue
        net.add_switch(agg)
        for i in range(config.tors_per_pod):
            tor = config.tor_name(p, i)
            net.add_switch(tor)
            net.connect_switches(
                tor, agg, config.pod_rate_bps, config.pod_prop_delay,
                queue_config=queue_cfg,
            )
            for j in range(config.hosts_per_tor):
                host = config.host_name(p, i, j)
                net.add_host(host)
                net.connect_host(
                    host, tor, config.host_rate_bps, config.host_prop_delay,
                    queue_config=queue_cfg,
                )

    # 2. The agg<->core layer. With a boundary context *every* such link
    #    is a capture/import pair — even self-partition ones — so the
    #    event pattern cannot depend on the shard count.
    if boundary is None:
        for p in range(config.pods):
            agg = config.agg_name(p)
            for c in range(config.num_cores):
                net.connect_switches(
                    agg, config.core_name(c), config.core_rate_bps,
                    config.core_prop_delay, queue_config=queue_cfg,
                )
    else:
        for cut in plan.cut_links():
            if cut.src_partition == partition:
                src_switch = net.switches[cut.src]
                link = boundary.make_egress(
                    net.sim, cut, config.core_rate_bps, config.core_prop_delay,
                )
                queue = queue_cfg.build(
                    name=f"{cut.src}.{cut.dst}", telemetry=net.telemetry
                )
                src_switch.add_port(cut.dst, queue, link)
                net.links[cut.name] = link
            if cut.dst_partition == partition:
                boundary.register_import(cut, net.switches[cut.dst].receive)

    # 3. Structural routing over whatever was built.
    _install_routes(config, net, {})
    return FatTree(config, net, plan=plan, partition=partition)
