"""Augmented Queue (AQ) reproduction.

A faithful, from-scratch Python implementation of *"Augmented Queue: A
Scalable In-Network Abstraction for Data Center Network Sharing"*
(Wu, Wang, Wang, Ng -- ACM SIGCOMM 2023), together with the full substrate
the paper evaluates on: a packet-level discrete-event network simulator,
five congestion-control algorithms, and the paper's baselines (physical
queues, HTB-style pre-determined rate limiters, ElasticSwitch-style
dynamic rate limiters).

Quick taste::

    from repro import EntitySpec, run_longlived_share
    from repro.units import gbps

    result = run_longlived_share(
        [EntitySpec("tcp", cc="cubic", num_flows=4),
         EntitySpec("udp", cc="udp")],
        approach="aq",
        bottleneck_bps=gbps(10),
    )
    print(result.rates_bps)  # each entity holds its guaranteed half

See ``DESIGN.md`` for the architecture and ``EXPERIMENTS.md`` for the
paper-vs-measured record of every table and figure.
"""

from .core.agap import AGapTracker, DGapTracker, simulate_discrepancy_control
from .core.aq import AugmentedQueue
from .core.controller import AqController, AqGrant, AqRequest
from .core.feedback import (
    FeedbackPolicy,
    delay_policy,
    drop_policy,
    ecn_policy,
    policy_for_cc,
)
from .core.pipeline import AqPipeline
from .core.resources import memory_for_aqs, tofino_usage
from .errors import (
    AdmissionError,
    ConfigurationError,
    ReproError,
    RoutingError,
    SimulationError,
    TransportError,
)
from .harness.common import (
    APPROACHES,
    AQ,
    DRL,
    PQ,
    PRL,
    EntitySpec,
    telemetry_from_env,
    telemetry_session,
)
from .obs import (
    AuditViolation,
    FlightIndex,
    FlightRecorder,
    JsonlSink,
    MetricsRegistry,
    RingBufferSink,
    RunAuditor,
    SimProfiler,
    SummarySink,
    Telemetry,
    TraceBus,
    TraceEvent,
    read_flights_jsonl,
    read_jsonl,
)
from .harness.scenarios import (
    run_cc_pair,
    run_cc_pair_wct,
    run_cc_preservation,
    run_longlived_share,
    run_single_entity_wct,
    run_two_entity_fairness,
    run_udp_tcp_timeline,
    run_vm_profile,
    run_wct,
)
from .core.workconserving import WorkConservingGate
from .queues.fifo import PhysicalFifoQueue
from .queues.multiqueue import MultiQueuePort
from .queues.perflow import PerFlowQueue
from .ratelimit.dynamic import DynamicVmAllocator
from .ratelimit.elasticswitch import ElasticSwitch, VmProfile
from .ratelimit.token_bucket import TokenBucketShaper
from .sim.engine import Event, PeriodicTask, Simulator
from .stats.fct import FctCollector
from .stats.meters import CompletionTracker, ThroughputMeter, percentile
from .stats.fairness import entity_fairness, jain_index
from .topology.base import Network, QueueConfig
from .topology.dumbbell import Dumbbell, DumbbellConfig
from .topology.leafspine import LeafSpine, LeafSpineConfig
from .topology.star import Star, StarConfig
from .transport.tcp import TcpConnection, TcpReceiver, TcpSender
from .transport.udp import UdpFlow, UdpSender, UdpSink

__version__ = "1.0.0"

__all__ = [
    # core abstraction
    "AGapTracker",
    "DGapTracker",
    "AugmentedQueue",
    "AqController",
    "AqGrant",
    "AqRequest",
    "AqPipeline",
    "FeedbackPolicy",
    "drop_policy",
    "ecn_policy",
    "delay_policy",
    "policy_for_cc",
    "simulate_discrepancy_control",
    "memory_for_aqs",
    "tofino_usage",
    # simulator & topology
    "Simulator",
    "Event",
    "PeriodicTask",
    "Network",
    "QueueConfig",
    "Dumbbell",
    "DumbbellConfig",
    "Star",
    "StarConfig",
    # transport
    "TcpConnection",
    "TcpSender",
    "TcpReceiver",
    "UdpFlow",
    "UdpSender",
    "UdpSink",
    # harness
    "EntitySpec",
    "APPROACHES",
    "PQ",
    "AQ",
    "PRL",
    "DRL",
    "run_longlived_share",
    "run_cc_pair",
    "run_cc_pair_wct",
    "run_cc_preservation",
    "run_single_entity_wct",
    "run_two_entity_fairness",
    "run_udp_tcp_timeline",
    "run_vm_profile",
    "run_wct",
    # substrates & instruments
    "PhysicalFifoQueue",
    "MultiQueuePort",
    "PerFlowQueue",
    "TokenBucketShaper",
    "DynamicVmAllocator",
    "ElasticSwitch",
    "VmProfile",
    "WorkConservingGate",
    "LeafSpine",
    "LeafSpineConfig",
    "ThroughputMeter",
    "CompletionTracker",
    "percentile",
    "entity_fairness",
    "jain_index",
    "FctCollector",
    # observability
    "Telemetry",
    "MetricsRegistry",
    "TraceBus",
    "TraceEvent",
    "SimProfiler",
    "RingBufferSink",
    "JsonlSink",
    "SummarySink",
    "read_jsonl",
    "FlightRecorder",
    "FlightIndex",
    "read_flights_jsonl",
    "RunAuditor",
    "AuditViolation",
    "telemetry_session",
    "telemetry_from_env",
    # errors
    "ReproError",
    "SimulationError",
    "ConfigurationError",
    "RoutingError",
    "AdmissionError",
    "TransportError",
]
