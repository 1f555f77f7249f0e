"""Discrete-event simulated cluster (nodes, network, NFS, virtual time)."""

from repro.cluster.simcluster.comm import STRATEGY_NAMES, CommunicationModel
from repro.cluster.simcluster.events import Event, EventQueue
from repro.cluster.simcluster.network import NetworkModel, gigabit_ethernet
from repro.cluster.simcluster.nfs import NFSModel
from repro.cluster.simcluster.node import ClusterSpec, NodeSpec
from repro.cluster.simcluster.simulator import (
    ChurnEvent,
    ChurnSchedule,
    SimulatedClusterBackend,
    SimulationTrace,
)

__all__ = [
    "ClusterSpec",
    "NodeSpec",
    "NetworkModel",
    "gigabit_ethernet",
    "NFSModel",
    "CommunicationModel",
    "STRATEGY_NAMES",
    "SimulatedClusterBackend",
    "SimulationTrace",
    "ChurnSchedule",
    "ChurnEvent",
    "Event",
    "EventQueue",
]
