"""Scalable communication: topologies + simulated network."""

from .simnet import LinkStats, SimNetwork
from .topology import BinomialGraphTopology, Topology, TreeTopology

__all__ = [
    "SimNetwork",
    "LinkStats",
    "Topology",
    "TreeTopology",
    "BinomialGraphTopology",
]
