"""Topologies: element graphs, regular builders, configuration tree."""

from .config_tree import (
    CONFIG_HOP_CYCLES,
    ConfigTree,
    build_config_tree,
    finish_cycle,
    gap_cycle,
)
from .mesh import build_mesh, mesh_positions, ni_name, router_name
from .ring import build_ring
from .topology import Element, ElementKind, Topology
from .torus import build_torus

__all__ = [
    "CONFIG_HOP_CYCLES",
    "ConfigTree",
    "build_config_tree",
    "finish_cycle",
    "gap_cycle",
    "build_mesh",
    "mesh_positions",
    "ni_name",
    "router_name",
    "build_ring",
    "Element",
    "ElementKind",
    "Topology",
    "build_torus",
]
