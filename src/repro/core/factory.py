"""Factory for NI design assemblies (registry-backed).

The configured design name is resolved through the component registry
(:data:`repro.scenario.registry.NI_DESIGNS`), so any registered assembly
class — built-in or third-party — is constructible without editing this
module.
"""

from __future__ import annotations

from repro.core.assembly import BaseNIDesign
from repro.core.base import NodeServices
from repro.core.placement import ChipPlacement
from repro.errors import ConfigurationError
from repro.scenario.registry import NI_DESIGNS


def build_ni_design(services: NodeServices, placement: ChipPlacement) -> BaseNIDesign:
    """Build (but not yet :meth:`~BaseNIDesign.build`) the configured NI design."""
    name = NI_DESIGNS.resolve(services.config.ni.design)
    entry = NI_DESIGNS.entry(name)
    if not entry.metadata.get("messaging", True):
        raise ConfigurationError(
            "the NUMA baseline has no QP-based NI; use repro.numa.NumaMachine instead"
            if name == "numa"
            else "NI design %r has no QP-based NI pipelines (messaging designs: %s)"
            % (name, ", ".join(NI_DESIGNS.names(messaging=True)))
        )
    return entry.component(services, placement)
