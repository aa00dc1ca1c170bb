"""Seeded fault injection and resilience analysis.

The fifth scenario axis: fault models are registered components
(:data:`repro.scenario.registry.FAULT_MODELS`), activated on a seeded,
fingerprinted window schedule by a :class:`FaultInjector`, with a metrics
layer quantifying tail amplification, degraded throughput and recovery
transients.  See the README's "Injecting faults" section for usage.
"""

from repro.faults.cascade import (
    CASCADE_PARAM_KEYS,
    CascadeFaultState,
    FaultCascade,
)
from repro.faults.injector import (
    DEFAULT_INTENSITY,
    FaultInjector,
    FaultState,
    SCHEDULE_PARAM_KEYS,
    build_fault_injector,
    derive_seed,
    validate_fault_params,
)
from repro.faults.metrics import recovery_transient_cycles, tail_amplification
from repro.faults.models import FaultModel
from repro.faults.schedule import FaultSchedule

__all__ = [
    "CASCADE_PARAM_KEYS",
    "CascadeFaultState",
    "DEFAULT_INTENSITY",
    "FaultCascade",
    "FaultInjector",
    "FaultModel",
    "FaultSchedule",
    "FaultState",
    "SCHEDULE_PARAM_KEYS",
    "build_fault_injector",
    "derive_seed",
    "recovery_transient_cycles",
    "tail_amplification",
    "validate_fault_params",
]
