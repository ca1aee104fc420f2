"""Cycle-approximate model of the decoupled RISC-V vector processor."""

from repro.arch.cache import SetAssociativeCache
from repro.arch.config import (
    CacheConfig,
    DramConfig,
    ProcessorConfig,
    ScalarCoreConfig,
    VectorEngineConfig,
)
from repro.arch.dram import DramModel
from repro.arch.energy import EnergyModel, EnergyReport, energy_of, energy_ratio
from repro.arch.functional import FunctionalCore
from repro.arch.hierarchy import MemoryHierarchy
from repro.arch.interpreter import Interpreter
from repro.arch.memory import FlatMemory
from repro.arch.processor import DecoupledProcessor
from repro.arch.regfile import (
    FpRegisterFile,
    IntRegisterFile,
    to_signed64,
    to_unsigned64,
)
from repro.arch.stats import ExecutionStats
from repro.arch.vrf import VectorRegisterFile

__all__ = [
    "CacheConfig",
    "DecoupledProcessor",
    "DramConfig",
    "DramModel",
    "EnergyModel",
    "EnergyReport",
    "ExecutionStats",
    "energy_of",
    "energy_ratio",
    "FlatMemory",
    "FpRegisterFile",
    "FunctionalCore",
    "IntRegisterFile",
    "Interpreter",
    "MemoryHierarchy",
    "ProcessorConfig",
    "ScalarCoreConfig",
    "SetAssociativeCache",
    "VectorEngineConfig",
    "VectorRegisterFile",
    "to_signed64",
    "to_unsigned64",
]
