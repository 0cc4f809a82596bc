"""NeoMem reproduction: CXL-native memory tiering (MICRO 2024).

A trace-driven reproduction of *NeoMem: Hardware/Software Co-Design for
CXL-Native Memory Tiering* (Zhou, Chen, et al.).  The package provides:

* :mod:`repro.core` — the paper's contribution: the NeoProf device-side
  profiler (Count-Min sketch + hot bits + histogram + state monitor +
  MMIO commands), its driver, the Algorithm-1 dynamic threshold policy,
  and the NeoMem kernel daemon;
* :mod:`repro.memsim` — the tiered-memory machine substrate (caches,
  page tables, NUMA tiers, LRU-2Q, migration, epoch engine);
* :mod:`repro.profilers` / :mod:`repro.policies` — the baseline
  profiling techniques and tiering systems the paper compares against;
* :mod:`repro.workloads` — synthetic trace generators for the
  evaluation's benchmark suite;
* :mod:`repro.experiments` — one harness per paper table/figure.

Quickstart::

    from repro import run_one, ExperimentConfig

    report = run_one("gups", "neomem", ExperimentConfig())
    print(report.summary())
"""

from repro.core import NeoMemConfig, NeoMemDaemon, NeoMemSysfs
from repro.core.neoprof import CountMinSketch, NeoProfConfig, NeoProfDevice
from repro.experiments import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    JobSpec,
    SweepExecutor,
    run_colocation,
    run_one,
)
from repro.memsim import EngineConfig, SimulationEngine, SimulationReport
from repro.multitenant import (
    SCHEDULER_NAMES,
    ColocationEngine,
    ColocationReport,
    QosConfig,
    TenantSpec,
    jain_fairness,
)
from repro.policies import POLICY_NAMES, make_policy
from repro.workloads import BENCHMARKS, make_workload

__version__ = "1.1.0"

__all__ = [
    "NeoMemConfig",
    "NeoMemDaemon",
    "NeoMemSysfs",
    "CountMinSketch",
    "NeoProfConfig",
    "NeoProfDevice",
    "DEFAULT_CONFIG",
    "ExperimentConfig",
    "JobSpec",
    "SweepExecutor",
    "run_colocation",
    "run_one",
    "EngineConfig",
    "SimulationEngine",
    "SimulationReport",
    "SCHEDULER_NAMES",
    "ColocationEngine",
    "ColocationReport",
    "QosConfig",
    "TenantSpec",
    "jain_fairness",
    "POLICY_NAMES",
    "make_policy",
    "BENCHMARKS",
    "make_workload",
    "__version__",
]
