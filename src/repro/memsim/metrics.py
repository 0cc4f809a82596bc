"""Simulation counters and reports.

The paper's evaluation reads out three families of numbers: end-to-end
runtime (Figs. 11, 12, 14-a, 15, 17, Table VI), slow-tier traffic and
promotion/demotion counts (Fig. 13), and timeline series — threshold,
bandwidth utilization, histogram strips, instantaneous GUPS (Figs. 14,
16).  :class:`EpochMetrics` captures one epoch; :class:`SimulationReport`
aggregates a run and exposes those readouts.
"""
# repro: hot-path — PR-7 vectorized epoch path; per-element python loops are regressions


from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class EpochMetrics:
    """Everything measured during one simulation epoch."""

    epoch: int = 0
    sim_time_ns: float = 0.0  # wall-clock start of the epoch
    duration_ns: float = 0.0  # how long the epoch took
    accesses: int = 0
    llc_misses: int = 0
    fast_hits: int = 0  # LLC misses served by the fast tier
    slow_hits: int = 0  # LLC misses served by slow tiers
    slow_read_bytes: int = 0
    slow_write_bytes: int = 0
    promoted_pages: int = 0
    demoted_pages: int = 0
    promoted_huge_pages: int = 0
    ping_pong_events: int = 0
    profiling_overhead_ns: float = 0.0
    migration_stall_ns: float = 0.0
    threshold: float = 0.0
    slow_bandwidth_util: float = 0.0
    slow_read_fraction: float = 0.5

    @property
    def slow_traffic_bytes(self) -> int:
        return self.slow_read_bytes + self.slow_write_bytes

    @property
    def throughput_aps(self) -> float:
        """Accesses per second during this epoch."""
        if self.duration_ns <= 0:
            return 0.0
        return self.accesses / (self.duration_ns * 1e-9)


#: the plain Python type of every EpochMetrics field; readouts cast
#: through it, so a field assigned a NumPy scalar still reads back as a
#: plain ``int``/``float``
_FIELD_TYPES = {f.name: int if f.type == "int" else float for f in fields(EpochMetrics)}


@dataclass
class SimulationReport:
    """Aggregated results of one (workload, policy) simulation run.

    ``epochs`` is the only store of the run's rows: the
    :class:`EpochMetrics` objects are shared by identity with e.g.
    per-tenant reports, and every aggregate and timeline readout reduces
    the list directly.

    The float aggregates sum left to right with Python's ``sum`` rather
    than ``np.sum`` — pairwise summation rounds differently, and reports
    are held to bit-identity by the golden-fixture differential harness.
    """

    workload: str = ""
    policy: str = ""
    epochs: list[EpochMetrics] = field(default_factory=list)
    annotations: dict[str, object] = field(default_factory=dict)

    def append(self, metrics: EpochMetrics) -> None:
        self.epochs.append(metrics)

    def _values(self, name: str) -> list:
        """One field across all epochs, as plain Python numbers."""
        cast = _FIELD_TYPES[name]
        return [cast(getattr(e, name)) for e in self.epochs]

    # ------------------------------------------------------------------
    @property
    def total_time_ns(self) -> float:
        return sum(self._values("duration_ns"))

    @property
    def total_time_s(self) -> float:
        return self.total_time_ns * 1e-9

    @property
    def total_accesses(self) -> int:
        return sum(self._values("accesses"))

    @property
    def total_llc_misses(self) -> int:
        return sum(self._values("llc_misses"))

    @property
    def total_slow_traffic_bytes(self) -> int:
        return sum(self._values("slow_read_bytes")) + sum(self._values("slow_write_bytes"))

    @property
    def total_promoted_pages(self) -> int:
        return sum(self._values("promoted_pages"))

    @property
    def total_demoted_pages(self) -> int:
        return sum(self._values("demoted_pages"))

    @property
    def total_promoted_huge_pages(self) -> int:
        return sum(self._values("promoted_huge_pages"))

    @property
    def total_ping_pong_events(self) -> int:
        return sum(self._values("ping_pong_events"))

    @property
    def total_profiling_overhead_ns(self) -> float:
        return sum(self._values("profiling_overhead_ns"))

    @property
    def throughput_aps(self) -> float:
        """Whole-run accesses per second (the GUPS-style figure of merit)."""
        t = self.total_time_s
        return self.total_accesses / t if t > 0 else 0.0

    @property
    def fast_hit_ratio(self) -> float:
        """Fraction of LLC misses served from the fast tier."""
        misses = self.total_llc_misses
        if misses == 0:
            return 0.0
        return sum(self._values("fast_hits")) / misses

    # ------------------------------------------------------------------
    def series(self, attr: str) -> list[float]:
        """Per-epoch timeline of one EpochMetrics attribute."""
        if attr in _FIELD_TYPES:
            return self._values(attr)
        # derived properties (slow_traffic_bytes, throughput_aps, ...)
        return [getattr(e, attr) for e in self.epochs]

    def time_axis_s(self) -> list[float]:
        """Epoch start times in seconds (for timeline figures)."""
        return [t * 1e-9 for t in self._values("sim_time_ns")]

    def summary(self) -> dict[str, float]:
        """Compact dictionary used by the experiment tables.

        When the run carried telemetry (``REPRO_TELEMETRY=metrics`` or
        ``trace``) the engine's per-phase wall-clock totals ride along as
        ``phase_<name>_s`` keys.
        """
        out = {
            "workload": self.workload,
            "policy": self.policy,
            "runtime_s": self.total_time_s,
            "throughput_aps": self.throughput_aps,
            "llc_misses": self.total_llc_misses,
            "slow_traffic_bytes": self.total_slow_traffic_bytes,
            "promoted_pages": self.total_promoted_pages,
            "demoted_pages": self.total_demoted_pages,
            "ping_pong_events": self.total_ping_pong_events,
            "fast_hit_ratio": self.fast_hit_ratio,
            "profiling_overhead_s": self.total_profiling_overhead_ns * 1e-9,
        }
        telemetry = self.annotations.get("telemetry")
        if isinstance(telemetry, dict):
            for phase, ns in sorted(telemetry.get("phases", {}).items()):
                out[f"phase_{phase}_s"] = float(ns) * 1e-9
        return out
