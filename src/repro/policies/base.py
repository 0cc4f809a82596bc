"""Common scaffolding for tiering policies.

A policy is the engine-facing object that reacts to each epoch: it runs
its profiler, selects promotion candidates on its migration cadence, and
keeps the fast tier's free watermark by demoting cold pages.  Concrete
baselines override :meth:`_profile` and :meth:`_select_promotions`.

(The full NeoMem policy lives in :mod:`repro.core.daemon`; it follows
the same protocol but carries device/driver/Algorithm-1 machinery.)
"""

from __future__ import annotations

import numpy as np


class BaseTieringPolicy:
    """Interval-driven promote/demote loop shared by the baselines.

    Args:
        migration_interval_s: Promotion cadence (Table V default 10 ms).
        demotion_watermark: Fast-node free fraction that triggers
            demotion.
        demotion_target: Free fraction the demotion pass restores.
        syscall_ns_per_page: Host cost per migrated page (move_pages).
    """

    name = "base"

    def __init__(
        self,
        migration_interval_s: float = 0.010,
        demotion_watermark: float = 0.01,
        demotion_target: float = 0.03,
        syscall_ns_per_page: float = 300.0,
    ) -> None:
        if migration_interval_s <= 0:
            raise ValueError("migration interval must be positive")
        self.migration_interval_s = float(migration_interval_s)
        self.demotion_watermark = float(demotion_watermark)
        self.demotion_target = float(demotion_target)
        self.syscall_ns_per_page = float(syscall_ns_per_page)
        self.current_threshold = 0.0
        #: QoS arbitration hook (multi-tenant co-location): when set,
        #: promotion candidates pass through this callable first, so an
        #: arbiter can drop pages whose tenant is over its fast-tier quota.
        self.promotion_filter = None
        self._next_migration_ns = 0.0

    # ------------------------------------------------------------------
    def bind(self, engine) -> None:
        """Policies read the machine through each epoch's view; keeping
        the engine would tie it and the policy in a reference cycle."""

    def on_epoch(self, view) -> float:
        tel = view.engine.telemetry
        with tel.span("profile"):
            overhead = self._profile(view)
        now_ns = view.sim_time_ns + view.duration_ns
        if now_ns >= self._next_migration_ns:
            self._next_migration_ns = now_ns + self.migration_interval_s * 1e9
            candidates = self._select_promotions(view)
            tel.counter("policy.promote_candidates").inc(int(candidates.size))
            if self.promotion_filter is not None and candidates.size:
                candidates = self.promotion_filter(candidates)
            if candidates.size:
                overhead += self._promote(view, candidates)
        overhead += self._watermark_demotion(view)
        return overhead

    def _promote(self, view, candidates: np.ndarray) -> float:
        """Move candidates up; subclasses may override (e.g. THP mode)."""
        promoted = view.migration.promote(candidates, view.epoch)
        return promoted * self.syscall_ns_per_page

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _profile(self, view) -> float:
        """Digest the epoch's access information; return overhead ns."""
        return 0.0

    def _select_promotions(self, view) -> np.ndarray:
        """Pages to promote this migration interval."""
        return np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    def _watermark_demotion(self, view) -> float:
        fast = view.topology.fast_node.tier
        if fast.free_pages >= fast.capacity_pages * self.demotion_watermark:
            return 0.0
        want = int(fast.capacity_pages * self.demotion_target) - fast.free_pages
        member_mask = view.page_table.node_of_page == view.topology.fast_node.node_id
        victims = view.lru.coldest(want, member_mask)
        demoted = view.migration.demote(victims, charge_quota=False)
        return demoted * self.syscall_ns_per_page
