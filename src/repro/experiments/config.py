"""Shared experiment settings.

Defaults mirror the reconstructed paper setup (see DESIGN.md section 4):
the Reality-calibrated trace, 12 caching nodes, a 6-hour refresh
interval, a 0.9 freshness requirement, and Zipf(0.8) queries.  The
``fast()`` preset shrinks the trace and replication count so the whole
suite runs in CI time; shapes are preserved, error bars are wider.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

HOUR = 3600.0
DAY = 86400.0


@dataclass(frozen=True)
class Settings:
    """Knobs shared by all experiments."""

    profile: str = "reality"
    duration: float = 21 * DAY
    seeds: tuple[int, ...] = (1, 2, 3)
    num_caching_nodes: int = 12
    num_items: int = 6
    num_sources: int = 2
    refresh_interval: float = 24 * HOUR
    freshness_requirement: float = 0.9
    lifetime_factor: float = 2.0  # lifetime = factor * refresh_interval
    item_size: int = 1024
    query_rate_per_day: float = 2.0  # queries per requester per day
    zipf_exponent: float = 0.8
    probe_interval: float = 30 * 60.0
    warmup_fraction: float = 0.1  # probes before this are discarded
    fanout: int = 3
    max_depth: int = 3
    max_relays: int = 5
    #: relative jitter on the refresh schedule: desynchronises the
    #: items' version bumps (and avoids probe aliasing artifacts)
    refresh_jitter: float = 0.25

    @property
    def lifetime(self) -> float:
        return self.lifetime_factor * self.refresh_interval

    @property
    def query_rate(self) -> float:
        """Per-requester query rate in 1/s."""
        return self.query_rate_per_day / DAY

    @classmethod
    def fast(cls) -> "Settings":
        """Scaled-down settings for CI benchmarks and tests."""
        return cls(
            profile="small",
            duration=3 * DAY,
            seeds=(1, 2),
            num_caching_nodes=5,
            num_items=4,
            num_sources=1,
            refresh_interval=3 * HOUR,
            probe_interval=20 * 60.0,
        )

    def with_(self, **overrides) -> "Settings":
        """A copy with some fields replaced."""
        return replace(self, **overrides)

    def validate(self) -> "Settings":
        """Raise ``ValueError`` on any out-of-range knob.

        Called eagerly by the experiment runner before any worker is
        spawned, so a bad sweep fails immediately in the parent rather
        than as N tracebacks out of a process pool.  Returns ``self``
        so call sites can chain.
        """
        errors = []
        if self.duration <= 0:
            errors.append(f"duration must be positive, got {self.duration}")
        if not self.seeds:
            errors.append("seeds must be non-empty")
        for positive_int in ("num_caching_nodes", "num_items", "num_sources",
                             "item_size", "fanout", "max_depth"):
            value = getattr(self, positive_int)
            if value < 1:
                errors.append(f"{positive_int} must be >= 1, got {value}")
        if self.max_relays < 0:
            # 0 is direct-only provisioning: the tree, no relays
            errors.append(f"max_relays must be >= 0, got {self.max_relays}")
        for positive in ("refresh_interval", "probe_interval"):
            value = getattr(self, positive)
            if value <= 0:
                errors.append(f"{positive} must be positive, got {value}")
        for non_negative in ("query_rate_per_day", "zipf_exponent",
                             "refresh_jitter"):
            value = getattr(self, non_negative)
            if value < 0:
                errors.append(f"{non_negative} must be >= 0, got {value}")
        if not 0.0 < self.freshness_requirement <= 1.0:
            errors.append(
                "freshness_requirement must be in (0, 1], "
                f"got {self.freshness_requirement}"
            )
        if self.lifetime_factor <= 0:
            errors.append(
                f"lifetime_factor must be positive, got {self.lifetime_factor}"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            errors.append(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        if errors:
            raise ValueError("invalid experiment settings: " + "; ".join(errors))
        return self
