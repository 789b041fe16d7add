"""Workload specifications."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import InvalidWorkloadError


#: Documented caps on a workload's size.  Every request is bounded by
#: them, so a client cannot ask for an unbounded allocation (a trace's
#: flow table is ``n_flows`` floats) or an unbounded run (a profile
#: executes ``n_packets`` packets).  The repo's own largest workloads
#: use 300 000 flows and 2 000 packets.
MAX_FLOWS = 1_000_000
MAX_PACKETS = 100_000
MAX_PACKET_BYTES = 65_535
MAX_PAYLOAD_BYTES = 65_535
MAX_ZIPF_ALPHA = 100.0

#: integer field -> inclusive (min, max)
_INT_BOUNDS = {
    "n_flows": (1, MAX_FLOWS),
    "packet_bytes": (64, MAX_PACKET_BYTES),
    "payload_bytes": (0, MAX_PAYLOAD_BYTES),
    "n_packets": (1, MAX_PACKETS),
}


@dataclass(frozen=True)
class WorkloadSpec:
    """A traffic profile (paper Section 5.1 methodology).

    * ``n_flows`` — concurrent 5-tuple flows.  "Large flows" means few
      concurrent flows each carrying many packets (cache friendly);
      "small flows" means many short flows (cache hostile) — the two
      regimes of Figure 11(c)/(d).
    * ``packet_bytes`` — on-wire packet size (fixed per spec; mixes are
      modelled by running multiple specs).
    * ``zipf_alpha`` — skew of flow popularity (0 = uniform).
    * ``syn_fraction`` — fraction of TCP packets that are SYNs (drives
      flow-setup paths in stateful NFs).
    * ``udp_fraction`` — fraction of packets that are UDP.
    * ``payload_bytes`` — payload length (drives DPI/checksum loops).

    Integer fields must be real ``int`` s (not ``bool``) and the
    fractions and ``zipf_alpha`` finite numbers; sizes are capped by
    :data:`MAX_FLOWS`, :data:`MAX_PACKETS`, :data:`MAX_PACKET_BYTES` and
    :data:`MAX_PAYLOAD_BYTES`, and ``zipf_alpha`` by :data:`MAX_ZIPF_ALPHA`.
    Violations raise :class:`~repro.errors.InvalidWorkloadError` (HTTP
    400 on the wire), so the CLI, the Python API and ``clara serve``
    reject the same specs with the same messages.
    """

    name: str = "default"
    n_flows: int = 1000
    packet_bytes: int = 256
    zipf_alpha: float = 1.0
    syn_fraction: float = 0.05
    udp_fraction: float = 0.0
    payload_bytes: int = 128
    n_packets: int = 2000

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise InvalidWorkloadError(
                f"name must be a string, got {type(self.name).__name__}"
            )
        for fname, (low, high) in _INT_BOUNDS.items():
            value = getattr(self, fname)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidWorkloadError(
                    f"{fname} must be an integer, got {type(value).__name__}"
                )
            if value < low:
                raise InvalidWorkloadError(f"{fname} must be >= {low}")
            if value > high:
                raise InvalidWorkloadError(
                    f"{fname} must be <= {high:_} (got {value:_})"
                )
        for fname in ("zipf_alpha", "syn_fraction", "udp_fraction"):
            value = getattr(self, fname)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise InvalidWorkloadError(
                    f"{fname} must be a number, got {type(value).__name__}"
                )
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidWorkloadError(
                    f"{fname} must be finite, got {value!r}"
                )
        if not -MAX_ZIPF_ALPHA <= self.zipf_alpha <= MAX_ZIPF_ALPHA:
            raise InvalidWorkloadError(
                f"zipf_alpha must be within +-{MAX_ZIPF_ALPHA:g}"
            )
        if not 0.0 <= self.syn_fraction <= 1.0:
            raise InvalidWorkloadError("syn_fraction out of range")
        if not 0.0 <= self.udp_fraction <= 1.0:
            raise InvalidWorkloadError("udp_fraction out of range")


#: Few long-lived flows: state fits in caches, compute-bound NICs.
LARGE_FLOWS = WorkloadSpec(
    name="large_flows",
    n_flows=64,
    packet_bytes=256,
    zipf_alpha=1.1,
    syn_fraction=0.01,
    payload_bytes=128,
)

#: Many short flows: constant cache misses, memory-bound NICs.
SMALL_FLOWS = WorkloadSpec(
    name="small_flows",
    n_flows=200_000,
    packet_bytes=256,
    zipf_alpha=0.6,
    syn_fraction=0.30,
    payload_bytes=128,
)

STANDARD_WORKLOADS: Tuple[WorkloadSpec, ...] = (LARGE_FLOWS, SMALL_FLOWS)
