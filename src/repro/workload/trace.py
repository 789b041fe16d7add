"""Synthetic trace generation (trafgen substitute)."""

from __future__ import annotations

import functools
from typing import List

import numpy as np

from repro.click.packet import Packet
from repro.workload.spec import WorkloadSpec


@functools.lru_cache(maxsize=4, typed=True)
def _zipf_weights(n: int, alpha: float) -> np.ndarray:
    """Zipf flow-popularity weights, shared (read-only) across traces:
    every ``small_flows`` trace would otherwise rebuild the same
    200 000-entry table."""
    ranks = np.arange(1, n + 1, dtype=float)
    if alpha <= 0.0:
        weights = np.ones(n)
    else:
        weights = ranks ** (-alpha)
    weights = weights / weights.sum()
    weights.flags.writeable = False
    return weights


def save_trace(packets: List[Packet], path: str) -> None:
    """Persist a trace as JSON lines (our pcap stand-in): header dicts,
    payload hex, and metadata per packet."""
    import json

    with open(path, "w") as fh:
        for p in packets:
            fh.write(
                json.dumps(
                    {
                        "eth": p.eth,
                        "ip": p.ip,
                        "tcp": p.tcp,
                        "udp": p.udp,
                        "payload": p.payload.hex(),
                        "in_port": p.in_port,
                        "timestamp_ns": p.timestamp_ns,
                    }
                )
            )
            fh.write("\n")


def load_trace(path: str) -> List[Packet]:
    """Load a trace saved by :func:`save_trace`."""
    import json

    packets: List[Packet] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            packets.append(
                Packet(
                    eth=rec["eth"],
                    ip=rec["ip"],
                    tcp=rec["tcp"],
                    udp=rec["udp"],
                    payload=bytes.fromhex(rec["payload"]),
                    in_port=rec["in_port"],
                    timestamp_ns=rec["timestamp_ns"],
                )
            )
    return packets


def generate_trace(spec: WorkloadSpec, seed: int = 0) -> List[Packet]:
    """Generate a deterministic packet trace for a workload spec.

    Flow endpoints are synthesized from the flow index; flow selection
    per packet follows the Zipf popularity of the spec.  Timestamps
    advance ~1us per packet so time-window NFs see realistic gaps.
    """
    rng = np.random.default_rng(seed)
    n = spec.n_flows
    weights = _zipf_weights(n, spec.zipf_alpha)
    flow_ids = rng.choice(n, size=spec.n_packets, p=weights)
    syn_draws = rng.random(spec.n_packets)
    udp_draws = rng.random(spec.n_packets)
    payload_rng = rng.integers(0, 256, size=max(spec.payload_bytes, 1), dtype=np.uint8)
    base_payload = bytes(payload_rng.tolist())

    packets: List[Packet] = []
    for i in range(spec.n_packets):
        fid = int(flow_ids[i])
        src = (0x0A000000 | (fid & 0xFFFFFF)) & 0xFFFFFFFF
        dst = (0xC0A80000 | ((fid * 2654435761) & 0xFFFF)) & 0xFFFFFFFF
        sport = 1024 + (fid % 50000)
        dport = 80 if fid % 4 else 53
        is_udp = udp_draws[i] < spec.udp_fraction
        ip = {
            "src_addr": src,
            "dst_addr": dst,
            "ip_len": spec.packet_bytes - 14,
            "ip_ttl": 64,
            "ip_id": i & 0xFFFF,
        }
        if is_udp:
            packet = Packet(
                ip=ip,
                udp={
                    "uh_sport": sport,
                    "uh_dport": dport,
                    "uh_ulen": spec.payload_bytes + 8,
                },
                payload=base_payload[: spec.payload_bytes],
                in_port=fid % 2,
                timestamp_ns=i * 1000,
            )
        else:
            flags = 0x02 if syn_draws[i] < spec.syn_fraction else 0x10
            packet = Packet(
                ip=ip,
                tcp={
                    "th_sport": sport,
                    "th_dport": dport,
                    "th_seq": (i * 331) & 0xFFFFFFFF,
                    "th_flags": flags,
                    "th_off": 5,
                },
                payload=base_payload[: spec.payload_bytes],
                in_port=fid % 2,
                timestamp_ns=i * 1000,
            )
        packets.append(packet)
    return packets
