"""Differential test: the host executor reproduces recorded profiles.

``executor_digests.json`` holds one SHA-256 digest per case.  A digest
covers everything an execution produces: the whole
:class:`~repro.click.interp.ExecutionProfile` (every counter, in
insertion order), each packet as the NF left it, the error raised by
any packet, and the element's final state.  The digests were recorded
with the tree-walking NFIR interpreter that the compile-once executor
replaced, so this test pins the executor to that reference.

Cases: every library element (as ``profile_on_host`` prepares it) under
both standard workloads, two trace seeds and two packet counts; the
library again without inlining, so internal calls execute; synthesized
``ClickGen`` programs, from the unguided baseline statistics and from
the library's own (the scale-out training programs); and hand-written
IR with phis, every binary opcode, every icmp predicate and pointer
comparisons.

To re-record (only when a semantic change is intended)::

    PYTHONPATH=src python -m tests.click.test_executor_digests --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Tuple

import pytest

from repro.click.elements import (
    ELEMENT_BUILDERS,
    build_element,
    initial_state,
    install_state,
)
from repro.click.frontend import lower_element
from repro.click.interp import (
    HostHashMap,
    HostVector,
    Interpreter,
    Ptr,
    TreeStore,
)
from repro.core.prepare import prepare_element
from repro.nfir.function import Module
from repro.nfir.parser import parse_module
from repro.synthesis.generator import ClickGen, baseline_stats
from repro.synthesis.stats import extract_stats
from repro.workload.spec import STANDARD_WORKLOADS, WorkloadSpec
from repro.workload.trace import generate_trace

FIXTURE = Path(__file__).with_name("executor_digests.json")

TRACE_SEEDS = (0, 1)
PACKET_COUNTS = (10, 30)
CLICKGEN_SEEDS = tuple(range(24))
GUIDED_PROGRAMS = tuple(range(12))
SMALL_SPEC = WorkloadSpec(name="t", n_flows=10, n_packets=25,
                          udp_fraction=0.4, syn_fraction=0.2)


# -- canonical form of an execution ---------------------------------------
def _canon(value):
    """A JSON-able, deterministic rendering of interpreter values."""
    if isinstance(value, Ptr):
        return ["ptr", value.store is None, _canon(list(value.path)),
                value.origin]
    if isinstance(value, dict):
        return ["dict", [[_canon(k), _canon(v)] for k, v in value.items()]]
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (bytes, bytearray)):
        return ["bytes", bytes(value).hex()]
    if isinstance(value, frozenset):
        return ["set", sorted(_canon(v) for v in value)]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return ["repr", type(value).__name__, repr(value)]


def _state(interp: Interpreter):
    out = []
    for name, obj in interp.globals.items():
        if isinstance(obj, HostHashMap):
            out.append([name, "hashmap", _canon(list(obj.entries.items()))])
        elif isinstance(obj, HostVector):
            out.append([name, "vector", _canon(obj.items)])
        elif isinstance(obj, TreeStore):
            out.append([name, "tree", _canon(obj.tree)])
        else:
            out.append([name, "other", _canon(obj)])
    return out


def _profile(profile):
    return {
        "packets": profile.packets,
        "sent": profile.sent,
        "dropped": profile.dropped,
        "block_counts": _canon(list(profile.block_counts.items())),
        "global_access": [
            [g, _canon(list(c.items()))]
            for g, c in profile.global_access.items()
        ],
        "global_block_access": _canon(
            list(profile.global_block_access.items())
        ),
        "api_counts": _canon(list(profile.api_counts.items())),
        "path_counts": [
            [_canon(path), n] for path, n in profile.path_counts.items()
        ],
    }


def _packet(p):
    return _canon([p.eth, p.ip, p.tcp, p.udp, p.payload, p.in_port,
                   p.timestamp_ns, p.out_port, p.dropped])


def execution_digest(interp: Interpreter, packets: Iterable) -> str:
    """Run ``packets`` through ``interp`` and digest what it produced."""
    outcomes = []
    for packet in packets:
        try:
            out = interp.run_packet(packet)
        except Exception as exc:  # the message is part of the behaviour
            outcomes.append(["error", type(exc).__name__, str(exc)])
        else:
            outcomes.append(["ok", out is packet, _packet(packet)])
    record = {
        "profile": _profile(interp.profile),
        "packets": outcomes,
        "state": _state(interp),
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- hand-written IR -------------------------------------------------------
_IR_PRELUDE = """
struct %struct.packet = {  }
struct %struct.ip_hdr = { ip_v: i8, ip_hl: i8, ip_tos: i8, ip_len: i16, ip_id: i16, ip_off: i16, ip_ttl: i8, ip_p: i8, ip_sum: i16, src_addr: i32, dst_addr: i32 }
struct %struct.tcp_hdr = { th_sport: i16, th_dport: i16, th_seq: i32, th_ack: i32, th_off: i8, th_flags: i8, th_win: i16, th_sum: i16, th_urp: i16 }
"""

#: A phi-carried loop calling an internal function, then signed
#: arithmetic, casts, select and array state.
PHI_LOOP_IR = 'module "philoop"\n' + _IR_PRELUDE + """
global @acc : i32 kind=scalar entries=1 size=4
global @hist : [8 x i16] kind=array entries=8 size=16

define i32 @mix(i32 %a, i32 %b) {
entry:
  %x = xor i32 %a, %b
  %m = mul i32 %x, 2654435761
  %s = lshr i32 %m, 7
  ret i32 %s
}

define void @pkt_handler(%struct.packet* %pkt) {
entry:
  %ip = call %struct.ip_hdr* @ip_header(%struct.packet* %pkt) !api
  %src.p = getelementptr %struct.ip_hdr* %ip, .src_addr
  %src = load i32, i32* %src.p
  %n = and i32 %src, 7
  br label %loop
loop:
  %i = phi i32 [0, %entry], [%inext, %body]
  %sum = phi i32 [%src, %entry], [%snext, %body]
  %done = icmp uge i32 %i, %n
  br i1 %done, label %exit, label %body
body:
  %snext = call i32 @mix(i32 %sum, i32 %i) !internal
  %inext = add i32 %i, 1
  br label %loop
exit:
  %t = trunc i32 %sum to i16
  %se = sext i16 %t to i32
  %neg = sub i32 0, %se
  %q = sdiv i32 %neg, 7
  %r = srem i32 %neg, 7
  %ash = ashr i32 %neg, 3
  %lt = icmp slt i32 %q, %r
  %sel = select i1 %lt, i32 %ash, i32 %r
  %old = load i32, i32* @acc
  %new = add i32 %old, %sel
  store i32 %new, i32* @acc
  %slot = urem i32 %sum, 8
  %h.p = getelementptr [8 x i16]* @hist, i32 %slot
  %h = load i16, i16* %h.p
  %h1 = add i16 %h, 1
  store i16 %h1, i16* %h.p
  %port = and i32 %sel, 3
  call void @send(%struct.packet* %pkt, i32 %port) !api
  ret void
}
"""

#: Phis evaluated in order (the second reads the first's new value),
#: every binary opcode and icmp predicate on packet-derived operands,
#: zero divisors, and pointer comparisons.
OPCODES_IR = 'module "opcodes"\n' + _IR_PRELUDE + """
global @out : [24 x i32] kind=array entries=24 size=96

define void @pkt_handler(%struct.packet* %pkt) {
entry:
  %ip = call %struct.ip_hdr* @ip_header(%struct.packet* %pkt) !api
  %tcp = call %struct.tcp_hdr* @tcp_header(%struct.packet* %pkt) !api
  %a.p = getelementptr %struct.ip_hdr* %ip, .src_addr
  %a = load i32, i32* %a.p
  %b.p = getelementptr %struct.ip_hdr* %ip, .ip_id
  %b16 = load i16, i16* %b.p
  %bs = sext i16 %b16 to i32
  %b = sub i32 7, %bs
  %z = and i32 %b, 0
  br label %swap
swap:
  %k = phi i32 [0, %entry], [%k1, %swap]
  %x = phi i32 [%a, %entry], [%y, %swap]
  %y = phi i32 [%b, %entry], [%x, %swap]
  %k1 = add i32 %k, 1
  %again = icmp ult i32 %k1, 3
  br i1 %again, label %swap, label %ops
ops:
  %o0 = add i32 %x, %y
  %o1 = sub i32 %x, %y
  %o2 = mul i32 %x, %y
  %o3 = udiv i32 %x, %y
  %o4 = sdiv i32 %x, %y
  %o5 = urem i32 %x, %y
  %o6 = srem i32 %x, %y
  %o7 = and i32 %x, %y
  %o8 = or i32 %x, %y
  %o9 = xor i32 %x, %y
  %o10 = shl i32 %x, %y
  %o11 = lshr i32 %x, %y
  %o12 = ashr i32 %x, %y
  %o13 = udiv i32 %x, %z
  %o14 = srem i32 %y, %z
  %c0 = icmp eq i32 %x, %y
  %c1 = icmp ne i32 %x, %y
  %c2 = icmp ult i32 %x, %y
  %c3 = icmp ule i32 %x, %y
  %c4 = icmp ugt i32 %x, %y
  %c5 = icmp uge i32 %x, %y
  %c6 = icmp slt i32 %x, %y
  %c7 = icmp sle i32 %x, %y
  %c8 = icmp sgt i32 %x, %y
  %c9 = icmp sge i32 %x, %y
  %nulltcp = icmp eq %struct.tcp_hdr* %tcp, null
  %sameptr = icmp ne i32* %a.p, %a.p
  %p0 = getelementptr [24 x i32]* @out, i32 0
  store i32 %o0, i32* %p0
  %p1 = getelementptr [24 x i32]* @out, i32 1
  store i32 %o1, i32* %p1
  %p2 = getelementptr [24 x i32]* @out, i32 2
  store i32 %o2, i32* %p2
  %p3 = getelementptr [24 x i32]* @out, i32 3
  store i32 %o3, i32* %p3
  %p4 = getelementptr [24 x i32]* @out, i32 4
  store i32 %o4, i32* %p4
  %p5 = getelementptr [24 x i32]* @out, i32 5
  store i32 %o5, i32* %p5
  %p6 = getelementptr [24 x i32]* @out, i32 6
  store i32 %o6, i32* %p6
  %p7 = getelementptr [24 x i32]* @out, i32 7
  store i32 %o7, i32* %p7
  %p8 = getelementptr [24 x i32]* @out, i32 8
  store i32 %o8, i32* %p8
  %p9 = getelementptr [24 x i32]* @out, i32 9
  store i32 %o9, i32* %p9
  %p10 = getelementptr [24 x i32]* @out, i32 10
  store i32 %o10, i32* %p10
  %p11 = getelementptr [24 x i32]* @out, i32 11
  store i32 %o11, i32* %p11
  %p12 = getelementptr [24 x i32]* @out, i32 12
  store i32 %o12, i32* %p12
  %p13 = getelementptr [24 x i32]* @out, i32 13
  store i32 %o13, i32* %p13
  %p14 = getelementptr [24 x i32]* @out, i32 14
  store i32 %o14, i32* %p14
  %bits0 = zext i1 %c0 to i32
  %bits1 = zext i1 %c1 to i32
  %bits2 = zext i1 %c2 to i32
  %bits3 = zext i1 %c3 to i32
  %bits4 = zext i1 %c4 to i32
  %bits5 = zext i1 %c5 to i32
  %bits6 = zext i1 %c6 to i32
  %bits7 = zext i1 %c7 to i32
  %bits8 = zext i1 %c8 to i32
  %bits9 = zext i1 %c9 to i32
  %bits10 = zext i1 %nulltcp to i32
  %bits11 = zext i1 %sameptr to i32
  %s1 = shl i32 %bits1, 1
  %s2 = shl i32 %bits2, 2
  %s3 = shl i32 %bits3, 3
  %s4 = shl i32 %bits4, 4
  %s5 = shl i32 %bits5, 5
  %s6 = shl i32 %bits6, 6
  %s7 = shl i32 %bits7, 7
  %s8 = shl i32 %bits8, 8
  %s9 = shl i32 %bits9, 9
  %s10 = shl i32 %bits10, 10
  %s11 = shl i32 %bits11, 11
  %m1 = or i32 %bits0, %s1
  %m2 = or i32 %m1, %s2
  %m3 = or i32 %m2, %s3
  %m4 = or i32 %m3, %s4
  %m5 = or i32 %m4, %s5
  %m6 = or i32 %m5, %s6
  %m7 = or i32 %m6, %s7
  %m8 = or i32 %m7, %s8
  %m9 = or i32 %m8, %s9
  %m10 = or i32 %m9, %s10
  %m11 = or i32 %m10, %s11
  %p15 = getelementptr [24 x i32]* @out, i32 15
  store i32 %m11, i32* %p15
  br i1 %nulltcp, label %nontcp, label %istcp
istcp:
  %f.p = getelementptr %struct.tcp_hdr* %tcp, .th_flags
  %f = load i8, i8* %f.p
  %f1 = or i8 %f, 128
  store i8 %f1, i8* %f.p
  call void @checksum_update_tcp(%struct.tcp_hdr* %tcp) !api
  call void @send(%struct.packet* %pkt, i32 1) !api
  ret void
nontcp:
  call void @checksum_update_ip(%struct.ip_hdr* %ip) !api
  call void @drop(%struct.packet* %pkt) !api
  ret void
}
"""

HAND_IR = {"philoop": PHI_LOOP_IR, "opcodes": OPCODES_IR}


# -- the cases ---------------------------------------------------------------
def _library_case(name: str, spec: WorkloadSpec, seed: int, n: int,
                  inline: bool) -> Callable[[], str]:
    def run() -> str:
        element = build_element(name)
        module = (prepare_element(element).module if inline
                  else lower_element(element, inline=False))
        interp = Interpreter(module, seed=seed)
        install_state(interp, initial_state(element))
        trace = generate_trace(replace(spec, n_packets=n), seed=seed)
        return execution_digest(interp, trace)
    return run


def _clickgen_case(seed: int, inline: bool) -> Callable[[], str]:
    def run() -> str:
        element = ClickGen(baseline_stats(), seed=seed).element(f"gen{seed}")
        module = (prepare_element(element).module if inline
                  else lower_element(element, inline=False))
        interp = Interpreter(module, seed=seed)
        return execution_digest(interp, generate_trace(SMALL_SPEC, seed=seed))
    return run


def _guided_case(index: int) -> Callable[[], str]:
    def run() -> str:
        stats = extract_stats([build_element(n) for n in ELEMENT_BUILDERS])
        element = ClickGen.for_program(stats, seed=0, index=index).element(
            f"guided{index}"
        )
        interp = Interpreter(prepare_element(element).module, seed=index)
        return execution_digest(interp, generate_trace(SMALL_SPEC, seed=index))
    return run


def _hand_ir_case(text: str, seed: int) -> Callable[[], str]:
    def run() -> str:
        interp = Interpreter(parse_module(text), seed=seed)
        return execution_digest(interp, generate_trace(SMALL_SPEC, seed=seed))
    return run


def cases() -> Dict[str, Callable[[], str]]:
    out: Dict[str, Callable[[], str]] = {}
    for name in sorted(ELEMENT_BUILDERS):
        for spec in STANDARD_WORKLOADS:
            for seed in TRACE_SEEDS:
                for n in PACKET_COUNTS:
                    out[f"lib/{name}/{spec.name}/s{seed}/n{n}"] = \
                        _library_case(name, spec, seed, n, inline=True)
        out[f"lib-noinline/{name}"] = _library_case(
            name, STANDARD_WORKLOADS[0], 0, PACKET_COUNTS[0], inline=False
        )
    for seed in CLICKGEN_SEEDS:
        out[f"clickgen/{seed}"] = _clickgen_case(seed, inline=True)
        out[f"clickgen-noinline/{seed}"] = _clickgen_case(seed, inline=False)
    for index in GUIDED_PROGRAMS:
        out[f"clickgen-guided/{index}"] = _guided_case(index)
    for name, text in HAND_IR.items():
        for seed in TRACE_SEEDS:
            out[f"ir/{name}/s{seed}"] = _hand_ir_case(text, seed)
    return out


_CASES = cases()


def _recorded() -> Dict[str, str]:
    return json.loads(FIXTURE.read_text())


def _groups() -> List[Tuple[str, List[str]]]:
    """Cases grouped per element/program so failures name the culprit
    without paying pytest overhead per case."""
    groups: Dict[str, List[str]] = {}
    for case in _CASES:
        parts = case.split("/")
        groups.setdefault("/".join(parts[:2]), []).append(case)
    return sorted(groups.items())


def test_fixture_covers_every_case():
    assert sorted(_recorded()) == sorted(_CASES)


def test_hand_ir_parses_with_phis():
    module: Module = parse_module(PHI_LOOP_IR)
    opcodes = {i.opcode for i in module.handler.instructions()}
    assert {"phi", "call", "select", "sext", "trunc"} <= opcodes


@pytest.mark.parametrize("group,members", _groups(),
                         ids=[g for g, _ in _groups()])
def test_executor_reproduces_recorded_digests(group, members):
    recorded = _recorded()
    mismatched = [c for c in members if _CASES[c]() != recorded[c]]
    assert not mismatched, f"profile digests differ: {mismatched}"


def test_threads_share_compiled_code_but_not_state():
    """Many threads compile and run content-equal modules at once, with
    a tiny switch interval so they interleave inside compilation and
    execution.  Compiled code is shared, so any interpreter state it
    captured would leak between threads and change their digests."""
    from repro.click import interp as executor

    with executor._programs_lock:
        executor._programs.clear()  # make the threads race on compiling
    expected = _recorded()["ir/philoop/s0"]
    results: List[str] = []

    def worker():
        for _ in range(3):
            results.append(_hand_ir_case(PHI_LOOP_IR, 0)())

    threads = [threading.Thread(target=worker) for _ in range(8)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 24


if __name__ == "__main__":  # pragma: no cover - fixture maintenance
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.click.test_executor_digests --write")
    FIXTURE.write_text(json.dumps(
        {case: run() for case, run in sorted(_CASES.items())},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {len(_CASES)} digests to {FIXTURE}")
