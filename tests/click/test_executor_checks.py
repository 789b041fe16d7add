"""Every runtime check of the host executor raises ``InterpError``.

Each test builds the smallest module that trips one check, runs one
packet, and asserts the error and its message.  Checks fire when the
offending instruction executes, not when the module is compiled.
"""

import pytest

from repro.click.interp import InterpError, Interpreter, module_fingerprint
from repro.click.packet import PACKET_TYPE, Packet
from repro.nfir.block import BasicBlock
from repro.nfir.builder import IRBuilder
from repro.nfir.function import Function, GlobalVariable, Module
from repro.nfir.types import I1, I32, VOID, PointerType
from repro.nfir.values import Constant


def handler_module(build):
    """A module whose ``pkt_handler`` entry block ``build`` fills in;
    ``build(module, function, builder)`` may add more blocks."""
    module = Module("checks")
    function = Function("pkt_handler", [("pkt", PointerType(PACKET_TYPE))],
                        VOID)
    module.add_function(function)
    function.add_block("entry")
    build(module, function, IRBuilder(function))
    return module


def run_one(module, **kwargs):
    interp = Interpreter(module, **kwargs)
    interp.run_packet(Packet(ip={}, tcp={}))
    return interp


def test_step_limit_counts_instructions_and_reads_max_steps_per_run():
    def build(module, f, b):
        counter = module.add_global(GlobalVariable("n", I32))
        loop = f.add_block("loop")
        b.br(loop)
        b.position_at_end(loop)
        b.store(b.add(b.load(counter), b.const(I32, 1)), counter)
        b.br(loop)

    module = handler_module(build)
    interp = Interpreter(module, max_steps_per_packet=10)
    with pytest.raises(InterpError,
                       match=r"step limit exceeded in @pkt_handler \(10 steps\)"):
        interp.run_packet(Packet(ip={}, tcp={}))
    # The entry's br is step 1, then each loop iteration takes 4 steps:
    # step 11 (the third iteration's add) trips the limit, after
    # exactly two stores.
    assert interp.global_value("n") == 2
    interp.max_steps = 30  # changed after the code was compiled
    with pytest.raises(InterpError, match=r"\(30 steps\)"):
        interp.run_packet(Packet(ip={}, tcp={}))
    assert interp.global_value("n") == 2 + 7


def test_use_of_undefined_value():
    def build(module, f, b):
        out = module.add_global(GlobalVariable("out", I32))
        then, merge = f.add_block("then"), f.add_block("merge")
        b.cond_br(b.const(I1, 0), then, merge)
        b.position_at_end(then)
        late = b.add(b.const(I32, 1), b.const(I32, 2))
        b.br(merge)
        b.position_at_end(merge)
        b.store(late, out)  # `then` does not dominate `merge`
        b.ret()

    with pytest.raises(InterpError, match=r"use of undefined value %v1"):
        run_one(handler_module(build))


def test_use_of_value_from_another_function():
    other = Function("other", [], VOID)
    other_entry = other.add_block("entry")
    foreign = IRBuilder(other, other_entry).add(Constant(I32, 1),
                                               Constant(I32, 1))

    def build(module, f, b):
        out = module.add_global(GlobalVariable("out", I32))
        b.store(foreign, out)
        b.ret()

    with pytest.raises(InterpError, match="use of undefined value"):
        run_one(handler_module(build))


@pytest.mark.parametrize("kind", ["load", "store"])
def test_access_through_bad_pointer(kind):
    def build(module, f, b):
        null = Constant(PointerType(I32), 0)
        if kind == "load":
            b.load(null)
        else:
            b.store(b.const(I32, 1), null)
        b.ret()

    with pytest.raises(InterpError,
                       match=f"{kind} through bad pointer in entry"):
        run_one(handler_module(build))


def test_gep_on_non_pointer():
    def build(module, f, b):
        not_a_pointer = b.cast("bitcast", b.const(I32, 5),
                               PointerType(PACKET_TYPE))
        b.gep(not_a_pointer, [])
        b.ret()

    with pytest.raises(InterpError, match="GEP on non-pointer value"):
        run_one(handler_module(build))


def test_phi_in_entry_block():
    def build(module, f, b):
        phi = b.phi(I32)
        phi.add_incoming(b.const(I32, 0), f.entry)
        b.ret()

    with pytest.raises(InterpError, match="phi in entry block"):
        run_one(handler_module(build))


def test_phi_without_arm_for_predecessor():
    def build(module, f, b):
        left, merge = f.add_block("left"), f.add_block("merge")
        b.br(merge)
        b.position_at_end(left)
        b.br(merge)
        b.position_at_end(merge)
        phi = b.phi(I32)
        phi.add_incoming(b.const(I32, 0), left)
        b.ret()

    with pytest.raises(InterpError,
                       match="phi in merge has no arm for predecessor entry"):
        run_one(handler_module(build))


def test_phis_read_in_order_within_a_block():
    """A phi sees the values of phis before it in its block (the old
    walker's sequential semantics), not the block-entry values."""
    def build(module, f, b):
        out = module.add_global(GlobalVariable("out", I32))
        loop, done = f.add_block("loop"), f.add_block("done")
        b.br(loop)
        b.position_at_end(loop)
        k, x = b.phi(I32), b.phi(I32)
        y = b.phi(I32)
        k1 = b.add(k, b.const(I32, 1))
        b.cond_br(b.icmp("ult", k1, b.const(I32, 2)), loop, done)
        k.add_incoming(b.const(I32, 0), f.entry)
        k.add_incoming(k1, loop)
        x.add_incoming(b.const(I32, 10), f.entry)
        x.add_incoming(y, loop)
        y.add_incoming(b.const(I32, 20), f.entry)
        y.add_incoming(x, loop)  # reads x's new value
        b.position_at_end(done)
        b.store(y, out)
        b.ret()

    assert run_one(handler_module(build)).global_value("out") == 20


def test_block_that_falls_through():
    def build(module, f, b):
        b.add(b.const(I32, 1), b.const(I32, 1))  # no terminator

    with pytest.raises(InterpError,
                       match="block entry in @pkt_handler fell through"):
        run_one(handler_module(build))


def test_call_to_unknown_internal_function():
    def build(module, f, b):
        b.call("nope", [], VOID)
        b.ret()

    with pytest.raises(InterpError, match="call to unknown function @nope"):
        run_one(handler_module(build))


def test_unimplemented_api():
    def build(module, f, b):
        table = module.add_global(GlobalVariable("t", I32))
        b.call("frobnicate", [table], VOID, kind="api")
        b.ret()

    interp = Interpreter(handler_module(build))
    with pytest.raises(InterpError, match="unimplemented API 'frobnicate'"):
        interp.run_packet(Packet(ip={}, tcp={}))
    assert interp.profile.api_counts["frobnicate"] == 1


def test_api_receiver_must_be_a_global():
    def build(module, f, b):
        b.call("hashmap_size", [b.const(I32, 0)], I32, kind="api")
        b.ret()

    with pytest.raises(InterpError,
                       match="API hashmap_size receiver is not a global"):
        run_one(handler_module(build))


def test_errors_are_raised_at_run_time_not_compile_time():
    """A module with a bad instruction on a path never taken runs."""
    def build(module, f, b):
        bad = f.add_block("bad")
        b.ret()
        b.position_at_end(bad)
        b.call("nope", [], VOID)
        b.ret()

    assert run_one(handler_module(build)).profile.packets == 1


def test_fingerprint_tracks_content_not_identity():
    def build(module, f, b):
        out = module.add_global(GlobalVariable("out", I32))
        b.store(b.const(I32, 7), out)
        b.ret()

    def build_other(module, f, b):
        out = module.add_global(GlobalVariable("out", I32))
        b.store(b.const(I32, 8), out)
        b.ret()

    a, a2 = handler_module(build), handler_module(build)
    assert module_fingerprint(a) == module_fingerprint(a2)
    assert module_fingerprint(a) != module_fingerprint(handler_module(build_other))
    # Content-equal modules share compiled code, never state.
    ia, ia2 = run_one(a), run_one(a2)
    assert ia._program is ia2._program
    assert ia.global_value("out") == ia2.global_value("out") == 7
    assert ia.globals["out"] is not ia2.globals["out"]


def test_blocks_outside_the_function_list_still_run():
    def build(module, f, b):
        out = module.add_global(GlobalVariable("out", I32))
        stray = BasicBlock("stray", parent=f)  # never added to f.blocks
        b.br(stray)
        IRBuilder(f, stray).store(Constant(I32, 3), out)
        IRBuilder(f, stray).ret()

    interp = run_one(handler_module(build))
    assert interp.global_value("out") == 3
    assert interp.profile.block_counts["stray"] == 1
