"""Host-side execution of lowered NF elements.

Paper Sections 4.3-4.4: "To obtain access frequencies, Clara runs the
Click NFs ... on the host machine with the specified workload."  This
module is that host: an NFIR executor with host-framework semantics
(elastic hashmaps, real header parsing), which records

* basic-block execution counts (keyed by NFIR block names, so they line
  up with the static analysis),
* per-global load/store counts and per-(global, block) access vectors
  (the inputs to the placement ILP and the coalescing K-means), and
* framework API call counts.

It doubles as a correctness oracle in tests: elements are executed on
crafted packets and their NF-level behaviour (NAT rewrites, firewall
verdicts, sketch counts) is asserted directly.

Execution is compile-once.  On its first call each NFIR function is
compiled into blocks of pre-bound closures, one per instruction, plus a
terminator; SSA values live in a per-call list indexed by slot.
Constants, type masks, opcode and predicate semantics, GEP field steps
and framework-API dispatch are all bound at compile time.  Compiled code
holds no interpreter state: globals, the profile, the rng and the
current packet are read from the running :class:`Interpreter`, so one
compiled program serves every interpreter of a content-identical module.
Programs are memoized by a content fingerprint of the module
(:func:`module_fingerprint`) in a bounded LRU (:data:`PROGRAM_MEMO_SIZE`
entries), because every analyze request lowers its NF afresh.
"""

from __future__ import annotations

import functools
import hashlib
import marshal
import operator
import threading
from collections import Counter, OrderedDict
from operator import itemgetter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.click.packet import Packet
from repro.nfir.function import Function, GlobalVariable, Module
from repro.nfir.instructions import (
    Alloca,
    BinaryOp,
    Br,
    Call,
    Cast,
    CondBr,
    GEP,
    ICmp,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    evaluate_binary,
    evaluate_icmp,
)
from repro.nfir.types import (
    ArrayType,
    IntType,
    IRType,
    PointerType,
    StructType,
    int_type,
)
from repro.nfir.values import Constant, Value


class InterpError(RuntimeError):
    pass


def _zero_factory(type_: IRType) -> Callable[[], object]:
    """A function building fresh zero-initialized value trees of a type."""
    if isinstance(type_, IntType):
        return lambda: 0
    if isinstance(type_, PointerType):
        return lambda: NULL
    if isinstance(type_, StructType):
        fields = [(name, _zero_factory(ftype)) for name, ftype in type_.fields]
        return lambda: {name: make() for name, make in fields}
    if isinstance(type_, ArrayType):
        count = type_.count
        if isinstance(type_.element, (IntType, PointerType)):
            atom = _zero_factory(type_.element)()
            return lambda: [atom] * count
        make = _zero_factory(type_.element)
        return lambda: [make() for _ in range(count)]

    def unsupported():
        raise InterpError(f"cannot zero-init {type_}")

    return unsupported


def zero_value(type_: IRType):
    """Zero-initialized value tree for a type."""
    return _zero_factory(type_)()


class _Store:
    """Storage object a pointer can reference."""

    def read(self, path: Tuple):
        raise NotImplementedError

    def write(self, path: Tuple, value) -> None:
        raise NotImplementedError


class TreeStore(_Store):
    """Nested dict/list/int storage for allocas and plain globals."""

    def __init__(self, tree) -> None:
        self.tree = tree

    def _navigate(self, path: Tuple):
        node = self.tree
        for step in path[:-1]:
            node = node[step]
        return node

    def read(self, path: Tuple):
        if not path:
            return self.tree
        return self._navigate(path)[path[-1]]

    def write(self, path: Tuple, value) -> None:
        if not path:
            self.tree = value
            return
        self._navigate(path)[path[-1]] = value


class PacketStore(_Store):
    """Pointer target for header views: path = (header, field)."""

    def __init__(self, packet: Packet) -> None:
        self.packet = packet

    def read(self, path: Tuple):
        header, fname = path
        hdr = self.packet.header(header)
        if hdr is None:
            raise InterpError(f"packet has no {header} header")
        return hdr[fname]

    def write(self, path: Tuple, value) -> None:
        header, fname = path
        hdr = self.packet.header(header)
        if hdr is None:
            raise InterpError(f"packet has no {header} header")
        hdr[fname] = value


class Ptr(NamedTuple):
    """A typed pointer value: storage object + access path.

    ``origin`` names the module global this pointer is derived from (if
    any) so the interpreter can attribute loads/stores to stateful data
    structures.  Pointers are immutable and compare by value.
    """

    store: Optional[_Store]
    path: Tuple = ()
    origin: Optional[str] = None

    @property
    def is_null(self) -> bool:
        return self.store is None

    def child(self, step) -> "Ptr":
        return Ptr(self.store, self.path + (step,), self.origin)


NULL = Ptr(None)


class HostHashMap:
    """Elastic, host-Click-style hashmap (dict-backed)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: Dict[Tuple, Dict] = {}

    def find(self, key: Tuple) -> Optional[Dict]:
        return self.entries.get(key)

    def insert(self, key: Tuple, value: Dict) -> bool:
        # Host Click grows elastically; we still bound it for safety.
        if key not in self.entries and len(self.entries) >= self.capacity * 8:
            return False
        self.entries[key] = dict(value)
        return True

    def erase(self, key: Tuple) -> bool:
        return self.entries.pop(key, None) is not None

    def __len__(self) -> int:
        return len(self.entries)


class HostVector:
    """Elastic host vector with NIC-style capacity accounting."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.items: List = []

    def push(self, value) -> bool:
        if len(self.items) >= self.capacity:
            return False
        self.items.append(value)
        return True


class _BoxStore(TreeStore):
    """A writable view of one scalar vector element."""

    def __init__(self, items: List, index: int) -> None:
        super().__init__(items[index])
        self._items, self._i = items, index

    def write(self, path, value) -> None:
        self._items[self._i] = value


@dataclass
class ExecutionProfile:
    """Aggregated result of interpreting a trace."""

    packets: int = 0
    sent: int = 0
    dropped: int = 0
    block_counts: Counter = field(default_factory=Counter)
    #: loads/stores per global: name -> {"load": n, "store": n}
    global_access: Dict[str, Counter] = field(default_factory=dict)
    #: (global, block) -> access count; the coalescing access vectors.
    global_block_access: Counter = field(default_factory=Counter)
    api_counts: Counter = field(default_factory=Counter)
    #: per-packet path signatures: frozenset of executed block names ->
    #: packet count.  Used by the partial-offloading extension to
    #: reason about which packets a host/NIC split would punt.
    path_counts: Counter = field(default_factory=Counter)

    def record_access(self, global_name: str, kind: str, block: str) -> None:
        per_global = self.global_access.get(global_name)
        if per_global is None:
            per_global = self.global_access[global_name] = Counter()
        per_global[kind] += 1
        self.global_block_access[(global_name, block)] += 1

    def access_frequency(self, global_name: str) -> float:
        """Accesses per packet for one global (placement ILP input)."""
        if self.packets == 0:
            return 0.0
        per_global = self.global_access.get(global_name, Counter())
        return (per_global["load"] + per_global["store"]) / self.packets

    def access_vector(self, global_name: str, block_order: List[str]) -> np.ndarray:
        """Normalized per-block access vector (Section 4.4)."""
        counts = np.array(
            [self.global_block_access.get((global_name, b), 0) for b in block_order],
            dtype=float,
        )
        total = counts.sum()
        return counts / total if total > 0 else counts


# -- compiled form -------------------------------------------------------------
#
# A compiled function runs on a slot list ``r``: ``r[0]`` is the block
# the current one was entered from (``None`` on entry; phis read it),
# ``r[1]`` is the running Interpreter (profile, globals, packet, rng),
# then one slot per argument and per value-defining instruction.  Every
# instruction is a closure ``op(r)``.  Operands are classified at
# compile time as constants, slots whose definition provably ran first
# (read unchecked), or readers ``read(r)`` (globals, and slots that need
# the undefined-value check).

#: Content of a slot not yet written in this call.
_UNDEF = object()

#: How many compiled programs the LRU memo (keyed by
#: :func:`module_fingerprint`) keeps: the 24-element library plus room
#: for never-seen NFs.
PROGRAM_MEMO_SIZE = 64

#: First slot of arguments and values (after predecessor, interpreter).
_FIRST_SLOT = 2

_TERMINATORS = (Br, CondBr, Ret)

_Op = Callable[[list], None]
_Reader = Callable[[list], object]

#: Builds a Ptr without NamedTuple's keyword-handling constructor.
_tuple_new = tuple.__new__


class _Block:
    __slots__ = ("name", "ops", "size", "target", "branch", "returns", "ret")

    def __init__(self, name: str) -> None:
        self.name = name
        self.ops: Tuple[_Op, ...] = ()
        self.size = 0  # instructions the walk counts as steps
        self.target: Optional["_Block"] = None  # unconditional successor
        self.branch: Optional[Callable] = None  # conditional successor
        self.returns = False
        self.ret: Optional[_Reader] = None


class _Function:
    __slots__ = ("name", "n_slots", "arg_slots", "entry")

    def __init__(self, name: str, n_slots: int, arg_slots, entry) -> None:
        self.name = name
        self.n_slots = n_slots
        self.arg_slots = arg_slots
        self.entry = entry


class _Layout:
    """The executable shape of one function: its blocks (plus any branch
    target outside ``function.blocks``), each cut after its first
    terminator, the slot and position of every defined value, and the
    dominator sets that decide which reads need no undefined check."""

    def __init__(self, function: Function) -> None:
        self.blocks = list(function.blocks)
        if not self.blocks:
            function.entry  # raises: a function needs blocks to run
        self.index = {id(b): i for i, b in enumerate(self.blocks)}
        self.bodies: List[list] = []
        succs: List[List[int]] = []
        for block in self.blocks:  # grows while iterating
            body, out = [], []
            for instr in block.instructions:
                body.append(instr)
                if isinstance(instr, _TERMINATORS):
                    for succ in _successors(instr):
                        if id(succ) not in self.index:
                            self.index[id(succ)] = len(self.blocks)
                            self.blocks.append(succ)
                        out.append(self.index[id(succ)])
                    break
            self.bodies.append(body)
            succs.append(out)
        self.dominators = _dominators(succs)
        self.slots: Dict[int, int] = {
            id(arg): i for i, arg in enumerate(function.args, _FIRST_SLOT)
        }
        self.defs: Dict[int, Tuple[int, int]] = {}
        for bi, body in enumerate(self.bodies):
            for pos, instr in enumerate(body):
                if _defines_value(instr):
                    self.slots[id(instr)] = len(self.slots) + _FIRST_SLOT
                    self.defs[id(instr)] = (bi, pos)

    def always_defined(self, value: Value, bi: int, pos: int) -> bool:
        """Whether ``value`` is written before any execution reaches
        position ``pos`` of block ``bi``: defined earlier in the same
        block, or in a block that dominates ``bi`` (blocks only exit
        through their terminator, so a dominator has run to completion)."""
        where = self.defs.get(id(value))
        if where is None:
            return False
        dbi, dpos = where
        if dbi == bi:
            return dpos < pos
        return bool(self.dominators[bi] >> dbi & 1)


def _dominators(succs: List[List[int]]) -> List[int]:
    """Dominator sets (bitmasks over block indices; block 0 is the
    entry) by the iterative dataflow algorithm in reverse postorder.
    Unreachable blocks keep the full set: they never execute."""
    n = len(succs)
    preds: List[List[int]] = [[] for _ in range(n)]
    for b, out in enumerate(succs):
        for s in out:
            preds[s].append(b)
    order: List[int] = []
    seen = {0}
    stack = [(0, iter(succs[0]))]
    while stack:
        b, it = stack[-1]
        for s in it:
            if s not in seen:
                seen.add(s)
                stack.append((s, iter(succs[s])))
                break
        else:
            stack.pop()
            order.append(b)
    order.reverse()
    full = (1 << n) - 1
    dom = [full] * n
    dom[0] = 1
    changed = True
    while changed:
        changed = False
        for b in order[1:]:
            new = full
            for p in preds[b]:
                new &= dom[p]
            new |= 1 << b
            if new != dom[b]:
                dom[b] = new
                changed = True
    return dom


def _successors(term) -> list:
    if isinstance(term, Br):
        return [term.target]
    if isinstance(term, CondBr):
        return [term.if_true, term.if_false]
    return []


def _defines_value(instr) -> bool:
    if isinstance(instr, _TERMINATORS):
        return False
    if isinstance(instr, Call):
        return instr.produces_value
    return True


def _type_shape(type_: IRType):
    return type_.bits if type_.__class__ is IntType else type_.__class__.__name__


def module_fingerprint(module: Module) -> bytes:
    """SHA-256 over everything the compiled form of ``module`` depends
    on: functions, blocks, opcodes, types, constants, operand wiring
    (values are numbered by position) and the names that appear in
    profiles and error messages.  Types enter as the shape the executor
    uses (integer width, or the kind of type) except for allocas, whose
    zero-initialized trees depend on the whole type."""
    parts: list = []
    emit = parts.append
    for fname, function in module.functions.items():
        emit(("fn", fname) + tuple(a.name for a in function.args))
        blocks = list(function.blocks)
        index = {id(b): i for i, b in enumerate(blocks)}
        number = {id(a): i for i, a in enumerate(function.args)}
        for block in blocks:  # grows when a branch leaves function.blocks
            for instr in block.instructions:
                number[id(instr)] = len(number)
                if instr.__class__ is Br or instr.__class__ is CondBr:
                    for succ in _successors(instr):
                        if id(succ) not in index:
                            index[id(succ)] = len(blocks)
                            blocks.append(succ)

        def okey(value):
            n = number.get(id(value))
            if n is not None:
                return n
            if isinstance(value, Constant):
                return ("k", _type_shape(value.type), value.value)
            if isinstance(value, GlobalVariable):
                return ("g", value.name)
            return ("u", value.ref())

        for block in blocks:
            emit(block.name)
            for instr in block.instructions:
                cls = instr.__class__
                key = [cls.__name__, instr.opcode, instr.name,
                       _type_shape(instr.type)]
                if cls is Phi:
                    for value, pred in instr.incomings:
                        key.append(okey(value))
                        key.append(index.get(id(pred), pred.name))
                elif cls is GEP:
                    key.append(okey(instr.base))
                    for i in instr.indices:
                        key.append(i if isinstance(i, str) else okey(i))
                elif cls is Br:
                    key.append(index[id(instr.target)])
                elif cls is CondBr:
                    key += (okey(instr.cond), index[id(instr.if_true)],
                            index[id(instr.if_false)])
                else:
                    for value in instr.operands:
                        key.append(okey(value))
                    if cls is ICmp:
                        key += (instr.predicate, _type_shape(instr.lhs.type))
                    elif cls is Alloca:
                        key.append(repr(instr.allocated_type))
                    elif cls is Cast:
                        key.append(_type_shape(instr.value.type))
                    elif cls is Call:
                        key += (instr.callee, instr.kind, len(instr.args))
                emit(tuple(key))
    # marshal format 2 has no object sharing, so equal content gives
    # equal bytes.
    return hashlib.sha256(marshal.dumps(parts, 2)).digest()


class _Program:
    """The compiled form of one module; functions compile on first call."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self._functions: Dict[str, _Function] = {}
        self._lock = threading.Lock()

    def function(self, name: str) -> _Function:
        compiled = self._functions.get(name)
        if compiled is None:
            with self._lock:
                compiled = self._functions.get(name)
                if compiled is None:
                    compiled = _FunctionCompiler(
                        self, self.module.functions[name]
                    ).compile()
                    self._functions[name] = compiled
        return compiled


_programs: "OrderedDict[bytes, _Program]" = OrderedDict()
_programs_lock = threading.Lock()


def _program_for(module: Module) -> _Program:
    key = module_fingerprint(module)
    with _programs_lock:
        program = _programs.get(key)
        if program is None:
            program = _programs[key] = _Program(module)
            while len(_programs) > PROGRAM_MEMO_SIZE:
                _programs.popitem(last=False)
        else:
            _programs.move_to_end(key)
    return program


def _run(fn: _Function, args: List, rt: "Interpreter"):
    """Execute one compiled function call."""
    r = [_UNDEF] * fn.n_slots
    r[0] = None
    r[1] = rt
    for slot, value in zip(fn.arg_slots, args):
        r[slot] = value
    counts = rt.profile.block_counts
    path_add = rt._path.add
    limit = rt.max_steps
    steps = 0
    block = fn.entry
    while True:
        name = block.name
        counts[name] += 1
        path_add(name)
        steps += block.size
        if steps > limit:
            # Run exactly the instructions the budget allows, then stop.
            for op in block.ops[: block.size - (steps - limit)]:
                op(r)
            raise InterpError(
                f"step limit exceeded in @{fn.name} ({limit} steps)"
            )
        for op in block.ops:
            op(r)
        nxt = block.target
        if nxt is None:
            branch = block.branch
            if branch is not None:
                nxt = branch(r)
            elif block.returns:
                ret = block.ret
                return None if ret is None else ret(r)
            else:
                raise InterpError(f"block {name} in @{fn.name} fell through")
        r[0] = block
        block = nxt


# -- per-opcode semantics bound at compile time ----------------------------------
def _binary_fn(opcode: str, type_: IRType) -> Callable[[int, int], int]:
    """``evaluate_binary`` specialised to one opcode and type."""
    if isinstance(type_, IntType):
        fn = _int_binops(type_.bits).get(opcode)
        if fn is not None:
            return fn
    return lambda a, b: evaluate_binary(opcode, type_, a, b)  # type: ignore[arg-type]


@functools.lru_cache(maxsize=None)  # one table per integer width
def _int_binops(bits: int) -> Dict[str, Callable[[int, int], int]]:
    """Every binary opcode on ``bits``-wide unsigned-wrapped integers,
    with ``evaluate_binary``'s results (masking an operand first or the
    result last is the same modular arithmetic)."""
    m = (1 << bits) - 1
    h = 1 << (bits - 1)

    def sdiv(a, b):
        sl, sr = ((a & m) ^ h) - h, ((b & m) ^ h) - h
        if sr == 0:
            return 0
        q = abs(sl) // abs(sr)
        if (sl < 0) != (sr < 0):
            q = -q
        return q & m

    def srem(a, b):
        sl, sr = ((a & m) ^ h) - h, ((b & m) ^ h) - h
        if sr == 0:
            return 0
        rem = abs(sl) % abs(sr)
        return (-rem if sl < 0 else rem) & m

    return {
        "add": lambda a, b: (a + b) & m,
        "sub": lambda a, b: (a - b) & m,
        "mul": lambda a, b: (a * b) & m,
        "udiv": lambda a, b: (a & m) // (b & m) if b & m else 0,
        "sdiv": sdiv,
        "urem": lambda a, b: (a & m) % (b & m) if b & m else 0,
        "srem": srem,
        "and": lambda a, b: a & b & m,
        "or": lambda a, b: (a | b) & m,
        "xor": lambda a, b: (a ^ b) & m,
        "shl": lambda a, b: (a << ((b & m) % bits)) & m,
        "lshr": lambda a, b: (a & m) >> ((b & m) % bits),
        "ashr": lambda a, b: ((((a & m) ^ h) - h) >> ((b & m) % bits)) & m,
    }


_ICMP_OPERATORS = {
    "eq": operator.eq, "ne": operator.ne,
    "ult": operator.lt, "ule": operator.le,
    "ugt": operator.gt, "uge": operator.ge,
    "slt": operator.lt, "sle": operator.le,
    "sgt": operator.gt, "sge": operator.ge,
}


def _icmp_generic(predicate: str, type_: IRType, lhs, rhs) -> int:
    """Comparison semantics for any operands, pointers included."""
    if isinstance(lhs, Ptr) or isinstance(rhs, Ptr):
        lnull = lhs.is_null if isinstance(lhs, Ptr) else lhs == 0
        rnull = rhs.is_null if isinstance(rhs, Ptr) else rhs == 0
        same = (lnull and rnull) or (
            isinstance(lhs, Ptr) and isinstance(rhs, Ptr) and lhs == rhs
        )
        return int(same if predicate == "eq" else not same)
    return evaluate_icmp(predicate, type_, lhs, rhs)  # type: ignore[arg-type]


def _icmp_fn(predicate: str, type_: IRType) -> Callable[[object, object], int]:
    """``icmp`` specialised to one predicate and operand type."""
    if isinstance(type_, IntType) and predicate in _ICMP_OPERATORS:
        return _int_icmp(predicate, type_.bits)
    return lambda a, b: _icmp_generic(predicate, type_, a, b)


@functools.lru_cache(maxsize=None)  # 10 predicates x 5 integer widths
def _int_icmp(predicate: str, bits: int) -> Callable[[object, object], int]:
    """Signed predicates compare with the sign bit flipped, which orders
    unsigned-wrapped values exactly as their signed readings."""
    type_ = int_type(bits)
    m = type_.max_unsigned()
    flip = 1 << (bits - 1) if predicate[0] == "s" else 0
    compare = _ICMP_OPERATORS[predicate]

    def icmp(a, b):
        try:
            return 1 if compare((a & m) ^ flip, (b & m) ^ flip) else 0
        except TypeError:  # a pointer value flowing through an int type
            return _icmp_generic(predicate, type_, a, b)

    return icmp


def _read_struct(ptr: Ptr) -> Dict:
    value = ptr.store.read(ptr.path)  # type: ignore[union-attr]
    if not isinstance(value, dict):
        raise InterpError("expected a struct value")
    return value


def _checksum_ip(packet: Packet) -> None:
    words = [
        (packet.ip["ip_v"] << 12)
        | (packet.ip["ip_hl"] << 8)
        | packet.ip["ip_tos"],
        packet.ip["ip_len"],
        packet.ip["ip_id"],
        packet.ip["ip_off"],
        (packet.ip["ip_ttl"] << 8) | packet.ip["ip_p"],
        packet.ip["src_addr"] >> 16,
        packet.ip["src_addr"] & 0xFFFF,
        packet.ip["dst_addr"] >> 16,
        packet.ip["dst_addr"] & 0xFFFF,
    ]
    total = sum(words)
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    packet.ip["ip_sum"] = (~total) & 0xFFFF


def _checksum_tcp(packet: Packet) -> None:
    if packet.tcp is None:
        return
    words = [
        packet.tcp["th_sport"],
        packet.tcp["th_dport"],
        packet.tcp["th_seq"] >> 16,
        packet.tcp["th_seq"] & 0xFFFF,
        packet.tcp["th_ack"] >> 16,
        packet.tcp["th_ack"] & 0xFFFF,
        packet.ip["src_addr"] >> 16,
        packet.ip["src_addr"] & 0xFFFF,
        packet.ip["dst_addr"] >> 16,
        packet.ip["dst_addr"] & 0xFFFF,
    ]
    total = sum(words)
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    packet.tcp["th_sum"] = (~total) & 0xFFFF


# -- the compiler ----------------------------------------------------------------
class _FunctionCompiler:
    def __init__(self, program: _Program, function: Function) -> None:
        self.program = program
        self.function = function
        self.layout = _Layout(function)
        self.cblocks = [_Block(b.name) for b in self.layout.blocks]

    def compile(self) -> _Function:
        layout = self.layout
        for bi, (cblock, body) in enumerate(zip(self.cblocks, layout.bodies)):
            cblock.size = len(body)
            ops = []
            for pos, instr in enumerate(body):
                if isinstance(instr, _TERMINATORS):
                    self._terminator(cblock, instr, bi, pos)
                else:
                    ops.append(self._instruction(instr, bi, pos, cblock.name))
            cblock.ops = tuple(ops)
        arg_slots = [layout.slots[id(a)] for a in self.function.args]
        return _Function(self.function.name, len(layout.slots) + _FIRST_SLOT,
                         arg_slots, self.cblocks[0])

    # -- operands ----------------------------------------------------------
    def operand(self, value: Value, bi: int, pos: int) -> Tuple[str, object]:
        """``("k", constant)``, ``("s", slot)`` for a slot read without a
        check, or ``("f", reader)``."""
        if isinstance(value, Constant):
            return ("k", NULL if value.type.is_pointer else value.value)
        if isinstance(value, GlobalVariable):
            name = value.name
            return ("f", lambda r: r[1]._global_ptrs[name])
        slot = self.layout.slots.get(id(value))
        if slot is not None and self.layout.always_defined(value, bi, pos):
            return ("s", slot)
        message = f"use of undefined value {value.ref()}"
        if slot is None:
            def undefined(r):
                raise InterpError(message)
            return ("f", undefined)

        def checked(r):
            v = r[slot]
            if v is _UNDEF:
                raise InterpError(message)
            return v
        return ("f", checked)

    def reader(self, value: Value, bi: int, pos: int) -> _Reader:
        kind, payload = self.operand(value, bi, pos)
        if kind == "k":
            return lambda r: payload
        if kind == "s":
            return itemgetter(payload)
        return payload  # type: ignore[return-value]

    # -- terminators --------------------------------------------------------
    def _terminator(self, cblock: _Block, instr, bi: int, pos: int) -> None:
        index = self.layout.index
        if isinstance(instr, Br):
            cblock.target = self.cblocks[index[id(instr.target)]]
        elif isinstance(instr, CondBr):
            t = self.cblocks[index[id(instr.if_true)]]
            f = self.cblocks[index[id(instr.if_false)]]
            kind, c = self.operand(instr.cond, bi, pos)
            if kind == "s":
                cblock.branch = lambda r: t if r[c] else f
            else:
                read = self.reader(instr.cond, bi, pos)
                cblock.branch = lambda r: t if read(r) else f
        else:
            cblock.returns = True
            if instr.value is not None:
                cblock.ret = self.reader(instr.value, bi, pos)

    # -- instructions --------------------------------------------------------
    def _instruction(self, instr, bi: int, pos: int, bname: str) -> _Op:
        d = self.layout.slots.get(id(instr), 0)
        if isinstance(instr, Load):
            return self._load(instr, bi, pos, d, bname)
        if isinstance(instr, Store):
            return self._store(instr, bi, pos, bname)
        if isinstance(instr, BinaryOp):
            return self._pure2(_binary_fn(instr.opcode, instr.type),
                               instr.lhs, instr.rhs, bi, pos, d)
        if isinstance(instr, ICmp):
            return self._pure2(_icmp_fn(instr.predicate, instr.lhs.type),
                               instr.lhs, instr.rhs, bi, pos, d)
        if isinstance(instr, GEP):
            return self._gep(instr, bi, pos, d)
        if isinstance(instr, Call):
            return self._call(instr, bi, pos, d, bname)
        if isinstance(instr, Cast):
            return self._cast(instr, bi, pos, d)
        if isinstance(instr, Alloca):
            make = _zero_factory(instr.allocated_type)

            def alloca(r):
                r[d] = _tuple_new(Ptr, (TreeStore(make()), (), None))
            return alloca
        if isinstance(instr, Select):
            c = self.reader(instr.cond, bi, pos)
            t = self.reader(instr.if_true, bi, pos)
            f = self.reader(instr.if_false, bi, pos)

            def select(r):
                r[d] = t(r) if c(r) else f(r)
            return select
        if isinstance(instr, Phi):
            return self._phi(instr, d, bname)
        message = f"cannot interpret {instr.opcode}"

        def unknown(r):
            raise InterpError(message)
        return unknown

    def _pure2(self, fn, lhs, rhs, bi, pos, d) -> _Op:
        """A two-operand value computation ``r[d] = fn(lhs, rhs)``."""
        (ka, a), (kb, b) = self.operand(lhs, bi, pos), self.operand(rhs, bi, pos)
        if ka == "s" and kb == "s":
            def op(r):
                r[d] = fn(r[a], r[b])
        elif ka == "s" and kb == "k":
            def op(r):
                r[d] = fn(r[a], b)
        elif ka == "k" and kb == "s":
            def op(r):
                r[d] = fn(a, r[b])
        else:
            ra, rb = self.reader(lhs, bi, pos), self.reader(rhs, bi, pos)

            def op(r):
                r[d] = fn(ra(r), rb(r))
        return op

    def _cast(self, instr: Cast, bi: int, pos: int, d: int) -> _Op:
        read = self.reader(instr.value, bi, pos)
        if instr.opcode == "bitcast":
            def cast(r):
                r[d] = read(r)
        elif instr.opcode in ("zext", "trunc"):
            m = instr.type.max_unsigned()  # type: ignore[attr-defined]

            def cast(r):
                r[d] = read(r) & m
        elif instr.opcode == "sext":
            src = instr.value.type
            fm, h = src.max_unsigned(), 1 << (src.bits - 1)  # type: ignore[attr-defined]
            m = instr.type.max_unsigned()  # type: ignore[attr-defined]

            def cast(r):
                r[d] = (((read(r) & fm) ^ h) - h) & m
        else:
            def cast(r):
                read(r)
        return cast

    def _load(self, instr: Load, bi: int, pos: int, d: int, bname: str) -> _Op:
        kind, p = self.operand(instr.ptr, bi, pos)
        if kind == "s" and isinstance(instr.ptr, Alloca):
            def load_local(r):  # a whole alloca: always a valid TreeStore
                r[d] = r[p].store.tree
            return load_local
        read = self.reader(instr.ptr, bi, pos)
        message = f"load through bad pointer in {bname}"

        def load(r):
            ptr = read(r)
            if ptr.__class__ is not Ptr or ptr.store is None:
                raise InterpError(message)
            store, path, origin = ptr
            if store.__class__ is TreeStore:
                node = store.tree
                for step in path:
                    node = node[step]
                r[d] = node
            else:
                r[d] = store.read(path)
            if origin is not None:
                r[1].profile.record_access(origin, "load", bname)
        return load

    def _store(self, instr: Store, bi: int, pos: int, bname: str) -> _Op:
        kind, p = self.operand(instr.ptr, bi, pos)
        value = self.reader(instr.value, bi, pos)
        if kind == "s" and isinstance(instr.ptr, Alloca):
            def store_local(r):
                r[p].store.tree = value(r)
            return store_local
        read = self.reader(instr.ptr, bi, pos)
        message = f"store through bad pointer in {bname}"

        def store(r):
            ptr = read(r)
            v = value(r)
            if ptr.__class__ is not Ptr or ptr.store is None:
                raise InterpError(message)
            store, path, origin = ptr
            if store.__class__ is TreeStore and path:
                node = store.tree
                for step in path[:-1]:
                    node = node[step]
                node[path[-1]] = v
            else:
                store.write(path, v)
            if origin is not None:
                r[1].profile.record_access(origin, "store", bname)
        return store

    def _gep(self, instr: GEP, bi: int, pos: int, d: int) -> _Op:
        base = self.reader(instr.base, bi, pos)
        message = "GEP on non-pointer value"
        indices = instr.indices
        if all(isinstance(i, str) for i in indices):
            fields = tuple(indices)

            def gep_fields(r):
                b = base(r)
                if b.__class__ is not Ptr:
                    raise InterpError(message)
                store, path, origin = b
                r[d] = _tuple_new(Ptr, (store, path + fields, origin))
            return gep_fields
        if len(indices) == 1:
            index = self.reader(indices[0], bi, pos)  # type: ignore[arg-type]

            def gep_index(r):
                b = base(r)
                if b.__class__ is not Ptr:
                    raise InterpError(message)
                store, path, origin = b
                r[d] = _tuple_new(Ptr, (store, path + (int(index(r)),), origin))
            return gep_index
        steps = tuple(
            (True, i) if isinstance(i, str) else (False, self.reader(i, bi, pos))
            for i in indices
        )

        def gep(r):
            b = base(r)
            if b.__class__ is not Ptr:
                raise InterpError(message)
            store, path, origin = b
            for is_field, step in steps:
                path += (step,) if is_field else (int(step(r)),)
            r[d] = _tuple_new(Ptr, (store, path, origin))
        return gep

    def _phi(self, instr: Phi, d: int, bname: str) -> _Op:
        arms: Dict[_Block, _Reader] = {}
        for value, pred in instr.incomings:
            pi = self.layout.index.get(id(pred))
            if pi is None or self.cblocks[pi] in arms:
                continue  # never the predecessor, or shadowed by an earlier arm
            arms[self.cblocks[pi]] = self.reader(
                value, pi, len(self.layout.bodies[pi])
            )

        def phi(r):
            prev = r[0]
            if prev is None:
                raise InterpError("phi in entry block")
            arm = arms.get(prev)
            if arm is None:
                raise InterpError(
                    f"phi in {bname} has no arm for predecessor {prev.name}"
                )
            r[d] = arm(r)
        return phi

    def _call(self, instr: Call, bi: int, pos: int, d: int, bname: str) -> _Op:
        name = instr.callee
        produces = instr.produces_value
        if instr.kind == "internal":
            if name not in self.program.module.functions:
                message = f"call to unknown function @{name}"

                def unknown(r):
                    raise InterpError(message)
                return unknown
            readers = [self.reader(a, bi, pos) for a in instr.args]
            program = self.program

            def call(r):
                result = _run(program.function(name),
                              [read(r) for read in readers], r[1])
                if produces:
                    r[d] = result
            return call

        body = self._api(instr, bi, pos, bname)

        def api(r):
            rt = r[1]
            rt.profile.api_counts[name] += 1
            packet = rt._current_packet
            if packet is None:
                raise InterpError("API call outside packet context")
            result = body(r, rt, packet)
            if produces:
                r[d] = result
        return api

    # -- framework API implementations ---------------------------------------
    def _api(self, instr: Call, bi: int, pos: int, bname: str):
        """The body of a framework API call: ``body(r, rt, packet)``.
        Arguments are read only where (and when) the API uses them."""
        name = instr.callee

        def arg(i: int) -> _Reader:
            if i < len(instr.args):
                return self.reader(instr.args[i], bi, pos)

            def missing(r):
                raise IndexError("list index out of range")
            return missing

        if name in ("eth_header", "ip_header", "tcp_header", "udp_header"):
            header = name.split("_")[0]

            def header_view(r, rt, packet):
                if packet.header(header) is None:
                    return NULL
                return Ptr(rt._packet_store, (header,))
            return header_view
        if name == "payload_byte":
            index = arg(1)

            def payload_byte(r, rt, packet):
                i = index(r)
                if not packet.payload:
                    return 0
                return packet.payload[i % len(packet.payload)]
            return payload_byte
        if name == "set_payload_byte":
            index, byte = arg(1), arg(2)

            def set_payload_byte(r, rt, packet):
                i, value = index(r), byte(r)
                if packet.payload:
                    payload = bytearray(packet.payload)
                    payload[i % len(payload)] = value & 0xFF
                    packet.payload = bytes(payload)
            return set_payload_byte
        if name == "payload_len":
            return lambda r, rt, packet: len(packet.payload)
        if name == "send":
            port = arg(1)

            def send(r, rt, packet):
                packet.out_port = port(r)
            return send
        if name == "drop":
            def drop(r, rt, packet):
                packet.dropped = True
            return drop
        if name == "in_port":
            return lambda r, rt, packet: packet.in_port
        if name == "timestamp_ns":
            return lambda r, rt, packet: packet.timestamp_ns
        if name in ("checksum_update_ip", "checksum_update_tcp"):
            target = arg(0)
            update = _checksum_ip if name == "checksum_update_ip" else _checksum_tcp

            def checksum(r, rt, packet):
                target(r)
                update(packet)
            return checksum
        if name == "random_u32":
            return lambda r, rt, packet: int(
                rt.rng.integers(0, 2**32, dtype=np.uint64)
            )
        return self._stateful_api(instr, arg, bname)

    def _stateful_api(self, instr: Call, arg, bname: str):
        """Data-structure APIs; the receiver global is the first argument."""
        name = instr.callee
        if not instr.args:
            def no_receiver(r, rt, packet):
                raise IndexError("list index out of range")
            return no_receiver
        if not isinstance(instr.args[0], GlobalVariable):
            message = f"API {name} receiver is not a global"

            def not_global(r, rt, packet):
                raise InterpError(message)
            return not_global
        gname = instr.args[0].name

        def touch(rt):
            rt.profile.record_access(gname, "load", bname)

        def stored(rt):
            rt.profile.record_access(gname, "store", bname)

        if name.startswith("hashmap_"):
            if name == "hashmap_size":
                def hashmap_size(r, rt, packet):
                    touch(rt)
                    return len(rt.hashmap(gname))
                return hashmap_size
            key_arg, value_arg = arg(1), arg(2)

            def table_and_key(r, rt):
                touch(rt)
                table = rt.hashmap(gname)
                key = tuple(sorted(_read_struct(key_arg(r)).items()))
                return table, key

            if name == "hashmap_find":
                def hashmap_find(r, rt, packet):
                    table, key = table_and_key(r, rt)
                    entry = table.find(key)
                    if entry is None:
                        return NULL
                    return Ptr(TreeStore(entry), (), gname)
                return hashmap_find
            if name == "hashmap_insert":
                def hashmap_insert(r, rt, packet):
                    table, key = table_and_key(r, rt)
                    value = _read_struct(value_arg(r))
                    stored(rt)
                    return int(table.insert(key, value))
                return hashmap_insert
            if name == "hashmap_erase":
                def hashmap_erase(r, rt, packet):
                    table, key = table_and_key(r, rt)
                    stored(rt)
                    return int(table.erase(key))
                return hashmap_erase
            message = f"unknown hashmap API {name}"

            def unknown_hashmap(r, rt, packet):
                table_and_key(r, rt)
                raise InterpError(message)
            return unknown_hashmap

        if name.startswith("vector_"):
            index_arg = arg(1)
            if name == "vector_size":
                def vector_size(r, rt, packet):
                    touch(rt)
                    return len(rt.vector(gname).items)
                return vector_size
            if name == "vector_at":
                def vector_at(r, rt, packet):
                    touch(rt)
                    vec = rt.vector(gname)
                    index = index_arg(r)
                    if index >= len(vec.items):
                        return NULL
                    item = vec.items[index]
                    if isinstance(item, dict):
                        return Ptr(TreeStore(item), (), gname)
                    # Scalar vectors: box the value so the pointer is writable.
                    return Ptr(_BoxStore(vec.items, index), (), gname)
                return vector_at
            if name == "vector_push":
                def vector_push(r, rt, packet):
                    touch(rt)
                    vec = rt.vector(gname)
                    elem_ptr = index_arg(r)
                    value = elem_ptr.store.read(elem_ptr.path)
                    if isinstance(value, dict):
                        value = dict(value)
                    stored(rt)
                    return int(vec.push(value))
                return vector_push
            if name == "vector_remove":
                def vector_remove(r, rt, packet):
                    touch(rt)
                    vec = rt.vector(gname)
                    index = index_arg(r)
                    stored(rt)
                    if index < len(vec.items):
                        del vec.items[index]
                return vector_remove
            message = f"unknown vector API {name}"

            def unknown_vector(r, rt, packet):
                touch(rt)
                rt.vector(gname)
                raise InterpError(message)
            return unknown_vector

        message = f"unimplemented API {name!r}"

        def unimplemented(r, rt, packet):
            touch(rt)
            raise InterpError(message)
        return unimplemented


class Interpreter:
    """Executes a lowered element module packet by packet.

    The module is compiled (or fetched from the program memo) on the
    first packet; it must not change once the interpreter has run.
    """

    def __init__(
        self,
        module: Module,
        seed: int = 0,
        max_steps_per_packet: int = 500_000,
    ) -> None:
        self.module = module
        self.max_steps = max_steps_per_packet
        self.rng = np.random.default_rng(seed)
        self.profile = ExecutionProfile()
        # Stateful storage (persists across packets).
        self.globals: Dict[str, object] = {}
        for name, g in module.globals.items():
            if g.kind == "hashmap":
                self.globals[name] = HostHashMap(g.entries)
            elif g.kind == "vector":
                self.globals[name] = HostVector(g.entries)
            else:
                self.globals[name] = TreeStore(zero_value(g.value_type))
        # Pointer values of the globals; hashmap/vector handles are
        # opaque (only API calls use them).
        self._global_ptrs: Dict[str, Ptr] = {
            name: Ptr(store if isinstance(store, TreeStore) else None,
                      (), name)
            for name, store in self.globals.items()
        }
        self._program: Optional[_Program] = None
        self._current_packet: Optional[Packet] = None
        self._packet_store: Optional[PacketStore] = None
        self._path: set = set()

    # -- state inspection helpers (used by tests) ---------------------
    def hashmap(self, name: str) -> HostHashMap:
        obj = self.globals[name]
        if not isinstance(obj, HostHashMap):
            raise InterpError(f"{name} is not a hashmap")
        return obj

    def vector(self, name: str) -> HostVector:
        obj = self.globals[name]
        if not isinstance(obj, HostVector):
            raise InterpError(f"{name} is not a vector")
        return obj

    def global_value(self, name: str):
        obj = self.globals[name]
        if not isinstance(obj, TreeStore):
            raise InterpError(f"{name} has no direct value")
        return obj.tree

    # -- running -------------------------------------------------------
    def run_trace(self, packets: Iterable[Packet]) -> ExecutionProfile:
        for packet in packets:
            self.run_packet(packet)
        return self.profile

    def run_packet(self, packet: Packet) -> Packet:
        self._current_packet = packet
        self._packet_store = PacketStore(packet)
        handler = self.module.handler
        if self._program is None:
            self._program = _program_for(self.module)
        self._path = path = set()
        _run(self._program.function(handler.name),
             [Ptr(self._packet_store, (), None)], self)
        self.profile.path_counts[frozenset(path)] += 1
        self.profile.packets += 1
        if packet.dropped:
            self.profile.dropped += 1
        elif packet.out_port is not None:
            self.profile.sent += 1
        return packet
