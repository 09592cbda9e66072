"""Gate-level netlist intermediate representation.

The IR is deliberately simple: a :class:`Netlist` is a set of named nets,
primary inputs, primary outputs, combinational :class:`Gate` instances
(each driving exactly one net), and D flip-flops. Every combinational
gate carries a :class:`TruthTable`, so estimation and simulation never
need per-type special cases; the :class:`GateType` enum only exists to
keep BLIF output and debugging readable.

The paper's binding algorithm writes partial datapaths in this IR
(Figure 2), the switching-activity estimator of Section 4 walks it, and
the technology mapper covers it with K-input LUTs (which are just gates
whose truth table has K inputs).
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import NetlistError


class GateType(enum.Enum):
    """Readable tags for common gate functions.

    ``LUT`` is the generic tag used for mapped look-up tables and for any
    function that does not match a named type.
    """

    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    MUX = "mux"  # inputs: (sel, a, b) -> b if sel else a
    LUT = "lut"


class TruthTable:
    """A boolean function of ``n_inputs`` variables.

    The function is stored as a bitmask ``bits``: bit ``i`` holds the
    output for the input combination whose binary encoding is ``i``
    (input 0 is the least-significant bit of ``i``).

    Instances are immutable and hashable, so they can key caches in the
    switching-activity estimator.
    """

    __slots__ = ("n_inputs", "bits")

    def __init__(self, n_inputs: int, bits: int):
        if n_inputs < 0:
            raise NetlistError(f"negative input count: {n_inputs}")
        size = 1 << n_inputs
        mask = (1 << size) - 1
        self.n_inputs = n_inputs
        self.bits = bits & mask

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: bool) -> "TruthTable":
        return cls(0, 1 if value else 0)

    @classmethod
    def from_function(cls, n_inputs: int, fn) -> "TruthTable":
        """Build a table by evaluating ``fn(tuple_of_bools) -> bool``."""
        bits = 0
        for i in range(1 << n_inputs):
            inputs = tuple(bool((i >> k) & 1) for k in range(n_inputs))
            if fn(inputs):
                bits |= 1 << i
        return cls(n_inputs, bits)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def for_type(cls, gate_type: GateType, n_inputs: int) -> "TruthTable":
        """Truth table for a named gate type with ``n_inputs`` inputs
        (tables are immutable, so each one is built once)."""
        if gate_type is GateType.CONST0:
            return cls.constant(False)
        if gate_type is GateType.CONST1:
            return cls.constant(True)
        if gate_type is GateType.BUF:
            if n_inputs != 1:
                raise NetlistError("BUF takes exactly one input")
            return cls(1, 0b10)
        if gate_type is GateType.NOT:
            if n_inputs != 1:
                raise NetlistError("NOT takes exactly one input")
            return cls(1, 0b01)
        if gate_type is GateType.MUX:
            if n_inputs != 3:
                raise NetlistError("MUX takes exactly (sel, a, b)")
            # out = b if sel else a; sel is input 0, a input 1, b input 2.
            return cls.from_function(3, lambda v: v[2] if v[0] else v[1])
        if n_inputs < 1:
            raise NetlistError(f"{gate_type.value} needs at least one input")
        if gate_type is GateType.AND:
            return cls.from_function(n_inputs, all)
        if gate_type is GateType.NAND:
            return cls.from_function(n_inputs, lambda v: not all(v))
        if gate_type is GateType.OR:
            return cls.from_function(n_inputs, any)
        if gate_type is GateType.NOR:
            return cls.from_function(n_inputs, lambda v: not any(v))
        if gate_type is GateType.XOR:
            return cls.from_function(n_inputs, lambda v: sum(v) % 2 == 1)
        if gate_type is GateType.XNOR:
            return cls.from_function(n_inputs, lambda v: sum(v) % 2 == 0)
        raise NetlistError(f"no canonical truth table for {gate_type}")

    # -- queries -------------------------------------------------------

    def evaluate(self, inputs: Sequence[bool]) -> bool:
        """Evaluate the function on a concrete input assignment."""
        if len(inputs) != self.n_inputs:
            raise NetlistError(
                f"expected {self.n_inputs} inputs, got {len(inputs)}"
            )
        index = 0
        for k, value in enumerate(inputs):
            if value:
                index |= 1 << k
        return bool((self.bits >> index) & 1)

    def output_column(self) -> List[bool]:
        """All outputs in input-combination order (length ``2**n``)."""
        return [bool((self.bits >> i) & 1) for i in range(1 << self.n_inputs)]

    def cofactor(self, var: int, value: bool) -> "TruthTable":
        """Shannon cofactor with input ``var`` fixed to ``value``.

        The result has ``n_inputs - 1`` inputs; remaining variables keep
        their relative order.
        """
        if not 0 <= var < self.n_inputs:
            raise NetlistError(f"variable {var} out of range")
        n = self.n_inputs - 1
        bits = 0
        for i in range(1 << n):
            low = i & ((1 << var) - 1)
            high = i >> var
            full = low | (int(value) << var) | (high << (var + 1))
            if (self.bits >> full) & 1:
                bits |= 1 << i
        return TruthTable(n, bits)

    def boolean_difference(self, var: int) -> "TruthTable":
        """``dF/dx_var = F|x=1 XOR F|x=0`` (Najm's transition density)."""
        hi = self.cofactor(var, True)
        lo = self.cofactor(var, False)
        return TruthTable(hi.n_inputs, hi.bits ^ lo.bits)

    def depends_on(self, var: int) -> bool:
        """True when the output actually depends on input ``var``."""
        return self.boolean_difference(var).bits != 0

    def support(self) -> List[int]:
        """Indices of inputs the function truly depends on."""
        return [v for v in range(self.n_inputs) if self.depends_on(v)]

    def is_constant(self) -> Optional[bool]:
        """Return the constant value if the function is constant."""
        size = 1 << self.n_inputs
        if self.bits == 0:
            return False
        if self.bits == (1 << size) - 1:
            return True
        return None

    def negate(self) -> "TruthTable":
        size = 1 << self.n_inputs
        return TruthTable(self.n_inputs, self.bits ^ ((1 << size) - 1))

    def permute(self, order: Sequence[int]) -> "TruthTable":
        """Reorder inputs: new input ``k`` is old input ``order[k]``."""
        if sorted(order) != list(range(self.n_inputs)):
            raise NetlistError(f"bad permutation {order!r}")
        bits = 0
        for i in range(1 << self.n_inputs):
            old_index = 0
            for new_pos, old_pos in enumerate(order):
                if (i >> new_pos) & 1:
                    old_index |= 1 << old_pos
            if (self.bits >> old_index) & 1:
                bits |= 1 << i
        return TruthTable(self.n_inputs, bits)

    def classify(self) -> GateType:
        """Best-effort named type for this function (else ``LUT``)."""
        for gate_type in (
            GateType.BUF,
            GateType.NOT,
            GateType.AND,
            GateType.OR,
            GateType.NAND,
            GateType.NOR,
            GateType.XOR,
            GateType.XNOR,
        ):
            try:
                if TruthTable.for_type(gate_type, self.n_inputs) == self:
                    return gate_type
            except NetlistError:
                continue
        constant = self.is_constant()
        if constant is True:
            return GateType.CONST1
        if constant is False:
            return GateType.CONST0
        return GateType.LUT

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruthTable)
            and self.n_inputs == other.n_inputs
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n_inputs, self.bits))

    def __repr__(self) -> str:
        return f"TruthTable({self.n_inputs}, 0b{self.bits:0{1 << self.n_inputs}b})"


@dataclass
class Gate:
    """A combinational gate driving exactly one net."""

    output: str
    inputs: Tuple[str, ...]
    table: TruthTable
    gate_type: GateType = GateType.LUT

    def __post_init__(self) -> None:
        if self.table.n_inputs != len(self.inputs):
            raise NetlistError(
                f"gate {self.output!r}: table arity {self.table.n_inputs} "
                f"!= {len(self.inputs)} inputs"
            )


@dataclass
class Latch:
    """A D flip-flop: ``output`` takes the value of ``data`` each clock."""

    output: str
    data: str
    init: bool = False
    enable: Optional[str] = None


class Netlist:
    """A gate-level netlist with named nets.

    Nets are strings. Primary inputs and flip-flop outputs are sources;
    every other referenced net must be driven by exactly one gate.
    """

    def __init__(self, name: str = "top"):
        self.name = name
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.gates: Dict[str, Gate] = {}
        self.latches: Dict[str, Latch] = {}
        self._fresh = itertools.count()
        # Set mirror of ``inputs``: membership tests during construction
        # must stay O(1) or netlist building goes quadratic in the pad
        # count (every add_gate would scan the primary-input list).
        self._input_set: Set[str] = set()
        #: Mutation counter: every edit bumps it (see :meth:`touch`),
        #: and compiled views cached on the netlist are valid only for
        #: the version they were built from.
        self.version = 0

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Netlists pickled before the input-set mirror or the version
        # existed restore without them; rebuild both.
        self.__dict__.update(state)
        if "_input_set" not in state:
            self._input_set = set(self.inputs)
        self.__dict__.setdefault("version", 0)

    def touch(self) -> None:
        """Record an in-place edit (invalidates cached compiled views).

        The ``add_*`` methods call it; code that writes ``gates``,
        ``latches`` or ``inputs`` directly must call it too.
        """
        self.version += 1

    # -- construction --------------------------------------------------

    def new_net(self, prefix: str = "n") -> str:
        """Return a fresh net name not yet used in this netlist."""
        while True:
            name = f"{prefix}{next(self._fresh)}"
            if not self._is_used(name):
                return name

    def _is_used(self, net: str) -> bool:
        return net in self.gates or net in self.latches or net in self._input_set

    def add_input(self, name: Optional[str] = None) -> str:
        net = name if name is not None else self.new_net("pi")
        if self._is_used(net):
            raise NetlistError(f"net {net!r} already driven")
        self.inputs.append(net)
        self._input_set.add(net)
        self.version += 1
        return net

    def set_output(self, net: str) -> None:
        if net not in self.outputs:
            self.outputs.append(net)
            self.version += 1

    def add_gate(
        self,
        table: TruthTable,
        inputs: Sequence[str],
        output: Optional[str] = None,
        gate_type: Optional[GateType] = None,
    ) -> str:
        """Add a combinational gate; returns its output net."""
        net = output if output is not None else self.new_net()
        if self._is_used(net):
            raise NetlistError(f"net {net!r} already driven")
        if gate_type is None:
            gate_type = table.classify()
        self.gates[net] = Gate(net, tuple(inputs), table, gate_type)
        self.version += 1
        return net

    def add_simple(
        self,
        gate_type: GateType,
        inputs: Sequence[str],
        output: Optional[str] = None,
    ) -> str:
        """Add a gate of a named type (arity from ``inputs``)."""
        table = TruthTable.for_type(gate_type, len(inputs))
        return self.add_gate(table, inputs, output, gate_type)

    def add_const(self, value: bool, output: Optional[str] = None) -> str:
        gate_type = GateType.CONST1 if value else GateType.CONST0
        return self.add_gate(TruthTable.constant(value), (), output, gate_type)

    def add_latch(
        self,
        data: str,
        output: Optional[str] = None,
        init: bool = False,
        enable: Optional[str] = None,
    ) -> str:
        net = output if output is not None else self.new_net("q")
        if self._is_used(net):
            raise NetlistError(f"net {net!r} already driven")
        self.latches[net] = Latch(net, data, init, enable)
        self.version += 1
        return net

    # -- queries --------------------------------------------------------

    def driver(self, net: str) -> Optional[Gate]:
        return self.gates.get(net)

    def is_source(self, net: str) -> bool:
        """True for nets not driven by combinational logic."""
        return net in self._input_set or net in self.latches

    def all_nets(self) -> Set[str]:
        nets: Set[str] = set(self.inputs)
        nets.update(self.gates)
        nets.update(self.latches)
        for gate in self.gates.values():
            nets.update(gate.inputs)
        for latch in self.latches.values():
            nets.add(latch.data)
            if latch.enable is not None:
                nets.add(latch.enable)
        nets.update(self.outputs)
        return nets

    def undriven_nets(self) -> Set[str]:
        """Nets referenced but not driven by anything."""
        driven = set(self.inputs) | set(self.gates) | set(self.latches)
        return {net for net in self.all_nets() if net not in driven}

    def fanout_map(self) -> Dict[str, List[str]]:
        """Map from net to the output nets of gates reading it."""
        fanout: Dict[str, List[str]] = {net: [] for net in self.all_nets()}
        for gate in self.gates.values():
            for net in gate.inputs:
                fanout[net].append(gate.output)
        return fanout

    def num_gates(self) -> int:
        return len(self.gates)

    def num_latches(self) -> int:
        return len(self.latches)

    def validate(self) -> None:
        """Raise :class:`NetlistError` on dangling nets or comb. cycles."""
        undriven = self.undriven_nets()
        if undriven:
            sample = sorted(undriven)[:5]
            raise NetlistError(
                f"{self.name}: {len(undriven)} undriven nets, e.g. {sample}"
            )
        self.topological_order()  # raises on a combinational cycle

    # -- traversal ------------------------------------------------------

    def topological_order(self) -> List[str]:
        """Combinational gate outputs in dependence order.

        Sources (primary inputs, latch outputs) are not included. Raises
        :class:`NetlistError` if the combinational logic has a cycle.
        Memoized per :attr:`version`; every call returns a fresh list.
        """
        cached = getattr(self, "_topo", None)
        if cached is not None and cached[0] == self.version:
            return list(cached[1])
        order: List[str] = []
        state: Dict[str, int] = {}  # 0 = visiting, 1 = done

        for root in list(self.gates):
            if root in state:
                continue
            stack: List[Tuple[str, int]] = [(root, 0)]
            while stack:
                net, phase = stack.pop()
                if phase == 0:
                    if net in state:
                        continue
                    state[net] = 0
                    stack.append((net, 1))
                    gate = self.gates.get(net)
                    if gate is None:
                        continue
                    for fanin in gate.inputs:
                        if fanin in self.gates:
                            mark = state.get(fanin)
                            if mark == 0:
                                raise NetlistError(
                                    f"combinational cycle through {fanin!r}"
                                )
                            if mark is None:
                                stack.append((fanin, 0))
                else:
                    state[net] = 1
                    if net in self.gates:
                        order.append(net)
        self._topo = (self.version, tuple(order))
        return order

    def depth(self) -> int:
        """Longest source-to-output path length, in gate levels."""
        return max(self.levels().values(), default=0)

    def levels(self) -> Dict[str, int]:
        """Unit-delay arrival level per net (sources are level 0)."""
        level: Dict[str, int] = {net: 0 for net in self.inputs}
        for net in self.latches:
            level[net] = 0
        for net in self.topological_order():
            gate = self.gates[net]
            if gate.inputs:
                level[net] = 1 + max(level.get(i, 0) for i in gate.inputs)
            else:
                level[net] = 0
        return level

    def transitive_fanin(self, nets: Iterable[str]) -> Set[str]:
        """All nets in the cone feeding ``nets`` (inclusive)."""
        seen: Set[str] = set()
        stack = list(nets)
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            gate = self.gates.get(net)
            if gate is not None:
                stack.extend(gate.inputs)
        return seen

    # -- composition ----------------------------------------------------

    def instantiate(
        self,
        sub: "Netlist",
        port_map: Dict[str, str],
        prefix: str,
        output_map: Optional[Dict[str, str]] = None,
    ) -> Dict[str, str]:
        """Copy ``sub`` into this netlist (paper Figure 2's ``.subckt``).

        ``port_map`` maps the subcircuit's primary input names to nets of
        this netlist. Internal nets and outputs are renamed with
        ``prefix``, except outputs listed in ``output_map``, which take
        the given names (useful to pre-declare nets other logic already
        references). Latches are copied as latches. Returns a map from
        the subcircuit's output names to the new nets here.

        This mirrors the paper's partial-datapath netlist generation:
        "importing existing instantiations of the multiplexers and
        functional units, and making the necessary connections".
        """
        missing = [p for p in sub.inputs if p not in port_map]
        if missing:
            raise NetlistError(
                f"instantiate {sub.name!r}: unconnected inputs {missing}"
            )

        rename: Dict[str, str] = dict(port_map)
        if output_map:
            for sub_net, target in output_map.items():
                if sub_net not in sub.outputs:
                    raise NetlistError(
                        f"instantiate {sub.name!r}: {sub_net!r} is not "
                        f"an output"
                    )
                rename[sub_net] = target

        def resolve(net: str) -> str:
            if net not in rename:
                rename[net] = f"{prefix}{net}"
            return rename[net]

        for net in sub.topological_order():
            gate = sub.gates[net]
            new_inputs = tuple(resolve(i) for i in gate.inputs)
            self.add_gate(gate.table, new_inputs, resolve(net), gate.gate_type)
        for latch in sub.latches.values():
            enable = resolve(latch.enable) if latch.enable else None
            self.add_latch(
                resolve(latch.data), resolve(latch.output), latch.init, enable
            )
        return {out: resolve(out) for out in sub.outputs}

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, pis={len(self.inputs)}, "
            f"pos={len(self.outputs)}, gates={len(self.gates)}, "
            f"latches={len(self.latches)})"
        )


def iter_minterms(table: TruthTable) -> Iterator[Tuple[bool, ...]]:
    """Yield the input combinations for which ``table`` is true."""
    for i in range(1 << table.n_inputs):
        if (table.bits >> i) & 1:
            yield tuple(bool((i >> k) & 1) for k in range(table.n_inputs))
