"""The per-gate loop simulator: oracle of the fused compiled sweep.

One vectorised evaluator call per gate in topological order.  Each call is
a numpy operation, but the loop itself runs under the GIL; the fused
kernel of :mod:`repro.simulation.compiled` replaced it and must stay
bit-identical to it on every net.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.netlist import Netlist
from repro.simulation import LogicSimulator
from repro.simulation.levelize import topological_gate_order
from repro.simulation.logic import (_EVALUATORS, evaluate_gate,
                                    supports_static_dispatch)


class LoopResult:
    """Net values of one loop evaluation (a plain dictionary per net)."""

    __slots__ = ("net_values", "next_state", "n_vectors")

    def __init__(self, net_values: Dict[str, np.ndarray],
                 next_state: Dict[str, np.ndarray], n_vectors: int) -> None:
        self.net_values = net_values
        self.next_state = next_state
        self.n_vectors = n_vectors


class LoopSimulator(LogicSimulator):
    """Per-gate reference sweep with the stimulus checks of
    :class:`~repro.simulation.LogicSimulator`.

    The dispatch plan resolves each gate's evaluator, input tuple and
    output-inversion flag once, so the per-batch loop is a straight run of
    vectorised ufunc calls.  Gates whose operand counts cannot be validated
    statically keep the checked :func:`evaluate_gate` path and its lazy
    errors.
    """

    def __init__(self, netlist: Netlist) -> None:
        # No fused plan: this simulator never touches CompiledNetlist.
        self.netlist = netlist
        self._dff_gates = list(netlist.sequential_gates())
        self._compiled = []
        for name in topological_gate_order(netlist):
            gate = netlist.gate(name)
            if supports_static_dispatch(gate.gate_type, len(gate.inputs)):
                evaluator = _EVALUATORS[gate.gate_type]
            else:
                evaluator = (lambda operands, gate_type=gate.gate_type:
                             evaluate_gate(gate_type, operands))
            # Masked composites that replaced an inverting primitive
            # (NAND/NOR/XNOR) fold the inversion into their recombination
            # stage; honour the transform's attribute.
            inverted = bool(gate.gate_type.is_masked
                            and gate.attributes.get("inverted_output"))
            self._compiled.append(
                (evaluator, tuple(gate.inputs), gate.output, inverted))

    def evaluate(self, input_values: Mapping[str, np.ndarray],
                 state: Optional[Mapping[str, np.ndarray]] = None
                 ) -> LoopResult:
        n_vectors, state_values = self._check_stimulus(input_values, state)
        values: Dict[str, np.ndarray] = {}
        for net in self.netlist.primary_inputs:
            values[net] = np.asarray(input_values[net], dtype=bool)

        # One shared read-only default buffer backs every undriven net and
        # register default.
        zeros = np.zeros(n_vectors, dtype=bool)
        zeros.setflags(write=False)
        for gate in self._dff_gates:
            values[gate.output] = state_values.get(gate.output, zeros)

        for evaluator, inputs, output_net, inverted in self._compiled:
            operands = []
            for net in inputs:
                value = values.get(net)
                if value is None:
                    # Undriven net: constant 0.
                    values[net] = zeros
                    value = zeros
                operands.append(value)
            output = evaluator(operands)
            if inverted:
                output = np.logical_not(output)
            values[output_net] = output

        next_state = {gate.output: values.get(gate.inputs[0], zeros).copy()
                      for gate in self._dff_gates}
        return LoopResult(values, next_state, n_vectors)
