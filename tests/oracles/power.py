"""Oracles of the power-trace engine.

* :class:`UnpackedPowerTraceGenerator` — the bool-matrix toggle extraction
  that the packed extraction of
  :meth:`repro.power.traces.PowerTraceGenerator.generate` replaced.  It
  reads the unpacked ``(n_signals, batch)`` state matrix, compares rows with
  ``!=`` and re-casts the value tables on every call; its traces are
  byte-identical to the packed engine's for every sampler and noise mode.
  With ``loop_simulation=True`` it also simulates with
  :class:`~tests.oracles.simulation.LoopSimulator`.
* :func:`generate_loop` — the original per-gate power loop: explicit
  Trichina/DOM share evaluation with per-trace mask bits, exact Gaussian
  noise under ``noise_mode="auto"``.  It draws randomness in a different
  order from the table-gather engine, so the two agree exactly only on
  noiseless unmasked designs and in distribution otherwise.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.netlist.netlist import Gate
from repro.power import GatePowerModel, PowerTraceGenerator, PowerTraces
from repro.power.bitops import (FAST_NOISE_BITS, combine_transition_codes,
                                words_for_units)
from repro.power.ctrsample import CounterDraws
from repro.simulation.vectors import TraceCampaign

from .simulation import LoopResult, LoopSimulator

_U64_MAX = np.iinfo(np.uint64).max


class UnpackedPowerTraceGenerator(PowerTraceGenerator):
    """Trace generator extracting toggles from the unpacked state matrix.

    Args:
        loop_simulation: Simulate with the per-gate
            :class:`~tests.oracles.simulation.LoopSimulator` instead of the
            fused kernel; its net values are gathered into a matrix with
            the fused plan's row numbering.
        Other arguments as :class:`~repro.power.PowerTraceGenerator`.
    """

    def __init__(self, netlist, *args, loop_simulation: bool = False,
                 **kwargs) -> None:
        super().__init__(netlist, *args, **kwargs)
        plan = self._simulator.plan
        self._signal_index = plan.signal_index
        self._n_signals = plan.n_signals
        if loop_simulation:
            self._simulator = LoopSimulator(netlist)

    def _net_matrix(self, result) -> np.ndarray:
        """Net values as a uint8 matrix indexed by the plan's rows."""
        if isinstance(result, LoopResult):
            matrix = np.zeros((self._n_signals, result.n_vectors), dtype=bool)
            for net, row in self._signal_index.items():
                value = result.net_values.get(net)
                if value is not None:
                    matrix[row] = value
            return matrix.view(np.uint8)
        return result.state_matrix.view(np.uint8)

    def generate(self, campaign: TraceCampaign,
                 rng: Optional[np.random.Generator] = None,
                 draws: Optional[CounterDraws] = None) -> PowerTraces:
        if draws is not None and rng is not None:
            raise ValueError("pass either rng or draws, not both")
        prev_inputs, cur_inputs = campaign.as_dicts()
        net_prev = self._net_matrix(self._simulator.evaluate(prev_inputs))
        net_cur = self._net_matrix(self._simulator.evaluate(cur_inputs))
        n_traces = campaign.n_traces
        n_gates = self.n_gates
        power = np.empty((n_gates, n_traces), dtype=self.trace_dtype)
        per_gate = power.T
        if n_gates == 0:
            return PowerTraces(campaign.label, self.gate_names, per_gate,
                               np.zeros(n_traces, dtype=self.trace_dtype))

        if draws is None:
            rng = rng if rng is not None else self._model._rng
        noise_mode = self._noise_mode()
        sigma = self._model.noise_sigma_abs()
        noise_scale = 0.0
        noise_offset = 0.0
        if noise_mode == "fast":
            noise_scale, noise_offset = self._model.fast_noise_params()

        n_unmasked = len(self._watch_rows)
        if n_unmasked:
            toggled = (net_prev[self._watch_rows]
                       != net_cur[self._watch_rows])
            np.multiply(toggled, self._unmasked_dynamic.astype(self.trace_dtype),
                        out=power[:n_unmasked])
            offset_column = (self._unmasked_static + noise_offset).astype(
                self.trace_dtype)
            np.add(power[:n_unmasked], offset_column, out=power[:n_unmasked])

        counter_tables = self._counter_value_tables(noise_offset) \
            if draws is not None and self._masked_subgroups else None
        for group_index, sub in enumerate(self._masked_subgroups):
            a_prev = net_prev[sub.a_rows]
            b_prev = net_prev[sub.b_rows]
            a_cur = net_cur[sub.a_rows]
            b_cur = net_cur[sub.b_rows]
            if draws is not None:
                shares = np.stack((a_prev, b_prev, a_cur, b_cur))
                flat = combine_transition_codes(shares).astype(np.uint16)
                width = flat.shape[0]
                raw = draws.mask_bytes(group_index, width, n_traces)
                np.left_shift(flat, 8, out=flat)
                np.bitwise_or(flat, raw, out=flat)
                table = counter_tables[group_index]
            else:
                flat = (a_prev | (b_prev << 1) | (a_cur << 2)
                        | (b_cur << 3)).astype(np.uint16)
                width = flat.shape[0]
                count = width * n_traces
                words = rng.integers(0, _U64_MAX,
                                     size=words_for_units(count, np.uint8),
                                     dtype=np.uint64, endpoint=True)
                mask_index = (words.view(np.uint8)[:count]
                              .reshape(width, n_traces)
                              & np.uint8((1 << sub.mask_bits) - 1))
                np.left_shift(flat, sub.mask_bits, out=flat)
                np.bitwise_or(flat, mask_index, out=flat)
                table = sub.value_table.astype(self.trace_dtype)
                if noise_offset:
                    table += self.trace_dtype.type(noise_offset)
            np.take(table, flat, out=power[sub.row_slice], mode="clip")

        if noise_mode == "fast":
            counts = (draws.noise_counts((n_gates, n_traces))
                      if draws is not None
                      else self._fast_noise_counts(rng, (n_gates, n_traces)))
            noise = np.multiply(counts, self.trace_dtype.type(noise_scale))
            np.add(power, noise, out=power)
        elif noise_mode == "gaussian":
            gauss = (draws.gauss((n_gates, n_traces), dtype=np.float32)
                     if draws is not None
                     else rng.standard_normal(size=(n_gates, n_traces),
                                              dtype=np.float32))
            np.multiply(gauss, np.float32(sigma), out=gauss)
            np.add(power, gauss, out=power)

        total = per_gate.sum(axis=1)
        return PowerTraces(campaign.label, self.gate_names, per_gate, total)


# ----------------------------------------------------------------------
# The per-gate power loop
# ----------------------------------------------------------------------
def unmasked_power(model: GatePowerModel, gate: Gate, toggled: np.ndarray,
                   fanout: int = 1) -> np.ndarray:
    """Noiseless power of a plain cell: energy on toggle plus static floor."""
    dynamic, static = model.unmasked_coefficients(gate, fanout)
    return dynamic * toggled.astype(float) + static


def _draw_masks(rng: np.random.Generator,
                shape: Tuple[int, ...]) -> Tuple[np.ndarray, ...]:
    """Fresh ``(x, y, z)`` mask bits of one composite evaluation."""
    return tuple(rng.integers(0, 2, size=shape, dtype=np.uint8).astype(bool)
                 for _ in range(3))


def masked_power(model: GatePowerModel, gate: Gate,
                 data_prev: Tuple[np.ndarray, np.ndarray],
                 data_cur: Tuple[np.ndarray, np.ndarray],
                 glitch_input_factor: float = 1.0,
                 rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Noiseless power of a masked composite from its internal share toggles.

    Draws fresh masks for the previous and the current evaluation (the
    faulty ``mask_refresh=False`` mode reuses the previous masks), counts
    the toggling internal nodes and adds the residual leakage of the
    unmasked data-pin transitions.
    """
    rng = rng if rng is not None else model._rng
    a_prev, b_prev = data_prev
    a_cur, b_cur = data_cur
    n_traces = a_cur.shape[0]
    masks_prev = _draw_masks(rng, a_prev.shape)
    masks_cur = (_draw_masks(rng, a_cur.shape) if model.config.mask_refresh
                 else masks_prev)
    nodes_prev = model._masked_nodes_for(gate.gate_type, a_prev, b_prev,
                                         *masks_prev)
    nodes_cur = model._masked_nodes_for(gate.gate_type, a_cur, b_cur,
                                        *masks_cur)
    toggles = np.zeros(n_traces, dtype=float)
    for name in nodes_cur:
        toggles += np.logical_xor(nodes_prev[name], nodes_cur[name]).astype(float)
    total_energy = model.library.switching_energy(gate.gate_type, gate.fanin)
    per_node_energy = total_energy / max(1, len(nodes_cur))
    static = model.config.static_fraction * total_energy

    residual_coeff = model.masked_residual_coefficient(gate,
                                                       glitch_input_factor)
    residual = np.zeros(n_traces, dtype=float)
    if residual_coeff > 0:
        input_toggles = (
            np.logical_xor(a_prev, a_cur).astype(float)
            + np.logical_xor(b_prev, b_cur).astype(float)
        ) / 2.0
        residual = residual_coeff * input_toggles
    return per_node_energy * toggles + residual + static


def add_noise(model: GatePowerModel, power: np.ndarray,
              rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Add exact Gaussian measurement noise to a power sample array."""
    sigma = model.noise_sigma_abs()
    if sigma <= 0:
        return power
    rng = rng if rng is not None else model._rng
    return power + rng.normal(0.0, sigma, size=power.shape)


def generate_loop(generator: PowerTraceGenerator, campaign: TraceCampaign,
                  rng: Optional[np.random.Generator] = None) -> PowerTraces:
    """The per-gate reference loop over ``generator``'s design and model.

    With ``noise_mode="auto"`` (or ``"gaussian"``) this adds exact Gaussian
    noise; an explicit ``"fast"`` setting is honoured with the popcount
    sampler.  ``rng`` overrides the model's sequential mask/noise stream.
    """
    model = generator._model
    prev_inputs, cur_inputs = campaign.as_dicts()
    previous = generator._simulator.evaluate(prev_inputs)
    current = generator._simulator.evaluate(cur_inputs)

    noise_mode = ("none" if generator.config.noise_sigma <= 0
                  else "gaussian" if generator.config.noise_mode == "auto"
                  else generator.config.noise_mode)
    noise_scale, _ = model.fast_noise_params()
    rng = rng if rng is not None else model._rng

    n_traces = campaign.n_traces
    per_gate = np.zeros((n_traces, len(generator._gates)), dtype=float)
    for column, gate in enumerate(generator._gates):
        if gate.gate_type.is_masked:
            a_net, b_net = gate.inputs[0], gate.inputs[1]
            power = masked_power(
                model, gate,
                (previous.net_values[a_net], previous.net_values[b_net]),
                (current.net_values[a_net], current.net_values[b_net]),
                glitch_input_factor=generator._glitch_factors.get(gate.name,
                                                                  1.0),
                rng=rng,
            )
        else:
            # A register toggles when its captured value changes.
            watch = (gate.inputs[0] if gate.gate_type.is_sequential
                     else gate.output)
            toggled = np.logical_xor(previous.net_values[watch],
                                     current.net_values[watch])
            power = unmasked_power(model, gate, toggled,
                                   fanout=generator._fanouts.get(gate.name, 1))
        if noise_mode == "fast":
            counts = generator._fast_noise_counts(rng, (n_traces,))
            per_gate[:, column] = (power + (counts - FAST_NOISE_BITS / 2.0)
                                   * noise_scale)
        else:
            per_gate[:, column] = add_noise(model, power, rng=rng)

    total = per_gate.sum(axis=1)
    return PowerTraces(campaign.label, generator.gate_names, per_gate, total)
