"""Trapezoidal modified-nodal-analysis transient engine.

This is the reference time-domain solver for PDN netlists.  It plays the
role the Cadence/Sigrity tool played for the paper's authors: an
independent engine used to confirm what the primary (modal) solution
predicts.  The test suite cross-checks the two solvers against each
other on random networks.

The method is the classic SPICE approach: companion models for the
reactive elements under trapezoidal integration, a constant system
matrix for a fixed time step (factorized once).  Because that matrix
is constant, one step is a fixed linear map of the previous state and
the inputs; the engine precomputes the map, so each step is one
matrix-vector product.  Trapezoidal integration is A-stable, which
matters because PDN netlists are stiff (sub-nanosecond ESR/C time
constants next to hundred-microsecond board modes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from ..errors import SolverError
from .elements import GROUND
from .netlist import Netlist

__all__ = ["TransientResult", "simulate_transient"]

#: An input signal: either a constant or a vectorized function of time.
InputSignal = float | Callable[[np.ndarray], np.ndarray]


@dataclass
class TransientResult:
    """Time-domain solution of a transient run.

    Attributes
    ----------
    times:
        Sample instants (s), uniform grid.
    voltages:
        Node name → voltage waveform (V), for each observed node.
    """

    times: np.ndarray
    voltages: dict[str, np.ndarray]

    def peak_to_peak(self, node: str, after: float = 0.0) -> float:
        """Peak-to-peak voltage excursion at *node* for t >= *after*."""
        mask = self.times >= after
        wave = self.voltages[node][mask]
        if wave.size == 0:
            raise SolverError(f"no samples at or after t={after!r}")
        return float(wave.max() - wave.min())


def _evaluate_inputs(
    netlist: Netlist, inputs: Mapping[str, InputSignal], times: np.ndarray
) -> np.ndarray:
    """Build the (n_steps × n_inputs) input matrix from signals.

    Unspecified current ports default to zero; unspecified voltage ports
    are an error (a floating source has no sensible default).
    """
    names = netlist.input_names
    u = np.zeros((times.size, len(names)))
    known = set(names)
    for name in inputs:
        if name not in known:
            raise SolverError(f"unknown input {name!r}")
    voltage_names = {p.name for p in netlist.voltage_ports}
    for j, name in enumerate(names):
        signal = inputs.get(name)
        if signal is None:
            if name in voltage_names:
                raise SolverError(f"voltage port {name!r} needs a supplied value")
            continue
        if callable(signal):
            u[:, j] = np.asarray(signal(times), dtype=float)
        else:
            u[:, j] = float(signal)
    return u


def simulate_transient(
    netlist: Netlist,
    inputs: Mapping[str, InputSignal],
    t_end: float,
    dt: float,
    observe: list[str] | None = None,
) -> TransientResult:
    """Integrate the netlist from a zero initial state over [0, t_end].

    Parameters
    ----------
    netlist:
        The circuit; validated before use.
    inputs:
        Input name → constant or vectorized ``f(times) -> values``.
        Current ports default to 0 when omitted; every voltage port must
        be given.
    t_end, dt:
        Horizon and fixed step (s).  ``t_end`` must exceed ``dt``.
    observe:
        Node names to record; defaults to all nodes.

    Returns
    -------
    TransientResult
        Voltages at the observed nodes on the uniform grid.
    """
    netlist.validate()
    if dt <= 0 or t_end <= dt:
        raise SolverError(f"bad time base: t_end={t_end!r}, dt={dt!r}")

    free_nodes = netlist.free_nodes
    free_index = {name: i for i, name in enumerate(free_nodes)}
    pinned = netlist.pinned_nodes
    input_index = {name: i for i, name in enumerate(netlist.input_names)}
    pinned_input = {p.node: input_index[p.name] for p in netlist.voltage_ports}

    observe = list(observe) if observe is not None else list(netlist.nodes)
    for node in observe:
        if node not in free_index and node not in pinned:
            raise SolverError(f"cannot observe unknown node {node!r}")

    nv = len(free_nodes)
    nl = len(netlist.inductors)
    n_unknowns = nv + nl

    times = np.arange(0.0, t_end + 0.5 * dt, dt)
    u = _evaluate_inputs(netlist, inputs, times)

    lhs = np.zeros((n_unknowns, n_unknowns))
    # Input coupling of the KCL rows (pinned-node conductive paths and
    # load draws): rhs += u_coupling @ u[n].
    u_coupling = np.zeros((n_unknowns, u.shape[1]))

    def stamp_conductance(a: str, b: str, conductance: float) -> None:
        for this, other in ((a, b), (b, a)):
            if this == GROUND or this in pinned:
                continue
            row = free_index[this]
            lhs[row, row] += conductance
            if other == GROUND:
                continue
            if other in pinned:
                u_coupling[row, pinned_input[other]] += conductance
            else:
                lhs[row, free_index[other]] -= conductance

    for res in netlist.resistors:
        stamp_conductance(res.a, res.b, 1.0 / res.ohms)

    # Capacitor companion: series ESR-C branch to ground.
    caps = [netlist.capacitor_at(node) for node in free_nodes]
    cap_geq = np.array(
        [1.0 / (cap.esr + dt / (2.0 * cap.farads)) for cap in caps]
    )
    cap_hist_gain = np.array([dt / (2.0 * cap.farads) for cap in caps])
    for i, geq in enumerate(cap_geq):
        lhs[i, i] += geq

    for port in netlist.current_ports:
        u_coupling[free_index[port.node], input_index[port.name]] -= 1.0

    # Inductor companion rows.
    def endpoint_terms(row: int, endpoint: str, sign: float, factor: float) -> None:
        """Stamp ``sign*factor*v_endpoint`` into inductor row *row*."""
        if endpoint == GROUND:
            return
        if endpoint in pinned:
            u_coupling[row, pinned_input[endpoint]] -= sign * factor
        else:
            lhs[row, free_index[endpoint]] += sign * factor

    for k, ind in enumerate(netlist.inductors):
        row = nv + k
        beta = dt / (2.0 * ind.henries)
        lhs[row, row] = 1.0 + beta * ind.esr
        endpoint_terms(row, ind.a, -beta, 1.0)
        endpoint_terms(row, ind.b, +beta, 1.0)
        # KCL contributions of the branch current unknown.
        if ind.a != GROUND and ind.a not in pinned:
            lhs[free_index[ind.a], row] += 1.0
        if ind.b != GROUND and ind.b not in pinned:
            lhs[free_index[ind.b], row] -= 1.0

    try:
        lu = lu_factor(lhs)
    except ValueError as exc:  # pragma: no cover - defensive
        raise SolverError("transient system could not be factorized") from exc

    # The companion model makes one step linear in the previous state
    # s = [v, i_l, x_cap, i_cap] (node voltages, inductor currents,
    # capacitor plate voltages and branch currents) and the inputs at
    # both ends of the step: s_n = Φ s_{n−1} + Γ u_n + Γ' u_{n−1}.
    ind_r = np.array([ind.esr for ind in netlist.inductors])
    beta_l = dt / (2.0 * np.array([ind.henries for ind in netlist.inductors]))
    # Inductor history β (v_a − v_b) over free nodes and pinned inputs.
    hist_v = np.zeros((nl, nv))
    hist_u = np.zeros((nl, u.shape[1]))
    for k, ind in enumerate(netlist.inductors):
        for endpoint, sign in ((ind.a, 1.0), (ind.b, -1.0)):
            if endpoint == GROUND:
                continue
            if endpoint in pinned:
                hist_u[k, pinned_input[endpoint]] += sign * beta_l[k]
            else:
                hist_v[k, free_index[endpoint]] += sign * beta_l[k]
    cap_geq_c, cap_gain_c = cap_geq[:, None], cap_hist_gain[:, None]
    ind_keep = (1.0 - beta_l * ind_r)[:, None]

    def advance(state: np.ndarray, u_now: np.ndarray,
                u_before: np.ndarray) -> np.ndarray:
        """One trapezoidal step of column-stacked states."""
        v, i_l, x_cap, i_cap = np.split(
            state, [nv, n_unknowns, n_unknowns + nv]
        )
        rhs = u_coupling @ u_now
        # Capacitor history current sources (entering the node).
        rhs[:nv] += cap_geq_c * (x_cap + cap_gain_c * i_cap)
        # Inductor history (adds to the current-step source coupling
        # already present in the row from u_coupling).
        rhs[nv:] += ind_keep * i_l + hist_v @ v + hist_u @ u_before
        solution = lu_solve(lu, rhs)
        i_cap_now = cap_geq_c * (solution[:nv] - x_cap - cap_gain_c * i_cap)
        x_now = x_cap + cap_gain_c * (i_cap_now + i_cap)
        return np.concatenate([solution, x_now, i_cap_now])

    n_state, n_in = n_unknowns + 2 * nv, u.shape[1]
    quiet = np.zeros((n_in, n_state))
    phi = advance(np.eye(n_state), quiet, quiet)
    no_state, no_input = np.zeros((n_state, n_in)), np.zeros((n_in, n_in))
    gamma_now = advance(no_state, np.eye(n_in), no_input)
    gamma_before = advance(no_state, no_input, np.eye(n_in))

    # The forcing of every step up front; the loop is one matvec a step.
    states = np.zeros((times.size, n_state))
    with np.errstate(over="ignore", invalid="ignore"):
        states[1:] = u[1:] @ gamma_now.T + u[:-1] @ gamma_before.T
        for step in range(1, times.size):
            states[step] += phi @ states[step - 1]
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise SolverError(
            f"transient solution diverged at step {int(np.argmin(finite))}"
        )

    recorded = np.array([
        u[:, pinned_input[node]] if node in pinned
        else states[:, free_index[node]]
        for node in observe
    ])

    return TransientResult(
        times=times,
        voltages={node: recorded[row] for row, node in enumerate(observe)},
    )
