"""Command-line front end.

Subcommands:

    simulate          run a circuit file on a state file, write the result
    diff              run both engines on the same input and compare
    portrait          integrate torus flows over a grid of starts, write CSVs
    entanglement      distance to the product manifold, JSON report
    holonomy          discrete geometric phase of a state loop
    classical-evolve  quadratic-Hamiltonian flow of pair amplitudes, CSV

Exit codes: 0 success, 1 a requested tolerance was exceeded, 2 malformed
input or arguments, or an input or output path that cannot be used.  All numeric output is printed with 17 significant
digits and all file writes are atomic, so runs with identical inputs and
seeds produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .diffop import run_circuit_holo
from .fileio import (
    atomic_write_text,
    csv_text,
    dump_json_text,
    format_float,
    load_circuit,
    load_loop,
    load_state,
    save_state,
    save_trajectory,
)
from .geometry import (
    SEPARABLE_TOL,
    berry_holonomy,
    bloch_circle_loop,
    maximize_product_overlap,
    overlap_distance,
)
from .holostate import norm_rows
from .oracle import StateVector, compare_states, run_circuit_matrix
from .semiclassical import pauli_hamiltonian, propagator
from .torus import (GENERATORS, FlowSpec, TorusPoint, fixed_steps, integrate_flow,
                    wrap_angle)

DEFAULT_SEED = 0xC0FFEE

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_INPUT = 2

DEFAULT_OFFSETS = (-1.2, -0.6, 0.0, 0.6, 1.2)
DEFAULT_DELTAS = (-math.pi / 2.0, 0.0, math.pi / 2.0, math.pi)


class CliError(Exception):
    """Input-level failure; rendered to stderr with exit code 2."""


def _parse_float_list(text: str, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise CliError(f"{what} must be a comma-separated list of numbers, got {text!r}")
    if not values:
        raise CliError(f"{what} must not be empty")
    if not all(math.isfinite(x) for x in values):
        raise CliError(f"{what} must hold finite numbers, got {text!r}")
    return values


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite number >= 0; anything else exits 2."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


def _load_state_checked(path: str):
    state = load_state(path)
    if not state.is_normalized:
        raise CliError(
            f"state in {path} is not normalized (norm {format_float(state.norm())})")
    return state


# -- subcommands ------------------------------------------------------


def cmd_simulate(args) -> int:
    circuit = load_circuit(args.circuit)
    state = _load_state_checked(args.state)
    out_state = run_circuit_holo(circuit, state)
    save_state(args.out, out_state)
    print(f"wrote {args.out}")
    print(f"gates applied: {len(circuit)}")
    print(f"norm: {format_float(out_state.norm())}")
    # Always ok: from_poly decoded every gate block image and refuses non-physical output.
    print(f"homogeneity: ok ({out_state.nqubits} qubit pair(s))")
    return EXIT_OK


def cmd_diff(args) -> int:
    circuit = load_circuit(args.circuit)
    state = _load_state_checked(args.state)
    holo_out = run_circuit_holo(circuit, state)
    matrix_out = run_circuit_matrix(circuit, StateVector(state.to_vector()))
    deviation = compare_states(matrix_out, holo_out.to_vector())
    passed = deviation <= args.tol
    lines = [
        f"circuit: {args.circuit}",
        f"state: {args.state}",
        f"nqubits: {circuit.nqubits}",
        f"gates: {len(circuit)}",
        f"max deviation after phase alignment: {format_float(deviation)}",
        f"tolerance: {format_float(args.tol)}",
        f"result: {'PASS' if passed else 'FAIL'}",
    ]
    report = "\n".join(lines) + "\n"
    if args.out:
        atomic_write_text(args.out, report)
    sys.stdout.write(report)
    return EXIT_OK if passed else EXIT_TOLERANCE


def cmd_portrait(args) -> int:
    generator = args.generator
    offsets = (_parse_float_list(args.offsets, "--offsets")
               if args.offsets else DEFAULT_OFFSETS)
    deltas = (_parse_float_list(args.deltas, "--deltas")
              if args.deltas else DEFAULT_DELTAS)
    if args.t_final <= 0:
        raise CliError("--t-final must be > 0")
    spec = FlowSpec(generator, 1, args.t_final, args.dt)
    os.makedirs(args.out_dir, exist_ok=True)
    entries = []
    idx = 0
    for sigma0 in offsets:
        for delta0 in deltas:
            start = TorusPoint((wrap_angle(0.5 * (sigma0 + delta0)),
                                wrap_angle(0.5 * (sigma0 - delta0))))
            traj = integrate_flow(spec, start)
            fname = f"portrait_{generator.lower()}_{idx:02d}.csv"
            save_trajectory(os.path.join(args.out_dir, fname), traj)
            entries.append({
                "file": fname,
                "sigma0": sigma0,
                "delta0": delta0,
                "sum_drift": traj.sum_drift(1),
            })
            idx += 1
    index = {
        "generator": generator,
        "dt": args.dt,
        "t_final": args.t_final,
        "trajectories": entries,
    }
    index_path = os.path.join(args.out_dir, f"portrait_{generator.lower()}_index.json")
    atomic_write_text(index_path, dump_json_text(index))
    print(f"wrote {idx} trajectories and {index_path}")
    return EXIT_OK


def cmd_entanglement(args) -> int:
    state = _load_state_checked(args.state)
    result = maximize_product_overlap(state, restarts=args.restarts, seed=args.seed)
    measure = overlap_distance(result.overlap)
    separable = measure <= args.tol
    report = {
        "state": args.state,
        "nqubits": state.nqubits,
        "entanglement_measure": measure,
        "max_product_overlap": result.overlap,
        "separable": separable,
        "separability_tolerance": args.tol,
        "seed": args.seed,
        "witness": [[[f.real, f.imag] for f in factor]
                    for factor in result.witness.factors],
        "restarts": [{"restart": r.restart, "iterations": r.iterations,
                      "overlap": r.overlap} for r in result.restarts],
    }
    text = dump_json_text(report)
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    print(f"entanglement measure: {format_float(measure)}")
    print(f"separable (tol {format_float(args.tol)}): {'yes' if separable else 'no'}")
    return EXIT_OK


def cmd_holonomy(args) -> int:
    if (args.loop is None) == (args.theta is None):
        raise CliError("give exactly one of --loop FILE or --theta ANGLE")
    if args.loop is not None:
        loop = load_loop(args.loop)
        gamma = berry_holonomy(loop)
        print(f"segments: {loop.segments}")
        print(f"holonomy: {format_float(gamma)}")
        return EXIT_OK
    gamma = berry_holonomy(bloch_circle_loop(args.theta, args.samples))
    reference = -math.pi * (1.0 - math.cos(args.theta))
    diff = abs(math.remainder(gamma - reference, 2.0 * math.pi))
    print(f"theta: {format_float(args.theta)}")
    print(f"segments: {args.samples}")
    print(f"holonomy: {format_float(gamma)}")
    print(f"smooth-loop reference: {format_float(reference)}")
    print(f"circular difference: {format_float(diff)}")
    return EXIT_OK


def cmd_classical_evolve(args) -> int:
    raw = _parse_float_list(args.z0, "--z0")
    if len(raw) % 4:
        raise CliError("--z0 needs 4 numbers per qubit: re_a, im_a, re_b, im_b")
    z0 = np.array([complex(raw[k], raw[k + 1]) for k in range(0, len(raw), 2)])
    nqubits = z0.size // 2
    ham = pauli_hamiltonian(args.generator, args.qubit, nqubits)
    times = fixed_steps(args.t_final, args.dt)[0]

    cols = ["t"]
    for j in range(1, nqubits + 1):
        cols += [f"re_a_{j}", f"im_a_{j}", f"re_b_{j}", f"im_b_{j}"]
    cols += ["energy", "norm"]
    with np.errstate(over="ignore", invalid="ignore"):
        zs = propagator(ham, np.array(times)) @ z0
        energies, norms = ham.energy(zs), norm_rows(zs)
    if not (np.isfinite(energies).all() and np.isfinite(norms).all()):
        raise CliError("--z0 is too large: the energy or norm of its flow overflows a float")
    rows = ([t, *z.view(float).tolist(), energy, norm] for t, z, energy, norm in zip(
        times, zs, energies.tolist(), norms.tolist()))
    atomic_write_text(args.out, csv_text(cols, rows))
    print(f"wrote {args.out}")
    print(f"samples: {len(times)}")
    print(f"initial energy: {format_float(ham.energy(z0))}")
    return EXIT_OK


# -- parser -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoqsim",
        description="Qubit circuits as holomorphic polynomials, with torus flows, "
                    "entanglement geometry, and classical pair dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a circuit on a state file")
    p.add_argument("--circuit", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("diff", help="compare polynomial and state-vector engines")
    p.add_argument("--circuit", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("portrait", help="integrate torus flows over a start grid")
    p.add_argument("--generator", required=True, type=str.upper, choices=GENERATORS)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--t-final", type=float, default=10.0)
    p.add_argument("--offsets", default=None,
                   help="comma-separated pair-sum offsets (default -1.2,-0.6,0,0.6,1.2)")
    p.add_argument("--deltas", default=None,
                   help="comma-separated initial phase differences")
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("entanglement", help="distance to the product-state manifold")
    p.add_argument("--state", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--tol", type=_tolerance, default=SEPARABLE_TOL)
    p.set_defaults(func=cmd_entanglement)

    p = sub.add_parser("holonomy", help="discrete geometric phase of a state loop")
    p.add_argument("--loop", default=None, help="JSON loop file")
    p.add_argument("--theta", type=float, default=None,
                   help="polar angle of a fixed-latitude circle")
    p.add_argument("--samples", type=int, default=2000,
                   help="number of segments for --theta loops")
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("classical-evolve",
                       help="flow pair amplitudes under a Pauli Hamiltonian")
    p.add_argument("--generator", required=True, type=str.upper, choices=GENERATORS)
    p.add_argument("--t-final", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--z0", default="1,0,0,0",
                   help="comma floats re_a,im_a,re_b,im_b per qubit")
    p.add_argument("--qubit", type=int, default=1,
                   help="which pair the generator drives")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classical_evolve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return EXIT_INPUT if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
