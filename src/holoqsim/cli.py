"""Command-line front end.

Subcommands:

    simulate          run a circuit file on a state file, write the result
    diff              run both engines on the same input and compare
    portrait          integrate torus flows over a grid of starts, write CSVs
    entanglement      distance to the product manifold, JSON report
    holonomy          discrete geometric phase of a state loop
    classical-evolve  quadratic-Hamiltonian flow of pair amplitudes, CSV

Exit codes: 0 success, 1 a requested tolerance was exceeded, 2 malformed
input or arguments, or an input or output path that cannot be used.  All
numeric output is printed with 17 significant digits and all file writes
are atomic, so runs with identical inputs and seeds produce byte-identical
outputs.
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
    column_texts,
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
    DEFAULT_RESTARTS,
    SEPARABLE_TOL,
    berry_holonomy,
    bloch_circle_loop,
    maximize_product_overlap,
    overlap_distance,
)
from .holostate import MAX_DENSE_QUBITS, HoloState, fits_dense, norm_rows
from .oracle import (
    StateVector,
    compare_states,
    run_circuit_matrix,
    run_circuit_sparse,
    sparse_cap,
    sparse_term_bound,
)
from .semiclassical import pauli_hamiltonian, propagator
from .torus import GENERATORS, FlowSpec, TorusPoint, fixed_steps, integrate_flow

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


def _checked_term_bound(circuit, state: HoloState, form: str) -> tuple[int, int]:
    """The circuit's term bound from the state and the sparse cap, checked up front.

    Above MAX_DENSE_QUBITS no 2^N vector can hold the run, so a bound past
    the cap is refused with exit 2, by the same rule for simulate and diff.
    """
    n, v = circuit.nqubits, state.vector
    terms = len(state.indexed) if v is None else np.count_nonzero(v)  # builds no map
    bound, cap = sparse_term_bound(circuit, terms), sparse_cap(n)
    if bound > cap and not fits_dense(n):
        raise CliError(f"{n} qubits exceed the {MAX_DENSE_QUBITS}-qubit limit for dense 2^N "
                       f"amplitude vectors, and {form}'s term bound {bound} passes its cap "
                       f"of {cap} terms")
    return bound, cap


def cmd_simulate(args) -> int:
    circuit = load_circuit(args.circuit)
    state = _load_state_checked(args.state)
    _checked_term_bound(circuit, state, "the map form")
    out_state = run_circuit_holo(circuit, state)
    save_state(args.out, out_state)
    print(f"wrote {args.out}")
    print(f"gates applied: {len(circuit)}")
    print(f"norm: {format_float(out_state.norm())}")
    # Always ok: from_poly decoded every image in every gate block and refuses
    # non-physical output, and the sparse and the dense path apply only those blocks.
    print(f"homogeneity: ok ({out_state.nqubits} qubit pair(s))")
    return EXIT_OK


def cmd_diff(args) -> int:
    circuit = load_circuit(args.circuit)
    state = _load_state_checked(args.state)
    # the oracle form is chosen before either engine runs
    bound, cap = _checked_term_bound(circuit, state, "the sparse oracle")
    holo_out = run_circuit_holo(circuit, state)
    if bound <= cap:
        deviation = compare_states(run_circuit_sparse(circuit, state.indexed),
                                   holo_out.indexed)
    else:
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
    starts = [(sigma0, delta0, TorusPoint((0.5 * (sigma0 + delta0), 0.5 * (sigma0 - delta0))))
              for sigma0 in offsets for delta0 in deltas]  # all checked before any file is written
    os.makedirs(args.out_dir, exist_ok=True)
    # every trajectory samples this grid, so its column is formatted once
    time_texts = column_texts(fixed_steps(args.t_final, args.dt)[0])
    entries = []
    for idx, (sigma0, delta0, start) in enumerate(starts):
        traj = integrate_flow(spec, start)
        fname = f"portrait_{generator.lower()}_{idx:02d}.csv"
        save_trajectory(os.path.join(args.out_dir, fname), traj, time_texts)
        entries.append({
            "file": fname,
            "sigma0": sigma0,
            "delta0": delta0,
            "sum_drift": traj.sum_drift(1),
        })
    index = {
        "generator": generator,
        "dt": args.dt,
        "t_final": args.t_final,
        "trajectories": entries,
    }
    index_path = os.path.join(args.out_dir, f"portrait_{generator.lower()}_index.json")
    atomic_write_text(index_path, dump_json_text(index))
    print(f"wrote {len(entries)} trajectories and {index_path}")
    return EXIT_OK


def cmd_entanglement(args) -> int:
    if args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
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
        try:
            gamma = berry_holonomy(loop)
        except ValueError as exc:
            raise CliError(f"{args.loop}: {exc}")
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
        zs[0] = z0  # times[0] is 0.0, and propagator(ham, 0.0) is the identity only to rounding
        energies, norms = ham.energy(zs), norm_rows(zs)
    if not (np.isfinite(energies).all() and np.isfinite(norms).all()):
        raise CliError("--z0 is too large: the energy or norm of its flow overflows a float")
    # Rows are made into lists a block at a time, so they stream to csv_text, and
    # the table lives only as long as the generator does.
    block = 128
    rows = (row for part in np.split(np.column_stack((times, zs.view(float), energies, norms)),
                                     range(block, len(times), block))
            for row in part.tolist())
    atomic_write_text(args.out, csv_text(cols, rows))
    print(f"wrote {args.out}")
    print(f"samples: {len(times)}")
    print(f"initial energy: {format_float(ham.energy(z0))}")
    return EXIT_OK


# -- parser -----------------------------------------------------------


def _simulate(p: argparse.ArgumentParser) -> None:
    p.add_argument("--circuit", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)


def _diff(p: argparse.ArgumentParser) -> None:
    p.add_argument("--circuit", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_diff)


def _portrait(p: argparse.ArgumentParser) -> None:
    p.add_argument("--generator", required=True, type=str.upper, choices=GENERATORS)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--t-final", type=float, default=10.0)
    p.add_argument("--offsets", default=None,
                   help="comma-separated pair-sum offsets (default -1.2,-0.6,0,0.6,1.2)")
    p.add_argument("--deltas", default=None,
                   help="comma-separated initial phase differences")
    p.set_defaults(func=cmd_portrait)


def _entanglement(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    p.add_argument("--tol", type=_tolerance, default=SEPARABLE_TOL)
    p.set_defaults(func=cmd_entanglement)


def _holonomy(p: argparse.ArgumentParser) -> None:
    p.add_argument("--loop", default=None, help="JSON loop file")
    p.add_argument("--theta", type=float, default=None,
                   help="polar angle of a fixed-latitude circle")
    p.add_argument("--samples", type=int, default=2000,
                   help="number of segments for --theta loops")
    p.set_defaults(func=cmd_holonomy)


def _classical_evolve(p: argparse.ArgumentParser) -> None:
    p.add_argument("--generator", required=True, type=str.upper, choices=GENERATORS)
    p.add_argument("--t-final", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--z0", default="1,0,0,0",
                   help="comma floats re_a,im_a,re_b,im_b per qubit")
    p.add_argument("--qubit", type=int, default=1,
                   help="which pair the generator drives")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classical_evolve)


# Each command's help line and the function that declares its arguments, in
# the order the top-level help lists them.  A declarer names its cmd_* function
# when it runs, so a cmd_* rebound on this module is the one the parser calls.
COMMANDS = {
    "simulate": ("run a circuit on a state file", _simulate),
    "diff": ("compare polynomial and state-vector engines", _diff),
    "portrait": ("integrate torus flows over a start grid", _portrait),
    "entanglement": ("distance to the product-state manifold", _entanglement),
    "holonomy": ("discrete geometric phase of a state loop", _holonomy),
    "classical-evolve": ("flow pair amplitudes under a Pauli Hamiltonian", _classical_evolve),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of all six commands, or of the top level and `command` alone.

    On argv that starts with `command`, both parse to the same namespace and
    print the same text.  The one-command parser still lists all six names
    in its usage line; the full one keeps argparse's own name for the
    command argument ("command") in its errors.
    """
    parser = argparse.ArgumentParser(
        prog="holoqsim",
        description="Qubit circuits as holomorphic polynomials, with torus flows, "
                    "entanglement geometry, and classical pair dynamics.")
    names = list(COMMANDS) if command is None else [command]
    metavar = {} if command is None else {"metavar": "{" + ",".join(COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **metavar)
    for name in names:
        help_text, declare = COMMANDS[name]
        declare(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Only the named command's arguments are built; anything else gets the full
    # parser, whose errors and help name every command.
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
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
