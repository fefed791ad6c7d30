"""Golden output corpus for every `holoqsim` command.

    python tests/golden/generate.py           # rewrite cases.json and digests.json
    python tests/golden/generate.py --check   # run the cases, list moved digests

`cases.json` holds the input files and the cases.  An input file is made
from a seed by one of the MAKERS below, or given as literal text.  A case
is one `holoqsim` command line (`simulate`, `diff`, `entanglement`,
`holonomy`, or `portrait` and `classical-evolve` on short time grids) that
names its files by relative paths, so that stdout and the output files do
not depend on where the corpus runs.  All cases run in order in one
directory that holds the inputs, so a case may read a file that an earlier
case wrote.

`digests.json` holds, per case, the exit code and the SHA-256 of stdout,
of stderr and of each output file, beside the Python and numpy versions
that produced them: the digests pin float output to the last bit, which
can move with either.  They can also follow BLAS's thread count (the
2^14-amplitude input of `diff s14_full c14_all` is normalized by a BLAS
dot product), so the inputs are written and the cases run in a child
interpreter with BLAS pinned to one thread, as bench/run.py pins it,
whatever the caller's environment.  Rewriting `digests.json` is a change
to a check: say so, and name every case whose digest moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CASES = HERE / "cases.json"
DIGESTS = HERE / "digests.json"

ALL_KINDS = ("X", "Y", "Z", "H", "SWAP", "CNOT", "CZ", "CU")

# The child that runs the corpus: argv holds the holoqsim source directory and
# this one, stdin the corpus, and stdout gets the digests as JSON.
CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import generate
print(json.dumps(generate.run_here(json.load(sys.stdin))))
"""
# argparse wraps its usage lines to the terminal width; the corpus pins 80.
CHILD_ENVIRONMENT = {"COLUMNS": "80", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


# -- input files ------------------------------------------------------


def _pair(c: complex) -> list[float]:
    return [c.real, c.imag]


def random_state(n: int, seed: int, terms: int | None = None) -> str:
    """A normalized state file with `terms` random amplitudes (all 2^n if None)."""
    rng = np.random.default_rng(seed)
    size = 2 ** n
    where = np.sort(rng.choice(size, size if terms is None else terms, replace=False))
    v = rng.standard_normal(where.size) + 1j * rng.standard_normal(where.size)
    v /= np.linalg.norm(v)
    amps = {format(int(k), f"0{n}b"): _pair(c) for k, c in zip(where, v.tolist())}
    return json.dumps({"n": n, "amplitudes": amps})


def basis_state(bits: str) -> str:
    return json.dumps({"n": len(bits), "amplitudes": {bits: [1.0, 0.0]}})


def _haar_unitary(rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_circuit(n: int, seed: int, depth: int, kinds: list[str] = ALL_KINDS,
                   hadamards: list[int] = (), tail: int = 0) -> str:
    """H on each qubit of `hadamards`, then `depth` gates drawn from `kinds`,
    then `tail` gates drawn from X, Y and SWAP."""
    rng = np.random.default_rng(seed)
    gates = [{"kind": "H", "qubits": [q]} for q in hadamards]
    usable = [k for k in kinds if n >= 2 or k in "XYZH"]
    relabels = [k for k in ("X", "Y", "SWAP") if n >= 2 or k != "SWAP"]
    for step in range(depth + tail):
        if step == depth:
            usable = relabels
        kind = usable[int(rng.integers(len(usable)))]
        if kind in ("X", "Y", "Z", "H"):
            gates.append({"kind": kind, "qubits": [int(rng.integers(1, n + 1))]})
            continue
        gate = {"kind": kind, "qubits": [int(q) + 1 for q in rng.choice(n, 2, replace=False)]}
        if kind == "CU":
            gate["u"] = [[_pair(c) for c in row] for row in _haar_unitary(rng).tolist()]
        gates.append(gate)
    return json.dumps({"n": n, "gates": gates})


def phase_loop(n: int, polar: float, samples: int) -> str:
    """Closed loop cos(polar/2)|0..0> + e^(i phi) sin(polar/2)|1..1>, phi on a grid."""
    c, s = math.cos(polar / 2.0), math.sin(polar / 2.0)
    states = [{"0" * n: [c, 0.0],
               "1" * n: _pair(s * complex(math.cos(phi), math.sin(phi)))}
              for phi in (2.0 * math.pi * k / samples for k in range(samples))]
    return json.dumps({"n": n, "states": states + states[:1]})


MAKERS = {"state": random_state, "basis": basis_state, "circuit": random_circuit,
          "loop": phase_loop, "text": lambda text: text}


def write_inputs(inputs: dict, directory: Path) -> None:
    for name, spec in inputs.items():
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(MAKERS[spec["make"]](**spec["args"]), encoding="utf-8")


# -- the corpus -------------------------------------------------------


def build_cases() -> dict:
    """The inputs and cases that cases.json stores."""
    inputs: dict = {}

    def add(name: str, make: str, **args) -> str:
        inputs[name] = {"make": make, "args": args}
        return name

    def text(name: str, body: str) -> str:
        return add(name, "text", text=body)

    # Starts either side of the dense crossover, 8 + 2^N // 256 terms.
    states = {
        1: [add("in/s1_zero.json", "basis", bits="0"),
            text("in/s1_neg0.json", '{"n": 1, "amplitudes": {"0": [0.6, -0.0], '
                                    '"1": [-0.0, -0.8]}}')],
        2: [text("in/s2_bell.json", '{"n": 2, "amplitudes": {"00": [0.7071067811865476, 0], '
                                    '"11": [0.7071067811865476, 0]}}'),
            text("in/s2_neg0.json", '{"n": 2, "amplitudes": {"00": [-0.0, 0.7071067811865476], '
                                    '"11": [0.7071067811865476, -0]}}')],
        3: [add("in/s3_zero.json", "basis", bits="000"),
            add("in/s3_7terms.json", "state", n=3, seed=31, terms=7),
            add("in/s3_full.json", "state", n=3, seed=32)],
        8: [add("in/s8_8terms.json", "state", n=8, seed=81, terms=8),
            add("in/s8_9terms.json", "state", n=8, seed=82, terms=9),
            add("in/s8_full.json", "state", n=8, seed=83)],
        12: [add("in/s12_23terms.json", "state", n=12, seed=121, terms=23),
             add("in/s12_24terms.json", "state", n=12, seed=122, terms=24),
             add("in/s12_full.json", "state", n=12, seed=123)],
    }
    # Per register: a circuit with every kind, and one that keeps the term count.
    circuits = {
        1: [add("in/c1_all.json", "circuit", n=1, seed=11, depth=12, kinds=list("XYZH")),
            text("in/c1_empty.json", '{"n": 1, "gates": []}')],
        2: [add("in/c2_all.json", "circuit", n=2, seed=21, depth=16),
            text("in/c2_signs.json", '{"n": 2, "gates": [{"kind": "Y", "qubits": [1]}, '
                                     '{"kind": "Z", "qubits": [2]}, '
                                     '{"kind": "CZ", "qubits": [2, 1]}, '
                                     '{"kind": "Y", "qubits": [2]}]}')],
        3: [add("in/c3_all.json", "circuit", n=3, seed=33, depth=24),
            add("in/c3_perm.json", "circuit", n=3, seed=34, depth=24,
                kinds=["X", "Y", "Z", "SWAP", "CNOT", "CZ"])],
        8: [add("in/c8_all.json", "circuit", n=8, seed=84, depth=24),
            add("in/c8_perm.json", "circuit", n=8, seed=85, depth=24,
                kinds=["X", "Y", "Z", "SWAP", "CNOT", "CZ"])],
        12: [add("in/c12_all.json", "circuit", n=12, seed=124, depth=24),
             add("in/c12_perm.json", "circuit", n=12, seed=125, depth=24,
                 kinds=["X", "Y", "Z", "SWAP", "CNOT", "CZ"])],
    }
    s18 = add("in/s18_zero.json", "basis", bits="0" * 18)
    c18 = add("in/c18.json", "circuit", n=18, seed=181, depth=40, hadamards=[3, 9, 14, 18],
              kinds=["X", "Y", "Z", "SWAP", "CNOT", "CZ", "CU"])

    cases: list[dict] = []

    def stem(path: str) -> str:
        return Path(path).stem

    def simulate(state: str, circuit: str) -> str:
        out = f"out/{stem(state)}-{stem(circuit)}.json"
        cases.append({"name": f"simulate {stem(state)} {stem(circuit)}",
                      "argv": ["simulate", "--circuit", circuit, "--state", state, "--out", out],
                      "outputs": [out]})
        return out

    def diff(state: str, circuit: str, *extra: str) -> None:
        out = f"out/diff-{stem(state)}-{stem(circuit)}{''.join(extra)}.txt"
        cases.append({"name": " ".join(["diff", stem(state), stem(circuit), *extra]),
                      "argv": ["diff", "--circuit", circuit, "--state", state, *extra,
                               "--out", out],
                      "outputs": [out]})

    def entanglement(state: str, *extra: str) -> None:
        out = f"out/ent-{stem(state)}{''.join(extra)}.json"
        cases.append({"name": " ".join(["entanglement", stem(state), *extra]),
                      "argv": ["entanglement", "--state", state, *extra, "--out", out],
                      "outputs": [out]})

    def refused(name: str, *argv: str) -> None:
        cases.append({"name": f"refused {name}", "argv": list(argv), "outputs": []})

    for n in (1, 2, 3, 8, 12):
        for state in states[n]:
            for circuit in circuits[n]:
                simulate(state, circuit)
            diff(state, circuits[n][0])
    out18 = simulate(s18, c18)
    diff(s18, c18)
    # A two-term start at N = 18 under circuits with 9 and 10 H/CU gates:
    # term bounds 1 024 and 2 048, either side of the sparse oracle's cap.
    sparse_kinds = ["X", "Y", "Z", "SWAP", "CNOT", "CZ", "CU"]
    s18_two = add("in/s18_2terms.json", "state", n=18, seed=187, terms=2)
    for name, hadamards in [("in/c18_9branch.json", [4, 11, 17]),
                            ("in/c18_10branch.json", [4, 11, 17, 8])]:
        diff(s18_two, add(name, "circuit", n=18, seed=186, depth=48, hadamards=hadamards,
                          kinds=sparse_kinds))
    diff("in/s8_full.json", "in/c8_all.json", "--tol", "0")

    # Outputs fed back in: dense and sparse ends, and signed zeros.
    for state, circuit in [("out/s8_full-c8_all.json", "in/c8_all.json"),
                           ("out/s8_8terms-c8_perm.json", "in/c8_all.json"),
                           ("out/s3_7terms-c3_perm.json", "in/c3_all.json"),
                           ("out/s12_23terms-c12_perm.json", "in/c12_all.json"),
                           ("out/s2_neg0-c2_signs.json", "in/c2_signs.json"),
                           ("out/s1_neg0-c1_empty.json", "in/c1_all.json"),
                           (out18, c18)]:
        simulate(state, circuit)
    diff("out/s8_full-c8_all.json", "in/c8_all.json")

    # Two terms that H on qubit 18 mixes as one pair, then CU and the sparse
    # kinds: the sparse oracle's pair contractions round as the dense one's.
    diff(text("in/s18_pair.json", json.dumps(
             {"n": 18, "amplitudes": {"0" * 18: [0.48, 0.64], "0" * 17 + "1": [-0.36, 0.48]}})),
         add("in/c18_pair.json", "circuit", n=18, seed=188, depth=40, hadamards=[18],
             kinds=sparse_kinds))

    # A dense run whose 2^N vectors pass numpy's 256 KiB temporary-reuse size.
    diff(add("in/s14_full.json", "state", n=14, seed=141),
         add("in/c14_all.json", "circuit", n=14, seed=142, depth=24))

    # Sparse oracle runs above the dense limit, from one and from two terms.
    diff(add("in/s25_zero_sparse.json", "basis", bits="0" * 25),
         add("in/c25_sparse.json", "circuit", n=25, seed=251, depth=60,
             hadamards=[1, 13, 25], kinds=sparse_kinds))
    diff(text("in/s48_2terms.json", json.dumps(
             {"n": 48, "amplitudes": {"0" * 48: [0.6, 0.0], "1" * 24 + "0" * 24: [0.0, -0.8]}})),
         add("in/c48.json", "circuit", n=48, seed=481, depth=80,
             hadamards=[5, 20, 33, 48], kinds=sparse_kinds))

    # The oracle against circuits that end in X/Y/SWAP runs after their last
    # H, that only relabel (X/SWAP), and that apply CU after relabelings.
    relabel = ["X", "SWAP"]
    for state, circuit in [
            ("in/s3_full.json", add("in/c3_tail.json", "circuit", n=3, seed=35, depth=16,
                                    tail=8)),
            ("in/s8_full.json", add("in/c8_tail.json", "circuit", n=8, seed=86, depth=24,
                                    tail=12)),
            ("in/s12_full.json", add("in/c12_tail.json", "circuit", n=12, seed=126,
                                     depth=24, tail=12)),
            ("in/s1_neg0.json", add("in/c1_relabel.json", "circuit", n=1, seed=12, depth=5,
                                    kinds=["X"])),
            ("in/s2_neg0.json", add("in/c2_relabel.json", "circuit", n=2, seed=22, depth=9,
                                    kinds=relabel)),
            ("in/s8_full.json", add("in/c8_relabel.json", "circuit", n=8, seed=87, depth=24,
                                    kinds=relabel)),
            ("in/s8_9terms.json", "in/c8_relabel.json"),
            ("in/s12_full.json", add("in/c12_relabel.json", "circuit", n=12, seed=127,
                                     depth=24, kinds=relabel)),
            ("in/s12_full.json", add("in/c12_cu.json", "circuit", n=12, seed=128, depth=32,
                                     kinds=["X", "Y", "SWAP", "CU"])),
            ("in/s12_full.json", "in/c12_perm.json")]:
        diff(state, circuit)

    for state in (*states[1], *states[2], *states[3], "in/s8_9terms.json",
                  "out/s2_bell-c2_all.json", "out/s3_full-c3_all.json"):
        entanglement(state)
    entanglement("in/s8_full.json", "--restarts", "4", "--seed", "3")
    entanglement("out/s8_8terms-c8_perm.json", "--restarts", "4")
    entanglement("in/s12_24terms.json", "--restarts", "2", "--seed", "1")

    loops = [add("in/loop1_fine.json", "loop", n=1, polar=1.0, samples=64),
             add("in/loop1_coarse.json", "loop", n=1, polar=2.5, samples=16),
             add("in/loop2.json", "loop", n=2, polar=0.7, samples=32)]
    for loop in loops:
        cases.append({"name": f"holonomy {stem(loop)}",
                      "argv": ["holonomy", "--loop", loop], "outputs": []})

    # The flow commands on short time grids.
    for theta, samples in [("1", "64"), ("2.5", "16"), ("0.3", None)]:
        argv = ["holonomy", "--theta", theta] + (["--samples", samples] if samples else [])
        cases.append({"name": " ".join(argv), "argv": argv, "outputs": []})
    for generator, offsets, deltas in [("X", None, None), ("Y", "-0.6,0.6", "0,1.5"),
                                       ("Z", "0.3", "-1,2")]:
        out_dir, prefix = f"out/portrait_{generator.lower()}", f"portrait_{generator.lower()}"
        grid = [f"--offsets={offsets}", f"--deltas={deltas}"] if offsets else []
        count = len(offsets.split(",")) * len(deltas.split(",")) if offsets else 20
        cases.append({"name": f"portrait {generator}",
                      "argv": ["portrait", "--generator", generator, "--out-dir", out_dir,
                               "--t-final", "0.3", "--dt", "0.1", *grid],
                      "outputs": [f"{out_dir}/{prefix}_{k:02d}.csv" for k in range(count)]
                      + [f"{out_dir}/{prefix}_index.json"]})
    # Longer flows from both fixed lines of each generator, from -0.0 phases
    # and past the 2*pi seam, over 200 full steps and a shorter last one.
    for generator, deltas in [("X", "-1.5707963267948966,0.7,1.5707963267948966"),
                              ("Y", "-0.0,0,1,3.141592653589793")]:
        out_dir, prefix = f"out/portrait_{generator.lower()}_long", f"portrait_{generator.lower()}"
        count = 3 * len(deltas.split(","))
        cases.append({"name": f"portrait {generator} long",
                      "argv": ["portrait", "--generator", generator, "--out-dir", out_dir,
                               "--t-final", "2.005", "--dt", "0.01",
                               "--offsets=-0.0,0,3.14159", f"--deltas={deltas}"],
                      "outputs": [f"{out_dir}/{prefix}_{k:02d}.csv" for k in range(count)]
                      + [f"{out_dir}/{prefix}_index.json"]})
    for name, extra in [("y", ["--generator", "Y", "--t-final", "1", "--dt", "0.1"]),
                        ("z", ["--generator", "Z", "--t-final", "0.25", "--dt", "0.05",
                               "--z0", "0.6,0,0,0.8"]),
                        ("x2", ["--generator", "X", "--qubit", "2", "--t-final", "0.5",
                                "--dt", "0.1", "--z0", "1,0,0,0,0.6,0,0,-0.8"])]:
        out = f"out/evolve_{name}.csv"
        cases.append({"name": f"classical-evolve {name}",
                      "argv": ["classical-evolve", *extra, "--out", out], "outputs": [out]})

    # Refused inputs: stderr and exit 2.
    one = "in/s1_zero.json"
    c1 = "in/c1_all.json"
    bad_states = {
        "label": '{"n": 2, "amplitudes": {"0a": [1, 0]}}',
        "nan": '{"n": 2, "amplitudes": {"01": [NaN, 0]}}',
        "infinity": '{"n": 1, "amplitudes": {"1": [0, -Infinity]}}',
        "overflow": '{"n": 1, "amplitudes": {"0": [1e999, 0]}}',
        "unnormalized": '{"n": 1, "amplitudes": {"0": [0.5, 0]}}',
        "duplicate": '{"n": 1, "amplitudes": {"0": [1, 0], "0": [0, 1]}}',
        "json": '{"n": 1, "amplitudes": {"0": [1, 0]',
        "shape": '[1, 0]',
    }
    for name, body in bad_states.items():
        path = text(f"in/bad_state_{name}.json", body)
        refused(f"simulate state {name}", "simulate", "--circuit",
                "in/c2_all.json" if '"n": 2' in body else c1, "--state", path,
                "--out", "out/refused.json")
    for name in ("nan", "unnormalized"):
        refused(f"diff state {name}", "diff", "--circuit",
                "in/c2_all.json" if name == "nan" else c1,
                "--state", f"in/bad_state_{name}.json")
        refused(f"entanglement state {name}", "entanglement",
                "--state", f"in/bad_state_{name}.json")
    bad_circuits = {
        "kind": '{"n": 1, "gates": [{"kind": "WARP", "qubits": [1]}]}',
        "qubit": '{"n": 1, "gates": [{"kind": "X", "qubits": [2]}]}',
        "cu": '{"n": 2, "gates": [{"kind": "CU", "qubits": [1, 2], '
              '"u": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]}]}',
        "register": '{"n": 2, "gates": [{"kind": "H", "qubits": [1]}]}',
    }
    for name, body in bad_circuits.items():
        path = text(f"in/bad_circuit_{name}.json", body)
        refused(f"simulate circuit {name}", "simulate", "--circuit", path,
                "--state", one, "--out", "out/refused.json")
    refused("simulate missing file", "simulate", "--circuit", c1, "--state",
            "in/missing.json", "--out", "out/refused.json")
    refused("simulate no --out", "simulate", "--circuit", c1, "--state", one)
    wide = text("in/s25_zero.json", basis_state("0" * 25))
    wide_circuit = text("in/c25.json", '{"n": 25, "gates": [{"kind": "X", "qubits": [1]}]}')
    # Recorded as refused before diff had its sparse oracle; it passes now.
    refused("diff above the dense limit", "diff", "--circuit", wide_circuit, "--state", wide)
    wide_17h = text("in/c25_17h.json", json.dumps(
        {"n": 25, "gates": [{"kind": "H", "qubits": [q]} for q in range(1, 18)]}))
    refused("diff above the dense limit, term bound past the sparse cap", "diff",
            "--circuit", wide_17h, "--state", wide)
    refused("simulate above the dense limit, term bound past the cap", "simulate",
            "--circuit", wide_17h, "--state", wide, "--out", "out/refused.json")
    refused("diff tol nan", "diff", "--circuit", c1, "--state", one, "--tol", "nan")
    refused("entanglement seed -1", "entanglement", "--state", one, "--seed", "-1")
    refused("entanglement restarts 0", "entanglement", "--state", one, "--restarts", "0")
    refused("entanglement above the dense limit", "entanglement", "--state", wide)
    def zero_loop(middle: dict) -> str:  # 17 states, the fewest a loop may hold
        zero = {"0": [1, 0]}
        return json.dumps({"n": 1, "states": [zero] * 8 + [middle] + [zero] * 8})

    bad_loops = {
        "orthogonal": zero_loop({"1": [1, 0]}),
        "unnormalized": zero_loop({"0": [0.5, 0]}),
        "nan": zero_loop({"0": [math.nan, 0]}),
        "wide": json.dumps({"n": 25, "states": [{"0" * 25: [1, 0]}] * 17}),
    }
    for name, body in bad_loops.items():
        refused(f"holonomy loop {name}", "holonomy", "--loop",
                text(f"in/bad_loop_{name}.json", body))
    refused("holonomy theta samples past the limit", "holonomy", "--theta", "1",
            "--samples", "1000001")
    refused("holonomy theta inf", "holonomy", "--theta", "inf", "--samples", "20")
    refused("holonomy theta nan", "holonomy", "--theta", "nan")
    refused("holonomy no source", "holonomy")
    refused("holonomy two sources", "holonomy", "--loop", loops[0], "--theta", "1")

    # The parser's own text: usage errors, and the help of every command.
    refused("usage no arguments")
    refused("usage unknown command", "nosuch")
    refused("usage unknown option alone", "--bogus")
    refused("usage unknown option after a command", "simulate", "--circuit", c1,
            "--state", one, "--out", "out/x.json", "--bogus")
    refused("usage diff --tol with no value", "diff", "--circuit", c1, "--state", one, "--tol")
    for argv in (["-h"], *([command, "-h"] for command in (
            "simulate", "diff", "portrait", "entanglement", "holonomy", "classical-evolve"))):
        cases.append({"name": "help " + " ".join(argv), "argv": argv, "outputs": []})
    return {"inputs": inputs, "cases": cases}


# -- running ----------------------------------------------------------


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(case: dict) -> dict:
    """Exit code and digests of one case, run in-process from the current directory."""
    from holoqsim.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(case["argv"]))
    return {"exit": code,
            "stdout": _sha256(stdout.getvalue().encode()),
            "stderr": _sha256(stderr.getvalue().encode()),
            "files": {path: _sha256(Path(path).read_bytes()) for path in case["outputs"]}}


def run_here(corpus: dict) -> dict:
    """Write the inputs into the current directory, then run every case there in order."""
    write_inputs(corpus["inputs"], Path.cwd())
    Path("out").mkdir(exist_ok=True)
    return {case["name"]: run_case(case) for case in corpus["cases"]}


def run_corpus(corpus: dict, directory: Path) -> dict:
    """Digests of every case, run in order inside `directory` by a child interpreter.

    The child imports the holoqsim that this process imports, and runs with
    CHILD_ENVIRONMENT: BLAS on one thread and 80 terminal columns.  It also
    writes the inputs, whose normalization calls BLAS too.
    """
    import holoqsim

    src = Path(holoqsim.__file__).resolve().parents[1]
    child = subprocess.run([sys.executable, "-c", CHILD, str(src), str(HERE)],
                           input=json.dumps(corpus), capture_output=True, text=True,
                           cwd=directory, env={**os.environ, **CHILD_ENVIRONMENT})
    if child.returncode:
        raise RuntimeError(f"the corpus child exited {child.returncode}:\n{child.stderr}")
    return json.loads(child.stdout)


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def main(argv: list[str]) -> int:
    check = "--check" in argv
    corpus = json.loads(CASES.read_text()) if check else build_cases()
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_corpus(corpus, Path(tmp))
    if check:
        stored = json.loads(DIGESTS.read_text())["cases"]
        moved = [name for name in stored if stored[name] != digests.get(name)]
        print("\n".join(moved) or f"all {len(stored)} digests unchanged")
        return 1 if moved else 0
    CASES.write_text(json.dumps(corpus, indent=1) + "\n")
    DIGESTS.write_text(json.dumps({**environment(), "cases": digests}, indent=1) + "\n")
    print(f"wrote {len(digests)} cases to {CASES.name} and {DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    sys.exit(main(sys.argv[1:]))
