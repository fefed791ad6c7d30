"""Random and mutated input files through all six commands, in-process.

Every example must end in exit 0, 1 or 2 with no escaping exception, and
exit 0 must come with a normalized result.  Registers stay at n <= 10 and
run-size flags are fixed, so each example touches a few MB at most.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from holoqsim.cli import main
from holoqsim.fileio import load_state

MAX_N = 10
KINDS = ("X", "Y", "Z", "H", "SWAP", "CNOT", "CZ", "CU")
KEYS = ("n", "amplitudes", "gates", "states", "kind", "qubits", "u", "0", "1", "01")

FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)

# Boundary values an edit may drop into a document in place of any node.
EDGE_VALUES = (0, -1, MAX_N + 1, 0.0, -0.0, 5e-324, 1e200, -1.7976931348623157e308,
               math.inf, -math.inf, math.nan, "", "0" * MAX_N, [], {})

scalars = (st.none() | st.booleans() | st.integers(-2, MAX_N) | st.floats()
           | st.sampled_from(KINDS) | st.text(max_size=3))
json_trees = st.recursive(
    scalars,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), kids,
                                    max_size=4)),
    max_leaves=12)


@st.composite
def amplitudes(draw, n):
    bits = draw(st.lists(st.integers(0, 2 ** n - 1), min_size=1, max_size=4, unique=True))
    pairs = [draw(st.tuples(st.floats(-1, 1), st.floats(-1, 1))) for _ in bits]
    norm = math.sqrt(sum(re * re + im * im for re, im in pairs)) or 1.0
    return {format(b, f"0{n}b"): [re / norm, im / norm] for b, (re, im) in zip(bits, pairs)}


@st.composite
def gates(draw, n):
    kind = draw(st.sampled_from(KINDS if n >= 2 else KINDS[:4]))
    arity = 1 if kind in KINDS[:4] else 2
    gate = {"kind": kind,
            "qubits": draw(st.lists(st.integers(1, n), min_size=arity, max_size=arity,
                                    unique=True))}
    if kind == "CU":
        a = draw(st.floats(-math.pi, math.pi))
        c, s = math.cos(a), math.sin(a)
        gate["u"] = [[[c, 0.0], [-s, 0.0]], [[s, 0.0], [c, 0.0]]]
    return gate


@st.composite
def valid_docs(draw, n):
    """A valid state, circuit and loop document on an n-qubit register."""
    state = {"n": n, "amplitudes": draw(amplitudes(n))}
    circuit = {"n": n, "gates": draw(st.lists(gates(n), max_size=5))}
    ring = draw(st.lists(amplitudes(n), min_size=2, max_size=5))
    loop = {"n": n, "states": ring + [ring[0]]}
    return state, circuit, loop


def _paths(node, path=()):
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def file_text(draw, doc):
    """doc as JSON text, after at most one random edit, or a random tree or text."""
    choice = draw(st.sampled_from(["keep", "edit", "edit", "edit", "tree", "text"]))
    if choice == "tree":
        return json.dumps(draw(json_trees))
    if choice == "text":
        return draw(st.text(max_size=20))
    if choice == "edit":
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(json_trees)
        else:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            action = draw(st.sampled_from(["delete", "edge", "tree"]))
            if action == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = draw(st.sampled_from(EDGE_VALUES) if action == "edge"
                                        else json_trees)
    return json.dumps(doc)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert err.getvalue(), argv
    return code, out.getvalue()


@st.composite
def file_sets(draw):
    n = draw(st.integers(1, MAX_N))
    return tuple(draw(file_text(doc)) for doc in draw(valid_docs(n)))


ONE_QUBIT = '{"n": 1, "amplitudes": {"0": [1.0, 0.0]}}'
X_GATE = '{"n": 1, "gates": [{"kind": "X", "qubits": [1]}]}'
LOOP = '{"n": 1, "states": [{"0": [1.0, 0.0]}, {"0": [0.6, 0.8]}, {"0": [1.0, 0.0]}]}'


# Inputs the search once found to escape main as an exception, kept as fixed cases.
@FUZZ
@given(file_sets())
@example(('{"n": 1, "amplitudes": {"0": [1e200, 0.0]}}', X_GATE, LOOP))
@example((ONE_QUBIT, '{"n": 1, "gates": [{"kind": [], "qubits": [1]}]}', LOOP))
@example((ONE_QUBIT, '{"n": 2, "gates": [{"kind": "CU", "qubits": [1, 2], '
                     '"u": [[{}, [0, 0]], [[0, 0], [1, 0]]]}]}', LOOP))
@example((b'\xff\xfe{"n": 1}', b'\xff\xfe{"n": 1}', b'\xff\xfe{"n": 1}'))
def test_fuzzed_files_through_file_commands(files):
    with tempfile.TemporaryDirectory() as tmp:
        state, circuit, loop = (Path(tmp, name) for name in ("s.json", "c.json", "l.json"))
        for path, text in zip((state, circuit, loop), files):
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
        out = Path(tmp, "out.json")

        code, _ = run("simulate", "--circuit", circuit, "--state", state, "--out", out)
        assert (code == 0) == out.exists()
        if code == 0:
            assert load_state(str(out)).is_normalized

        code, stdout = run("diff", "--circuit", circuit, "--state", state)
        if code == 0:
            assert "result: PASS" in stdout

        code, stdout = run("entanglement", "--state", state, "--restarts", 1)
        if code == 0:
            measure = float(stdout.split("entanglement measure: ")[1].split()[0])
            assert 0.0 <= measure <= math.pi / 2

        code, stdout = run("holonomy", "--loop", loop)
        if code == 0:
            assert math.isfinite(float(stdout.split("holonomy: ")[1].split()[0]))


number_lists = st.lists(st.floats() | st.text(max_size=3), max_size=4).map(
    lambda xs: ",".join(map(str, xs)))


@FUZZ
@given(st.sampled_from(["X", "y", "Z", "Q", ""]), number_lists, number_lists,
       st.integers(0, MAX_N).flatmap(
           lambda nq: st.lists(st.floats(), min_size=4 * nq, max_size=4 * nq + 1)).map(
           lambda xs: ",".join(map(str, xs))),
       st.integers(-1, MAX_N + 1))
@example("X", "", "", "0,0,0,0,0,0,0,1.3407807929942597e+154", 1)
def test_fuzzed_arguments_through_flow_commands(generator, offsets, deltas, z0, qubit):
    with tempfile.TemporaryDirectory() as tmp:
        run("portrait", "--generator", generator, "--out-dir", Path(tmp, "p"),
            "--t-final", 0.2, "--dt", 0.1, "--offsets", offsets, "--deltas", deltas)
        code, _ = run("classical-evolve", "--generator", generator, "--z0", z0,
                      "--qubit", qubit, "--t-final", 0.2, "--dt", 0.1,
                      "--out", Path(tmp, "c.csv"))
        if code == 0:
            rows = Path(tmp, "c.csv").read_text().splitlines()[1:]
            assert len(rows) == 3
            assert all(math.isfinite(float(x)) for row in rows for x in row.split(", "))
