"""The package's exports and which of its modules each command loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import holoqsim
from holoqsim.cli import main

STUDY_MODULES = ("holoqsim.torus", "holoqsim.geometry", "holoqsim.semiclassical")

# The names `from holoqsim import *` bound when the package imported every
# module eagerly, by defining module; the module names themselves come last.
EXPORTS = {
    "holostate": (
        "MAX_DENSE_QUBITS", "NORM_TOL", "ZERO_TOL", "HoloState",
        "NonPhysicalPolynomialError", "SparsePoly", "a_index", "b_index",
        "check_all_homogeneity", "check_homogeneity", "encode_basis", "encode_state",
        "from_poly", "sb_inner_product", "to_poly"),
    "diffop": (
        "Circuit", "DiffOperator", "GateSpec", "Substitution", "apply_diffop", "apply_gate",
        "apply_substitution", "compose", "controlled_u", "gate_operator",
        "haar_random_unitary", "run_circuit_holo"),
    "torus": (
        "FlowSpec", "SingularityError", "TorusPoint", "Trajectory", "hadamard_jacobian_det",
        "hadamard_torus_map", "integrate_flow", "jacobian_det", "poisson_bracket",
        "swap_torus", "vector_field"),
    "geometry": (
        "ProductState", "StateLoop", "berry_holonomy", "bloch_circle_loop",
        "entanglement_measure", "fidelity", "fubini_study_distance", "is_separable",
        "maximize_product_overlap", "schmidt_oracle"),
    "semiclassical": ("QuadraticHamiltonian", "compare_with_gate", "pauli_hamiltonian",
                      "rk4_flow"),
    "oracle": ("StateVector", "compare_states", "run_circuit_matrix"),
    "fileio": ("load_circuit", "load_loop", "load_state", "save_circuit", "save_state",
               "save_trajectory"),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]
STAR_NAMES = {name for _, name in NAMES} | set(EXPORTS)


def test_star_import_binds_the_same_68_names():
    assert len(NAMES) == 61 and len(STAR_NAMES) == 68
    namespace = {}
    exec("from holoqsim import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR_NAMES
    for module, name in NAMES:
        assert namespace[name] is getattr(namespace[module], name), name


@pytest.mark.parametrize("module, name", NAMES)
def test_each_export_is_its_modules_object(module, name):
    source = getattr(__import__(f"holoqsim.{module}", fromlist=[name]), name)
    assert getattr(holoqsim, name) is source
    namespace = {}
    exec(f"from holoqsim import {name}", namespace)
    assert namespace[name] is source


def test_dir_lists_every_export_and_the_version_stands():
    assert STAR_NAMES <= set(dir(holoqsim))
    assert holoqsim.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error_naming_module_and_name():
    with pytest.raises(AttributeError, match="module 'holoqsim' has no attribute 'nosuch'"):
        getattr(holoqsim, "nosuch")
    with pytest.raises(ImportError):
        exec("from holoqsim import nosuch", {})


def test_an_export_is_read_from_its_module_on_every_access(monkeypatch):
    # Nothing is kept on the package, so a patched module attribute shows
    # through it, and the original does again once the patch is undone.
    original = holoqsim.geometry.fidelity
    monkeypatch.setattr(holoqsim.geometry, "fidelity", len)
    assert holoqsim.fidelity is len
    monkeypatch.undo()
    assert holoqsim.fidelity is original
    assert "fidelity" not in vars(holoqsim)


# -- fresh interpreters -----------------------------------------------

# Runs each argv list through main() in order and prints the exit codes, the
# stdout of every call and the holoqsim modules loaded at the end.
FRESH = """\
import contextlib, io, json, sys
argvs = json.loads(sys.argv[1])
results = []
if argvs:
    from holoqsim.cli import main
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            results.append([main(argv), buf.getvalue()])
else:
    import holoqsim
print(json.dumps({"results": results,
                  "modules": sorted(m for m in sys.modules if m.startswith("holoqsim."))}))
"""


def python(code, *args):
    """Stdout of a fresh interpreter that runs code with this checkout's holoqsim."""
    src = str(Path(holoqsim.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_fresh(*argvs):
    doc = json.loads(python(FRESH, json.dumps(argvs)))
    return [tuple(r) for r in doc["results"]], doc["modules"]


def test_importing_the_package_loads_none_of_its_modules():
    assert run_fresh() == ([], [])


def test_a_module_name_on_the_package_loads_that_module():
    out = python("import sys, holoqsim\n"
                 "print(holoqsim.torus.__name__, holoqsim.torus is sys.modules['holoqsim.torus'],\n"
                 "      sorted(m for m in sys.modules if m.startswith('holoqsim.')))")
    assert out == "holoqsim.torus True ['holoqsim.holostate', 'holoqsim.torus']\n"


def test_simulate_and_diff_load_no_study_module(tmp_path):
    circ, state = tmp_path / "bell.json", tmp_path / "zero.json"
    circ.write_text('{"n": 2, "gates": [{"kind": "H", "qubits": [1]}, '
                    '{"kind": "CNOT", "qubits": [1, 2]}]}')
    state.write_text('{"n": 2, "amplitudes": {"00": [1.0, 0.0]}}')
    results, modules = run_fresh(
        ["simulate", "--circuit", str(circ), "--state", str(state),
         "--out", str(tmp_path / "out.json")],
        ["diff", "--circuit", str(circ), "--state", str(state)])
    assert [code for code, _ in results] == [0, 0]
    assert "result: PASS" in results[1][1]
    assert "holoqsim.oracle" in modules
    assert not set(STUDY_MODULES) & set(modules)


@pytest.mark.parametrize("command, tail", [
    ("portrait", ["--generator", "Y", "--t-final", "0.1", "--out-dir", "{tmp}/portrait"]),
    ("entanglement", ["--state", "{tmp}/bell.json", "--restarts", "2"]),
    ("holonomy", ["--theta", "1", "--samples", "50"]),
    ("classical-evolve", ["--generator", "Z", "--t-final", "0.1", "--out", "{tmp}/z.csv"]),
])
def test_each_study_command_runs_first_in_a_fresh_process(tmp_path, capsys, command, tail):
    r = 0.5 ** 0.5
    (tmp_path / "bell.json").write_text(json.dumps(
        {"n": 2, "amplitudes": {"00": [r, 0.0], "11": [r, 0.0]}}))
    argv = [command, *(a.format(tmp=tmp_path) for a in tail)]
    results, _ = run_fresh(argv)
    expected = main(argv), capsys.readouterr().out
    assert results == [expected]
    assert expected[0] == 0
