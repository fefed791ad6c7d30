"""Projective-space geometry: distances, entanglement, holonomy.

Normalized N-qubit states are points of complex projective space with the
Fubini-Study metric; the distance between rays is

    D(psi, phi) = arccos |<psi|phi>|.

Product states form the Segre submanifold, and the entanglement measure
used here is the Fubini-Study distance from a state to that submanifold:

    E(psi) = min over products of arccos |<psi | c_1 x ... x c_N>|
           = arccos (max product overlap).

The maximum is found by alternating closed-form single-factor updates.
Fixing every factor but qubit j, the overlap is linear in c_j with
coefficient vector w_j (the state contracted against the other factors),
so the best unit c_j is conj(w_j)/||w_j|| and the new overlap is ||w_j||.
Each update can only raise the overlap, which gives monotone convergence;
deterministic seeded restarts guard against local maxima.  The restarts
advance together as one stacked ascent: their factors form one
(restarts, N, 2) array, every step below is one stacked product over it,
and a restart leaves the stack at the sweep where it converges.  A stack
holds at most STACK_AMPLITUDES / 2^N restarts (at least one), and further
restarts run in later stacks of that size, so from N = 16 up the working
memory is that of one restart.  Each restart's records and factors are
bitwise those of a lone ascent on 2-D arrays, which the tests keep as
their reference.

A sweep updates c_1 .. c_N in order and reuses partial contractions, as ALS
sweeps do for tensor trains.  At its start the suffix products
R_k = c_k x ... x c_N (R_(N+1) = 1) are built right to left, each from the
next by one outer product.  The left environment L_j is the conjugated
state with c_1 .. c_(j-1) already absorbed, held as a 2 x 2^(N-j) matrix
whose rows are qubit j.  Then w_j = L_j R_(j+1) and, once c_j is updated,
L_(j+1) = c_j L_j.  Both chains halve in size at every step, so a sweep
costs O(2^N) in all, where contracting the whole state once per factor
costs O(N 2^N).

For two qubits the exact answer is available independently from the
Schmidt (singular value) decomposition: max overlap = largest singular
value of the 2x2 amplitude matrix.

The Berry phase of a closed loop of states is accumulated discretely:

    gamma = -arg prod_k <psi_k | psi_k+1>    (cyclically, psi_M = psi_0).

A loop is held as one array of amplitude vectors, one row per state, so
all M overlaps come from a single contraction.

Under per-state phase changes psi_k -> e^(i alpha_k) psi_k each factor
picks up e^(i(alpha_k+1 - alpha_k)) and the cyclic product telescopes to
exactly 1, so the holonomy is gauge invariant to rounding error only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .holostate import NORM_TOL, HoloState, norm_rows, prune_amplitudes, vdot_rows

# Below this gap from overlap 1, arccos amplifies one ulp of rounding to
# ~1.5e-8, so overlaps this close to 1 are snapped before taking arccos.
OVERLAP_SNAP = 1e-13

SEPARABLE_TOL = 1e-6
DEFAULT_RESTARTS = 16
# Most restarts maximize_product_overlap takes, refused before it allocates:
# at N = 8, 10^4 restarts (~47 sweeps each, random state) took 3.5 s of process
# time on one BLAS thread and peaked at 23 MiB (tracemalloc), mostly records.
MAX_RESTARTS = 10**4
MAX_SWEEPS = 500
GAIN_TOL = 1e-12
# Bound on restarts x 2^N, the amplitudes a stacked ascent's suffixes hold
# (1 MiB), unless one restart alone needs more; its left environments hold
# 3/4 as many.  Restarts run in stacks of max(1, STACK_AMPLITUDES >> N): all
# 16 default ones up to N = 12, and one at a time from N = 16, where the
# memory is that of a lone ascent.  Stacking saves numpy call overhead per
# step, which is small next to a sweep's O(2^N) products there.
STACK_AMPLITUDES = 2**16
MIN_LOOP_SAMPLES = 16
# Most segments bloch_circle_loop builds: 10^6 segments take ~0.4 s with
# berry_holonomy and peak at ~112 MB (tracemalloc), mostly StateLoop's checks.
MAX_LOOP_SEGMENTS = 10**6
LOOP_OVERLAP_FLOOR = 1e-12


def _require_normalized(state: HoloState, name: str) -> None:
    if not state.is_normalized:
        raise ValueError(
            f"{name} is not normalized: |norm - 1| = {abs(state.norm() - 1.0):.3g} "
            f"exceeds {NORM_TOL:g}")


def fidelity(psi: HoloState, phi: HoloState) -> float:
    """|<psi|phi>|^2 of two normalized states."""
    if psi.nqubits != phi.nqubits:
        raise ValueError("register mismatch")
    _require_normalized(psi, "psi")
    _require_normalized(phi, "phi")
    a, b = psi.indexed, phi.indexed
    olap = sum(c.conjugate() * b[k] for k, c in a.items() if k in b)
    return abs(olap) ** 2


def overlap_distance(olap: float) -> float:
    """Fubini-Study distance arccos(olap) of an overlap magnitude in [0, 1].

    Overlaps within OVERLAP_SNAP of 1 (rounding can put them above 1) are
    snapped to distance 0.
    """
    if olap > 1.0 - OVERLAP_SNAP:
        return 0.0
    return math.acos(olap)


def fubini_study_distance(psi: HoloState, phi: HoloState) -> float:
    """arccos of the overlap magnitude; the projective-space arc length."""
    return overlap_distance(math.sqrt(fidelity(psi, phi)))


@dataclass(frozen=True)
class ProductState:
    """Fully separable state: one normalized 2-vector factor per qubit."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        fs = []
        for k, f in enumerate(self.factors, start=1):
            v = np.asarray(f, dtype=complex).ravel()
            if v.shape != (2,):
                raise ValueError(f"factor {k} is not a 2-vector")
            nrm = np.linalg.norm(v)
            if not abs(nrm - 1.0) <= NORM_TOL:  # refuses NaN too
                raise ValueError(f"factor {k} is not normalized (norm {nrm:.6g})")
            fs.append(v)
        object.__setattr__(self, "factors", tuple(fs))

    def amplitude_vector(self) -> np.ndarray:
        v = np.array([1.0 + 0j])
        for f in self.factors:
            v = np.kron(v, f)
        return v


@dataclass(frozen=True)
class RestartRecord:
    """Outcome of one optimization restart."""

    restart: int
    iterations: int
    overlap: float
    history: tuple[float, ...]


@dataclass(frozen=True)
class ProductOverlapResult:
    """Best product approximation found across all restarts."""

    overlap: float
    witness: ProductState
    restarts: tuple[RestartRecord, ...]


def _sweep_plan(f: np.ndarray, suffix_buf: np.ndarray, left_bufs: tuple[np.ndarray, ...]):
    """Views that one sweep of the live stack f reads and writes.

    Returns the suffix builds, (c_k, R_k+1, R_k) for k = N .. 2 with R_k
    written into suffix_buf and R_N+1 = 1, and the factor steps, (R_j+1, c_j
    as a column, c_j as a row, L_j+1 as written, L_j+1 as read) for
    j = 1 .. N with no L_N+1.  Each left environment is half the size of
    the one it is made from, so they alternate between the two left
    buffers.  The views are taken once per live stack, not once per step.
    """
    a, n = f.shape[:2]
    suffixes, off = [], 0
    for k in range(n):
        suffixes.append(suffix_buf[off:off + (a << k)].reshape(a, -1, 1))
        off += a << k
    suffixes[0][...] = 1.0
    builds = [(f[:, n - k, :, None, None], suffixes[k - 1][:, None], suffixes[k].reshape(a, 2, -1, 1))
              for k in range(1, n)]
    lefts = [left_bufs[j % 2][:a << (n - 1 - j)] for j in range(n - 1)]
    fills = [v.reshape(a, 1, -1) for v in lefts] + [None]
    reads = [v.reshape(a, 2, -1) for v in lefts] + [None]
    steps = [(suffixes[n - 1 - j], f[:, j, :, None], f[:, j, None, :], fills[j], reads[j])
             for j in range(n)]
    return builds, steps


def _stacked_ascent(conj_vector: np.ndarray,
                    factors: np.ndarray) -> tuple[list[list[float]], list[int]]:
    """Ascend every restart of the (a, N, 2) stack `factors`, updating it in place.

    Returns each restart's overlap after every sweep it ran and its sweep count.
    Every sweep writes its suffixes and left environments into the same
    buffers, so a sweep allocates only its 2-vectors and overlaps.
    """
    max_sweeps, gain_tol = MAX_SWEEPS, GAIN_TOL  # read once per call, not per step
    stacked, n = factors.shape[:2]
    histories: list[list[float]] = [[] for _ in range(stacked)]
    iterations = [max_sweeps] * stacked
    suffix_buf = np.empty(stacked << n, dtype=complex)
    left_bufs = (np.empty(stacked << max(n - 1, 0), dtype=complex),
                 np.empty(stacked << max(n - 2, 0), dtype=complex))
    first = conj_vector.reshape(1, 2, -1)
    # The live stack: rows of f and ov belong to the restarts in `active`.
    active = np.arange(stacked)
    f, ov = factors.copy(), np.zeros((stacked, 1, 1))
    builds, steps = _sweep_plan(f, suffix_buf, left_bufs)
    for sweeps in range(1, max_sweeps + 1):
        prev = ov.copy()
        for c, right, out in builds:
            np.multiply(c, right, out=out)
        left = first
        for right, col, row, fill, read in steps:
            w = np.matmul(left, right)
            wc = w.conj()
            nw = np.sqrt(np.matmul(wc.transpose(0, 2, 1), w).real)
            ok = nw >= 1e-15  # else an orthogonal trap; keep the factor, restarts cover it
            np.divide(wc, nw, out=col, where=ok)
            np.copyto(ov, nw, where=ok)
            if fill is not None:
                np.matmul(row, left, out=fill)
                left = read
        for r, o in zip(active.tolist(), ov.ravel().tolist()):
            histories[r].append(o)
        done = (ov - prev).ravel() < gain_tol
        if done.any():
            factors[active[done]] = f[done]
            for r in active[done].tolist():
                iterations[r] = sweeps
            active, f, ov = active[~done], f[~done], ov[~done]
            if not len(active):
                break
            builds, steps = _sweep_plan(f, suffix_buf, left_bufs)
    factors[active] = f  # the restarts that MAX_SWEEPS ended
    return histories, iterations


def maximize_product_overlap(psi: HoloState,
                             restarts: int = DEFAULT_RESTARTS,
                             seed: int = 0) -> ProductOverlapResult:
    """Alternating closed-form ascent of |<psi|product>| with seeded restarts.

    Restart r starts from factors drawn by default_rng([seed, r]).  The
    restarts advance together as one stacked ascent, in stacks of at most
    STACK_AMPLITUDES >> N of them.  A restart leaves the stack after a sweep
    that gains less than the module's GAIN_TOL, or after MAX_SWEEPS sweeps,
    and its record holds the sweeps it ran and its overlap after each.
    Ties between restarts break toward the lower restart index, so results
    are reproducible for a fixed (seed, restarts) pair.  Restarts whose
    overlaps tie to within rounding may pick a different witness after any
    change in summation order; the overlap, and so the measure, is the
    stable output.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if restarts > MAX_RESTARTS:
        raise ValueError(f"{restarts} restarts exceed MAX_RESTARTS = {MAX_RESTARTS}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    _require_normalized(psi, "psi")
    n = psi.nqubits
    conj_vector = psi.to_vector().conj()

    factors = np.empty((restarts, n, 2), dtype=complex)
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        for q in range(n):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            factors[r, q] = v / np.linalg.norm(v)
    histories: list[list[float]] = []
    iterations: list[int] = []
    stack = max(1, STACK_AMPLITUDES >> n)
    for lo in range(0, restarts, stack):
        h, it = _stacked_ascent(conj_vector, factors[lo:lo + stack])
        histories += h
        iterations += it
    records = tuple(RestartRecord(r, iterations[r], histories[r][-1], tuple(histories[r]))
                    for r in range(restarts))
    best = int(np.argmax([record.overlap for record in records]))
    witness = ProductState(tuple(factors[best]))
    return ProductOverlapResult(min(records[best].overlap, 1.0), witness, records)


def entanglement_measure(psi: HoloState,
                         restarts: int = DEFAULT_RESTARTS,
                         seed: int = 0) -> float:
    """Fubini-Study distance to the nearest product state (0 for separable)."""
    result = maximize_product_overlap(psi, restarts=restarts, seed=seed)
    return overlap_distance(result.overlap)


def is_separable(psi: HoloState, tol: float = SEPARABLE_TOL,
                 restarts: int = DEFAULT_RESTARTS,
                 seed: int = 0) -> tuple[bool, ProductState | None]:
    """Separability decision with the best product state as witness.

    Returns (True, witness) when the distance to the product manifold is
    within tol; the witness then reconstructs the state up to phase.
    """
    result = maximize_product_overlap(psi, restarts=restarts, seed=seed)
    if overlap_distance(result.overlap) <= tol:
        return True, result.witness
    return False, None


def schmidt_oracle(psi: HoloState) -> tuple[float, float]:
    """Exact two-qubit answer from the SVD of the amplitude matrix.

    Returns (largest Schmidt coefficient, arccos of it); valid only for
    N = 2 where the Segre variety is cut out by a single determinant.
    """
    if psi.nqubits != 2:
        raise ValueError("Schmidt reference applies to exactly 2 qubits")
    _require_normalized(psi, "psi")
    m = psi.to_vector().reshape(2, 2)
    lam_max = float(np.linalg.svd(m, compute_uv=False)[0])
    lam_max = min(lam_max, 1.0)
    return lam_max, math.acos(lam_max)


@dataclass(frozen=True)
class StateLoop:
    """Closed discrete loop of normalized states; the last row repeats the first.

    `vectors` is one (M+1, 2^N) complex array whose row k is the flat
    big-endian amplitude vector of state k, checked and pruned by
    `prune_amplitudes` as a HoloState vector is.
    """

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[1] < 2 or v.shape[1] & (v.shape[1] - 1):
            raise ValueError(
                f"loop vectors must form an (M+1, 2^N) array, got shape {v.shape}")
        v = prune_amplitudes(v)
        object.__setattr__(self, "vectors", v)
        if len(v) < MIN_LOOP_SAMPLES + 1:
            raise ValueError(
                f"loop needs at least {MIN_LOOP_SAMPLES} segments "
                f"({MIN_LOOP_SAMPLES + 1} stored states), got {len(v)}")
        with np.errstate(over="ignore"):  # a huge amplitude gives norm inf, refused below
            norms = norm_rows(v)
        off = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
        if off.size:
            raise ValueError(
                f"loop state is not normalized: |norm - 1| = "
                f"{abs(norms[off[0]] - 1.0):.3g} exceeds {NORM_TOL:g}")
        gap = abs(abs(np.vdot(v[0], v[-1])) - 1.0)
        if gap > 1e-9:
            raise ValueError(
                f"loop does not close: end-to-start overlap magnitude is {gap:.3g} from 1")

    @property
    def segments(self) -> int:
        return len(self.vectors) - 1


def berry_holonomy(loop: StateLoop) -> float:
    """Discrete geometric phase -arg prod <psi_k|psi_k+1> over a closed loop.

    The stored closing duplicate is dropped and the product closed
    cyclically back to the first state, which is what makes per-state
    gauge changes cancel exactly.  The consecutive overlaps come from one
    contraction, the closing one from row M-1 and row 0; their phases are
    multiplied in loop order.  Consecutive overlaps too close to zero mean
    the discretization is too coarse to define the phase; those raise.
    Returned phase lies in (-pi, pi]; near the branch point +-pi the sign
    is a coin toss of rounding, so compare holonomies circularly.
    """
    v = loop.vectors
    olaps = vdot_rows(v[:-1], v[1:])
    olaps[-1] = vdot_rows(v[-2], v[0])  # closes on row 0, not on its stored duplicate
    phase = 1.0 + 0j
    for k, olap in enumerate(olaps.tolist()):
        mag = abs(olap)
        if mag <= LOOP_OVERLAP_FLOOR:
            raise ValueError(
                f"consecutive overlap at segment {k} has magnitude {mag:.3g}; "
                "loop too coarse for a well-defined holonomy")
        phase *= olap / mag
    return -cmath.phase(phase)


def bloch_circle_loop(theta: float, segments: int) -> StateLoop:
    """Single-qubit loop at fixed polar angle: azimuth swept 0 -> 2*pi.

    States are cos(theta/2)|0> + e^(i phi_k) sin(theta/2)|1> at the M+1
    grid azimuths; the closing entry reuses the first state's amplitudes
    exactly.  The smooth loop's geometric phase is -pi(1 - cos theta).
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be a finite angle, got {theta!r}")
    if segments < MIN_LOOP_SAMPLES:
        raise ValueError(f"need at least {MIN_LOOP_SAMPLES} segments")
    if segments > MAX_LOOP_SEGMENTS:
        raise ValueError(f"{segments} segments exceed MAX_LOOP_SEGMENTS = {MAX_LOOP_SEGMENTS}")
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    rows = np.empty((segments + 1, 2), dtype=complex)
    rows[:, 0] = c
    col = rows[:-1, 1]
    phi = col.imag
    phi[:] = np.arange(segments)
    phi *= 2.0 * math.pi
    phi /= segments
    col.real = 0.0
    np.exp(col, out=col)
    col *= s
    rows[-1, 1] = s
    return StateLoop(rows)
