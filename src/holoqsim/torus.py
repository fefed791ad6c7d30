"""Phase-angle dynamics on the 2N-torus.

Restricting each pair variable to a unit phasor z = e^(i phi) turns a
single qubit's equal-magnitude states into a point (phi_a, phi_b) on a
2-torus, and the Pauli generators into classical Hamiltonians of the
phase difference dphi = phi_a - phi_b:

    generator Z:  flow (dphi_a/dt, dphi_b/dt) = (-1, +1)
    generator X:  (cos dphi, -cos dphi)
    generator Y:  (sin dphi, -sin dphi)

All three flows move the two phases oppositely, so the pair sum
phi_a + phi_b is conserved along every trajectory.  X has fixed lines at
dphi = +-pi/2 and Y at dphi in {0, pi}; the field components there are
required to be exact floating-point zeros, which is why the trig below
goes through a pi-multiple range reduction instead of calling cos/sin on
raw angles (math.cos(pi/2) is 6.1e-17, not 0).

Integration is fixed-step RK4 on unwrapped angles; wrapping into
[0, 2*pi) happens only when samples are recorded, so winding is never
clipped mid-step and the conserved sum is tracked on the covering space.
Every field is (c, -c), so a step evaluates c alone and moves the pair by
(+inc, -inc), bitwise as the two-sided step would.  A step is a function
of its input pair and its size only, so once a step returns its pair
bitwise (a fixed line, where the field is an exact zero) the pair is
repeated over the later steps of that size, not re-integrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .holostate import _check_distinct, _check_qubit

TWO_PI = 2.0 * math.pi

GENERATORS = ("X", "Y", "Z")

# Most steps one fixed-step grid may hold; it is refused before any list is
# built.  The benchmark's longest flow has 10 000 steps.
MAX_FLOW_STEPS = 10**7
# Central-difference steps of poisson_bracket and jacobian_det.
BRACKET_STEP, JACOBIAN_STEP = 1e-6, 1e-5


class SingularityError(ValueError):
    """Raised when a torus map is evaluated too close to a singular locus."""


def wrap_angle(x: float) -> float:
    """Reduce an angle into [0, 2*pi); a tiny negative x that rounds up to 2*pi gives 0."""
    y = math.fmod(x, TWO_PI)
    if y < 0.0:
        y += TWO_PI
    return 0.0 if y == TWO_PI else y


def wrap_angles(x: np.ndarray) -> np.ndarray:
    """wrap_angle of every entry, bitwise: fmod is exact, then the same two fixes."""
    y = np.fmod(x, TWO_PI)
    y = np.where(y < 0.0, y + TWO_PI, y)
    return np.where(y == TWO_PI, 0.0, y)


def signed_angle_diff(x: float, y: float) -> float:
    """x - y reduced into (-pi, pi]."""
    d = math.fmod(x - y, TWO_PI)
    if d > math.pi:
        d -= TWO_PI
    elif d <= -math.pi:
        d += TWO_PI
    return d


def circle_distance(x: float, y: float) -> float:
    """Shortest arc length between two angles, in [0, pi]."""
    return abs(signed_angle_diff(x, y))


def reduced_sin(x: float) -> float:
    """sin(x) computed so that every multiple of pi maps to exactly 0.0.

    The angle is shifted by the nearest float multiple of pi before the
    library sine is taken; at x = k*pi_float the residual is exactly zero
    and the sign flip (-1)^k restores the right branch.
    """
    k = round(x / math.pi)
    r = x - k * math.pi
    s = math.sin(r)
    return -s if (k & 1) else s

def reduced_cos(x: float) -> float:
    """cos(x) with exact zeros at odd multiples of pi/2.

    Uses cos(x) = sin(pi/2 - x); since pi/2_float + pi/2_float equals
    pi_float exactly, x = +-pi/2, 3*pi/2, ... land on exact zeros of
    reduced_sin.
    """
    return reduced_sin(0.5 * math.pi - x)


@dataclass(frozen=True)
class TorusPoint:
    """Point on the 2N-torus: one (phi_a, phi_b) pair per qubit, each in [0, 2*pi)."""

    phases: tuple[float, ...]

    def __post_init__(self):
        if not self.phases or len(self.phases) % 2:
            raise ValueError("phases must hold an (a, b) pair per qubit")
        phases = tuple(map(float, self.phases))
        for k, p in enumerate(phases):
            if not math.isfinite(p):
                raise ValueError(f"torus phase phi_{'ab'[k % 2]} of qubit {k // 2 + 1} "
                                 f"is not finite: {p}")
        object.__setattr__(self, "phases", tuple(map(wrap_angle, phases)))

    @property
    def nqubits(self) -> int:
        return len(self.phases) // 2

    def pair(self, qubit: int) -> tuple[float, float]:
        _check_qubit(qubit, self.nqubits)
        return self.phases[2 * (qubit - 1)], self.phases[2 * (qubit - 1) + 1]

    def delta(self, qubit: int) -> float:
        """Relative phase phi_a - phi_b of a qubit, reduced to (-pi, pi]."""
        pa, pb = self.pair(qubit)
        return signed_angle_diff(pa, pb)

    def sigma(self, qubit: int) -> float:
        """Pair sum phi_a + phi_b of a qubit (of the stored representatives)."""
        pa, pb = self.pair(qubit)
        return pa + pb

    def distance(self, other: "TorusPoint") -> float:
        """Max over coordinates of the circular distance."""
        if len(self.phases) != len(other.phases):
            raise ValueError("dimension mismatch")
        return max(circle_distance(p, q) for p, q in zip(self.phases, other.phases))


def _z_field(delta: float) -> float:
    return -1.0


# dphi_a/dt of each generator as a function of delta; dphi_b/dt is its negation.
PAIR_FIELDS = {"X": reduced_cos, "Y": reduced_sin, "Z": _z_field}


def pair_field(generator: str, delta: float) -> tuple[float, float]:
    """(dphi_a/dt, dphi_b/dt) of one qubit pair as a function of its delta."""
    if generator not in PAIR_FIELDS:
        raise ValueError(f"unknown generator {generator!r}, expected one of {GENERATORS}")
    c = PAIR_FIELDS[generator](delta)
    return c, -c


def vector_field(generator: str, point: TorusPoint, qubit: int) -> tuple[float, float]:
    """Flow velocity of a generator on one qubit pair of a torus point."""
    pa, pb = point.pair(qubit)
    return pair_field(generator, pa - pb)


def fixed_steps(t_final: float, dt: float) -> tuple[list[float], list[float]]:
    """Time grid of a fixed-step flow: sample times and the steps between them.

    times is [k*dt for k in 0..nfull], then t_final when dt leaves a
    remainder; steps is nfull steps of dt, then that remainder.  The 1e-9
    slack in the floor keeps a t_final that dt divides up to rounding at
    nfull full steps, and a remainder of at most 1e-12 is dropped, so the
    sample at index k sits at exactly k*dt.  A grid of more than
    MAX_FLOW_STEPS steps is a ValueError.
    """
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise ValueError(f"t_final must be finite and >= 0, got {t_final!r}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    ratio = t_final / dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_final / dt = {t_final!r} / {dt!r} overflows a float")
    nfull = int(math.floor(ratio + 1e-9))
    rem = t_final - nfull * dt
    nsteps = nfull + 1 if rem > 1e-12 else nfull
    if nsteps > MAX_FLOW_STEPS:
        count = nsteps if nsteps < 10 ** 15 else f"{nsteps:.3g}"  # a tiny dt asks for ~300 digits
        raise ValueError(
            f"t_final / dt = {t_final!r} / {dt!r} asks for {count} steps, "
            f"more than MAX_FLOW_STEPS = {MAX_FLOW_STEPS}")
    times = [k * dt for k in range(nfull + 1)]
    steps = [dt] * nfull
    if rem > 1e-12:
        times.append(t_final)
        steps.append(rem)
    return times, steps


@dataclass(frozen=True)
class FlowSpec:
    """Integration request: which generator drives which qubit, for how long."""

    generator: str
    qubit: int
    t_final: float
    dt: float

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.qubit < 1:
            raise ValueError("qubit index is 1-based")
        fixed_steps(self.t_final, self.dt)


class Trajectory:
    """Sampled flow: times, wrapped phases, and per-qubit pair-sum series.

    phases has shape (nsamples, 2N) with entries wrapped to [0, 2*pi);
    sum_phases has shape (nsamples, N) and is computed from the unwrapped
    integration state, so it is the honest conserved-quantity record even
    when a phase crosses the wrap seam.
    """

    __slots__ = ("times", "phases", "sum_phases")

    def __init__(self, times: np.ndarray, phases: np.ndarray, sum_phases: np.ndarray):
        self.times = np.asarray(times, dtype=float)
        self.phases = np.asarray(phases, dtype=float)
        self.sum_phases = np.asarray(sum_phases, dtype=float)
        if self.phases.shape[0] != self.times.size:
            raise ValueError("sample count mismatch between times and phases")
        if self.sum_phases.shape != (self.times.size, self.phases.shape[1] // 2):
            raise ValueError("sum_phases shape mismatch")

    @property
    def nsamples(self) -> int:
        return self.times.size

    @property
    def nqubits(self) -> int:
        return self.phases.shape[1] // 2

    def sum_drift(self, qubit: int) -> float:
        """Max |sum(t) - sum(0)| of a qubit pair over the whole trajectory."""
        _check_qubit(qubit, self.nqubits)
        col = self.sum_phases[:, qubit - 1]
        return float(np.max(np.abs(col - col[0])))


def integrate_flow(spec: FlowSpec, start: TorusPoint) -> Trajectory:
    """Fixed-step RK4 flow of one qubit pair; all other pairs stay put.

    Steps of size dt are taken until t_final, with one shorter final step
    when dt does not divide t_final; the sample at index k sits at k*dt.
    Integration state is unwrapped, samples are wrapped on recording.
    A step that returns its input pair bitwise would return it again, so
    the pair is repeated over the later steps of the same size.
    """
    _check_qubit(spec.qubit, start.nqubits)
    times, steps = fixed_steps(spec.t_final, spec.dt)
    field = PAIR_FIELDS[spec.generator]
    ja = 2 * (spec.qubit - 1)
    pa, pb = start.phases[ja], start.phases[ja + 1]

    # The a-side of the two-sided RK4 step: each b-side stage is the negation
    # of the a-side one, so a stage point is (pa + h) - (pb - h).
    pas, pbs = [pa], [pb]
    i, n = 0, len(steps)
    while i < n:
        step = steps[i]
        half = 0.5 * step
        k1 = field(pa - pb)
        h = half * k1
        k2 = field((pa + h) - (pb - h))
        h = half * k2
        k3 = field((pa + h) - (pb - h))
        h = step * k3
        k4 = field((pa + h) - (pb - h))
        inc = step * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        na, nb = pa + inc, pb - inc
        stationary = (na == pa and nb == pb
                      and math.copysign(1.0, na) == math.copysign(1.0, pa)
                      and math.copysign(1.0, nb) == math.copysign(1.0, pb))
        pa, pb = na, nb
        pas.append(pa)
        pbs.append(pb)
        i += 1
        if stationary:
            # steps is full steps of dt, then at most one shorter step; every
            # later step of this size returns the pair again
            end = n if steps[-1] == step else n - 1
            pas += [pa] * (end - i)
            pbs += [pb] * (end - i)
            i = end

    unwrapped = np.array((pas, pbs))
    phases = np.tile(start.phases, (len(pas), 1))
    phases[:, ja:ja + 2] = wrap_angles(unwrapped).T
    sums = np.tile([start.sigma(j) for j in range(1, start.nqubits + 1)], (len(pas), 1))
    sums[:, spec.qubit - 1] = np.add(unwrapped[0], unwrapped[1])
    return Trajectory(times, phases, sums)


def poisson_bracket(f, g, point: tuple[float, float]) -> float:
    """Central-difference {f, g} = df/da dg/db - df/db dg/da at a pair point, step BRACKET_STEP.

    f and g are callables of (phi_a, phi_b); the canonical pair is
    (phi_a, phi_b) itself, so {phi_a, phi_b} = 1.
    """
    pa, pb, step = *point, BRACKET_STEP

    def d_da(h):
        return (h(pa + step, pb) - h(pa - step, pb)) / (2.0 * step)

    def d_db(h):
        return (h(pa, pb + step) - h(pa, pb - step)) / (2.0 * step)

    return d_da(f) * d_db(g) - d_db(f) * d_da(g)


# Hamiltonians of the three flows as pair functions, for bracket checks.

def hamiltonian_z(pa: float, pb: float) -> float:
    return pa - pb


def hamiltonian_x(pa: float, pb: float) -> float:
    return math.sin(pa - pb)


def hamiltonian_y(pa: float, pb: float) -> float:
    return -math.cos(pa - pb)


PAIR_HAMILTONIANS = {"X": hamiltonian_x, "Y": hamiltonian_y, "Z": hamiltonian_z}

# Distance from the relative phase to {0, pi} below which the map refuses.
HADAMARD_GUARD = 1e-9
# Finite differencing near the singular loci is meaningless; Jacobian
# evaluation demands this much clearance.
HADAMARD_JACOBIAN_GAP = 1e-3


def hadamard_gap(delta: float) -> float:
    """Circular distance from a relative phase to the singular set {0, pi}."""
    return min(circle_distance(delta, 0.0), circle_distance(delta, math.pi))


def hadamard_pair_map(pa: float, pb: float) -> tuple[float, float]:
    """Angle form of the Hadamard on one pair.

    With delta = phi_a - phi_b reduced to (-pi, pi] and the half-sum taken
    of the representatives (phi_a, phi_a - delta):

        phi_a' = sum/2 + arg(1 + e^(i delta))
        phi_b' = sum/2 + arg(1 - e^(i delta))

    The argument terms are undefined where 1 +- e^(i delta) vanishes, so
    relative phases within HADAMARD_GUARD of 0 or pi raise SingularityError.

    Note the geometry this formula actually has: on delta in (0, pi) the
    identities arg(1 + e^(i delta)) = delta/2 and arg(1 - e^(i delta)) =
    delta/2 - pi/2 reduce it to (phi_a, phi_b) -> (phi_a, phi_a - pi/2).
    It is a rank-one projection onto the delta = +-pi/2 locus: idempotent,
    with singular pair Jacobian.  The locus itself is pointwise fixed.
    """
    delta = signed_angle_diff(pa, pb)
    if hadamard_gap(delta) <= HADAMARD_GUARD:
        raise SingularityError(f"relative phase {delta:.6g} is within {HADAMARD_GUARD:g} "
                               "of the singular set {0, pi}")
    half_sum = pa - 0.5 * delta
    za = 1.0 + complex(math.cos(delta), math.sin(delta))
    zb = 1.0 - complex(math.cos(delta), math.sin(delta))
    return (wrap_angle(half_sum + math.atan2(za.imag, za.real)),
            wrap_angle(half_sum + math.atan2(zb.imag, zb.real)))


def hadamard_torus_map(point: TorusPoint, qubit: int) -> TorusPoint:
    """Apply the angle-form Hadamard to one qubit pair of a torus point."""
    pa, pb = point.pair(qubit)
    na, nb = hadamard_pair_map(pa, pb)
    phases = list(point.phases)
    phases[2 * (qubit - 1)] = na
    phases[2 * (qubit - 1) + 1] = nb
    return TorusPoint(tuple(phases))


def swap_torus(point: TorusPoint, qubit1: int, qubit2: int) -> TorusPoint:
    """Exchange the phase pairs of two qubits (an involution, det -1 per pair)."""
    _check_distinct(qubit1, qubit2)
    _check_qubit(qubit1, point.nqubits)
    _check_qubit(qubit2, point.nqubits)
    phases = list(point.phases)
    i, j = 2 * (qubit1 - 1), 2 * (qubit2 - 1)
    phases[i], phases[i + 1], phases[j], phases[j + 1] = \
        phases[j], phases[j + 1], phases[i], phases[i + 1]
    return TorusPoint(tuple(phases))


def jacobian_det(map2, point: tuple[float, float]) -> float:
    """Signed Jacobian determinant of a pair map by central differences of JACOBIAN_STEP.

    map2 maps (phi_a, phi_b) -> (phi_a', phi_b'); output differences are
    unwrapped circularly so a map crossing the 2*pi seam differentiates
    cleanly.  Any SingularityError raised by the map inside the stencil
    propagates to the caller.
    """
    pa, pb, step = *point, JACOBIAN_STEP
    qpa = map2(pa + step, pb)
    qma = map2(pa - step, pb)
    qpb = map2(pa, pb + step)
    qmb = map2(pa, pb - step)
    d11 = signed_angle_diff(qpa[0], qma[0]) / (2.0 * step)
    d21 = signed_angle_diff(qpa[1], qma[1]) / (2.0 * step)
    d12 = signed_angle_diff(qpb[0], qmb[0]) / (2.0 * step)
    d22 = signed_angle_diff(qpb[1], qmb[1]) / (2.0 * step)
    return d11 * d22 - d12 * d21


def hadamard_jacobian_det(point: TorusPoint, qubit: int) -> float:
    """Jacobian determinant of the angle-form Hadamard on one pair.

    Requires the relative phase to sit at least HADAMARD_JACOBIAN_GAP away
    from the singular set so the stencil is well inside the smooth region.
    """
    delta = point.delta(qubit)
    if hadamard_gap(delta) < HADAMARD_JACOBIAN_GAP:
        raise SingularityError(
            f"relative phase {delta:.6g} is within {HADAMARD_JACOBIAN_GAP:g} "
            "of the singular set; Jacobian evaluation refused")
    pa, pb = point.pair(qubit)
    return jacobian_det(hadamard_pair_map, (pa, pb))
