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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

GENERATORS = ("X", "Y", "Z")


class SingularityError(ValueError):
    """Raised when a torus map is evaluated too close to a singular locus."""


def wrap_angle(x: float) -> float:
    """Reduce an angle into [0, 2*pi)."""
    y = math.fmod(x, TWO_PI)
    return y + TWO_PI if y < 0.0 else y


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
        object.__setattr__(self, "phases",
                           tuple(wrap_angle(float(p)) for p in self.phases))

    @property
    def nqubits(self) -> int:
        return len(self.phases) // 2

    def pair(self, qubit: int) -> tuple[float, float]:
        self._check(qubit)
        return self.phases[2 * (qubit - 1)], self.phases[2 * (qubit - 1) + 1]

    def delta(self, qubit: int) -> float:
        """Relative phase phi_a - phi_b of a qubit, reduced to (-pi, pi]."""
        pa, pb = self.pair(qubit)
        return signed_angle_diff(pa, pb)

    def sigma(self, qubit: int) -> float:
        """Pair sum phi_a + phi_b of a qubit (of the stored representatives)."""
        pa, pb = self.pair(qubit)
        return pa + pb

    def _check(self, qubit: int) -> None:
        if not 1 <= qubit <= self.nqubits:
            raise ValueError(f"qubit index {qubit} out of range 1..{self.nqubits}")

    def distance(self, other: "TorusPoint") -> float:
        """Max over coordinates of the circular distance."""
        if len(self.phases) != len(other.phases):
            raise ValueError("dimension mismatch")
        return max(circle_distance(p, q) for p, q in zip(self.phases, other.phases))


def pair_field(generator: str, delta: float) -> tuple[float, float]:
    """(dphi_a/dt, dphi_b/dt) of one qubit pair as a function of its delta."""
    if generator == "Z":
        return -1.0, 1.0
    if generator == "X":
        c = reduced_cos(delta)
        return c, -c
    if generator == "Y":
        s = reduced_sin(delta)
        return s, -s
    raise ValueError(f"unknown generator {generator!r}, expected one of {GENERATORS}")


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
    sample at index k sits at exactly k*dt.
    """
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise ValueError(f"t_final must be finite and >= 0, got {t_final!r}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    nfull = int(math.floor(t_final / dt + 1e-9))
    rem = t_final - nfull * dt
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

    def point(self, i: int) -> TorusPoint:
        return TorusPoint(tuple(self.phases[i]))

    def sum_drift(self, qubit: int) -> float:
        """Max |sum(t) - sum(0)| of a qubit pair over the whole trajectory."""
        col = self.sum_phases[:, qubit - 1]
        return float(np.max(np.abs(col - col[0])))


def _rk4_step(generator: str, pa: float, pb: float, dt: float) -> tuple[float, float]:
    k1a, k1b = pair_field(generator, pa - pb)
    k2a, k2b = pair_field(generator, (pa + 0.5 * dt * k1a) - (pb + 0.5 * dt * k1b))
    k3a, k3b = pair_field(generator, (pa + 0.5 * dt * k2a) - (pb + 0.5 * dt * k2b))
    k4a, k4b = pair_field(generator, (pa + dt * k3a) - (pb + dt * k3b))
    return (pa + dt * (k1a + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0,
            pb + dt * (k1b + 2.0 * k2b + 2.0 * k3b + k4b) / 6.0)


def integrate_flow(spec: FlowSpec, start: TorusPoint) -> Trajectory:
    """Fixed-step RK4 flow of one qubit pair; all other pairs stay put.

    Steps of size dt are taken until t_final, with one shorter final step
    when dt does not divide t_final; the sample at index k sits at k*dt.
    Integration state is unwrapped, samples are wrapped on recording.
    """
    start._check(spec.qubit)
    times, steps = fixed_steps(spec.t_final, spec.dt)
    ja = 2 * (spec.qubit - 1)
    pa, pb = start.phases[ja], start.phases[ja + 1]

    pairs = [(pa, pb)]
    for step in steps:
        pa, pb = _rk4_step(spec.generator, pa, pb, step)
        pairs.append((pa, pb))

    n = start.nqubits
    phases = np.tile(start.phases, (len(pairs), 1))
    phases[:, ja:ja + 2] = [(wrap_angle(a), wrap_angle(b)) for a, b in pairs]
    sums = np.tile([start.sigma(j) for j in range(1, n + 1)], (len(pairs), 1))
    sums[:, spec.qubit - 1] = [a + b for a, b in pairs]
    return Trajectory(times, phases, sums)


def poisson_bracket(f, g, point: tuple[float, float], step: float = 1e-6) -> float:
    """Central-difference {f, g} = df/da dg/db - df/db dg/da at a pair point.

    f and g are callables of (phi_a, phi_b); the canonical pair is
    (phi_a, phi_b) itself, so {phi_a, phi_b} = 1.
    """
    pa, pb = point

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


def hadamard_pair_map(pa: float, pb: float,
                      guard: float = HADAMARD_GUARD) -> tuple[float, float]:
    """Angle form of the Hadamard on one pair.

    With delta = phi_a - phi_b reduced to (-pi, pi] and the half-sum taken
    of the representatives (phi_a, phi_a - delta):

        phi_a' = sum/2 + arg(1 + e^(i delta))
        phi_b' = sum/2 + arg(1 - e^(i delta))

    The argument terms are undefined where 1 +- e^(i delta) vanishes, so
    relative phases within `guard` of 0 or pi raise SingularityError.

    Note the geometry this formula actually has: on delta in (0, pi) the
    identities arg(1 + e^(i delta)) = delta/2 and arg(1 - e^(i delta)) =
    delta/2 - pi/2 reduce it to (phi_a, phi_b) -> (phi_a, phi_a - pi/2).
    It is a rank-one projection onto the delta = +-pi/2 locus: idempotent,
    with singular pair Jacobian.  The locus itself is pointwise fixed.
    """
    delta = signed_angle_diff(pa, pb)
    if hadamard_gap(delta) <= guard:
        raise SingularityError(
            f"relative phase {delta:.6g} is within {guard:g} of the singular set {{0, pi}}")
    half_sum = pa - 0.5 * delta
    za = 1.0 + complex(math.cos(delta), math.sin(delta))
    zb = 1.0 - complex(math.cos(delta), math.sin(delta))
    return (wrap_angle(half_sum + math.atan2(za.imag, za.real)),
            wrap_angle(half_sum + math.atan2(zb.imag, zb.real)))


def hadamard_torus_map(point: TorusPoint, qubit: int,
                       guard: float = HADAMARD_GUARD) -> TorusPoint:
    """Apply the angle-form Hadamard to one qubit pair of a torus point."""
    pa, pb = point.pair(qubit)
    na, nb = hadamard_pair_map(pa, pb, guard=guard)
    phases = list(point.phases)
    phases[2 * (qubit - 1)] = na
    phases[2 * (qubit - 1) + 1] = nb
    return TorusPoint(tuple(phases))


def swap_torus(point: TorusPoint, qubit1: int, qubit2: int) -> TorusPoint:
    """Exchange the phase pairs of two qubits (an involution, det -1 per pair)."""
    if qubit1 == qubit2:
        raise ValueError("swap needs two distinct qubits")
    point._check(qubit1)
    point._check(qubit2)
    phases = list(point.phases)
    i, j = 2 * (qubit1 - 1), 2 * (qubit2 - 1)
    phases[i], phases[i + 1], phases[j], phases[j + 1] = \
        phases[j], phases[j + 1], phases[i], phases[i + 1]
    return TorusPoint(tuple(phases))


def jacobian_det(map2, point: tuple[float, float], step: float = 1e-5) -> float:
    """Signed Jacobian determinant of a pair map by central differences.

    map2 maps (phi_a, phi_b) -> (phi_a', phi_b'); output differences are
    unwrapped circularly so a map crossing the 2*pi seam differentiates
    cleanly.  Any SingularityError raised by the map inside the stencil
    propagates to the caller.
    """
    pa, pb = point
    qpa = map2(pa + step, pb)
    qma = map2(pa - step, pb)
    qpb = map2(pa, pb + step)
    qmb = map2(pa, pb - step)
    d11 = signed_angle_diff(qpa[0], qma[0]) / (2.0 * step)
    d21 = signed_angle_diff(qpa[1], qma[1]) / (2.0 * step)
    d12 = signed_angle_diff(qpb[0], qmb[0]) / (2.0 * step)
    d22 = signed_angle_diff(qpb[1], qmb[1]) / (2.0 * step)
    return d11 * d22 - d12 * d21


def hadamard_jacobian_det(point: TorusPoint, qubit: int,
                          step: float = 1e-5) -> float:
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
    return jacobian_det(hadamard_pair_map, (pa, pb), step=step)
