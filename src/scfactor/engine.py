"""Simulation, chain transport, trajectory comparison, and period detection.

A Trajectory stores values[i] = level value at index (start + i). The top
level x starts at 0; the level-l transform only exists from index l (t_1 is
the first transform value, and so on), so deeper levels carry larger start
offsets instead of padding.

Breakdowns (division by a non-unit, tanh domain violations, non-finite
floats) are data, not crashes: the trajectory is truncated and the breakdown
index and reason are recorded.

Every run works on raw ring payloads: simulate iterates the recurrence's
generated step function (Recurrence.kernel), simulate_chain and
simulate_substitution rebuild the upper levels with the ring's payload
operations, and verify_equivalence compares payloads with the ring's own
equality. A Trajectory holds those payload lists and its module; its
``values`` and ``value_at`` wrap payloads into Vec elements on read, and the
serializers format payloads directly, so the verify path builds no Vec per
simulated value.

On the unbounded exact rings (rational, Gaussian, rational-quaternion) a
nonlinear map can double the size of the values every step. simulate refuses
a value with a numerator or denominator longer than MAX_PAYLOAD_BITS bits
(rings.MAX_PAYLOAD_BITS, which bounds certificate alphas too) by raising
ConfigError (exit 2) instead of running on for hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError, DivisionByNonUnit, TanhUnsupported
from .factorize import FactorizationChain, SubstitutionFactorization, level_name
from .recurrence import Recurrence
from .rings import MAX_PAYLOAD_BITS, Module, Vec

FLOAT_COMPARE_CAP = 500


@dataclass
class Breakdown:
    index: int          # the index whose value could not be produced
    reason: str

    def describe(self) -> str:
        return f"breakdown at index {self.index}: {self.reason}"


@dataclass
class Trajectory:
    """payloads[i] lists the component payloads of the value at start + i."""

    level: str
    start: int
    module: Module
    payloads: list[list]
    breakdown: Breakdown | None = None

    @property
    def end(self) -> int:
        """One past the largest produced index."""
        return self.start + len(self.payloads)

    @property
    def values(self) -> list[Vec]:
        return [self.module.wrap(p) for p in self.payloads]

    def value_at(self, n: int) -> Vec:
        if not (self.start <= n < self.end):
            raise IndexError(f"index {n} outside [{self.start}, {self.end})")
        return self.module.wrap(self.payloads[n - self.start])


def simulate(rec: Recurrence, initial, steps: int, start: int = 0,
             level: str = "x") -> Trajectory:
    """Iterate the recurrence from its initial window.

    ``initial`` lists x_start .. x_{start+k} (oldest first). The result
    covers indices start .. start+k+steps unless a breakdown truncates it.
    The run works on payloads through ``rec.kernel``. A value larger than
    MAX_PAYLOAD_BITS on an exact ring raises ConfigError.
    """
    module = rec.module
    init = [module.el(v) for v in initial]
    if len(init) != rec.order:
        raise ConfigError(f"initial window must hold {rec.order} value(s), got {len(init)}")
    step, finite, bits = rec.kernel, rec.ring._finite, rec.ring._bits
    hist = [module.payloads(v) for v in init]
    breakdown = None
    for n in range(start + rec.k, start + rec.k + steps):
        try:
            nxt = step(n, hist)
        except (DivisionByNonUnit, TanhUnsupported) as exc:
            breakdown = Breakdown(n + 1, str(exc))
            break
        if finite is not None and not all(map(finite, nxt)):
            breakdown = Breakdown(n + 1, "value is not finite")
            break
        if bits is not None and max(map(bits, nxt)) > MAX_PAYLOAD_BITS:
            raise ConfigError(f"value at index {n + 1} exceeds the size limit of "
                              f"{MAX_PAYLOAD_BITS} bits per numerator or denominator")
        hist.append(nxt)
    return Trajectory(level, start, module, hist, breakdown)


def _propagated(below: Breakdown | None) -> Breakdown | None:
    return None if below is None else Breakdown(below.index, f"propagated: {below.reason}")


def transport(chain: FactorizationChain, initial) -> list[list[Vec]]:
    """Initial windows for every chain level.

    Level 0 is the given x window (indices 0..k). Level l (1-based) drops the
    first entry: w_i = prev_i - alpha_l(i-1) * prev_{i-1} for i = l..k, so the
    level-l window covers indices l..k.
    """
    module = chain.base.module
    windows = [[module.el(v) for v in initial]]
    k = chain.base.k
    if len(windows[0]) != k + 1:
        raise ConfigError(f"initial window must hold {k + 1} value(s)")
    for l, step in enumerate(chain.steps, start=1):
        prev = windows[-1]
        # prev covers indices (l-1)..k
        cur = []
        for pos in range(1, len(prev)):
            i = (l - 1) + pos  # absolute index of prev[pos]
            cur.append(prev[pos] - step.alpha.at(i - 1) * prev[pos - 1])
        windows.append(cur)
    return windows


@dataclass
class ChainRun:
    """All level trajectories from one chain simulation.

    levels[0] is the reconstructed top level (named like the direct variable
    but produced through the chain); levels[l] for l >= 1 are the factor
    levels. Breakdown anywhere truncates everything above it.
    """

    trajectories: list[Trajectory]

    @property
    def reconstructed(self) -> Trajectory:
        return self.trajectories[0]

    def by_name(self) -> dict[str, Trajectory]:
        return {t.level: t for t in self.trajectories}


def simulate_chain(chain: FactorizationChain, initial, steps: int) -> ChainRun:
    """Run the deepest factor, then rebuild every level above it on payloads."""
    windows = transport(chain, initial)
    depth = len(chain.steps)
    k = chain.base.k
    module = chain.base.module
    add, mul = module.ring._add, module.ring._mul
    below = simulate(chain.final_factor, windows[depth], steps,
                     start=depth, level=level_name(depth))
    end = below.end
    trajs = [below]
    deeper = below.payloads
    for l in range(depth - 1, -1, -1):
        # chain.steps[l] relates level l (cofactor) to level l+1 (factor)
        alpha = [a.v for a in chain.steps[l].alpha.values]
        period = len(alpha)
        vals = [module.payloads(v) for v in windows[l]]
        # w_{n+1} = alpha(n) * w_n + deeper_{n+1}, starting at n = k;
        # deeper[i] is the level-(l+1) value at index l + 1 + i
        for n in range(k, end - 1):
            a = alpha[n % period]
            vals.append([add(mul(a, w), d) for w, d in zip(vals[-1], deeper[n - l])])
        below = Trajectory(level_name(l), l, module, vals, _propagated(below.breakdown))
        trajs.append(below)
        deeper = vals
    trajs.reverse()
    return ChainRun(trajs)


def simulate_substitution(sub: SubstitutionFactorization, initial, steps: int) -> ChainRun:
    """Run the alsp substitution split: first-order s level plus linear
    reconstruction of x.

    s_n = x_n - sum a_{j-1} x_{n-j} exists from n = k; the s level is indexed
    accordingly and reconstruction is x_{n+1} = sum a_{j-1} x_{n+1-j} + s_{n+1}.
    """
    module = sub.base.module
    add, mul = module.ring._add, module.ring._mul
    k = sub.k
    init = [module.el(v) for v in initial]
    if len(init) != k + 1:
        raise ConfigError(f"initial window must hold {k + 1} value(s)")
    s_k = init[k]
    for j, c in enumerate(sub.sub_coeffs, start=1):
        s_k = s_k - c * init[k - j]
    s_traj = simulate(sub.factor, [s_k], steps, start=k, level="s")
    s_vals = s_traj.payloads  # s at index k + i
    coeffs = [(j, c.v) for j, c in enumerate(sub.sub_coeffs, start=1)]
    xs = [module.payloads(v) for v in init]
    for n in range(k, s_traj.end - 1):
        acc = s_vals[n + 1 - k]
        for j, c in coeffs:
            acc = [add(s, mul(c, x)) for s, x in zip(acc, xs[n + 1 - j])]
        xs.append(acc)
    x_traj = Trajectory("x", 0, module, xs, _propagated(s_traj.breakdown))
    return ChainRun([x_traj, s_traj])


# ---------------------------------------------------------------------------
# comparison


def _deviation(a, b) -> float:
    """Max componentwise distance between two payload lists, for float rings."""
    out = 0.0
    for px, py in zip(a, b):
        if isinstance(px, complex):
            out = max(out, abs(px - py))
        else:
            out = max(out, math.sqrt(sum((u - w) ** 2 for u, w in zip(px, py))))
    return out


@dataclass
class EquivalenceReport:
    """Pointwise comparison of the direct run against the chain run."""

    equal: bool
    compared: int                     # number of indices compared
    first_divergence: int | None
    max_deviation: float | None       # float rings only
    direct_breakdown: Breakdown | None
    chain_breakdown: Breakdown | None
    breakdowns_aligned: bool
    capped: bool = False
    notes: list[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = []
        if self.equal:
            lines.append(f"trajectories agree on {self.compared} compared value(s)")
        else:
            lines.append(f"trajectories diverge first at index {self.first_divergence}")
        if self.max_deviation is not None:
            lines.append(f"max deviation {self.max_deviation:.3e}")
        if self.direct_breakdown:
            lines.append(f"direct run: {self.direct_breakdown.describe()}")
        if self.chain_breakdown:
            lines.append(f"chain run: {self.chain_breakdown.describe()}")
        if (self.direct_breakdown or self.chain_breakdown) and not self.breakdowns_aligned:
            lines.append("breakdown points do NOT align")
        if self.capped:
            lines.append(f"float comparison capped at {FLOAT_COMPARE_CAP} steps")
        return "; ".join(lines)


def verify_equivalence(rec: Recurrence, chain, initial, steps: int,
                       rel_tol: float | None = None) -> EquivalenceReport:
    """Simulate both forms and compare the top level pointwise.

    Exact rings compare with ring equality; float rings use a relative
    tolerance (default 1e-9) and cap the comparison at FLOAT_COMPARE_CAP
    steps. Breakdowns on the two sides are considered aligned when their
    indices differ by at most k (a non-unit reaches the two forms through
    windows of that width).
    """
    ring = rec.ring
    is_float = not ring.exact
    capped = False
    if is_float and steps > FLOAT_COMPARE_CAP:
        steps = FLOAT_COMPARE_CAP
        capped = True
    direct = simulate(rec, initial, steps)
    if isinstance(chain, SubstitutionFactorization):
        run = simulate_substitution(chain, initial, steps)
    else:
        run = simulate_chain(chain, initial, steps)
    rebuilt = run.reconstructed

    if rel_tol is None:
        rel_tol = 1e-9
    # both trajectories start at index 0, so pairs line up by position
    pairs = zip(direct.payloads, rebuilt.payloads)
    compared = min(direct.end, rebuilt.end)
    first_div = None
    max_dev = None
    if is_float:
        zero = [ring.zero.v] * rec.module.dim
        max_dev = 0.0
        for n, (a, b) in enumerate(pairs):
            dev = _deviation(a, b)
            scale = max(_deviation(a, zero), _deviation(b, zero), 1.0)
            max_dev = max(max_dev, dev)
            if dev > rel_tol * scale and first_div is None:
                first_div = n
    else:
        eq = ring._eq
        for n, (a, b) in enumerate(pairs):
            if not all(map(eq, a, b)):
                first_div = n
                break
    db, cb = direct.breakdown, rebuilt.breakdown
    if db is None and cb is None:
        aligned = True
    elif db is not None and cb is not None:
        aligned = abs(db.index - cb.index) <= rec.k
    else:
        aligned = False
    notes = []
    if (db is None) != (cb is None):
        notes.append("only one side broke down")
    return EquivalenceReport(
        equal=first_div is None and aligned,
        compared=compared,
        first_divergence=first_div,
        max_deviation=max_dev,
        direct_breakdown=db,
        chain_breakdown=cb,
        breakdowns_aligned=aligned,
        capped=capped,
        notes=notes,
    )


def detect_period(values, max_period: int, eq=None) -> int | None:
    """Least p <= max_period that shifts the tail of the sequence onto itself.

    The check window is the final 2*max_period entries, so the sequence must
    hold at least that many values; transients before the window are ignored.
    """
    vals = list(values)
    if max_period < 1:
        raise ConfigError("max_period must be positive")
    if len(vals) < 2 * max_period:
        raise ConfigError(
            f"need at least {2 * max_period} values to certify periods up to {max_period}")
    if eq is None:
        eq = lambda a, b: a == b
    lo = len(vals) - 2 * max_period
    for p in range(1, max_period + 1):
        if all(eq(vals[i], vals[i + p]) for i in range(lo, len(vals) - p)):
            return p
    return None


# ---------------------------------------------------------------------------
# serialization


def trajectory_csv(traj: Trajectory, module: Module) -> str:
    """CSV with header level,n,c0..c{d-1}; canonical element rendering."""
    header = "level,n," + ",".join(f"c{i}" for i in range(module.dim))
    lines = [header]
    fmt = module.ring.fmt
    for off, v in enumerate(traj.payloads):
        comps = ",".join(map(fmt, v))
        lines.append(f"{traj.level},{traj.start + off},{comps}")
    return "\n".join(lines) + "\n"


def trajectory_json_obj(traj: Trajectory, module: Module) -> dict:
    obj = {
        "level": traj.level,
        "start": traj.start,
        "values": [list(map(module.ring.fmt, v)) for v in traj.payloads],
        "breakdown": None,
    }
    if traj.breakdown is not None:
        obj["breakdown"] = {"index": traj.breakdown.index, "reason": traj.breakdown.reason}
    return obj
