"""Simulation, chain transport, trajectory comparison, and period detection.

A Trajectory stores values[i] = level value at index (start + i). The top
level x starts at 0; the level-l transform only exists from index l (t_1 is
the first transform value, and so on), so deeper levels carry larger start
offsets instead of padding.

Breakdowns (division by a non-unit, tanh domain violations, non-finite
floats) are data, not crashes: the trajectory is truncated and the breakdown
index and reason are recorded.

Every run works on raw ring payloads: simulate iterates the recurrence's
generated step function (Recurrence.kernel), and verify_equivalence compares
payloads with the ring's own equality. simulate_chain and
simulate_substitution run the deepest level that way, then rebuild every
level above it in one generated loop (_rebuild, built with gmap.Emitter
like the step): each step adds c_1(n)*v_n + c_2(n)*v_{n-1} + ... to the
value of the level below, level after level from the deepest up, with the
latest values in locals and residues reduced only where they are stored.
The chain's cofactors have the one term alpha_l(n)*w_n; the substitution's
x level has k. A Trajectory holds those payload lists and its module; its
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

from . import gmap as gm
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


def _rebuild(module: Module, levels, lo: int, hi: int, below, outs) -> None:
    """Extend the payload lists ``outs`` by the steps n = lo .. hi-1.

    Level l's value at n+1 is the value under it at n+1 plus
    c_1(n)*v_n + c_2(n)*v_{n-1} + ..., summed in that order from the value
    under it, where v is level l itself and levels[l] lists the periodic
    payload tuples c_1, c_2, ...; outs[l] ends with its values at n, n-1, ...
    ``below`` holds the values under level 0, below[i] at index lo + 1 + i;
    each later level stands on the one before it. The loop is one generated
    function, with every level's latest values in locals and residues
    reduced mod m only at the stored values.
    """
    if not levels:
        return
    ring = module.ring
    e = gm.Emitter(ring)
    comps = range(module.dim)
    lags, appends = [], []
    for l, coeffs in enumerate(levels):
        appends.append(e.let(f"O{l}.append"))
        # lags[l][j][c]: component c of level l's value j steps before n+1
        lags.append([[f"v{l}_{j}_{c}" for c in comps] for j in range(len(coeffs))])
        for j, names in enumerate(lags[l]):
            e.unpack(names, f"O{l}[{-1 - j}]")
    under = [f"u{c}" for c in comps]
    e.block(f"for n, [{', '.join(under)}] in zip(range(lo, hi), B):")
    for l, coeffs in enumerate(levels):
        cs = [e.seq((l, j), c) for j, c in enumerate(coeffs)]
        for c in comps:
            acc = under[c]
            for coeff, lag in zip(cs, lags[l]):
                acc = e.let(ring.src_add.format(acc, ring.src_mul.format(coeff, lag[c])))
            # the value at n+1 becomes the newest lag, the others shift back
            names = [lag[c] for lag in lags[l]]
            e.line(f"{', '.join(names)} = {', '.join([e.reduced(acc), *names[:-1]])}")
        under = lags[l][0]
        e.line(f"{appends[l]}([{', '.join(under)}])")
    # the lists are parameters, not namespace entries: the namespace and the
    # function refer to each other, which would keep the lists alive until
    # the next full garbage collection
    params = ", ".join(["lo, hi, B", *[f"O{l}" for l in range(len(levels))]])
    e.function(params, "None")(lo, hi, below, *outs)


def simulate_chain(chain: FactorizationChain, initial, steps: int) -> ChainRun:
    """Run the deepest factor, then rebuild every level above it on payloads."""
    windows = transport(chain, initial)
    depth = len(chain.steps)
    k = chain.base.k
    module = chain.base.module
    below = simulate(chain.final_factor, windows[depth], steps,
                     start=depth, level=level_name(depth))
    # level l covers indices l .. below.end-1; chain.steps[l] relates level l
    # (cofactor) to level l+1 (factor): w_{n+1} = alpha_l(n) * w_n + (level
    # l+1)_{n+1}, from n = k, rebuilt from the deepest level up
    outs = [[module.payloads(v) for v in windows[l]] for l in range(depth)]
    _rebuild(module, [[tuple(a.v for a in step.alpha.values)] for step in reversed(chain.steps)],
             k, below.end - 1, below.payloads[k + 1 - depth:], outs[::-1])
    trajs = [below]
    for l in range(depth - 1, -1, -1):
        trajs.append(Trajectory(level_name(l), l, module, outs[l],
                                _propagated(trajs[-1].breakdown)))
    trajs.reverse()
    return ChainRun(trajs)


def simulate_substitution(sub: SubstitutionFactorization, initial, steps: int) -> ChainRun:
    """Run the alsp substitution split: first-order s level plus linear
    reconstruction of x.

    s_n = x_n - sum a_{j-1} x_{n-j} exists from n = k; the s level is indexed
    accordingly and reconstruction is x_{n+1} = s_{n+1} + sum a_{j-1} x_{n+1-j}.
    """
    module = sub.base.module
    k = sub.k
    init = [module.el(v) for v in initial]
    if len(init) != k + 1:
        raise ConfigError(f"initial window must hold {k + 1} value(s)")
    s_k = init[k]
    for j, c in enumerate(sub.sub_coeffs, start=1):
        s_k = s_k - c * init[k - j]
    s_traj = simulate(sub.factor, [s_k], steps, start=k, level="s")
    xs = [module.payloads(v) for v in init]
    _rebuild(module, [[(c.v,) for c in sub.sub_coeffs]], k, s_traj.end - 1,
             s_traj.payloads[1:], [xs])
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
