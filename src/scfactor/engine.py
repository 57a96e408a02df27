"""Simulation, chain transport, and the equivalence check.

A Trajectory stores values[i] = level value at index (start + i). The top
level x starts at 0; the level-l transform only exists from index l (t_1 is
the first transform value, and so on), so deeper levels carry larger start
offsets instead of padding.

Breakdowns (division by a non-unit, tanh domain violations, non-finite
floats) are data, not crashes: the trajectory is truncated and the breakdown
index and reason are recorded.

Every run works on raw ring payloads: simulate iterates the recurrence's
generated step function (Recurrence.kernel). A chain and the alsp
substitution are one kind of split (_split): levels above a deepest factor,
each with rebuild coefficients c_1, c_2, ... (the chain's cofactors have the
one coefficient alpha_l, the substitution's x level has k), and every
level's initial window peeled on payloads from the one above it.
simulate_chain, also bound as simulate_substitution, runs the deepest level
through simulate, then rebuilds every level above it in one generated loop
(_rebuild, built with gmap.Emitter like the step): each step adds
c_1(n)*v_n + c_2(n)*v_{n-1} + ... to the value of the level below, level
after level from the deepest up, with the latest values in locals and
values reduced only where they are stored. A Trajectory holds those payload
lists and its module, and the serializers format them with the ring's fmt.

verify_equivalence stores no trajectory: one generated loop (_verify_loop)
steps the direct recurrence and the deepest factor with the code of their
kernels (Recurrence.emit_periodic_step), rebuilds the levels above with the
same level update as _rebuild, and compares the top level's new value with
the direct one. Only the windows live, in locals, so its memory does not
grow with the number of steps. When one side breaks down, each side runs on
from its window through the simulate loop (_run) to find its breakdown and
end. The initial window is made canonical once (_window), and the levels'
windows are peeled from it.

Both loops are generated once per shape (gmap.generated): the level
coefficients are values (_level_values), and the number of levels, the
coefficients per level and whether each has period 1 are the shape.

On the unbounded exact rings (rational, Gaussian, rational-quaternion) a
nonlinear map can double the size of the values every step. A run refuses
a value with a numerator or denominator longer than MAX_PAYLOAD_BITS bits
(rings.MAX_PAYLOAD_BITS, which bounds certificate alphas too) by raising
ConfigError (exit 2) instead of running on for hours.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from . import gmap as gm
from .errors import ConfigError, DivisionByNonUnit, TanhUnsupported
from .factorize import FactorizationChain, SubstitutionFactorization, level_name
from .recurrence import Recurrence
from .rings import MAX_PAYLOAD_BITS, Module

FLOAT_COMPARE_CAP = 500


@dataclass
class Breakdown:
    index: int          # the index whose value could not be produced
    reason: str

    def describe(self) -> str:
        return f"breakdown at index {self.index}: {self.reason}"


@dataclass
class Trajectory:
    """values[i] lists the component payloads of the value at start + i."""

    level: str
    start: int
    module: Module
    values: list[list]
    breakdown: Breakdown | None = None

    @property
    def end(self) -> int:
        """One past the largest produced index."""
        return self.start + len(self.values)

    def value_at(self, n: int) -> list:
        if not (self.start <= n < self.end):
            raise IndexError(f"index {n} outside [{self.start}, {self.end})")
        return self.values[n - self.start]


def _window(rec: Recurrence, initial) -> list[list]:
    """The payload lists of an initial window for ``rec``: each value is
    what Module.payloads accepts."""
    if len(initial) != rec.order:
        raise ConfigError(f"initial window must hold {rec.order} value(s), got {len(initial)}")
    return list(map(rec.module.payloads, initial))


def _run(rec: Recurrence, hist, lo: int, hi: int) -> Breakdown | None:
    """Append the values of the steps n = lo .. hi-1 to ``hist``, which ends
    with x_{lo-k} .. x_lo (payload lists, oldest first); returns the
    breakdown that stops the run, if any. A value larger than
    MAX_PAYLOAD_BITS on an exact ring raises ConfigError."""
    step, finite, oversize = rec.kernel, rec.ring._finite, rec.ring._oversize
    for n in range(lo, hi):
        try:
            nxt = step(n, hist)
        except (DivisionByNonUnit, TanhUnsupported) as exc:
            return Breakdown(n + 1, str(exc))
        if finite is not None and not all(map(finite, nxt)):
            return Breakdown(n + 1, "value is not finite")
        if oversize is not None and any(map(oversize, nxt)):
            raise ConfigError(f"value at index {n + 1} exceeds the size limit of "
                              f"{MAX_PAYLOAD_BITS} bits per numerator or denominator")
        hist.append(nxt)
    return None


def simulate(rec: Recurrence, initial, steps: int, start: int = 0,
             level: str = "x") -> Trajectory:
    """Iterate the recurrence from its initial window.

    ``initial`` lists x_start .. x_{start+k} (oldest first). The result
    covers indices start .. start+k+steps unless a breakdown truncates it.
    The run works on payloads through ``rec.kernel``. A value larger than
    MAX_PAYLOAD_BITS on an exact ring raises ConfigError.
    """
    hist = _window(rec, initial)
    lo = start + rec.k
    return Trajectory(level, start, rec.module, hist, _run(rec, hist, lo, lo + steps))


def _propagated(below: Breakdown | None) -> Breakdown | None:
    return None if below is None else Breakdown(below.index, f"propagated: {below.reason}")


def transport(chain: FactorizationChain, initial) -> list[list[list]]:
    """Initial windows for every chain level, as payload lists.

    Level 0 is the given x window (indices 0..k). Level l (1-based) drops the
    first entry: w_i = prev_i - alpha_l(i-1) * prev_{i-1} for i = l..k, so the
    level-l window covers indices l..k.
    """
    return _split(chain, _window(chain.base, initial))[3][::-1]


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


def _split(factorization, window):
    """A chain or substitution split cut at its deepest level, from the top
    level's initial ``window`` (payload lists, as _window gives them):
    (factor, names, levels, windows), from the deepest level up. ``levels`` lists
    the rebuild coefficients c_1, c_2, ... (periodic payload tuples) of each
    level above the factor, as _rebuild takes them; ``names`` and
    ``windows`` give every level's name and initial payload window, the
    factor's first.

    A chain's levels have the one coefficient alpha_l; the substitution's x
    level has k constant ones. Each window is peeled from the one above,
    from x down: u_i = v_i - c_1(i-1)*v_{i-1} - c_2(i-1)*v_{i-2} - ...,
    subtracted in that order, so it starts len(c) indices later; every
    window ends at k.
    """
    if isinstance(factorization, SubstitutionFactorization):
        factor, names = factorization.factor, ["x", "s"]
        levels = [[(c,) for c in factorization.sub_coeffs]]
    else:
        factor = factorization.final_factor
        levels = [[step.alpha.values] for step in factorization.steps]
        names = [level_name(l) for l in range(len(levels) + 1)]
    ring, k = factor.ring, factorization.base.k
    add, neg, mul = ring._add, ring._neg, ring._mul
    windows = [window]
    for coeffs in levels:
        above, window = windows[-1], []
        # every window ends at k, so v_i is above[i - k - 1]
        for i in range(k + 1 - len(above) + len(coeffs), k + 1):
            u = above[i - k - 1]
            for j, c in enumerate(coeffs, start=1):
                cj = c[(i - 1) % len(c)]
                u = [add(a, neg(mul(cj, v))) for a, v in zip(u, above[i - j - k - 1])]
            window.append(u)
        windows.append(window)
    return factor, names[::-1], levels[::-1], windows[::-1]


def _level_values(levels) -> dict:
    """The values _emit_levels reads, by role: level l's coefficients under
    the tag L<l>."""
    values: dict = {}
    for l, coeffs in enumerate(levels):
        for j, c in enumerate(coeffs):
            gm.seq_values(values, f"L{l}", j, c)
    return values


def _unpack_levels(e: gm.Emitter, levels, dim: int):
    """Unpack the latest values of every level from its list O<l>; returns
    the locals: [l][j][c] is component c of level l's value j steps back."""
    lags = []
    for l, coeffs in enumerate(levels):
        lags.append([[f"v{l}_{j}_{c}" for c in range(dim)] for j in range(len(coeffs))])
        for j, names in enumerate(lags[l]):
            e.unpack(names, f"O{l}[{-1 - j}]")
    return lags


def _emit_levels(e: gm.Emitter, levels, lags, under: list[str]) -> list[str]:
    """Emit step n of every level, from the deepest up, onto the value
    ``under`` (locals) of the level below at n+1; returns the top level's
    value at n+1.

    Level l's value at n+1 is the value under it at n+1 plus
    c_1(n)*v_n + c_2(n)*v_{n-1} + ..., summed in that order as one
    expression, where v is level l itself and levels[l] lists the periodic
    payload tuples c_1, c_2, ... (read as _level_values stores them); the
    new value becomes the newest lag and the others shift back. Values are
    reduced (mod m, or to lowest terms) only where a value is stored.
    """
    ring = e.ring
    for l, coeffs in enumerate(levels):
        cs = [e.seq(f"L{l}", j) for j in range(len(coeffs))]
        for c in range(len(under)):
            acc = e.fold(under[c], [ring.src_mul.format(coeff, lag[c])
                                    for coeff, lag in zip(cs, lags[l])])
            names = [lag[c] for lag in lags[l]]
            e.line(f"{', '.join(names)} = {', '.join([e.reduced(acc), *names[:-1]])}")
        under = lags[l][0]
    return under


def _level_params(levels) -> list[str]:
    return [f"O{l}" for l in range(len(levels))]


def _rebuild(module: Module, levels, lo: int, hi: int, below, outs) -> None:
    """Extend the payload lists ``outs`` (deepest level first) by the steps
    n = lo .. hi-1 of _emit_levels, in one generated loop. ``below`` holds
    the values under the deepest level, below[i] at index lo + 1 + i.
    """
    if not levels:
        return

    def emit(e):
        lags = _unpack_levels(e, levels, module.dim)
        appends = [e.let(f"{name}.append") for name in _level_params(levels)]
        under = [f"u{c}" for c in range(module.dim)]
        e.block(f"for n, [{', '.join(under)}] in zip(range(lo, hi), B):")
        _emit_levels(e, levels, lags, under)
        for append, lag in zip(appends, lags):
            e.line(f"{append}([{', '.join(lag[0])}])")
        e.end()
        return ", ".join(["lo, hi, B", *_level_params(levels)]), "None"
    gm.generated(module.ring, ("rebuild", module.dim), _level_values(levels), emit,
                 lo, hi, below, *outs)


def simulate_chain(factorization, initial, steps: int) -> ChainRun:
    """Run a chain or the alsp substitution split: the deepest factor
    through simulate, then every level above it rebuilt on payloads.

    Level l of a chain covers indices l .. end-1: chain.steps[l] relates
    level l (cofactor) to level l+1 (factor) by w_{n+1} = alpha_l(n) * w_n
    + (level l+1)_{n+1}. The substitution's s level, s_n = x_n -
    sum a_{j-1} x_{n-j}, exists from n = k, and x is rebuilt as x_{n+1} =
    s_{n+1} + sum a_{j-1} x_{n+1-j}. Both rebuild from n = k.
    """
    factor, names, levels, windows = _split(factorization,
                                            _window(factorization.base, initial))
    module, k = factor.module, factorization.base.k
    starts = [k + 1 - len(window) for window in windows]
    below = simulate(factor, windows[0], steps, start=starts[0], level=names[0])
    _rebuild(module, levels, k, below.end - 1, below.values[len(windows[0]):], windows[1:])
    trajs = [below]
    for name, start, vals in zip(names[1:], starts[1:], windows[1:]):
        trajs.append(Trajectory(name, start, module, vals, _propagated(trajs[-1].breakdown)))
    trajs.reverse()
    return ChainRun(trajs)


simulate_substitution = simulate_chain


# ---------------------------------------------------------------------------
# comparison


def _deviation(a, b) -> float:
    """Max componentwise distance between two payload lists, for float rings."""
    out = 0.0
    for px, py in zip(a, b):
        if isinstance(px, complex):
            out = max(out, abs(px - py))
            continue
        try:
            d = math.sqrt(sum((u - w) ** 2 for u, w in zip(px, py)))
        except OverflowError:  # float ** raises past about 1e154, where hypot does not
            d = math.hypot(*[u - w for u, w in zip(px, py)])
        out = max(out, d)
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
        if self.first_divergence is None:
            # unequal only when the breakdowns do not align, which is said below
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


def _verify_loop(rec: Recurrence, factor: Recurrence, levels, *args):
    """The generated loop of verify_equivalence, run on ``args``. Each n
    steps the direct recurrence and the deepest factor, rebuilds the levels
    above and compares the top level's value at n+1 with the direct one.

    The loop takes (lo, hi, rel_tol, X, F, O0, ...), the payload windows of
    the direct run, the factor and each level, and returns (n, first,
    max_dev, X', F'). It stops at a step n where either side breaks down, or
    gives a non-finite value or one past MAX_PAYLOAD_BITS (X', F' are the
    windows before step n), or, on an exact ring, after the first divergence
    (n is one past it, the windows after it); n = hi when it ran through.
    Exact rings compare with ==, which is every exact ring's equality.

    The direct recurrence and the factor read their values under the tags
    X and F, as their windows are named, and their maps under G, or G and H
    when they are two maps.
    """
    ring, dim = rec.ring, rec.module.dim
    shared = factor.g is rec.g
    sides = (("X", rec, "G"), ("F", factor, "G" if shared else "H"))
    values = {"FIN": ring._finite, "BIG": ring._oversize, "DEV": _deviation,
              "ZEROS": [ring.zero] * dim, "BREAKS": (DivisionByNonUnit, TanhUnsupported),
              **_level_values(levels)}
    for tag, r, gtag in sides:
        values.update(r.values(tag, gtag))

    def emit(e):
        names = [[[f"{tag.lower()}{i}_{j}" for j in range(dim)] for i in range(r.order)]
                 for tag, r, _ in sides]
        for (tag, _, _), rows in zip(sides, names):
            for i, row in enumerate(rows):
                e.unpack(row, f"{tag}[{-1 - i}]")
        lags = _unpack_levels(e, levels, dim)
        state = ", ".join("[" + ", ".join(f"[{', '.join(row)}]" for row in reversed(rows)) + "]"
                          for rows in names)
        stop = f"return n, first, dev, {state}"
        e.line(f"first, dev = None, {'None' if ring.exact else '0.0'}")
        e.block("try:")
        e.block("for n in range(lo, hi):")
        news = []
        for tag, r, gtag in sides:
            new = []
            for out in r.emit_periodic_step(e, tag.lower() + "{}_{}", tag, gtag):
                out = e.reduced(out)
                new.append(out if out.isidentifier() else e.let(out))
            if ring._finite is not None:
                e.line(f"if {' or '.join(f'not FIN({v})' for v in new)}: {stop}")
            if ring._oversize is not None:
                e.line(f"if {' or '.join(f'BIG({v})' for v in new)}: {stop}")
            news.append(new)
        for rows, new in zip(names, news):
            for j, v in enumerate(new):
                col = [row[j] for row in rows]
                e.line(f"{', '.join(col)} = {', '.join([v, *col[:-1]])}")
        top, direct = _emit_levels(e, levels, lags, news[1]), news[0]
        if ring.exact:
            e.line(f"if {' or '.join(f'{a} != {b}' for a, b in zip(direct, top))}: "
                   f"return n + 1, n + 1, dev, {state}")
        else:
            a, b = e.let(f"[{', '.join(direct)}]"), e.let(f"[{', '.join(top)}]")
            d = e.let(f"DEV({a}, {b})")
            e.line(f"dev = max(dev, {d})")
            e.line(f"if first is None and {d} > RT * max(DEV({a}, ZEROS), DEV({b}, ZEROS), "
                   f"1.0): first = n + 1")
        e.end()
        e.end()
        e.block("except BREAKS:")
        e.line(stop)
        e.end()
        return (", ".join(["lo, hi, RT, X, F", *_level_params(levels)]),
                f"hi, first, dev, {state}")
    key = ("verify", dim, rec.shape, factor.shape, shared)
    return gm.generated(ring, key, values, emit, *args)


def verify_equivalence(rec: Recurrence, chain, initial, steps: int,
                       rel_tol: float | None = None) -> EquivalenceReport:
    """Run both forms in one pass and compare the top level pointwise.

    Exact rings compare with ring equality; float rings use a relative
    tolerance (default 1e-9) and cap the comparison at FLOAT_COMPARE_CAP
    steps. Breakdowns on the two sides are considered aligned when their
    indices differ by at most k (a non-unit reaches the two forms through
    windows of that width).

    The pass is _verify_loop. The initial windows are not compared: both
    forms start from the same payloads. When the loop stops early, each
    side runs on from its window to find its breakdown and end, keeping
    only the window; the direct side goes first, so its size-limit
    ConfigError wins, as when the direct run was simulated first.
    """
    ring = rec.ring
    capped = False
    if not ring.exact and steps > FLOAT_COMPARE_CAP:
        steps = FLOAT_COMPARE_CAP
        capped = True
    if rel_tol is None:
        rel_tol = 1e-9
    direct = _window(rec, initial)
    factor, _, levels, windows = _split(chain, direct)
    lo, hi = rec.k, rec.k + steps
    n, first_div, max_dev, direct, window = _verify_loop(rec, factor, levels,
                                                         lo, hi, rel_tol, direct, *windows)
    db = cb = None
    if n < hi:
        db = _run(rec, deque(direct, maxlen=len(direct)), n, hi)
        cb = _run(factor, deque(window, maxlen=len(window)), n, hi)
    compared = min(hi + 1 if db is None else db.index, hi + 1 if cb is None else cb.index)
    for _ in levels:
        cb = _propagated(cb)
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
    for off, v in enumerate(traj.values):
        comps = ",".join(map(fmt, v))
        lines.append(f"{traj.level},{traj.start + off},{comps}")
    return "\n".join(lines) + "\n"


def trajectory_json_obj(traj: Trajectory, module: Module) -> dict:
    obj = {
        "level": traj.level,
        "start": traj.start,
        "values": [list(map(module.ring.fmt, v)) for v in traj.values],
        "breakdown": None,
    }
    if traj.breakdown is not None:
        obj["breakdown"] = {"index": traj.breakdown.index, "reason": traj.breakdown.reason}
    return obj
