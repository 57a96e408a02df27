"""Simulation, chain transport, and the equivalence check.

A Trajectory stores values[i] = level value at index (start + i). The top
level x starts at 0; the level-l transform only exists from index l (t_1 is
the first transform value, and so on), so deeper levels carry larger start
offsets instead of padding.

Breakdowns (division by a non-unit, tanh domain violations, non-finite
floats) are data, not crashes: the trajectory is truncated and the breakdown
index and reason are recorded.

Every run works on raw ring payloads, in one generated step loop (_loop).
A chain and the alsp substitution are one kind of split (_split): levels
above a deepest factor, each with rebuild coefficients c_1, c_2, ... (the
chain's cofactors have the one coefficient alpha_l, the substitution's x
level has k), and every level's initial window peeled on payloads from the
one above it. Each n of the loop steps its sides with the code of their
recurrences (Recurrence.emit_periodic_step), then rebuilds every level
above the last side: it adds c_1(n)*v_n + c_2(n)*v_{n-1} + ... to the value
of the level below, level after level from the deepest up. The latest
values live in locals, and values are reduced only where they are stored.
The loop checks breakdowns, finiteness and MAX_PAYLOAD_BITS, and reports
which stopped it. Its callers:

* simulate steps one recurrence and keeps every value;
* simulate_chain, also bound as simulate_substitution, steps the deepest
  factor, rebuilds the levels above it in the same pass, and keeps every
  level's values. A Trajectory holds those payload lists and its module,
  and the serializers format them with the ring's fmt;
* verify_equivalence steps the direct recurrence and the deepest factor
  and compares the rebuilt top level with the direct value. It keeps only
  the windows, so its memory does not grow with the number of steps. When
  it stops early, each side runs on alone from its window, keeping
  nothing, to find its breakdown and end. The initial window is made
  canonical once (_window), and the levels' windows are peeled from it.

The loop is generated once per shape (gmap.generated): the level
coefficients are values, and the sides' shapes, whether values are kept,
the number of levels, the coefficients per level and whether each has
period 1 are the shape.

On the unbounded exact rings (rational, Gaussian, rational-quaternion) a
nonlinear map can double the size of the values every step. A run refuses
a value with a numerator or denominator longer than MAX_PAYLOAD_BITS bits
(rings.MAX_PAYLOAD_BITS, which bounds certificate alphas too) by raising
ConfigError (exit 2) instead of running on for hours.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import gmap as gm
from .errors import ConfigError, DivisionByNonUnit, TanhUnsupported
from .factorize import FactorizationChain, SubstitutionFactorization, level_name
from .recurrence import Recurrence
from .rings import MAX_PAYLOAD_BITS, Module

FLOAT_COMPARE_CAP = 500


class Breakdown(namedtuple("Breakdown", "index reason")):
    """index is the index whose value could not be produced."""

    __slots__ = ()

    def describe(self) -> str:
        return f"breakdown at index {self.index}: {self.reason}"


class Trajectory:
    """values[i] lists the component payloads of the value at start + i."""

    __slots__ = ("level", "start", "module", "values", "breakdown")

    def __init__(self, level: str, start: int, module: Module, values: list[list],
                 breakdown: Breakdown | None = None):
        self.level = level
        self.start = start
        self.module = module
        self.values = values
        self.breakdown = breakdown

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


def simulate(rec: Recurrence, initial, steps: int, start: int = 0,
             level: str = "x") -> Trajectory:
    """Iterate the recurrence from its initial window.

    ``initial`` lists x_start .. x_{start+k} (oldest first). The result
    covers indices start .. start+k+steps unless a breakdown truncates it.
    The run is the one-side loop (_run) with every value kept. A value
    larger than MAX_PAYLOAD_BITS on an exact ring raises ConfigError.
    """
    hist = _window(rec, initial)
    lo = start + rec.k
    return Trajectory(level, start, rec.module, hist, _run(rec, (), True, lo, lo + steps, hist))


def _propagated(below: Breakdown | None) -> Breakdown | None:
    return None if below is None else Breakdown(below.index, f"propagated: {below.reason}")


def transport(chain: FactorizationChain, initial) -> list[list[list]]:
    """Initial windows for every chain level, as payload lists.

    Level 0 is the given x window (indices 0..k). Level l (1-based) drops the
    first entry: w_i = prev_i - alpha_l(i-1) * prev_{i-1} for i = l..k, so the
    level-l window covers indices l..k.
    """
    return _split(chain, _window(chain.base, initial))[3][::-1]


class ChainRun:
    """All level trajectories from one chain simulation.

    levels[0] is the reconstructed top level (named like the direct variable
    but produced through the chain); levels[l] for l >= 1 are the factor
    levels. Breakdown anywhere truncates everything above it.
    """

    __slots__ = ("trajectories",)

    def __init__(self, trajectories: list[Trajectory]):
        self.trajectories = trajectories

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
    level above the factor, as _loop takes them; ``names`` and
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


def _emit_levels(e: gm.Emitter, levels, lags, under: list[str]) -> list[str]:
    """Emit step n of every level, from the deepest up, onto the value
    ``under`` (locals) of the level below at n+1; returns the top level's
    value at n+1.

    Level l's value at n+1 is the value under it at n+1 plus
    c_1(n)*v_n + c_2(n)*v_{n-1} + ..., summed in that order as one
    expression, where v is level l itself and levels[l] lists the periodic
    payload tuples c_1, c_2, ... (read under the tag L<l>, as _loop stores
    them); lags[l][j][c] is the local of component c of level l's value j
    steps back, and the new value becomes the newest lag as the others
    shift back. Values are reduced (mod m, or to lowest terms) only where a
    value is stored.
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


# The reason _loop gives for a value past MAX_PAYLOAD_BITS, which _run turns
# into ConfigError.
_OVERSIZE = object()


def _loop(sides, levels, keep: bool, lo: int, hi: int, rel_tol, *windows):
    """The engine's one step loop, generated once per shape, run on the
    payload windows of ``sides`` and then of ``levels`` (deepest first, as
    _split gives them) for n = lo .. hi-1.

    ``sides`` is one recurrence, or the direct recurrence and the deepest
    factor of a split. Each n steps every side, then rebuilds the levels
    above the last side (_emit_levels); with two sides it compares the top
    level's value at n+1 with the direct one (exact rings with ==, which is
    every exact ring's equality; float rings relative to ``rel_tol``). With
    ``keep``, every new value is appended to its window, so the windows grow
    into trajectories; else only the latest values live, in locals.

    Returns (n, reason, first, max_dev, *side windows). The loop stops at a
    step n where a side breaks down (reason is the breakdown's text), gives
    a value that is not finite or one past MAX_PAYLOAD_BITS (reason
    _OVERSIZE); the windows are then those before step n. With two sides
    on an exact ring it also stops after the first divergence (n and first
    are one past it, the windows after it). n = hi, reason None when it ran
    through.

    The sides read their values under the tags X and F, as their windows
    are named, and their maps under G, or G and H when they are two maps.
    """
    ring, dim = sides[0].ring, sides[0].module.dim
    shared = sides[-1].g is sides[0].g
    tags = [("X", sides[0], "G"), ("F", sides[-1], "G" if shared else "H")][:len(sides)]
    values = {"FIN": ring._finite, "BIG": ring._oversize, "SIZE": _OVERSIZE, "DEV": _deviation,
              "ZEROS": [ring.zero] * dim, "BREAKS": (DivisionByNonUnit, TanhUnsupported)}
    for l, coeffs in enumerate(levels):
        for j, c in enumerate(coeffs):
            gm.seq_values(values, f"L{l}", j, c)
    for tag, r, gtag in tags:
        values.update(r.values(tag, gtag))
    # each window's list, and the number of its latest values the loop reads
    params = [tag for tag, _, _ in tags] + [f"O{l}" for l in range(len(levels))]
    sizes = [r.order for _, r, _ in tags] + [len(coeffs) for coeffs in levels]

    def emit(e):
        # lags[w][i][c]: the local of component c of window w's value i steps back
        lags = [[[f"{param.lower()}_{i}_{c}" for c in range(dim)] for i in range(size)]
                for param, size in zip(params, sizes)]
        for param, rows in zip(params, lags):
            for i, row in enumerate(rows):
                e.unpack(row, f"{param}[{-1 - i}]")
        names = lags[:len(tags)]
        appends = [e.let(f"{param}.append") for param in params] if keep else []
        state = ", ".join("[" + ", ".join(f"[{', '.join(row)}]" for row in reversed(rows)) + "]"
                          for rows in names)
        stop = "return n, {}, first, dev, " + state
        e.line(f"first, dev = None, {'None' if ring.exact else '0.0'}")
        e.block("try:")
        e.block("for n in range(lo, hi):")
        news = []
        for tag, r, gtag in tags:
            new = []
            for out in r.emit_periodic_step(e, tag.lower() + "_{}_{}", tag, gtag):
                out = e.reduced(out)
                new.append(out if out.isidentifier() else e.let(out))
            if ring._finite is not None:
                e.line(f"if {' or '.join(f'not FIN({v})' for v in new)}: "
                       + stop.format(repr("value is not finite")))
            if ring._oversize is not None:
                e.line(f"if {' or '.join(f'BIG({v})' for v in new)}: {stop.format('SIZE')}")
            news.append(new)
        for rows, new in zip(names, news):
            for j, v in enumerate(new):
                col = [row[j] for row in rows]
                e.line(f"{', '.join(col)} = {', '.join([v, *col[:-1]])}")
        top, direct = _emit_levels(e, levels, lags[len(tags):], news[-1]), news[0]
        for append, rows in zip(appends, lags):
            e.line(f"{append}([{', '.join(rows[0])}])")
        if len(tags) == 2 and ring.exact:
            e.line(f"if {' or '.join(f'{a} != {b}' for a, b in zip(direct, top))}: "
                   f"return n + 1, None, n + 1, dev, {state}")
        elif len(tags) == 2:
            a, b = e.let(f"[{', '.join(direct)}]"), e.let(f"[{', '.join(top)}]")
            d = e.let(f"DEV({a}, {b})")
            e.line(f"dev = max(dev, {d})")
            e.line(f"if first is None and {d} > RT * max(DEV({a}, ZEROS), DEV({b}, ZEROS), "
                   f"1.0): first = n + 1")
        e.end()
        e.end()
        e.block("except BREAKS as exc:")
        e.line(stop.format("str(exc)"))
        e.end()
        return ", ".join(["lo, hi, RT", *params]), f"hi, None, first, dev, {state}"
    key = ("loop", dim, tuple(r.shape for r in sides), shared, keep)
    return gm.generated(ring, key, values, emit, lo, hi, rel_tol, *windows)


def _run(rec: Recurrence, levels, keep: bool, lo: int, hi: int, *windows) -> Breakdown | None:
    """Step ``rec`` alone from its window for n = lo .. hi-1, rebuilding
    ``levels`` above it (_loop); returns the breakdown that stops the run,
    if any. A value larger than MAX_PAYLOAD_BITS raises ConfigError."""
    n, reason, *_ = _loop((rec,), levels, keep, lo, hi, None, *windows)
    if reason is _OVERSIZE:
        raise ConfigError(f"value at index {n + 1} exceeds the size limit of "
                          f"{MAX_PAYLOAD_BITS} bits per numerator or denominator")
    return None if reason is None else Breakdown(n + 1, reason)


def simulate_chain(factorization, initial, steps: int) -> ChainRun:
    """Run a chain or the alsp substitution split: the deepest factor and
    the rebuild of every level above it, in one pass of _run that keeps
    every value.

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
    below = _run(factor, levels, True, k, k + steps, *windows)
    trajs = []
    for name, start, window in zip(names, starts, windows):
        trajs.append(Trajectory(name, start, module, window, below))
        below = _propagated(below)
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


class EquivalenceReport(namedtuple(
        "EquivalenceReport", "equal compared first_divergence max_deviation direct_breakdown "
                             "chain_breakdown breakdowns_aligned capped notes")):
    """Pointwise comparison of the direct run against the chain run.

    compared is the number of indices compared; max_deviation is set on float
    rings only."""

    __slots__ = ()

    def __new__(cls, equal: bool, compared: int, first_divergence: int | None,
                max_deviation: float | None, direct_breakdown: Breakdown | None,
                chain_breakdown: Breakdown | None, breakdowns_aligned: bool,
                capped: bool = False, notes: list[str] | None = None):
        return super().__new__(cls, equal, compared, first_divergence, max_deviation,
                               direct_breakdown, chain_breakdown, breakdowns_aligned, capped,
                               [] if notes is None else notes)

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


def verify_equivalence(rec: Recurrence, chain, initial, steps: int,
                       rel_tol: float | None = None) -> EquivalenceReport:
    """Run both forms in one pass and compare the top level pointwise.

    Exact rings compare with ring equality; float rings use a relative
    tolerance (default 1e-9) and cap the comparison at FLOAT_COMPARE_CAP
    steps. Breakdowns on the two sides are considered aligned when their
    indices differ by at most k (a non-unit reaches the two forms through
    windows of that width).

    The pass is _loop on both sides. The initial windows are not compared:
    both forms start from the same payloads. When the loop stops early,
    each side runs on alone from its window to find its breakdown and end
    (_run, keeping no value); the direct side goes first, so its size-limit
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
    n, _, first_div, max_dev, direct, window = _loop((rec, factor), levels, False,
                                                     lo, hi, rel_tol, direct, *windows)
    db = cb = None
    if n < hi:
        db = _run(rec, (), False, n, hi, direct)
        cb = _run(factor, (), False, n, hi, window)
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
