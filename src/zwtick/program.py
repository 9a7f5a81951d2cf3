"""A term's compiled superoperator steps, and the netlist evaluator that runs them.

A `Program` is a term's `flatten` list with the one list of doubled steps
compiled from it, each step its table or segment, its masks and the
coefficient it binds.  `compile(flat, width, after)` makes one, and is the
only code that analyses it: it finds each step's dead-pattern masks and
puts each segment in the list in place of its steps.  `run(program, ops)`
applies the steps to the upper triangle of a Hermitian operator over the
live wires, and only applies them.  `program_of` gives a diagram's
program: the one a rebuilt normal form keeps, else `compile` of its
`flatten` list.  A tick-free term's pure matrix needs no program:
`sweep(flat, ops)` applies its pure steps as `_netlist` gives them.
`semantics` reads every pure and superoperator result through these.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .diagram import Cap, Cup, Diagram, Empty, Fswap, Generator, Id, Swap, Tick, WSpider, ZSpider, flatten
from .matrix import Matrix, SemanticsError
from .scalar import MINUS_ONE, ONE, ZERO, Scalar


def _gen_matrix(g: Diagram) -> Matrix:
    # A plain wire, cup and cap are Z(1) spiders with their legs, and the
    # unit is Z(0) 0 -> 0: rule (id) and the lemmas z-node-bend-up/-down.
    if g is Id or g is Cup or g is Cap or g is Empty:
        g = ZSpider(ZERO if g is Empty else ONE, g.n_in, g.n_out)
    if isinstance(g, ZSpider):
        # |0..0><0..0| + r|1..1><1..1|, one entry 1 + r with no legs.
        rows, cols = 1 << g.m, 1 << g.n
        entries = {(0, 0): ONE, (rows - 1, cols - 1): g.r} if g.n + g.m else {(0, 0): ONE + g.r}
        return Matrix.from_entries(rows, cols, {k: v for k, v in entries.items() if not v.is_zero()})
    if isinstance(g, WSpider):
        rows, cols = 1 << g.m, 1 << g.n
        entries = {}
        for i in range(g.n):
            entries[(0, 1 << (g.n - 1 - i))] = ONE
        for j in range(g.m):
            entries[(1 << (g.m - 1 - j), 0)] = ONE
        return Matrix.from_entries(rows, cols, entries)
    if g is Swap or g is Fswap:
        # The fermionic swap differs from the swap only by the sign at |11>.
        last = MINUS_ONE if g is Fswap else ONE
        return Matrix.from_entries(4, 4, {(0, 0): ONE, (2, 1): ONE, (1, 2): ONE, (3, 3): last})
    if g is Tick:
        raise SemanticsError("pure interpretation undefined for ticked diagram")
    raise TypeError(f"not a generator: {g!r}")


# -- the netlist evaluator -----------------------------------------------
#
# A term is flattened into steps in application order, and each step acts on
# a sparse operator {(x, y): nonzero scalar} over the live wires, touching
# only the bits of its own wires.  Wire k of w live wires is bit w-1-k of a
# basis index, so a step is placed by `lo`, the number of live wires below
# its inputs.  Pure, y is the column index of the input and only x is acted
# on.  Doubled, x is the ket index and y the bra index: a generator G acts as
# rho -> G rho G^dagger and the tick exchanges its bit between x and y.  Both
# map Hermitian operators to Hermitian ones, so the doubled operator is kept
# as its upper triangle x <= y alone; the entry at (y, x) is the conjugate of
# the one at (x, y).  `apply_superop` splits a non-Hermitian input into two
# Hermitian ones and runs each.
#
# Every step is of one kind: a run of generators, then a relabelling of the
# bits, which is one exchange of bits between x and y followed by one bit
# permutation.  Swaps and ticks only move bits, so each run of them is the
# relabelling of the step just before it, written as that step writes its
# entries, with no pass of its own.  A run with no step before it relabels a
# step whose run is `Empty`, the 0 -> 0 unit.
#
# A step is its `_Table`, kept in the table store `_table` under the step's
# placement, its relabelling, and its run.  A run that is one Z spider with
# legs and r != 0 enters the key by its shape (n, m) alone: its support is
# the same for every such r, and the step binds r when it is applied: each
# doubled branch names which of 1, r, conj(r) and r conj(r) it carries, each
# of them is formed the first time a branch names it, and each entry is
# multiplied by each one its branches name, once.  Any other run enters by
# its generators, compared by value.  A bit permutation P commutes with the
# exchange, P(r ^ ((r ^ s) & E)) = P(r) ^ ((P(r) ^ P(s)) & P(E)), so a table
# keeps its output bits, and the doubled branches of each input pattern,
# already relabelled, and every later evaluation of a step with the same key
# reuses them.
#
# Doubled, `compile` makes one backward pass over the steps
# (`_dead_patterns`), which finds the (ket bit, bra bit) patterns each wire
# can no longer carry in an entry that reaches a nonzero result, and each
# step drops the branches that land on such a pattern.  The pass reads only
# which entries of each run are nonzero, never their values, so a dropped
# branch contributes exactly 0.  It keeps constraints as groups of at most
# `_GROUP_WIRES` wires, each with its allowed joint patterns, because a
# per-wire view loses what a plug such as cup . (tick (x) (w 1 1)) .
# (z 1 1 2) says: its top wire carries ket != bra.  A step's transfer undoes
# the relabelling, then pulls each group on the run's outputs back through
# the run's doubled support, one walk for all of them: each gives a group
# over the run's inputs and its own other wires, and is dropped when that
# spans more than `_GROUP_WIRES`.  Groups on the same wires meet.  A run
# with a zero column (a cup, (w 2 1), an effect) starts a group over its
# inputs; a run with every column nonzero and no constrained output only
# moves the groups, so a term with no zero column has no dead pattern.  The
# pass starts from the groups after the last step: none for a whole term,
# or those a caller knows hold where the program is continued.  The masks a
# step tests are the groups after it, seen one wire at a time, and it tests
# only the bits its run writes.  A step's transfer is kept per constraint in
# its table, so the steps of one shape share it whatever coefficient they
# bind.  When some constraint allows no pattern at all, the result is 0,
# the program has no masks, and no step runs.
#
# Doubled, a bound state (a Z spider 0 -> k, r != 0, as a normal form spends
# one per entry) and the steps after it up to the next bound state, or the
# next bound step whose r is not 1, make a segment, `_Segment`, when the
# live operator at its start spans at most `_SEGMENT_WIRES` wires.  A bound
# step that binds 1 has all four weights 1, so a segment's branches take
# their weight index from its first step alone; a normal form's plug, whose
# (z 1 1 2) is such a step, runs inside its last term's segment.  A segment
# maps a whole (x, y) entry to the branches the steps give it one after the
# other, so it is one pass over the live operator instead of one per step;
# it is applied as a bound step with `lo` 0.  It is kept in its own store,
# `_segment`, under its start width and its steps' (table, masks): a segment
# that holds a later bound step is only built where that step binds 1, so
# the key needs no coefficient.  `compile` puts it in the program in place
# of those steps.  A segment that ends at the width it starts at carries
# most entries through unchanged: a normal-form term's node fires only on
# the entry whose accumulators are all 0, and on any other the W merges
# annihilate a second firing.  Such a segment notes each entry whose one
# branch is itself with weight 1, and is applied in place: only the other
# entries leave the live operator, and their branches are added back into
# it, so a term costs about the entries it changes.
#
# A diagram `normalform.nf_to_diagram` returns keeps its program: the
# programs of its kets and of its node positions, laid end to end.  Each
# position opens with its node, a 0 -> k state, which no step before it
# takes into its run, and each is compiled from the groups that hold
# after it in any form, so that program is `compile` of its `flatten` list,
# masks and segments included.

#: Most wires a constraint group of the dead-pattern pass spans.
_GROUP_WIRES = 3

#: Most steps the table store holds.  A rule grid of `check_soundness` uses
#: about 170 distinct keys, and 20 cycles of the benchmark's normal-form
#: round trips about 160, since their Z nodes share a table per shape.
_STORE_SIZE = 2048

#: Most wires the live operator spans where a segment starts.  A segment
#: keeps the branches of each (x, y) it meets, up to 4^w patterns at width
#: w: a 4-qubit normal form's n + 1 = 5 accumulator wires are the widest.
_SEGMENT_WIRES = 5

#: Most segments (and keys met once) the segment store holds: a dense
#: 4-qubit normal form has 136 entries, twice that unreduced.  Its hits
#: come from terms compiled afresh.  Over two warm benchmark cycles (seed
#: 7), `certify`, whose rule instances are compiled anew each cycle, hits
#: it 536 times and misses none.  `nf_roundtrip` never hits it: each
#: position's program holds its segments through `_term_wiring`, and it
#: misses only on positions compiled for the first time.  `verdicts` makes
#: no segment.
_SEGMENT_STORE = 512


class Program(NamedTuple):
    """A term's compiled doubled steps, in the order they are applied.

    `flat` is the `flatten` list they are compiled from.  Each step is
    (table, masks, coefficient): its `_Table` or `_Segment`, its
    dead-pattern masks (None for none, and for a segment, whose steps keep
    their own), and the coefficient it binds or None.  `steps` is None
    when the result is 0.
    """

    flat: list
    steps: "list[tuple] | None"


def compile(flat: list[tuple[Generator, int]], width: int = 0, after: tuple = ()) -> Program:
    """The doubled program of a `flatten` list on `width` input wires.

    `_dead_patterns` finds each step's masks, starting from the groups
    `after` the last step (see `_transfer`): none for a whole term, or
    groups that hold wherever the program is continued.  Then one forward
    pass appends the steps: each bound state step at which the live
    operator spans at most `_SEGMENT_WIRES` wires, with the steps after it
    up to the next bound state or bound step whose coefficient is not 1,
    goes in as its `_Segment`, and every other step as it is.
    """
    tables, coefficients = _netlist(flat, True)
    dead = _dead_patterns(tables, after)
    steps, i = [], 0
    while dead is not None and i < len(tables):
        table, masks, j = tables[i], dead[i], i + 1
        if table.bound and not table.n and width <= _SEGMENT_WIRES:
            while j < len(tables) and not (tables[j].bound and (not tables[j].n or coefficients[j] != ONE)):
                j += 1
            table, masks = _segment(width, tuple(zip(tables[i:j], dead[i:j]))), None
        steps.append((table, masks, coefficients[i]))
        width += table.m - table.n
        i = j
    return Program(flat, None if dead is None else steps)


def program_of(d: Diagram) -> Program:
    """The program d keeps, else `compile` of its `flatten` list on its inputs."""
    return compile(flatten(d), d.n_in) if d._kept is None else d._kept


def _netlist(flat: list[tuple[Generator, int]], doubled: bool) -> "tuple[list[_Table], list[Scalar | None]]":
    """The steps of a flattened term: each one's `_Table`, and the coefficient it binds or None.

    `flat` is `flatten(d)`, which drops plain wires and units.  Each run of
    consecutive swaps and ticks is the relabelling of the step just before
    it.  Doubled, a generator whose inputs are exactly the outputs of the
    step just before it is composed into that step, unless that step
    relabels, so a run of generators on the same wires is one step.  A step
    collects its run's generators until the end, when it gets its table
    from the store, built only if no evaluation has stored a step with the
    same key.  A run that is one Z spider with legs and r != 0 is keyed by
    its shape (n, m) and binds r; any other run is keyed by its generators
    and binds None.
    """
    steps: list[list] = []  # [lo, run, exchange, moves]
    routing: dict[int, int] = {}  # pending swaps: output bit <- input bit
    exchange = 0  # pending ticks: input bits exchanged between x and y
    for node, lo in flat:
        if node is Swap:
            routing[lo], routing[lo + 1] = routing.get(lo + 1, lo + 1), routing.get(lo, lo)
            continue
        if node is Tick:
            if not doubled:
                raise SemanticsError("pure interpretation undefined for ticked diagram")
            # Exchanging output bit lo after the swaps exchanges the input bit routed there.
            exchange ^= 1 << routing.get(lo, lo)
            continue
        if routing or exchange:
            _relabel(steps, routing, exchange)
            routing, exchange = {}, 0
        last = steps[-1] if steps else None
        if doubled and last and last[0] == lo and last[1][-1].n_out == node.n_in and not (last[2] or last[3]):
            # The step just before outputs exactly these inputs: extend its run.
            last[1].append(node)
        else:
            steps.append([lo, [node], 0, ()])
    if routing or exchange:
        _relabel(steps, routing, exchange)
    tables, coefficients = [], []
    for lo, run, exchange, moves in steps:
        g = run[0]
        r = g.r if len(run) == 1 and isinstance(g, ZSpider) and g.n + g.m and not g.r.is_zero() else None
        tables.append(_table(tuple(run) if r is None else (g.n, g.m), lo, exchange, moves))
        coefficients.append(r)
    return tables, coefficients


def _relabel(steps: list[list], routing: dict[int, int], exchange: int) -> None:
    """Make swaps `routing` and ticks `exchange` the relabelling of the last step.

    With no step before them, they relabel a new step whose run is `Empty`.
    """
    moves = tuple(sorted((src, dst) for dst, src in routing.items() if src != dst))
    if not (moves or exchange):
        return
    if not steps:
        steps.append([0, [Empty]])
    steps[-1][2:] = exchange, moves


@lru_cache(maxsize=_STORE_SIZE)
def _table(run: "tuple[Generator, ...] | tuple[int, int]", lo: int, exchange: int, moves: tuple) -> _Table:
    """The shared table of a step; evicts the least recently used when full."""
    return _Table(run, lo, exchange, moves)


def _run_matrix(run: tuple[Generator, ...]) -> Matrix:
    """The composed matrix of a run of generators in application order."""
    matrix = _gen_matrix(run[0])
    for g in run[1:]:
        matrix = _gen_matrix(g).matmul(matrix)
    return matrix


def _permute(i: int, moved: int, moves: tuple) -> int:
    """Send bit src of i to bit dst for each (src, dst) in `moves`; `moved` has the dst bits set."""
    f = i & moved
    r = i ^ f
    for src, dst in moves:
        if (f >> src) & 1:
            r |= 1 << dst
    return r


class _Table:
    """A step: a run of generators on bits lo..lo+n-1, which become m bits,
    then an exchange of bits between x and y and a bit permutation.

    `run` is the run's generators, or the shape (n, m) of a run that is one
    Z spider with legs and r != 0; such a table is `bound`, and each step
    that uses it binds its own r.  `moves` holds the (src, dst) pairs of
    the permutation and `moved` its dst bits; `exchange` is the exchanged
    bits after the permutation.  `cols` maps input bits c to [(output bits,
    entry)] over the run's nonzero entries, its output bits placed at `lo`
    and permuted, and `outs` is those output bits; `full` says every column
    is nonzero.  A bound table's entries are `ONE` at |0..0><0..0| and None
    at |1..1><1..1|, where the step's r goes.  `live` caches, for each set of
    dead-pattern masks (None for none), the doubled branches of each (ket,
    bra) input pattern that survive them, fully relabelled, as (r, s,
    weight index, constant).  The weight index is 0, 1, 2 or 3 for 1, r,
    conj(r) or r conj(r): a bound branch's says which sides carry the
    step's r, and its constant is 1; an unbound branch's is 0, and its
    constant is its ket-side entry times the conjugate of its bra-side
    one.  A constant equal to 1 is the shared `ONE`.  Inside a segment a
    bound table binds 1 unless it is the first step, and the segment
    reads its branches' weight indices as 0.
    `transfers` caches the dead-pattern pass through the step, (masks,
    groups before) for each groups after it; it reads only the run's
    support.  A table is shared by every evaluation, so nothing in it is
    changed once built; `live`, each dict in it, and `transfers` only gain
    keys.  Concurrent evaluations need no lock: `setdefault` gives two that
    add one set of masks at once the same dict, two that fill one key at
    once store equal values, and two that build one step at once each get
    a correct table.  A table carries no entry in place (`carried` is
    None; see `_Segment`).
    """

    __slots__ = ("run", "lo", "n", "m", "bound", "exchange", "moved", "moves", "cols", "outs", "full", "live", "transfers")
    carried = None

    def __init__(self, run: "tuple[Generator, ...] | tuple[int, int]", lo: int, exchange: int, moves: tuple):
        self.run, self.lo, self.bound = run, lo, isinstance(run[0], int)
        if self.bound:
            self.n, self.m = run
            entries = {(0, 0): ONE, ((1 << self.m) - 1, (1 << self.n) - 1): None}
        else:
            self.n, self.m = run[0].n_in, run[-1].n_out
            entries = _run_matrix(run).entries
        self.moved = moved = sum(1 << dst for _, dst in moves)
        self.moves = moves
        self.exchange = _permute(exchange, moved, moves)
        self.cols: dict[int, list[tuple[int, Scalar | None]]] = {}
        for (row, col), v in entries.items():
            self.cols.setdefault(col, []).append((_permute(row << lo, moved, moves), v))
        self.outs = _permute(((1 << self.m) - 1) << lo, moved, moves)
        self.full = len(self.cols) == 1 << self.n
        self.live: dict[tuple | None, dict[int, list[tuple[int, int, Scalar | int]]]] = {}
        self.transfers: dict[tuple, tuple] = {}

    def branches(self, cx: int, cy: int, dead: "tuple[int, int, int, int] | None") -> "list[tuple[int, int, Scalar | int]] | tuple[()]":
        """Doubled branches of ket bits cx and bra bits cy: the run on x, its conjugate on y.

        A branch whose output bits carry a pattern that the masks `dead`
        mark is left out before its entry is multiplied.
        """
        xs, ys = self.cols.get(cx), self.cols.get(cy)
        if xs is None or ys is None:  # a missing column is zero; one shared empty tuple
            return ()
        d00 = d11 = differ = 0
        if dead:
            d00, d01, d10, d11 = dead
            d00, differ = d00 & self.outs, d01 & d10
        exchange, bound = self.exchange, self.bound
        out = []
        for rx, a in xs:
            for ry, b in ys:
                e = (rx ^ ry) & exchange
                r, s = rx ^ e, ry ^ e
                if (r ^ s) & differ or r & s & d11 or ~(r | s) & d00:
                    continue
                if bound:  # which sides carry the step's r, and the constant 1
                    out.append((r, s, (a is None) + 2 * (b is None), ONE))
                else:
                    c = a * b.conj()
                    out.append((r, s, 0, ONE if c == ONE else c))
        return out


@lru_cache(maxsize=_SEGMENT_STORE)
def _segment(width: int, steps: tuple) -> _Segment:
    """The shared segment of a bound state step and the steps after it, each (table, masks); evicts the least recently used."""
    return _Segment(width, steps)


class _Segment:
    """Steps applied as one: a bound state step and the steps after it, any bound one binding 1.

    `steps` holds each step's (table, masks), as `compile` passes them to
    `_segment`; the live operator spans `n` wires before them and `m`
    after.  A segment reads as a bound table with `lo` 0 and no
    relabelling, so `_apply_step` applies it: an entry's bits are all its
    pattern.  `live[None]` caches the branches of each (x, y) it meets,
    (r, s, weight index, constant) as a table's, built from the tables'
    own cached branches (`_Table.live`): the weight index is the first
    step's, since a later bound step binds 1 and each of its weights is 1,
    and the constant the product of the later steps' entries, summed over
    the paths to (r, s).  `compile` gets it from the store, `_segment`,
    and puts it in a program in place of its steps, so it runs from the
    first time its key is met; its branches are built as its entries are
    met.

    A segment with n == m keeps `carried`, the set of the (x, y) whose
    branches are the one (x, y, 0, ONE): the entry itself, weight 1.  It is
    filled as their branches are built, and `_apply_step` leaves those
    entries where they are.  A segment that changes width has `carried`
    None.  As with a table, nothing stored is changed once built; `live`,
    its dict and `carried` only gain keys, and two evaluations that add one
    key at once add the same.
    """

    __slots__ = ("steps", "n", "m", "live", "carried")
    lo = exchange = moved = 0
    moves = ()
    bound = True

    def __init__(self, width: int, steps: "tuple[tuple[_Table, tuple | None], ...]"):
        self.steps = steps
        self.n, self.m = width, width + sum(t.m - t.n for t, _ in steps)
        self.live: dict[None, dict[int, list]] = {}
        self.carried: "set[tuple[int, int]] | None" = set() if self.n == self.m else None

    def branches(self, x: int, y: int, dead: None) -> "list[tuple[int, int, int, Scalar]]":
        """The doubled branches of the entry at (x, y): each step's branches, one step after another.

        `dead` is None: each step drops the branches its own masks mark.
        """
        paths = {(x, y, 0): ONE}  # (ket bits, bra bits, weight index) -> constant
        for later, (table, masks) in enumerate(self.steps):
            lo, n, exchange, moved, moves = table.lo, table.n, table.exchange, table.moved, table.moves
            nmask, lomask, hi, new_hi = (1 << n) - 1, (1 << lo) - 1, lo + n, lo + table.m
            live = table.live.setdefault(masks, {})
            after: dict = {}
            for (ket, bra, k), c in paths.items():
                cx, cy = (ket >> lo) & nmask, (bra >> lo) & nmask
                pattern = (cx << n) | cy
                branches = live.get(pattern)
                if branches is None:
                    branches = live[pattern] = table.branches(cx, cy, masks)
                # The entry's own bits, relabelled as `_apply_step` does.
                bx = ((ket >> hi) << new_hi) | (ket & lomask)
                by = ((bra >> hi) << new_hi) | (bra & lomask)
                if moved:
                    bx, by = _permute(bx, moved, moves), _permute(by, moved, moves)
                e = (bx ^ by) & exchange
                bx, by = bx ^ e, by ^ e
                # A later bound step binds 1, all four of its weights 1: a path's
                # weight index is its branch's at the first step, and kept after.
                for rx, ry, w, b in branches:
                    key, v = (bx | rx, by | ry, k if later else w), c if b is ONE else c * b
                    after[key] = after[key] + v if key in after else v
            paths = {key: v for key, v in after.items() if not v.is_zero()}
        out = [(r, s, k, ONE if c == ONE else c) for (r, s, k), c in paths.items()]
        if self.carried is not None and out == [(x, y, 0, ONE)]:
            self.carried.add((x, y))
        return out


def _dead_patterns(tables: list[_Table], after: tuple = ()) -> "list[tuple[int, int, int, int] | None] | None":
    """The dead-pattern masks after each doubled step, or None when the result is 0.

    A step's masks (d00, d01, d10, d11) have bit b set when, after the
    step, wire b carries ket bit and bra bit 0 0, 0 1, 1 0 or 1 1 in no
    entry that reaches a nonzero result; a step after which nothing is
    dead has None.  The pass walks the steps backward, carrying the groups
    after each step, from the groups `after` the last one: none at the
    result of a whole term, where nothing is dead.  Only `compile` runs it.
    """
    dead: list = [None] * len(tables)
    for i in range(len(tables) - 1, -1, -1):
        table = tables[i]
        if not after and table.full:
            continue
        known = table.transfers.get(after)
        if known is None:
            known = table.transfers[after] = (_masks(after), _transfer(table, after))
        dead[i], after = known  # the groups before step i are those after step i - 1
        if after is None:
            return None
    return dead


def _masks(groups: tuple) -> "tuple[int, int, int, int] | None":
    """(d00, d01, d10, d11): the wires of `groups` on which each (ket, bra) pattern is dead."""
    d00 = d01 = d10 = d11 = 0
    for wires, allowed in groups:
        s00 = s01 = s10 = s11 = 0  # the bits j on which some allowed pattern has each
        for x, y in allowed:
            s00, s01, s10, s11 = s00 | ~x & ~y, s01 | ~x & y, s10 | x & ~y, s11 | x & y
        for j, wire in enumerate(wires):
            b = 1 << wire
            d00 |= 0 if s00 >> j & 1 else b
            d01 |= 0 if s01 >> j & 1 else b
            d10 |= 0 if s10 >> j & 1 else b
            d11 |= 0 if s11 >> j & 1 else b
    return (d00, d01, d10, d11) if d00 | d01 | d10 | d11 else None


def _transfer(table: _Table, groups: tuple) -> "tuple | None":
    """The groups before a step, from `groups` after it; None when no pattern is live.

    A group is (wires, allowed): a tuple of wires, given by their bits,
    and the frozenset of (ket bits, bra bits) that an entry may carry on
    them, bit j standing for wires[j].  A group away from the run's
    outputs keeps its patterns and only has its wires moved back; one on
    them is pulled back through the run (`_pull`).  Groups on the same
    wires meet, and a group that allows every pattern, or spans more than
    `_GROUP_WIRES`, is dropped.
    """
    outs, exchange, lo, shift = table.outs, table.exchange, table.lo, table.n - table.m
    sources = {dst: src for src, dst in table.moves}

    def before(wire: int) -> int:
        wire = sources.get(wire, wire)
        return wire if wire < lo else wire + shift

    met: dict = {}  # wires -> allowed
    touching = []
    for wires, allowed in groups:
        swapped = touches = 0
        for j, wire in enumerate(wires):
            swapped |= (exchange >> wire & 1) << j
            touches |= outs >> wire & 1
        if swapped:  # undo the exchange, its own inverse
            allowed = frozenset((x ^ ((x ^ y) & swapped), y ^ ((x ^ y) & swapped)) for x, y in allowed)
        if touches:
            touching.append((wires, allowed))
        else:
            met[tuple(map(before, wires))] = allowed
    for wires, allowed in _pull(table, touching, before):
        allowed &= met.get(wires, allowed)
        if not allowed:
            return None
        met[wires] = allowed
    return tuple(sorted(g for g in met.items() if len(g[0]) <= _GROUP_WIRES and len(g[1]) < 4 ** len(g[0])))


def _pull(table: _Table, groups: list, before) -> list:
    """The groups in `groups`, which touch the run's outputs, each pulled back through the run on its own.

    A group becomes one over the run's inputs and its own wires off the
    outputs; one that would span more than `_GROUP_WIRES` is dropped, which
    only prunes less.  One walk over the run's doubled support, from input
    pattern (cx, cy) to (rx, ry), serves the rest: a branch is live when
    each of them allows (rx, ry) on its wires among the outputs, and then
    (cx, cy) joins each one's result together with each pattern that group
    allows on its other wires.  A run with a zero column also gives a group
    over its inputs: the pairs of its nonzero columns.
    """
    outs, n, cols = table.outs, table.n, table.cols
    inputs = tuple(range(table.lo, table.lo + n))  # input bit j of the run is wire lo + j
    pulled = [] if table.full else [(inputs, {(cx, cy) for cx in cols for cy in cols})]
    lookups = []  # per group: its bits among the outputs, and their patterns -> its other bits, placed
    for group_wires, allowed in groups:
        size = 1 << len(group_wires)
        theirs, rest = [0] * size, [0] * size  # each local pattern's bits, placed
        mask, wires = 0, list(inputs)
        for j, wire in enumerate(group_wires):
            if outs >> wire & 1:
                bit, placed = 1 << wire, theirs
                mask |= bit
            else:
                bit, placed = 1 << len(wires), rest
                wires.append(before(wire))
            for v in range(size):
                if v >> j & 1:
                    placed[v] |= bit
        if len(wires) > _GROUP_WIRES:
            continue
        split: dict = {}
        for x, y in allowed:
            split.setdefault((theirs[x], theirs[y]), []).append((rest[x], rest[y]))
        found: set = set()
        lookups.append((mask, split, found))
        pulled.append((tuple(wires), found))
    if lookups:
        for cx, xs in cols.items():
            for cy, ys in cols.items():
                for rx, _ in xs:
                    for ry, _ in ys:
                        rests = [split.get((rx & mask, ry & mask)) for mask, split, _ in lookups]
                        if all(rests):
                            for rest, (_, _, found) in zip(rests, lookups):
                                found.update((cx | ox, cy | oy) for ox, oy in rest)
    return [(wires, frozenset(found)) for wires, found in pulled]


def _apply_step(ops: dict, doubled: bool, table: "_Table | _Segment", dead: "tuple[int, int, int, int] | None", coefficient: "Scalar | None") -> dict:
    """Apply a step that binds `coefficient` r, or None: on x alone, or doubled on the upper triangle.

    On x alone, a bound table's entry None stands for r.  Doubled, a
    branch (r, s, k, c) adds the entry v times weight k of 1, r, conj(r)
    and r conj(r), times its constant c.  Weight k is formed once per
    application, the first time a branch picks it: r itself, conj(r), or
    r conj(r), which a normal form's segments never pick, as its top
    accumulator never carries ket = bra = 1.  Each v times weight k is
    computed once per entry, when the first of its branches that picks k
    needs it, and shared by the rest.  A weight, an entry or a constant
    equal to 1 is the shared `ONE`, which is never multiplied: an entry
    that is `ONE` takes the weight as it is.  An unbound step's branches
    all pick k = 0, the weight 1.  A segment is applied with `dead` None:
    its masks are its steps'.

    A step writes a new dict, except a segment that keeps its width
    (`carried` not None): it updates `ops` in place and returns it.  Only
    the entries it does not carry are popped and run through the branch
    loop, whose outputs land in `ops` beside the carried entries, and
    clash there as they would in a new dict.

    An output (r, s) joins an entry's own bits, those outside the run, to a
    branch's output bits.  Both the exchange and the bit permutation split
    over those two disjoint sets, and the table holds its branches already
    relabelled, so only each entry's own bits are relabelled here.

    Doubled, the entry v at (x, y), x < y, stands for itself and conj(v) at
    (y, x), whose branches are the conjugates of its own, mirrored.  So a
    branch landing at (r, s) adds v*c there when r < s, its conjugate at
    (s, r) when r > s, and both on the diagonal r == s.  A diagonal entry
    x == y is its own mirror, and its branches come in mirrored pairs, which
    the relabelling keeps mirrored: only those with r <= s are kept.

    A branch is dropped when its output bits carry a pattern that `dead`
    (from `_dead_patterns`) marks; the table builds and keeps only the
    surviving branches of each input pattern under `dead`, one lookup per
    entry.  An entry's own bits are not tested: the step that wrote them
    did, and a wire's live patterns only widen from there on (the input's
    own bits are never tested, which costs pruning, not exactness).  The
    masks are the same under ket <-> bra, so a branch and its mirror are
    dropped together.
    """
    lo, n = table.lo, table.n
    nmask = (1 << n) - 1
    lomask = (1 << lo) - 1
    hi, new_hi = lo + n, lo + table.m
    exchange, moved, moves = table.exchange, table.moved, table.moves
    carried = table.carried
    if carried is None:
        out, entries = {}, ops.items()
    else:  # the carried entries stay in ops, and the others' branches land there
        out, entries = ops, [(key, ops.pop(key)) for key in ops.keys() - carried]
    clashes = []
    if doubled:
        live = table.live.setdefault(dead, {})
        weights = [ONE, None, None, None]  # each formed the first time a branch picks it
        for (x, y), v in entries:
            cx = (x >> lo) & nmask
            cy = (y >> lo) & nmask
            pattern = (cx << n) | cy
            branches = live.get(pattern)
            if branches is None:
                branches = live[pattern] = table.branches(cx, cy, dead)
            if not branches:
                continue
            bx = ((x >> hi) << new_hi) | (x & lomask)
            by = ((y >> hi) << new_hi) | (y & lomask)
            if moved:
                bx, by = _permute(bx, moved, moves), _permute(by, moved, moves)
            if exchange:
                e = (bx ^ by) & exchange
                bx, by = bx ^ e, by ^ e
            diagonal = x == y
            weighted = [v, None, None, None]  # v times each weight, once a branch needs it
            for rx, ry, k, c in branches:
                r, s = bx | rx, by | ry
                if r > s and diagonal:
                    continue
                nv = weighted[k]
                if nv is None:
                    w = weights[k]
                    if w is None:
                        w = coefficient if k == 1 else coefficient.conj() if k == 2 else coefficient * coefficient.conj()
                        w = weights[k] = ONE if w == ONE else w
                    nv = weighted[k] = w if v is ONE else v if w is ONE else v * w
                if c is not ONE:
                    nv = nv * c
                if r > s:
                    key, nv = (s, r), nv.conj()
                else:
                    key = (r, s)
                    if r == s and not diagonal:
                        nv = nv + nv.conj()
                        if nv.is_zero():
                            continue
                if key in out:
                    nv = out[key] + nv
                    clashes.append(key)
                out[key] = nv
    else:
        cols = table.cols
        for (x, y), v in entries:
            branches = cols.get((x >> lo) & nmask)
            if branches is None:
                continue
            bx = ((x >> hi) << new_hi) | (x & lomask)
            if moved:
                bx = _permute(bx, moved, moves)
            for rx, c in branches:
                key = (bx | rx, y)
                nv = v if c is ONE else v * (c or coefficient)
                if key in out:
                    nv = out[key] + nv
                    clashes.append(key)
                out[key] = nv
    for key in clashes:
        if key in out and out[key].is_zero():
            del out[key]
    return out


def sweep(flat: list[tuple[Generator, int]], ops: dict) -> dict:
    """Apply the pure steps of a tick-free `flatten` list to the sparse matrix `ops` on its input wires.

    Each step acts on x alone, as `_netlist` gives it: no mask, no segment
    and no `Program`.  A tick raises `SemanticsError`.
    """
    for table, r in zip(*_netlist(flat, False)):
        ops = _apply_step(ops, False, table, None, r)
    return ops


def run(program: Program, ops: dict) -> dict:
    """Run `program` over the sparse operator `ops` on its input wires.

    `ops` is the upper triangle of a Hermitian operator, and so is the
    result.  Each step is applied with the masks `compile` found for it,
    and a segment as one step; a program whose result is 0 runs no step.  A
    segment that keeps its width is applied in place, so `run` may update
    the dict it is given; pass one that is not read again.
    """
    if program.steps is None:
        return {}
    for table, dead, r in program.steps:
        ops = _apply_step(ops, True, table, dead, r)
    return ops
