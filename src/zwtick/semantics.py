"""Interpretation of diagrams: pure matrices and mixed-state superoperators.

Two semantic levels live here.  A tick-free diagram n -> m denotes a plain
2^m x 2^n matrix over the cyclotomic field (`interp`).  A general diagram,
ticks allowed, denotes a Hermiticity-preserving superoperator on density
operators: each generator G acts as rho -> G rho G^dagger and the tick as a
partial transpose on its wire.  Both levels are computed by one netlist
evaluator: the term is flattened, without recursion, into generators placed
at wire offsets, and each is applied locally to a sparse operator over the
live wires (`interp`, `apply_superop`, `state_operator`, hence `choi`).

The doubling construction is kept as the reference the evaluator is tested
against: `unzip` doubles every wire into a (plain, conjugate) pair, and
`interp_sparse`, a plain fold into matrix and Kronecker products, reads
the doubled pure matrix against the interleaved vectorization, which sends
|x><y| to the basis vector indexed by the bit sequence x1 y1 x2 y2 ...

The same superoperator also has a purely diagrammatic presentation: `hp`
rewrites a diagram n -> m into a pure diagram (n+m) -> (n+m) whose matrix
encodes the superoperator with bra lines bent to the other side; `psi` /
`psi_inv` convert between the doubled form and that bent form.  All routes
agree exactly, which the test-suite checks entry by entry.

Basis conventions: wire 0 is the most significant bit of a basis index; a
matrix row ranges over output bitstrings, a column over input bitstrings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .diagram import (
    Cap,
    Compose,
    Cup,
    Diagram,
    Empty,
    Fswap,
    Generator,
    Id,
    Swap,
    Tensor,
    Tick,
    WSpider,
    ZSpider,
    _ticked_bend_cap,
    bend_cap,
    block_transpose,
    compose_many,
    conjugate_term,
    dagger,
    flatten,
    fold,
    id_n,
    interleave,
    route,
    tensor_many,
    wires,
)
from .scalar import HALF, I, MAX_DIGITS, MINUS_ONE, ONE, ZERO, Scalar, ScalarParseError, _too_long, format_scalar, parse_scalar

class SemanticsError(ValueError):
    pass


#: Results (`interp`, `apply_superop`, `state_operator`) span at most
#: 2^MAX_DENSE_LOG2 cells.  They are stored sparsely, but `.data` and the
#: text form write every cell: a 2^24-cell table is already 128 MB of row
#: pointers before any arithmetic, so wider boundaries are refused up front.
MAX_DENSE_LOG2 = 24


def _check_dense(rows_log2: int, cols_log2: int) -> None:
    if rows_log2 + cols_log2 > MAX_DENSE_LOG2:
        raise SemanticsError(
            f"dense result 2^{rows_log2} x 2^{cols_log2} exceeds 2^{MAX_DENSE_LOG2} entries"
        )


# -- exact matrices ------------------------------------------------------


class Matrix:
    """Exact rectangular matrix, stored as {(row, col): nonzero scalar}.

    `Matrix(rows)` reads a dense table and `.data` writes one out; both are
    the text boundary.  Everything else works on `entries`, which never
    holds a zero.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, data: list[list[Scalar]]):
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        self.entries = {}
        for i, row in enumerate(data):
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")
            for j, v in enumerate(row):
                if not v.is_zero():
                    self.entries[i, j] = v

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: dict) -> "Matrix":
        """Wrap `entries` as is; the caller guarantees it holds no zero."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.entries = rows, cols, entries
        return m

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix.from_entries(rows, cols, {})

    @property
    def data(self) -> list[list[Scalar]]:
        """A fresh dense table of the matrix; writing into it changes nothing."""
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        return self.entries.get(ij, ZERO)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"matmul mismatch: {self.cols} vs {other.rows}")
        by_col: dict[int, list] = {}
        for (i, k), v in self.entries.items():
            by_col.setdefault(k, []).append((i, v))
        acc: dict[tuple[int, int], Scalar] = {}
        for (k, j), w in other.entries.items():
            for i, v in by_col.get(k, ()):
                key = (i, j)
                prod = v * w
                cur = acc.get(key)
                acc[key] = prod if cur is None else cur + prod
        return Matrix.from_entries(
            self.rows, other.cols, {k: v for k, v in acc.items() if not v.is_zero()}
        )

    def kron(self, other: "Matrix") -> "Matrix":
        out: dict[tuple[int, int], Scalar] = {}
        orows, ocols = other.rows, other.cols
        for (i1, j1), v1 in self.entries.items():
            for (i2, j2), v2 in other.entries.items():
                out[(i1 * orows + i2, j1 * ocols + j2)] = v1 * v2
        return Matrix.from_entries(self.rows * orows, self.cols * ocols, out)

    def transpose(self) -> "Matrix":
        return Matrix.from_entries(
            self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def is_hermitian(self) -> bool:
        """Exact test of M = M^dagger: each entry against its mirror."""
        if self.rows != self.cols:
            return False
        entries = self.entries
        for (i, j), u in entries.items():
            v = entries.get((j, i))
            if v is None:
                return False
            # u == conj(v): conj maps (n0, n1, n2, n3) to (n0, -n3, -n2, -n1).
            a, b = u.n, v.n
            if u.d != v.d or a[0] != b[0] or a[1] != -b[3] or a[2] != -b[2] or a[3] != -b[1]:
                return False
        return True

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        t = ZERO
        for (i, j), v in self.entries.items():
            if i == j:
                t = t + v
        return t

    def to_numpy(self):
        """A complex numpy array of the entries, for float output only."""
        import numpy as np

        out = np.zeros((self.rows, self.cols), dtype=complex)
        for (i, j), v in self.entries.items():
            out[i, j] = v.to_complex()
        return out

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


#: The old name of the sparse matrix type.  `bench/tracing.py` patches
#: `SMat.kron` and `SMat.matmul` by name, so the alias stays until it does not.
SMat = Matrix


def _gen_matrix(g: Diagram) -> Matrix:
    # A plain wire, cup and cap are Z(1) spiders with their legs, and the
    # unit is Z(0) 0 -> 0: rule (id) and the lemmas z-node-bend-up/-down.
    if g is Id or g is Cup or g is Cap or g is Empty:
        g = ZSpider(ZERO if g is Empty else ONE, g.n_in, g.n_out)
    if isinstance(g, ZSpider):
        rows, cols = 1 << g.m, 1 << g.n
        entries = {(0, 0): ONE}
        top = (rows - 1, cols - 1)
        entries[top] = entries.get(top, ZERO) + g.r
        return Matrix.from_entries(
            rows, cols, {k: v for k, v in entries.items() if not v.is_zero()}
        )
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


def interp_sparse(d: Diagram) -> Matrix:
    """Reference pure semantics: matrix and Kronecker products of the generators.

    A plain fold over the term, kept as the oracle the netlist evaluator is
    tested against; the library itself evaluates through `interp`.
    """
    # Look the products up at call time, so patching `SMat` reaches them.
    return fold(d, _gen_matrix, lambda a, b: a.matmul(b), lambda a, b: a.kron(b))


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
# doubled branch names which of 1, r, conj(r) and r conj(r) it carries, and
# each entry is multiplied by each one its branches name, once.  Any other
# run enters by its generators, compared by value.  A bit permutation
# P commutes with the exchange, P(r ^ ((r ^ s) & E)) = P(r) ^ ((P(r) ^ P(s))
# & P(E)), so a table keeps its output bits, and the doubled branches of
# each input pattern, already relabelled, and every later evaluation of a
# step with the same key reuses them.
#
# Doubled, one backward pass over the steps (`_dead_patterns`) first finds
# the (ket bit, bra bit) patterns each wire can no longer carry in an entry
# that reaches a nonzero result, and each step drops the branches that land
# on such a pattern.  The pass reads only which entries of each run are
# nonzero, never their values, so a dropped branch contributes exactly 0.
# It keeps constraints as groups of at most `_GROUP_WIRES` wires, each with
# its allowed joint patterns, because a per-wire view loses what a plug
# such as cup . (tick (x) (w 1 1)) . (z 1 1 2) says: its top wire carries
# ket != bra.  A step's transfer undoes the relabelling, then pulls each
# group on the run's outputs back through the run's doubled support, one
# walk for all of them: each gives a group over the run's inputs and its own
# other wires, and is dropped when that spans more than `_GROUP_WIRES`.
# Groups on the same wires meet.  A run with a zero column (a cup, (w 2 1),
# an effect) starts a group over its inputs; a run with every column nonzero
# and no constrained output only moves the groups, so a term with no zero
# column has no dead pattern.  The masks a step tests are the groups after
# it, seen one wire at a time, and it tests only the bits its run writes.
# A step's transfer is kept per constraint in its table, so the steps of
# one shape share it whatever coefficient they bind.  When some constraint
# allows no pattern at all, the result is 0 and no step runs.
#
# Doubled, a bound state (a Z spider 0 -> k, r != 0, as a normal form spends
# one per entry) and the steps after it up to the next bound step make a
# segment, `_Segment`, when the live operator at its start spans at most
# `_SEGMENT_WIRES` wires.  A segment maps a whole (x, y) entry to the
# branches the steps give it one after the other, so it is one pass over
# the live operator instead of one per step; it is applied as a bound step
# with `lo` 0.  It is kept in its own store, `_segment`, under its start
# width, its tables and their masks, and is used only from the second time
# its key is met: the first time, its steps run one by one, so a term met
# once costs only its key.
#
# A diagram `normalform.nf_to_diagram` returns keeps its steps as well
# (`_steps`: the tables and the coefficients `_netlist` gives its `flatten`
# list), so `state_operator` runs them and `_netlist` does not run on it.
# Each term's steps follow from its entry's position and are compiled once
# per position; the steps of the ket and plug layers once per qubit count.
# Their concatenation is `_netlist`'s list because no step of one layer
# extends a step of another, except where the plug's (z 1 1 2) extends the
# top accumulator's last step: at 0 qubits, always, and otherwise when the
# last Z node sits at (0, 0).  Such a form keeps no steps and is flattened,
# which splices its kept `flatten` list: the round trip never reads the
# term tree, which is built only when something else does.

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
#: 4-qubit normal form has 136 entries, twice that unreduced.
_SEGMENT_STORE = 512


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
    one.  A constant equal to 1 is the shared `ONE`.
    `transfers` caches the dead-pattern pass through the step, (masks,
    groups before) for each groups after it; it reads only the run's
    support.  A table is shared by every evaluation, so nothing in it is
    changed once built; `live`, each dict in it, and `transfers` only gain
    keys.  Concurrent evaluations need no lock: `setdefault` gives two that
    add one set of masks at once the same dict, two that fill one key at
    once store equal values, and two that build one step at once each get
    a correct table.
    """

    __slots__ = ("run", "lo", "n", "m", "bound", "exchange", "moved", "moves", "cols", "outs", "full", "live", "transfers")

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
def _segment(width: int, tables: "tuple[_Table, ...]", masks: tuple) -> _Segment:
    """The shared segment of a bound state step and the steps after it; evicts the least recently used."""
    return _Segment(width, tables, masks)


class _Segment:
    """Steps applied as one: a bound state step and the unbound steps after it.

    `steps` pairs each step's table with its dead-pattern masks; the live
    operator spans `n` wires before them and `m` after.  A segment reads as
    a bound table with `lo` 0 and no relabelling, so `_apply_step` applies
    it: an entry's bits are all its pattern.  `live[None]` caches the
    branches of each (x, y) it meets, (r, s, weight index, constant) as a
    table's, built from the tables' own cached branches (`_Table.live`):
    the weight index is the first step's, and the constant the product of
    the later steps' entries, summed over the paths to (r, s).  `met` says
    the key has been met before: until then the steps run one by one.  As
    with a table, nothing stored is changed once built.
    """

    __slots__ = ("steps", "n", "m", "live", "met")
    lo = exchange = moved = 0
    moves = ()
    bound = True

    def __init__(self, width: int, tables: "tuple[_Table, ...]", masks: tuple):
        self.steps = tuple(zip(tables, masks))
        self.n, self.m = width, width + sum(t.m - t.n for t in tables)
        self.live: dict[None, dict[int, list]] = {}
        self.met = False

    def branches(self, x: int, y: int, dead: None) -> "list[tuple[int, int, int, Scalar]]":
        """The doubled branches of the entry at (x, y): each step's branches, one step after another.

        `dead` is None: each step drops the branches its own masks mark.
        """
        paths = {(x, y, 0): ONE}  # (ket bits, bra bits, weight index) -> constant
        for table, masks in self.steps:
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
                # Only the first step is bound: a path's weight index is its branch's there, and 0 after.
                for rx, ry, w, b in branches:
                    key, v = (bx | rx, by | ry, k + w), c if b is ONE else c * b
                    after[key] = after[key] + v if key in after else v
            paths = {key: v for key, v in after.items() if not v.is_zero()}
        return [(r, s, k, ONE if c == ONE else c) for (r, s, k), c in paths.items()]


def _dead_patterns(tables: list[_Table]) -> "list[tuple[int, int, int, int] | None] | None":
    """The dead-pattern masks after each doubled step, or None when the result is 0.

    A step's masks (d00, d01, d10, d11) have bit b set when, after the
    step, wire b carries ket bit and bra bit 0 0, 0 1, 1 0 or 1 1 in no
    entry that reaches a nonzero result; a step after which nothing is
    dead has None.  The pass walks the steps backward from the result,
    where nothing is dead, carrying the groups after each step.
    """
    dead: list = [None] * len(tables)
    groups: tuple = ()
    for i in range(len(tables) - 1, -1, -1):
        table = tables[i]
        if not groups and table.full:
            continue
        known = table.transfers.get(groups)
        if known is None:
            known = table.transfers[groups] = (_masks(groups), _transfer(table, groups))
        dead[i], groups = known
        if groups is None:
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


@lru_cache(maxsize=128)
def _weights(r: Scalar) -> tuple:
    """The doubled weights (1, r, conj(r), r conj(r)), any that equals 1 as the shared `ONE`.

    A branch's weight index picks one; `_apply_step` multiplies an entry by
    each weight its branches pick, once per entry.  Kept for the last 128
    coefficients: a rule grid binds about 32 over and over, while a normal
    form binds each of its own once.
    """
    rc = r.conj()
    return tuple(ONE if w == ONE else w for w in (ONE, r, rc, r * rc))


def _apply_step(ops: dict, doubled: bool, table: "_Table | _Segment", dead: "tuple[int, int, int, int] | None", coefficient: "Scalar | None") -> dict:
    """Apply a step that binds `coefficient` r, or None: on x alone, or doubled on the upper triangle.

    On x alone, a bound table's entry None stands for r.  Doubled, a
    branch (r, s, k, c) adds the entry v times weight k of 1, r, conj(r)
    and r conj(r) (`_weights`), times its constant c.  Each v times weight
    k is computed once per entry, when the first of its branches that picks
    k needs it, and shared by the rest; a weight or constant equal to 1 is
    the shared `ONE`, which is never multiplied.  An unbound step's
    branches all pick k = 0, the weight 1.  A segment is applied with
    `dead` None: its masks are its steps'.

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
    out: dict[tuple[int, int], Scalar] = {}
    clashes = []
    if doubled:
        live = table.live.setdefault(dead, {})
        weights = None if coefficient is None else _weights(coefficient)
        for (x, y), v in ops.items():
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
                    nv = weighted[k] = v if w is ONE else v * w
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
        for (x, y), v in ops.items():
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


def _evaluate(steps: "tuple[list[_Table], list[Scalar | None]]", ops: dict, doubled: bool, width: int) -> dict:
    """Run a term's `steps` over the sparse operator `ops` on its `width` input wires.

    `steps` is what `_netlist` gives, or what a rebuilt normal form keeps.

    Doubled, `ops` is the upper triangle of a Hermitian operator, and so is
    the result, and each step drops the branches `_dead_patterns` finds dead.
    A bound state step at width at most `_SEGMENT_WIRES` starts a segment:
    the steps from it up to the next bound step run as one (`_Segment`)
    once their key has been met before, and one by one the first time.
    """
    tables, coefficients = steps
    if not doubled:
        for table, r in zip(tables, coefficients):
            ops = _apply_step(ops, False, table, None, r)
        return ops
    dead = _dead_patterns(tables)
    if dead is None:
        return {}
    i, count = 0, len(tables)
    while i < count:
        table, r = tables[i], coefficients[i]
        if table.bound and not table.n and width <= _SEGMENT_WIRES:
            j = i + 1
            while j < count and not tables[j].bound:
                j += 1
            segment = _segment(width, tuple(tables[i:j]), tuple(dead[i:j]))
            if segment.met:
                ops, width, i = _apply_step(ops, True, segment, None, r), segment.m, j
                continue
            segment.met = True
        ops = _apply_step(ops, True, table, dead[i], r)
        width += table.m - table.n
        i += 1
    return ops


def interp(d: Diagram) -> Matrix:
    """Pure matrix of a tick-free diagram: 2^m rows by 2^n columns."""
    return _interp_flat(d, flatten(d))


def _interp_flat(d: Diagram, flat: list[tuple[Generator, int]]) -> Matrix:
    """`interp` of d from `flat`, its `flatten` list."""
    _check_dense(d.n_out, d.n_in)
    cols = 1 << d.n_in
    out = _evaluate(_netlist(flat, False), {(c, c): ONE for c in range(cols)}, False, d.n_in)
    return Matrix.from_entries(1 << d.n_out, cols, out)


# -- wire doubling -------------------------------------------------------


def unzip(d: Diagram) -> Diagram:
    """Double every wire into a (plain, conjugate) pair; ticks become swaps.

    The result is tick-free with arity 2n -> 2m; pair k occupies wires
    2k and 2k+1.  On tick-free diagrams this implements the doubling
    construction, so the doubled matrix is interp(d) (x) conj(interp(d))
    up to the pair interleaving.
    """
    return fold(d, _unzip_gen, Compose, Tensor)


def _unzip_gen(g: Generator) -> Diagram:
    if g is Tick:
        return Swap
    if g is Id:
        return Tensor(Id, Id)
    if g is Empty:
        return Empty
    inner = Tensor(g, conjugate_term(g))
    return Compose(block_transpose(2, g.n_out), Compose(inner, block_transpose(g.n_in, 2)))


def _qubits_of(rho: Matrix) -> int:
    if rho.rows != rho.cols:
        raise SemanticsError(f"state matrix must be square, got {rho.rows}x{rho.cols}")
    n = rho.rows.bit_length() - 1
    if rho.rows == 0 or 1 << n != rho.rows:
        raise SemanticsError(f"state dimension {rho.rows} is not a power of two")
    return n


#: 1/2i, which takes rho - rho^dagger to its Hermitian part K.
_HALF_OVER_I = -(HALF * I)


def apply_superop(d: Diagram, rho: Matrix) -> Matrix:
    """Run the superoperator of d on a density-operator-shaped input.

    rho is split as rho = H + iK, with H = (rho + rho^dagger)/2 and
    K = (rho - rho^dagger)/2i both Hermitian, and the superoperator's
    linearity gives S(H) + i S(K).  Each runs on its upper triangle; a
    Hermitian rho has K = 0 and takes one run.
    """
    n = _qubits_of(rho)
    if n != d.n_in:
        raise SemanticsError(
            f"state has {n} qubits but diagram consumes {d.n_in}"
        )
    _check_dense(d.n_out, d.n_out)
    dim = 1 << d.n_out
    entries = rho.entries
    h, k = {}, {}
    for x, y in {(x, y) if x <= y else (y, x) for x, y in entries}:
        a, b = entries.get((x, y), ZERO), entries.get((y, x), ZERO).conj()
        for part, v in ((h, (a + b) * HALF), (k, (a - b) * _HALF_OVER_I)):
            if not v.is_zero():
                part[x, y] = v
    steps = _netlist(flatten(d), True)
    out = _mirrored(dim, _evaluate(steps, h, True, n))
    if k:
        entries = out.entries
        for key, v in _mirrored(dim, _evaluate(steps, k, True, n)).entries.items():
            v = entries.get(key, ZERO) + I * v
            if v.is_zero():
                entries.pop(key, None)
            else:
                entries[key] = v
    return out


def state_operator(d: Diagram) -> Matrix:
    """The Hermitian operator denoted by a 0 -> m diagram.

    A diagram that keeps its steps (`_steps`, set by
    `normalform.nf_to_diagram`) runs them; any other is flattened first.
    """
    if d.n_in != 0:
        raise SemanticsError(f"state_operator needs a state, got {d.n_in} inputs")
    _check_dense(d.n_out, d.n_out)
    dim = 1 << d.n_out
    steps = d._steps
    if steps is None:
        steps = _netlist(flatten(d), True)
    return _mirrored(dim, _evaluate(steps, {(0, 0): ONE}, True, 0))


def _mirrored(dim: int, upper: dict) -> Matrix:
    """The Hermitian dim x dim matrix whose upper triangle is `upper`."""
    entries = dict(upper)
    for (x, y), v in upper.items():
        if x != y:
            entries[y, x] = v.conj()
    return Matrix.from_entries(dim, dim, entries)


# -- Choi matrices -------------------------------------------------------


def bend_inputs(d: Diagram) -> Diagram:
    """Turn d: n -> m into the state (id_n (x) d) applied to n Bell pairs.

    Output wires are (reference copy of the inputs, then d's outputs); the
    state operator of the result is the Choi matrix of d.
    """
    n = d.n_in
    return Compose(Tensor(id_n(n), d), bend_cap(n))


def choi(d: Diagram) -> Matrix:
    return state_operator(bend_inputs(d))


def proper_choi(d: Diagram) -> Matrix:
    """Choi matrix with the reference side transposed (ticked Bell pairs)."""
    n = d.n_in
    return state_operator(Compose(Tensor(id_n(n), d), _ticked_bend_cap(n)))


def is_hermiticity_preserving(d: Diagram) -> bool:
    """Exact Hermiticity of the Choi matrix."""
    return choi(d).is_hermitian()


# -- positivity ----------------------------------------------------------


def is_psd(m: Matrix) -> bool:
    """Exact positive semidefiniteness of a matrix over Q(w), at any dimension.

    A matrix that is not exactly Hermitian is not PSD.  Otherwise run a
    symmetric elimination over the sparse rows of the upper triangle, built
    from `m.entries` and holding no zero.  The nonzero row of least index
    pivots: a negative diagonal entry refutes positivity, and so does a zero
    one, since the row is not all zero; a positive one is eliminated,
    replacing the rest by its Schur complement, which is PSD exactly when
    the matrix was.  When no nonzero row is left, the matrix is PSD.  Signs
    in Q(sqrt 2) are decided exactly by `Scalar.sign_real`.
    """
    if not m.is_hermitian():
        return False
    rows: dict[int, dict[int, Scalar]] = {}  # i -> {j: a[i][j]} for j >= i
    for (i, j), v in m.entries.items():
        if i <= j:
            rows.setdefault(i, {})[j] = v
    # Rows are only ever added after the pivot, so pivots run in index order.
    for pivot in range(m.rows):
        upper = rows.pop(pivot, None)
        if not upper:
            continue
        d = upper.pop(pivot, None)
        if d is None or d.sign_real() < 0:
            return False
        inv = d.inverse()
        # a[pivot][j] for the rows j after the pivot, in index order.
        col = sorted(upper.items(), key=itemgetter(0))
        # The complement stays Hermitian: update its upper triangle only.
        for k, (i, c) in enumerate(col):
            row = rows.setdefault(i, {})
            f = c.conj() * inv
            for j, cj in col[k:]:
                old = row.get(j)
                v = -(f * cj) if old is None else old - f * cj
                if v.is_zero():
                    row.pop(j, None)
                else:
                    row[j] = v
    return True


def is_completely_positive(d: Diagram) -> bool:
    """Exact CP test: positivity of the Choi matrix."""
    return is_psd(choi(d))


# -- the bent (Hermitian-preserving) presentation ------------------------


@dataclass(frozen=True)
class LinZW:
    """A superoperator n -> m presented as a pure diagram (n+m) -> (n+m).

    The pure diagram consumes (ket inputs, bra outputs) and produces
    (bra inputs, ket outputs), each side blocked with kets first.
    """

    pure: Diagram
    n: int
    m: int

    def __post_init__(self) -> None:
        if self.pure.n_in != self.n + self.m or self.pure.n_out != self.n + self.m:
            raise SemanticsError(
                f"bent presentation must be ({self.n + self.m})->({self.n + self.m}), "
                f"got {self.pure.n_in}->{self.pure.n_out}"
            )


def iota(l: LinZW) -> Diagram:
    """Forget the bookkeeping: the underlying pure diagram."""
    return l.pure


def hp(d: Diagram) -> LinZW:
    """Bent presentation of the superoperator of d, built by a fold.

    Tick-free generators double into (dagger beside original) across a block
    swap; the tick becomes a cup-then-cap turnaround; composition threads the
    bra line of the later factor back through the earlier one with cap/cup
    feedback; tensoring is a permutation conjugate of the side-by-side term.
    """
    return fold(d, _hp_gen, _int_compose, _int_tensor)


def _hp_gen(g: Generator) -> LinZW:
    if g is Tick:
        return LinZW(Compose(Cap, Cup), 1, 1)
    k, bo = wires("k", g.n_in), wires("bo", g.n_out)
    return LinZW(Compose(Tensor(dagger(g), g), route(k + bo, bo + k)), g.n_in, g.n_out)


def _int_compose(a: LinZW, b: LinZW) -> LinZW:
    """Sequential composition in the bent presentation (a after b)."""
    n, mid, p = b.n, b.m, a.m
    total = n + p
    k, bo, u, v = wires("k", n), wires("bo", p), wires("u", mid), wires("v", mid)
    bi, z, ko = wires("bi", n), wires("z", mid), wires("ko", p)
    layers: list[Diagram] = [
        # Cap pairs (u_j, v_j) for the mid cut beside (k, bo).
        tensor_many([id_n(total), tensor_many([Cap] * mid)]),
        route(k + bo + interleave(u, v), k + u + bo + v),
        # b consumes (k, u); spectators (bo, v).
        tensor_many([b.pure, id_n(p + mid)]),
        # Wires are now (bi, w, bo, v); a consumes (w, bo).
        tensor_many([id_n(n), a.pure, id_n(mid)]),
        # Wires are now (bi, z, ko, v); cup each z_j with v_j.
        route(bi + z + ko + v, bi + ko + interleave(z, v)),
        tensor_many([id_n(total), tensor_many([Cup] * mid)]),
    ]
    return LinZW(compose_many(layers), n, p)


def _int_tensor(a: LinZW, b: LinZW) -> LinZW:
    """Side-by-side composition in the bent presentation."""
    an, am, bn, bm = wires("an", a.n), wires("am", a.m), wires("bn", b.n), wires("bm", b.m)
    pure = compose_many(
        [
            # Inputs (ket in A, ket in B, bra out A, bra out B) to A's then B's.
            route(an + bn + am + bm, an + am + bn + bm),
            Tensor(a.pure, b.pure),
            # Outputs (bra in A, ket out A, bra in B, ket out B) back to blocks.
            route(an + am + bn + bm, an + bn + am + bm),
        ]
    )
    return LinZW(pure, a.n + b.n, a.m + b.m)


def psi(f: Diagram, n: int, m: int) -> LinZW:
    """Bend a doubled diagram 2n -> 2m into the bent presentation."""
    if f.n_in != 2 * n or f.n_out != 2 * m:
        raise SemanticsError(
            f"doubled diagram must be ({2 * n})->({2 * m}), got {f.n_in}->{f.n_out}"
        )
    k, bo, al, be = wires("k", n), wires("bo", m), wires("al", n), wires("be", n)
    ko, co = wires("ko", m), wires("co", m)
    layers: list[Diagram] = [
        # Cap pairs (al_i, be_i) beside (k, bo); f consumes each k_i with al_i.
        tensor_many([id_n(n + m), tensor_many([Cap] * n)]),
        route(k + bo + interleave(al, be), interleave(k, al) + bo + be),
        tensor_many([f, id_n(m + n)]),
        # f emits interleaved (ko_j, co_j); cup each co_j with bo_j.
        route(interleave(ko, co) + bo + be, be + ko + interleave(co, bo)),
        tensor_many([id_n(n + m), tensor_many([Cup] * m)]),
    ]
    return LinZW(compose_many(layers), n, m)


def psi_inv(l: LinZW) -> Diagram:
    """Unbend the bent presentation back into a doubled diagram 2n -> 2m."""
    n, m = l.n, l.m
    k, b, bo, co = wires("k", n), wires("b", n), wires("bo", m), wires("co", m)
    bi, ko = wires("bi", n), wires("ko", m)
    layers: list[Diagram] = [
        block_transpose(n, 2),
        # Cap pairs (bo_j, co_j) beside (k, b); the pure term consumes (k, bo).
        tensor_many([id_n(2 * n), tensor_many([Cap] * m)]),
        route(k + b + interleave(bo, co), k + bo + b + co),
        tensor_many([l.pure, id_n(n + m)]),
        # Cup each bi_i with b_i, emit (ko, co).
        route(bi + ko + b + co, ko + co + interleave(bi, b)),
        tensor_many([id_n(2 * m), tensor_many([Cup] * n)]),
        block_transpose(2, m),
    ]
    return compose_many(layers)


# -- matrix text form ----------------------------------------------------


def format_matrix(m: Matrix, float_mode: bool = False) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for row in m.data:
        if float_mode:
            lines.append(" ".join(_format_complex(v.to_complex()) for v in row))
        else:
            lines.append(" ".join(format_scalar(v) for v in row))
    return "\n".join(lines) + "\n"


def _format_complex(z: complex) -> str:
    re = f"{z.real:.12g}"
    if z.imag >= 0:
        return f"{re}+{z.imag:.12g}i"
    return f"{re}-{-z.imag:.12g}i"


def parse_matrix(text: str) -> Matrix:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise SemanticsError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2 or not all(tok.isascii() and tok.isdigit() for tok in head):
        raise SemanticsError(f"bad matrix header {lines[0]!r}")
    if any(len(tok) > MAX_DIGITS for tok in head):
        raise SemanticsError(_too_long("a matrix dimension"))
    rows, cols = int(head[0]), int(head[1])
    if len(lines) - 1 != rows:
        raise SemanticsError(f"expected {rows} rows, found {len(lines) - 1}")
    data: list[list[Scalar]] = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != cols:
            raise SemanticsError(f"expected {cols} entries in row {ln!r}")
        try:
            data.append([parse_scalar(t) for t in toks])
        except ScalarParseError as exc:
            raise SemanticsError(f"bad entry in row {ln!r}: {exc}") from None
    return Matrix(data) if data else Matrix.zeros(0, cols)
