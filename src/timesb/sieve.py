"""Output-sensitive enumeration of set members with bounded denominator.

Scanning all reduced fractions with denominator up to T touches ~0.3*T^2
numbers, hopeless at T = 10^6. Members of a digit-restricted set are rare,
so the engine works from the digit side instead: the allowed length-d digit
prefixes P describe closed intervals [P/S, (P+1)/S], S = base^d, arranged in
a tree. A branch dies as soon as its interval contains no fraction with
denominator <= T, detected via the simplest fraction of the interval. Once
base^L > T^2 an interval contains at most one fraction with denominator <= T
(two distinct ones would differ by at least 1/T^2, more than the width), so
each surviving leaf yields exactly one candidate, and a digit walk beyond
depth L settles membership.

The simplest fraction comes from a continued-fraction descent on the
homogeneous endpoint vectors U = (u1, u2) and V = (v1, v2), which start as
(P, S) and (P+1, S). While the interval between u1/u2 and v1/v2 holds no
integer, both endpoints share the floor a, and one step maps each vector by
(x1, x2) -> (x2, x1 - a*x2), i.e. x -> 1/(x - a), while the convergent matrix
[[h1, h0], [k1, k0]] takes a on the right. Once the interval holds an
integer, the smallest one, a, gives the simplest fraction
(a*h1 + h0)/(a*k1 + k0). The step is the same linear map on both vectors, so
they are kept in prefix order rather than sorted and no parity is tracked.

Resumption lemma: a child interval lies inside its parent's, so at every step
the parent took, the child's transformed interval sits inside an interval
holding no integer and has the same floor: the child takes exactly the
parent's partial quotients up to the step where the parent stopped. Its
endpoints are (b-c)*left + c*right and (b-c-1)*left + (c+1)*right for digit
c, so by linearity its state at that step is U' = b*U + c*(V - U),
V' = U' + (V - U), with the parent's convergent matrix. Each level therefore
resumes from its parent's final state, usually for one to three more steps,
and the leaf level's simplest fractions are the last pruning pass's. A
descent is also cut short once the next k1 + k0 exceeds T: every later
simplest denominator is at least that. A step that goes on reuses the floor
division and that bound: both endpoints have the floor a - 1, so the new
x1 - (a-1)*x2 are the division's remainders and the new k1 is the bound
minus the old k1.

Everything fits in int64. For a node of scale S the original endpoint is
(P, S) = [[h1, h0], [k1, k0]] * U with nonnegative entries and determinant
+-1, so U = +-(k0*P - h0*S, h1*S - k1*P), whose entries are S*|k*x - h| <= S
for the convergents h/k of x = P/S in [0, 1] (the starting 1/0 and 0/1
included); the same holds for V. A child's entries are combinations with
coefficients summing to b, so at most b*S, its own scale. All entries are
thus at most base^L < 2^62 (enforced), and the sums a step forms (such as
a*k1 + k0 for a not-yet-finished descent, at most 2*S) stay below 2^63.

Each surviving leaf's candidate num/den is settled by one walk over the
remainders r -> base*r mod den, whose digits t // den (t = base*r) are the
expansion's. Where it starts depends on s = base^L mod den. If s = 0, den
divides base^L and the candidate is an endpoint of its leaf: one of its two
expansions may leave the leaf at once, so the walk starts at r = num and
settles both. Otherwise the candidate lies strictly inside its leaf, and
every expansion of it begins with the leaf's L good digits: the unique one
of a denominator with a prime outside the base's, and both of a terminating
one (those of a/256 in base 6 at L = 7 part at depth 8). The walk then
starts past them, at r = num*s mod den.

The walk (`_walk`) is vectorized over (r, den) rows and also settles the
leaves of `timesb.cantor.enumerate_members`. Each round steps every live
row and drops it at its first bad digit. A row ends when r reaches 0 after
digit c: it is a member iff c and 0 are allowed (the greedy expansion) or
c >= 1 and c-1 and base-1 are (the dual, ..(c-1)(base-1)(base-1)..). Other
rows follow a Brent cycle check: a row is a member once r returns to its
checkpoint, which is reset to r after steps 1, 2, 4, 8, ... A return means
the checkpoint lies on the cycle and every remainder of the preperiod and
the cycle has produced a good digit, so a row with preperiod mu and cycle
length lambda finishes within about mu + 2*lambda rounds. The value 1
(r = den) is a member iff base-1 is allowed.

Reflection halves the tree of a symmetric digit set, D = {b-1-c : c in D}.
The map x -> 1-x sends a/d to (d-a)/d, which has the same denominator
(gcd(d-a, d) = gcd(a, d)), and an expansion 0.c1c2... to
0.(b-1-c1)(b-1-c2)..., since the two add up to 0.(b-1)(b-1)... = 1. The two
expansions of a terminating value, ..c0000.. and ..(c-1)(b-1)(b-1).., go to
..(b-1-c)(b-1)(b-1).. and ..(b-c)0000.., the two of 1-x: x is a member iff
1-x is. The map also takes the prefix tree onto itself, digit c to b-1-c,
so a node survives iff its mirror does. A member's expansion first leaves
the all-middle path m, mm, mmm, ... (m = (b-1)/2, odd b with m in D; else
the path is the root alone) with some digit c at a path node. If c < b-1-c
the member lies under that low child; if not, its mirror does. A member
that never leaves the path within L digits lies in the middle leaf, whose
interval is centred on 1/2, so it is 1/2 itself. The sieve therefore walks
only the low children's subtrees of each path node, and whole the path node
one level above the leaves if the path gets there, and adds the row
(d-a, d) of every member (a, d) it finds. A non-symmetric set is the same
walk with every digit low, no path below the root and no mirror. A row can
come out twice: 1/2 is its own mirror, a value on the edge of two leaves is
found in both, and the high leaves of the last path node find the mirrors
of its low ones. Every copy is the same reduced (num, den), and the final
value sort (_by_value) keeps one.

The tree is walked depth first over blocks of columns under a fixed budget.
A task starts from a stack of (depth, state) blocks pushed in rising depth
order, the half tree's at most one per level. It pops a block, expands at
most _BUDGET // k of its columns (k digits) through one `_children` and one
`_descend` call, pushes the rest of the block back and the surviving
children one level down. No call sees more than _BUDGET columns (k if
k > _BUDGET), and since the stack's depths rise strictly from bottom to top
it holds at most one block per level: peak memory is about _BUDGET * L
columns of 64 bytes, whatever the digit set. The rest is pushed as a copy,
because a view would keep the whole popped block alive until the rest is
popped. Leaf candidates go to the walk each time at least _BUDGET rows are
held, and once at the end. With jobs > 1 the half tree's shallowest block
is first grown breadth first, taking in each deeper block it reaches, to a
frontier of at most _FRONTIER columns, which is cut into at most 4*jobs
contiguous slices, one task each; the blocks still deeper, under the middle
path, go on the last task's stack. The final sort makes the output the same
for every split.

numpy is imported by the functions that use it, on their first call, and
the process pool only when jobs > 1: importing this module loads neither,
so the commands that never reach the sieve or the walk start without them.
"""

from __future__ import annotations

import os
from functools import cmp_to_key, partial
from typing import TYPE_CHECKING, Sequence

from .errors import InvariantError, PreconditionError

if TYPE_CHECKING:
    import numpy as np

_BUDGET = 1 << 13  # columns of one _children or _descend call
_FRONTIER = 1024  # columns of the frontier cut into parallel tasks
_MAX_STEPS = 200  # a denominator below 2^62 has fewer than 92 partial quotients


def limit_depth(base: int, T: int) -> int:
    """Smallest L with base^L > T^2."""
    L = 1
    w = base
    while w <= T * T:
        w *= base
        L += 1
    return L


def _root() -> np.ndarray:
    """Descent state of the root interval [0, 1], one column of rows u1, u2,
    v1, v2, h1, h0, k1, k0."""
    import numpy as np

    return np.array([[0], [1], [1], [1], [1], [0], [0], [1]], dtype=np.int64)


def _children(state: np.ndarray, digits: Sequence[int], base: int) -> np.ndarray:
    """Descent states of every digit child of every column, digit-major.

    The child for digit c has endpoints (b-c)*left + c*right and
    (b-c-1)*left + (c+1)*right; the descent map is linear, so its state at
    the parent's last step is the same combination of the parent's state.
    """
    import numpy as np

    u, w = state[:2, None], state[2:4, None] - state[:2, None]
    out = np.empty((8, len(digits), state.shape[1]), dtype=np.int64)
    np.multiply(np.array(digits, dtype=np.int64)[:, None], w, out=out[:2])
    out[:2] += base * u
    np.add(out[:2], w, out=out[2:4])
    out[4:] = state[4:, None]
    return out.reshape(8, -1)


def _descend(state: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resume the continued-fraction descent of every column of state.

    Returns (num, den, final) for the columns whose simplest fraction has
    den <= T, in no fixed order: num/den is that fraction and final the
    column's state at the step where its descent stopped, which is where its
    children resume. Columns are dropped as soon as den must exceed T.
    """
    import numpy as np

    parts = []
    cur = state
    for _ in range(_MAX_STEPS):
        u1, u2, v1, v2, h1, h0, k1, k0 = cur
        fu, ru = np.divmod(u1, u2)
        fv, rv = np.divmod(v1, v2)
        # a = smallest integer >= the lower endpoint; the interval holds it
        # iff it is <= the upper endpoint's floor
        a = np.minimum(fu + (ru != 0), fv + (rv != 0))
        done = np.maximum(fu, fv) >= a
        # done: the simplest denominator; else a = floor + 1 and this is the
        # next k1 + k0, a lower bound for every later simplest denominator
        den = a * k1 + k0
        live = den <= T
        fin = np.flatnonzero(done & live)
        parts.append((a[fin], den[fin], cur.take(fin, axis=1)))
        go = np.flatnonzero(live & ~done)
        if not go.size:
            break
        # both endpoints have floor fu = a - 1, so x1 - fu*x2 is the
        # remainder and fu*k1 + k0 is den - k1. go is in range, and with
        # mode="clip" take writes into out without a scratch copy
        cur = np.empty((8, go.size), dtype=np.int64)
        for row, x in zip(cur, (u2, ru, v2, rv, h0, h1, den, k1)):
            np.take(x, go, out=row, mode="clip")
        cur[4] += fu.take(go) * cur[5]
        cur[6] -= cur[7]
    else:
        raise InvariantError("continued fraction descent failed to terminate")
    a, den, final = (np.concatenate(p, axis=-1) for p in zip(*parts))
    return a * final[4] + final[5], den, final


def _walk(base: int, digits: Sequence[int], r: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Member mask of int64 rows (r, den), 0 <= r <= den, each the value
    r/den of the digits past a good prefix (see the module docstring)."""
    import numpy as np

    good = np.zeros(base, dtype=bool)
    good[list(digits)] = True
    one = r == den
    row = np.flatnonzero(~one)
    kept = [np.flatnonzero(one) if good[base - 1] else row[:0]]
    d, r = den[row], r[row]
    check = r
    step, reset = 0, 1
    while row.size:
        c, r = np.divmod(base * r, d)
        ok = good[c]
        end = r == 0
        if end.any():
            c = c[end]
            dual = (c >= 1) & good[c - 1] & good[base - 1]
            kept.append(row[end][ok[end] & good[0] | dual])
            ok &= ~end
        back = ok & (r == check)
        kept.append(row[back])
        live = np.flatnonzero(ok ^ back)
        row, d, r, check = row[live], d[live], r[live], check[live]
        step += 1
        if step == reset:
            check, reset = r, 2 * reset
    hit = np.zeros(den.size, dtype=bool)
    hit[np.concatenate(kept)] = True
    return hit


def _leaf_members(
    base: int, digits: tuple[int, ...], L: int, nums: list, dens: list
) -> np.ndarray:
    """The (num, den) rows of the leaf candidates, given as lists of num and
    den blocks, that are members."""
    import numpy as np

    num, den = np.concatenate(nums), np.concatenate(dens)
    # s = 0: den | base^L, a point of the leaf's boundary, walked from num;
    # else strictly inside, past the leaf's L good digits
    s = np.int64(pow(base, L)) % den  # base^L < 2^62 by the members_up_to guard
    r = np.where(s == 0, num, num * s % den)  # num * s < T^2 < base^L
    hit = _walk(base, digits, r, den)
    return np.stack([num[hit], den[hit]], axis=1)


def _half_tree(
    base: int, low: tuple[int, ...], mid: tuple[int, ...], T: int, L: int
) -> list[tuple[int, np.ndarray]]:
    """The (depth, state) blocks, in rising depth, of the subtrees the sieve
    walks: the low digits' children of each node on the all-middle path, and
    whole the path node one level above the leaves if the path gets there
    (see the module docstring)."""
    blocks, depth, path = [], 0, _root()
    while mid and depth + 2 < L and path.shape[1]:
        blocks.append((depth + 1, _descend(_children(path, low, base), T)[2]))
        path = _descend(_children(path, mid, base), T)[2]
        depth += 1
    if depth + 1 < L:
        path = _descend(_children(path, low + mid, base), T)[2]
        depth += 1
    return blocks + [(depth, path)]


def _descend_task(
    base: int,
    digits: tuple[int, ...],
    T: int,
    L: int,
    stack: list[tuple[int, np.ndarray]],
) -> np.ndarray:
    """From (depth, state) blocks of final states at depths < L, rising
    from first to last, down to the leaves, depth first over blocks of
    columns (see the module docstring); returns the (num, den) rows of the
    leaf candidates that are members."""
    import numpy as np

    step = max(1, _BUDGET // len(digits))  # columns expanded per call
    stack = list(stack)
    nums, dens, found = [], [], []
    held = 0
    while stack:
        depth, state = stack.pop()
        if state.shape[1] > step:
            # a copy: a view of the rest would pin the whole block
            stack.append((depth, state[:, step:].copy()))
            state = state[:, :step]
        num, den, state = _descend(_children(state, digits, base), T)
        if depth + 1 < L:
            if state.shape[1]:
                stack.append((depth + 1, state))
            continue
        nums.append(num)
        dens.append(den)
        held += num.size
        if held >= _BUDGET:
            found.append(_leaf_members(base, digits, L, nums, dens))
            nums, dens, held = [], [], 0
    if nums:
        found.append(_leaf_members(base, digits, L, nums, dens))
    return np.concatenate(found) if found else np.empty((0, 2), np.int64)


def members_up_to(
    base: int, digits: Sequence[int], T: int, jobs: int = 1
) -> np.ndarray:
    """All reduced members (num, den) with den <= T, each once, by value.

    Output is identical for every jobs value.
    """
    import numpy as np

    digits = tuple(sorted(set(int(x) for x in digits)))
    if base < 2 or not digits or digits[0] < 0 or digits[-1] >= base:
        raise PreconditionError(f"invalid digit set {digits} for base {base}")
    if len(digits) == base:
        raise PreconditionError(
            "full digit set: every fraction is a member, use the closed form"
        )
    if T < 1:
        raise PreconditionError(f"max denominator must be >= 1, got {T}")
    if jobs < 1:
        raise PreconditionError(f"jobs must be >= 1, got {jobs}")
    L = limit_depth(base, T)
    if base**L >= 2**62:
        raise PreconditionError(
            f"max denominator {T} too large for the int64 engine"
        )

    # x -> 1 - x maps a symmetric set onto itself: walk the low half only
    mirror = all(base - 1 - c in digits for c in digits)
    low = tuple(c for c in digits if not mirror or c < base - 1 - c)
    mid = tuple(c for c in digits if mirror and c == base - 1 - c)
    blocks = _half_tree(base, low, mid, T, L)
    tasks = [blocks]
    if jobs > 1:
        # frontier: grow the shallowest block breadth first, taking in the
        # next level's block, until there is enough parallel grain; stop
        # above the leaves so that every task descends a level. The deeper
        # blocks, under the middle path, ride with the last slice
        (depth, state), *blocks = blocks
        while depth + 1 < L and 0 < state.shape[1] * len(digits) <= _FRONTIER:
            _, _, state = _descend(_children(state, digits, base), T)
            depth += 1
            if blocks and blocks[0][0] == depth:
                state = np.concatenate([state, blocks.pop(0)[1]], axis=1)
        parts = max(1, min(4 * jobs, state.shape[1]))
        tasks = [[(depth, s)] for s in np.array_split(state, parts, axis=1)]
        tasks[-1] += blocks
    run = partial(_descend_task, base, digits, T, L)
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        results = [run(t) for t in tasks]
    else:
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(run, tasks, chunksize=1))
        except BrokenProcessPool as exc:
            raise InvariantError(f"a worker process died: {exc}") from exc

    members = np.concatenate(results)
    if mirror:
        num, den = members.T
        members = np.concatenate([members, np.stack([den - num, den], axis=1)])
    return _by_value(members)


def _by_value(rows: np.ndarray) -> np.ndarray:
    """Int64 (num, den) rows of reduced fractions in [0, 1] with den <= 2^62,
    in exact value order, each row once.

    The float key num/den rounds num, den and their quotient, so it is off
    by at most about 3*2^-53 of the value, and the keys never reorder two
    values more than 2^-50 of the larger apart.  A repeated row has the same
    key, so a neighbour compare over equal keys drops the copies that sort
    next to each other.  Adjacent keys still that close form runs, and each
    run is re-sorted by cross-multiplying; a run also keeps one of any copies
    that a distinct row with an equal key kept apart (den > 2^53 only).
    """
    import numpy as np

    num, den = rows[:, 0], rows[:, 1]
    key = num / den
    order = np.argsort(key)
    key = key[order]
    eq = np.flatnonzero(key[1:] == key[:-1])
    lo, hi = order[eq], order[eq + 1]
    copy = eq[(num[lo] == num[hi]) & (den[lo] == den[hi])] + 1
    if copy.size:
        order, key = np.delete(order, copy), np.delete(key, copy)
    near = key[1:] - key[:-1] <= key[1:] * 2.0**-50
    tied = np.concatenate(([False], near, [False]))
    edges = np.flatnonzero(tied[1:] != tied[:-1])
    for start, stop in zip(edges[::2], edges[1::2] + 1):
        run = {(int(num[i]), int(den[i])): i for i in order[start:stop]}
        ranked = sorted(run, key=cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1]))
        order[start:stop] = [run[r] for r in ranked] + [-1] * (stop - start - len(run))
    return rows.take(order[order >= 0], axis=0)
