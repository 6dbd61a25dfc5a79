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
The two rows a column carries past these eight, its prefix P < S and the
prefix's period p <= depth (below), fit as well.

Only the least point of each cycle of x -> base*x mod 1 is descended. The
map takes a good expansion to a good expansion, and for den > 1 prime to
the base it permutes the reduced a/den, each purely periodic, so the
members of denominator den are whole cycles. The least point of a cycle has
the expansion w w w ... for w the least rotation of its period, so every
prefix of it is a prenecklace (Ruskey, Savage and Wang, "Generating
necklaces", J. Algorithms 1992). A column keeps its prefix's value P and
Fredricksen-Kessler-Maiorana period p (P = 0 and p = 1 at the root): digit c
at position t+1 is allowed iff c >= a[t+1-p] = P // base^(p-1) % base, and
c > a[t+1-p] sets p = t+1. This subsumes the reflection of a symmetric set:
base 5 {1,3} finds 3/4 = 0.333... on the all-3 path. A leaf candidate with
den > 1 prime to the base lies strictly inside its leaf; the leaf walk
(_leaf_members) starts it at r = num, steps r -> base*r mod den (digits
base*r // den), drops it at its first bad digit or remainder below num and
keeps it as its cycle's representative when r comes back to its start.
Other candidates are skipped. `timesb.cantor.enumerate_members` is the
walk's and the orbit build's second caller, its rows starting at their
tails past a good prefix.

Every member comes from the representatives. Each gives its cycle's points
r/den with their predecessor digits c (base*r' = c*den + r for the point
r'/den before), and the seeds 0/1 and 1/1 join with predecessor 0 and
base-1 if that digit is allowed. Any other member has an exact preperiod
m >= 1: its tail past m digits is such a point y, entered by a digit other
than y's predecessor. So level 1 is (c + y)/base over the allowed c but
y's predecessor digit, level m+1 is (c + z)/base over every allowed c and
z in level m, each reduced by its gcd. For z = n/q that gcd divides base
and is prime to q, so den never shrinks and a row over its cycle's bound
(T here) is dropped with everything built from it; no power of the base is
assumed, which composite bases need. A terminating value has two
expansions, ..c000.. and ..(c-1)(b-1)(b-1)..; both are good only if 0 and
c are allowed, and then the seed 0/1 builds the row c/b, so level 1 over
the seed 1/1 skips the digit c-1. No value is built twice.

The tree is walked depth first over blocks of columns under a fixed budget.
A task pops a block, expands at most _BUDGET // k of its columns (k digits)
through one `_children` and one `_descend` call, pushes the rest of the
block back as a copy (a view would pin the whole block) and the surviving
children one level down. No call sees more than _BUDGET columns (k if
k > _BUDGET), and the stack holds at most one block per level, since its
depths rise strictly from bottom to top: peak memory is about _BUDGET * L
columns of 10 int64 rows, whatever the digit set. Leaf candidates go to the
walk each time at least _BUDGET rows are held, and once at the end.

members_up_to takes jobs as a ceiling on the processes that descend the
tree. It estimates the tree's work as k^(log_base T^2), the count of digit
strings of length log_base T^2 over the k allowed digits, which tracks the
descent's time within a factor of two once the tree is not tiny. Below
_FORK_WORK a child process costs more than it saves, and the whole tree is
descended in the calling process, as at jobs 1. Past it the root is first
grown breadth first to a frontier of at most _FRONTIER columns, dealt out
column by column into min(jobs, columns, CPUs) shares. The calling process
descends the first share and a forked child each other one (_fork_split).
The calling process builds the rest from the representatives, and the
final sort makes the output the same for every split.

numpy is imported by the functions that use it, on their first call:
importing this module does not load it, so the commands that never reach
the vectorised code start without it.
"""

from __future__ import annotations

import os
from functools import cmp_to_key, partial
from math import log
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .errors import InvariantError, PreconditionError

if TYPE_CHECKING:
    import numpy as np

_BUDGET = 1 << 13  # columns of one _children or _descend call
_FRONTIER = 1024  # columns of the frontier dealt out into the processes' shares
_FORK_WORK = 3e6  # estimated tree work (_tree_work) from which a split pays
_MAX_STEPS = 200  # a denominator below 2^62 has fewer than 92 partial quotients


def limit_depth(base: int, T: int) -> int:
    """Smallest L with base^L > T^2."""
    L = 1
    w = base
    while w <= T * T:
        w *= base
        L += 1
    return L


def _tree_work(base: int, k: int, T: int) -> float:
    """Estimated work of the tree of a k-digit set up to T: (T^2)^(log k / log base)."""
    return (T * T) ** (log(k) / log(base))


def _root() -> np.ndarray:
    """Descent state of the root interval [0, 1], one column of rows u1, u2,
    v1, v2, h1, h0, k1, k0, then the prefix P = 0 and its period p = 1."""
    import numpy as np

    return np.array([[0], [1], [1], [1], [1], [0], [0], [1], [0], [1]], dtype=np.int64)


def _children(
    state: np.ndarray, digits: Sequence[int], base: int, depth: int
) -> np.ndarray:
    """Descent states, digit-major, of the digit children of every column at
    this depth whose prefixes stay prenecklaces (see the module docstring).

    The child for digit c has endpoints (b-c)*left + c*right and
    (b-c-1)*left + (c+1)*right; the descent map is linear, so its state at
    the parent's last step is the same combination of the parent's state.
    """
    import numpy as np

    n = state.shape[1]
    c = np.array(digits, dtype=np.int64)
    up = c[:, None] - state[8] // base ** (state[9] - 1) % base  # c - a[t+1-p]
    keep = np.flatnonzero(up >= 0)
    c = c[keep // n]
    out = state.take(keep % n, axis=1)
    w = out[2:4] - out[:2]
    out[:2] = base * out[:2] + c * w
    np.add(out[:2], w, out=out[2:4])
    out[8] = base * out[8] + c
    out[9][up.ravel()[keep] > 0] = depth + 1
    return out


def _descend(state: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resume the continued-fraction descent of every column of state.

    Returns (num, den, final) for the columns whose simplest fraction has
    den <= T, in no fixed order: num/den is that fraction and final the
    column's state at the step where its descent stopped, which is where its
    children resume. Columns are dropped as soon as den must exceed T, and
    rows past the eighth are carried along."""
    import numpy as np

    parts = []
    cur = state
    for _ in range(_MAX_STEPS):
        u1, u2, v1, v2, h1, h0, k1, k0 = cur[:8]
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
        prev, cur = cur, np.empty((len(cur), go.size), dtype=np.int64)
        for row, x in zip(cur, (u2, ru, v2, rv, h0, h1, den, k1, *prev[8:])):
            np.take(x, go, out=row, mode="clip")
        cur[4] += fu.take(go) * cur[5]
        cur[6] -= cur[7]
    else:
        raise InvariantError("continued fraction descent failed to terminate")
    a, den, final = (np.concatenate(p, axis=-1) for p in zip(*parts))
    return a * final[4] + final[5], den, final


def _leaf_members(
    base: int, digits: tuple[int, ...], blocks: Iterable[np.ndarray]
) -> np.ndarray:
    """The (num, den) rows of the cycle representatives among leaf rows given
    as int64 blocks of rows num, den, start: den > 1 prime to the base and
    start/den on num/den's cycle. A row walks r -> base*r mod den from its
    start, is dropped at its first bad digit or remainder below num, and is
    kept when r comes back to its start. The sieve starts its candidates at
    num, `timesb.cantor.enumerate_members` at their tails past a good prefix.
    Rows are walked together each time at least _BUDGET are held, and once
    at the end."""
    import numpy as np

    good = np.zeros(base, dtype=bool)
    good[list(digits)] = True

    def walk(held: list) -> np.ndarray:
        num, den, start = np.concatenate(held, axis=1)
        row, r = np.arange(num.size), start
        kept = [row[:0]]
        while row.size:
            c, r = np.divmod(base * r, den[row])
            ok = good[c] & (r >= num[row])
            back = ok & (r == start[row])
            kept.append(row[back])
            live = np.flatnonzero(ok ^ back)
            row, r = row[live], r[live]
        hit = np.concatenate(kept)
        return np.stack([num[hit], den[hit]], axis=1)

    found, held, size = [np.empty((0, 2), dtype=np.int64)], [], 0
    for block in blocks:
        held.append(block)
        size += block.shape[1]
        if size >= _BUDGET:
            found.append(walk(held))
            held, size = [], 0
    if held:
        found.append(walk(held))
    return np.concatenate(found)


def _descend_task(
    base: int, digits: tuple[int, ...], T: int, L: int, depth: int, state: np.ndarray
) -> np.ndarray:
    """The (num, den) rows of the cycle representatives among the leaves
    under a block of final states at depth < L, descended depth first over
    blocks of columns (see the module docstring)."""
    import numpy as np

    def leaves(stack: list) -> Iterator[np.ndarray]:
        step = max(1, _BUDGET // len(digits))  # columns expanded per call
        while stack:
            depth, state = stack.pop()
            if state.shape[1] > step:
                # a copy: a view of the rest would pin the whole block
                stack.append((depth, state[:, step:].copy()))
                state = state[:, :step]
            num, den, state = _descend(_children(state, digits, base, depth), T)
            if depth + 1 < L:
                if state.shape[1]:
                    stack.append((depth + 1, state))
                continue
            keep = (den > 1) & (np.gcd(den, base) == 1)
            yield np.stack([num[keep], den[keep], num[keep]])

    return _leaf_members(base, digits, leaves([(depth, state)]))


def _orbits(
    base: int, digits: tuple[int, ...], T: int, reps: np.ndarray
) -> np.ndarray:
    """The (num, den) rows, unordered and each value once, of the cycles of
    the representatives reps (int64 rows num, den, bound), the seeds and the
    preperiodic levels over them (see the module docstring), each level row
    kept while its den is within its cycle's bound, or T for the seeds'."""
    import numpy as np

    seeds = np.array([[0, 1, 0, T], [1, 1, base - 1, T]], dtype=np.int64)
    points = [seeds[np.isin(seeds[:, 2], digits)]]
    first, d, top = reps.T
    r = first
    while r.size:
        pred, r = np.divmod(base * r, d)
        points.append(np.stack([r, d, pred, top], axis=1))
        live = np.flatnonzero(r != first)
        first, d, r, top = first[live], d[live], r[live], top[live]
    n, q, pred, top = np.concatenate(points).T
    c = np.array(digits, dtype=np.int64)[:, None]
    rows = [np.stack([n, q], axis=1)]
    keep = c != pred  # level 1 leaves the cycle, so its digit is not pred
    # over the seed 1/1 (n == q), the seed 0/1 builds (c+1)/b if 0 and c+1 are allowed
    keep &= (n != q) | (digits[0] > 0) | ~np.isin(c + 1, digits)
    while n.size:
        n, q, top = np.broadcast_arrays(c * q + n, base * q, top)
        g = np.gcd(n, base)
        keep &= q // g <= top
        g = g[keep]
        n, q, top = n[keep] // g, q[keep] // g, top[keep]
        rows.append(np.stack([n, q], axis=1))
        keep = True
    return np.concatenate(rows)


def members_up_to(
    base: int, digits: Sequence[int], T: int, jobs: int = 1
) -> np.ndarray:
    """All reduced members (num, den) with den <= T, each once, by value.

    jobs caps the processes that descend the tree; a tree whose estimated
    work is below _FORK_WORK is descended in this process alone. Output is
    identical for every jobs value.
    """
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
    if base ** limit_depth(base, T) >= 2**62:
        raise PreconditionError(
            f"max denominator {T} too large for the int64 engine"
        )
    if _tree_work(base, len(digits), T) < _FORK_WORK:
        jobs = 1
    return _split_members(base, digits, T, jobs)


def _split_members(
    base: int, digits: tuple[int, ...], T: int, workers: int
) -> np.ndarray:
    """members_up_to's rows for a checked, sorted digit tuple, the tree
    descended by min(workers, frontier columns, CPUs) processes whatever its
    size."""
    import numpy as np

    L = limit_depth(base, T)
    # frontier: grow the root breadth first until there is enough parallel
    # grain; stop above the leaves so that every share descends a level
    depth, state = 0, _root()
    while workers > 1 and depth + 1 < L and 0 < state.shape[1] * len(digits) <= _FRONTIER:
        state = _descend(_children(state, digits, base, depth), T)[2]
        depth += 1
    workers = min(workers, state.shape[1], os.cpu_count() or 1)
    shares = [state[:, i::workers] for i in range(workers)]
    reps = _fork_split(partial(_descend_task, base, digits, T, L, depth), shares)
    reps = np.column_stack([reps, np.full(len(reps), T)])
    return _by_value(_orbits(base, digits, T, reps))


def _fork_split(
    run: Callable[[np.ndarray], np.ndarray], shares: list[np.ndarray]
) -> np.ndarray:
    """The int64 (num, den) rows of run(share) over all shares.

    This process runs the first share. Each other share runs in a forked
    child that writes its rows to a pipe as raw int64 bytes and leaves by
    os._exit, so it never returns into the caller's code or flushes the
    caller's buffers. The parent reads every pipe to its end and waits for
    every child; a child that fails or is killed raises InvariantError, and
    every way out of here kills and reaps the children still running. A
    child runs only numpy array code, so a lock held by another thread at
    the fork cannot stall it; the command line starts no such thread.
    """
    import numpy as np

    pipes, live = [], []
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(read)
                    with open(write, "wb") as out:
                        out.write(run(share).tobytes())
                    code = 0
                finally:
                    os._exit(code)
            live.append(pid)
            os.close(write)
            pipes.append(open(read, "rb"))
        results = [run(shares[0])]
        for pid, pipe in zip(list(live), pipes):
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            live.remove(pid)
            if status:
                ended = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-ended}" if ended < 0 else f"exit status {ended}"
                raise InvariantError(f"a worker process failed ({how})")
            results.append(np.frombuffer(data, dtype=np.int64).reshape(-1, 2))
        return np.concatenate(results)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in live:
            from signal import SIGKILL  # loaded only when a child is left

            os.kill(pid, SIGKILL)  # an unreaped child exists, if only as a zombie
            os.waitpid(pid, 0)


def _by_value(rows: np.ndarray) -> np.ndarray:
    """Int64 (num, den) rows of distinct reduced fractions in [0, 1] with
    den <= 2^62, in exact value order.

    The float key num/den rounds num, den and their quotient, so it is off
    by at most about 3*2^-53 of the value, and the keys never reorder two
    values more than 2^-50 of the larger apart.  Adjacent keys that close
    form runs, and each run is re-sorted by cross-multiplying.
    """
    import numpy as np

    key = rows[:, 0] / rows[:, 1]
    order = np.argsort(key)
    key, out = key[order], rows.take(order, axis=0)
    near = key[1:] - key[:-1] <= key[1:] * 2.0**-50
    tied = np.concatenate(([False], near, [False]))
    edges = np.flatnonzero(tied[1:] != tied[:-1])
    for start, stop in zip(edges[::2], edges[1::2] + 1):
        run = out[start:stop].tolist()
        run.sort(key=cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1]))
        out[start:stop] = run
    return out
