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
simplest denominator is at least that.

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
expansion's. A denominator with a prime outside the base's puts the
candidate strictly inside its leaf, so its unique expansion starts with the
leaf's L good digits and the walk starts at r = num*base^L mod den. Any other
candidate terminates and has a second expansion, which may leave the tree
(a/256 in base 6 at L = 7 parts from its leaf only past depth L), so its walk
starts at r = num and settles both expansions.

The walk (`_walk`) is vectorized over (r, den) rows and also settles the
rows `timesb.cantor.enumerate_members` builds. Each round steps every live
row and drops it at its first bad digit. A row ends when r reaches 0 after
digit c: it is a member iff c and 0 are allowed (the greedy expansion) or
c >= 1 and c-1 and base-1 are (the dual, ..(c-1)(base-1)(base-1)..). Other
rows follow a Brent cycle check: a row is a member once r returns to its
checkpoint, which is reset to r after steps 1, 2, 4, 8, ... A return means
the checkpoint lies on the cycle and every remainder of the preperiod and
the cycle has produced a good digit, so a row with preperiod mu and cycle
length lambda finishes within about mu + 2*lambda rounds. The value 1
(r = den) is a member iff base-1 is allowed.

The tree is walked depth first over blocks of columns under a fixed budget.
A task pops a (depth, state) block, expands at most _BUDGET // k of its
columns (k digits) through one `_children` and one `_descend` call, pushes
the rest of the block back and the surviving children one level down. No
call sees more than _BUDGET columns (k if k > _BUDGET), and since the
stack's depths rise strictly from bottom to top it holds at most one block
per level: peak memory is about _BUDGET * L columns of 64 bytes, whatever
the digit set. The rest is pushed as a copy, because a view would keep the
whole popped block alive until the rest is popped. Leaf candidates go to
the walk each time at least _BUDGET rows are held, and once at the end.
With jobs > 1 the tree is first grown breadth first to a frontier of at
most _FRONTIER columns, which is cut into at most 4*jobs contiguous slices,
one task each; the final sort makes the output the same for every split.

numpy is imported by the functions that use it, on their first call, and
the process pool only when jobs > 1: importing this module loads neither,
so the commands that never reach the sieve or the walk start without them.
"""

from __future__ import annotations

import os
from functools import partial
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

    u1, u2, v1, v2 = state[:4]
    w1, w2 = v1 - u1, v2 - u2
    out = np.empty((8, len(digits), state.shape[1]), dtype=np.int64)
    for j, c in enumerate(digits):
        kid = out[:, j]
        kid[0] = base * u1 + c * w1
        kid[1] = base * u2 + c * w2
        kid[2] = kid[0] + w1
        kid[3] = kid[1] + w2
        kid[4:] = state[4:]
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
        fu = u1 // u2
        fv = v1 // v2
        # a = smallest integer >= the lower endpoint; the interval holds it
        # iff it is <= the upper endpoint's floor
        a = np.minimum(fu + (fu * u2 != u1), fv + (fv * v2 != v1))
        done = np.maximum(fu, fv) >= a
        # done: the simplest denominator; else a = floor + 1 and this is the
        # next k1 + k0, a lower bound for every later simplest denominator
        den = a * k1 + k0
        live = den <= T
        fin = np.flatnonzero(done & live)
        parts.append((a[fin], cur[:, fin]))
        go = np.flatnonzero(live & ~done)
        if not go.size:
            break
        a = fu[go]
        u1, u2, v1, v2, h1, h0, k1, k0 = cur[:, go]
        cur = np.stack(
            [u2, u1 - a * u2, v2, v1 - a * v2, a * h1 + h0, h1, a * k1 + k0, k1]
        )
    else:
        raise InvariantError("continued fraction descent failed to terminate")
    a = np.concatenate([pa for pa, _ in parts])
    final = np.concatenate([ps for _, ps in parts], axis=1)
    return a * final[4] + final[5], a * final[6] + final[7], final


def _walk(base: int, digits: Sequence[int], r: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Member mask of int64 rows (r, den), 0 <= r <= den, each the value
    r/den with all digits so far good (see the module docstring)."""
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
    # boundary rows have no prime outside the base's. Every base prime left
    # in rest divides g, which starts as gcd(den, base^L), so dividing g out
    # until it is 1 strips them all
    scale = np.int64(pow(base, L))  # < 2^62 by the members_up_to guard
    rest, g = den, np.gcd(den, scale)
    while (g > 1).any():
        rest = rest // g
        g = np.gcd(rest, g)
    r = np.where(rest == 1, num, num * (scale % den) % den)  # < T^2 < base^L
    hit = _walk(base, digits, r, den)
    return np.stack([num[hit], den[hit]], axis=1)


def _descend_task(
    base: int,
    digits: tuple[int, ...],
    T: int,
    L: int,
    depth: int,
    state: np.ndarray,
) -> np.ndarray:
    """From final states at depth < L down to the leaves, depth first over
    blocks of columns (see the module docstring); returns the (num, den)
    rows of the leaf candidates that are members."""
    import numpy as np

    step = max(1, _BUDGET // len(digits))  # columns expanded per call
    stack = [(depth, state)]
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
    """All reduced members (num, den) with den <= T, sorted by (den, num).

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

    state, depth, parts = _root(), 0, 1
    if jobs > 1:
        # frontier: grow breadth-first until there is enough parallel grain,
        # stopping above the leaves so that every task descends a level
        while depth + 1 < L and 0 < state.shape[1] * len(digits) <= _FRONTIER:
            _, _, state = _descend(_children(state, digits, base), T)
            depth += 1
        parts = max(1, min(4 * jobs, state.shape[1]))
    tasks = np.array_split(state, parts, axis=1)
    run = partial(_descend_task, base, digits, T, L, depth)
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
    if members.size == 0:
        return members.reshape(0, 2)
    packed = members[:, 1] * np.int64(T + 1) + members[:, 0]
    packed = np.unique(packed)  # also drops a boundary row two leaves share
    return np.stack([packed % (T + 1), packed // (T + 1)], axis=1)
