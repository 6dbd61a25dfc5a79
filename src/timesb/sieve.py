"""Output-sensitive enumeration of set members with bounded denominator.

Scanning all reduced fractions with denominator up to T touches ~0.3*T^2
numbers, hopeless at T = 10^6. Members of a digit-restricted set are rare,
so the engine works from the digit side instead: the allowed length-L digit
prefixes describe closed intervals of width base^-L, arranged in a tree. A
branch dies as soon as its interval contains no fraction with denominator
<= T, detected via the simplest fraction of the interval (Stern-Brocot
descent, vectorized over whole tree levels). Once base^L > T^2 an interval
contains at most one fraction with denominator <= T (two distinct ones would
differ by at least 1/T^2, more than the width), so each surviving leaf yields
exactly one candidate, and a digit walk beyond depth L settles membership.

Everything fits in int64: all intermediates are bounded by base^L <= base*T^2
(enforced), and the one comparison that would overflow (a*s <= r) is done as
a division instead.

Candidates sitting on a leaf boundary (denominator dividing base^L) can have
a second expansion leaving the tree, so they are returned to the caller for
a full membership check; interior candidates are settled here by walking
digits from the depth-L remainder, memoized per denominator so shared orbit
tails are walked once.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .errors import InvariantError, PreconditionError

_PRESTEPS = 8  # vectorized digit steps before falling back to Python walks
_CHUNK_PREFIXES = 8  # frontier prefixes per worker task


def limit_depth(base: int, T: int) -> int:
    """Smallest L with base^L > T^2."""
    L = 1
    w = base
    while w <= T * T:
        w *= base
        L += 1
    return L


def _simplest_batch(pref: np.ndarray, depth: int, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Simplest fraction in each closed interval [P/base^depth, (P+1)/base^depth].

    Continued-fraction descent, vectorized with an active-index compaction;
    terminates when the transformed interval contains an integer.
    """
    n = pref.shape[0]
    scale = base**depth
    p = pref.astype(np.int64, copy=True)
    q = np.full(n, scale, dtype=np.int64)
    r = p + 1
    s = np.full(n, scale, dtype=np.int64)
    h1 = np.ones(n, dtype=np.int64)
    h0 = np.zeros(n, dtype=np.int64)
    k1 = np.zeros(n, dtype=np.int64)
    k0 = np.ones(n, dtype=np.int64)
    out_num = np.empty(n, dtype=np.int64)
    out_den = np.empty(n, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    guard = 0
    while idx.size:
        guard += 1
        if guard > 200:
            raise InvariantError("continued fraction descent failed to terminate")
        ncl = (p + q - 1) // q
        # the done test ncl*s <= r, written division-first to stay in int64
        lim = np.where(ncl > 0, r // np.maximum(ncl, 1), s)
        done = s <= lim
        if done.any():
            sel = idx[done]
            a = ncl[done]
            out_num[sel] = a * h1[done] + h0[done]
            out_den[sel] = a * k1[done] + k0[done]
        cont = ~done
        if not cont.any():
            break
        pc, qc, rc, sc = p[cont], q[cont], r[cont], s[cont]
        h1c, h0c, k1c, k0c = h1[cont], h0[cont], k1[cont], k0[cont]
        a = pc // qc
        p, q, r, s = sc, rc - a * sc, qc, pc - a * qc
        h1, h0 = a * h1c + h0c, h1c
        k1, k0 = a * k1c + k0c, k1c
        idx = idx[cont]
    return out_num, out_den


def _strip_base_primes(den: np.ndarray, base: int) -> np.ndarray:
    """Divide out every prime factor shared with the base, elementwise."""
    out = den.copy()
    b = base
    p = 2
    while p * p <= b:
        if b % p == 0:
            while b % p == 0:
                b //= p
            mask = out % p == 0
            while mask.any():
                out[mask] //= p
                mask = out % p == 0
        p += 1
    if b > 1:
        mask = out % b == 0
        while mask.any():
            out[mask] //= b
            mask = out % b == 0
    return out


def _tail_all_good(base: int, good: Sequence[bool], den: int, r: int, memo: dict) -> bool:
    # memo values: True / False verdicts, 2 = on the current path
    path = []
    verdict = None
    while True:
        known = memo.get(r)
        if known is True or known is False:
            verdict = known
            break
        if known == 2:
            verdict = True  # closed a cycle of good digits
            break
        memo[r] = 2
        path.append(r)
        t = base * r
        if not good[t // den]:
            verdict = False
            break
        r = t % den
    for state in path:
        memo[state] = verdict
    return verdict


def _descend_chunk(
    base: int,
    digits: tuple[int, ...],
    T: int,
    L: int,
    depth: int,
    pref: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """From frontier prefixes at the given depth down to the leaves.

    Returns (members, boundary): members are (num, den) pairs verified by the
    interior digit walk; boundary pairs have denominators dividing base^L and
    need the caller's exact membership check.
    """
    dig = np.asarray(digits, dtype=np.int64)
    level = pref.astype(np.int64, copy=True)
    d = depth
    while d < L and level.size:
        level = (level[:, None] * base + dig[None, :]).ravel()
        d += 1
        _, dens = _simplest_batch(level, d, base)
        level = level[dens <= T]
    if not level.size:
        empty = np.empty((0, 2), dtype=np.int64)
        return empty, empty

    num, den = _simplest_batch(level, L, base)

    boundary_mask = _strip_base_primes(den, base) == 1
    boundary = np.stack([num[boundary_mask], den[boundary_mask]], axis=1)

    num_i, den_i = num[~boundary_mask], den[~boundary_mask]
    if num_i.size == 0:
        return np.empty((0, 2), dtype=np.int64), boundary

    big = pow(base, L)  # fits int64 by the members_up_to guard
    r = (num_i * (np.int64(big) % den_i)) % den_i

    good_lut = np.zeros(base, dtype=bool)
    good_lut[list(digits)] = True
    alive = np.ones(num_i.shape[0], dtype=bool)
    for _ in range(_PRESTEPS):
        if not alive.any():
            break
        t = base * r[alive]
        dg = t // den_i[alive]
        ok = good_lut[dg]
        r_new = t - dg * den_i[alive]
        sub = np.flatnonzero(alive)
        alive[sub[~ok]] = False
        r[sub[ok]] = r_new[ok]

    num_i, den_i, r = num_i[alive], den_i[alive], r[alive]
    if num_i.size == 0:
        return np.empty((0, 2), dtype=np.int64), boundary

    order = np.argsort(den_i, kind="stable")
    num_i, den_i, r = num_i[order], den_i[order], r[order]
    keep_rows = []
    i = 0
    n = den_i.shape[0]
    while i < n:
        j = i
        dv = int(den_i[i])
        while j < n and den_i[j] == dv:
            j += 1
        memo: dict[int, object] = {}
        for k in range(i, j):
            if _tail_all_good(base, good_lut, dv, int(r[k]), memo):
                keep_rows.append(k)
        i = j
    members = np.stack(
        [num_i[keep_rows], den_i[keep_rows]], axis=1
    ) if keep_rows else np.empty((0, 2), dtype=np.int64)
    return members, boundary


def _run_chunk(args):
    return _descend_chunk(*args)


def members_up_to(
    base: int,
    digits: Sequence[int],
    T: int,
    boundary_check: Callable[[int, int], bool],
    jobs: int = 1,
) -> np.ndarray:
    """All reduced members (num, den) with den <= T, sorted by (den, num).

    boundary_check(num, den) must decide exact membership; it is consulted
    only for candidates whose denominator divides base^limit_depth (interval
    endpoints, where a second digit expansion can exist). Output is identical
    for every jobs value.
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
    L = limit_depth(base, T)
    if base**L >= 2**62:
        raise PreconditionError(
            f"max denominator {T} too large for the int64 engine"
        )

    # frontier: grow until there is enough parallel grain or we hit the leaves
    dig = np.asarray(digits, dtype=np.int64)
    frontier = np.zeros(1, dtype=np.int64)
    depth = 0
    target = 1024
    while depth < L and frontier.size and frontier.size * len(digits) <= target:
        frontier = (frontier[:, None] * base + dig[None, :]).ravel()
        depth += 1
        _, dens = _simplest_batch(frontier, depth, base)
        frontier = frontier[dens <= T]

    tasks = [
        (base, digits, T, L, depth, frontier[i : i + _CHUNK_PREFIXES])
        for i in range(0, frontier.shape[0], _CHUNK_PREFIXES)
    ]
    if jobs == 1 or len(tasks) <= 1:
        results = [_run_chunk(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_chunk, tasks, chunksize=1))

    member_parts = [m for m, _ in results]
    boundary_parts = [bnd for _, bnd in results]
    members = (
        np.concatenate(member_parts)
        if member_parts
        else np.empty((0, 2), dtype=np.int64)
    )
    boundary = (
        np.concatenate(boundary_parts)
        if boundary_parts
        else np.empty((0, 2), dtype=np.int64)
    )

    if boundary.size:
        packed = boundary[:, 0] * np.int64(T + 1) + boundary[:, 1]
        _, first = np.unique(packed, return_index=True)
        boundary = boundary[first]
        ok = [
            boundary_check(int(nu), int(de))
            for nu, de in zip(boundary[:, 0], boundary[:, 1])
        ]
        members = np.concatenate([members, boundary[np.asarray(ok, dtype=bool)]])

    if members.size == 0:
        return members.reshape(0, 2)
    packed = members[:, 1] * np.int64(T + 1) + members[:, 0]
    packed = np.unique(packed)
    out = np.stack([packed % (T + 1), packed // (T + 1)], axis=1)
    return out
