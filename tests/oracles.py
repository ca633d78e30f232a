"""Reference functions shared by several test modules."""

import numpy as np

from lineworld.analysis import _choose
from lineworld.dynamics import ReplacementPolicy, replacement_decision
from lineworld.linkgen import BernoulliOffsets, harmonic_numbers, sample_offsets
from lineworld.overlay import NO_NEIGHBOR, OverlayGraph
from lineworld.routing import Backtrack, RandomRestart, Sidedness


def harmonic_number(n: int) -> float:
    """H_n = 1 + 1/2 + ... + 1/n as one sum, with H_0 = 0."""
    return float(np.sum(1.0 / np.arange(1, n + 1))) if n >= 1 else 0.0


def base_digits_nonzero(distance: int, b: int) -> int:
    """Number of nonzero base-b digits of `distance`: the hop count of
    digit routing on the base-b deterministic scheme."""
    count = 0
    while distance:
        if distance % b:
            count += 1
        distance //= b
    return count


def base_digit_sum(distance: int, b: int) -> int:
    """Sum of the base-b digits of `distance`: the hop count of greedy
    routing on the powers-of-b scheme, one power of b per hop."""
    total = 0
    while distance:
        total += distance % b
        distance //= b
    return total


def deterministic_links(u: int, n: int, b: int) -> set[int]:
    """Sinks of u on the base-b scheme, one node at a time: u +/- j*b^i for
    j in [1, b-1] and b^i < n (i < ceil(log_b n)), clipped to the line."""
    sinks: set[int] = set()
    step = 1
    while step < n:
        for j in range(1, b):
            sinks.update((u - j * step, u + j * step))
        step *= b
    return {v for v in sinks if 0 <= v < n}


def power_links(u: int, n: int, b: int) -> set[int]:
    """Sinks of u on the powers-of-b scheme, one node at a time: u +/- b^i
    for b^i <= n (i <= floor(log_b n)), clipped to the line."""
    sinks: set[int] = set()
    step = 1
    while step <= n:
        sinks.update((u - step, u + step))
        step *= b
    return {v for v in sinks if 0 <= v < n}


def offset_law(inclusion: dict) -> BernoulliOffsets:
    """The Bernoulli offset law of a {delta: inclusion probability} map."""
    return BernoulliOffsets(list(inclusion), list(inclusion.values()))


def long_links(g: OverlayGraph, u: int) -> list[int]:
    """u's long-link sinks in slot order."""
    row = g.sinks[u].tolist()
    return row[:row.index(NO_NEIGHBOR)] if NO_NEIGHBOR in row else row


def draw_offsets(law: BernoulliOffsets, rng) -> np.ndarray:
    """One offset set drawn from `law`, ascending."""
    return law.deltas[sample_offsets(law, rng)]


def reference_offset_build(n: int, law: BernoulliOffsets, rng) -> OverlayGraph:
    """Full-line build of a Bernoulli offset law one node at a time: node u,
    in node order, draws one uniform per offset of the sorted law and links
    to u - delta for each kept delta on the line, in offset order."""
    g = OverlayGraph(n)
    g.alive[:] = g.member[:] = True
    for u in range(n):
        keep = rng.random(law.deltas.size) < law.probs
        g.set_links(u, [u - d for d in law.deltas[keep].tolist() if 0 <= u - d < n])
    return g


def reference_line_links(sources, n: int, links: int, rng,
                         present: np.ndarray | None = None) -> np.ndarray:
    """`linkgen.sample_line_links` with masked selects, drawing the same
    uniforms: a binary search for d, a side chosen by `np.where`, and a
    rejection pass that scatters the accepted draws it finds by `nonzero`
    into their rows' next free slots; short rows draw again in batches
    that double in size."""
    h = harmonic_numbers(n - 1)
    us = np.asarray(sources, dtype=np.int64).reshape(-1)

    def grid(us, draws):
        u = us[:, None]
        mass_left = h[u]
        r = rng.random((us.size, draws))
        r *= mass_left + h[n - 1 - u]
        on_left = r < mass_left
        d = np.maximum(np.searchsorted(h, np.where(on_left, r, r - mass_left), "left"), 1)
        return np.clip(np.where(on_left, u - d, u + d), 0, n - 1)

    if present is None:
        return grid(us, links)
    out = np.empty((us.size, links), dtype=np.int64)
    filled = np.zeros(us.size, dtype=np.int64)
    rows = np.arange(us.size)
    batch = links
    while rows.size:
        sinks = grid(us[rows], batch)
        ok = present[sinks]
        slot = np.cumsum(ok, axis=1) + filled[rows, None]
        i, j = np.nonzero(ok & (slot <= links))
        out[rows[i], slot[i, j] - 1] = sinks[i, j]
        filled[rows] = np.minimum(slot[:, -1], links)
        rows = rows[filled[rows] < links]
        batch = min(2 * batch, max(links, (1 << 22) // max(rows.size, 1)))
    return out


def reference_retain_links(sinks: np.ndarray, ages: np.ndarray,
                           keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`OverlayGraph.retain_links` one row at a time: each row's kept
    slots in slot order, then its dropped ones in slot order; dropped sinks
    become NO_NEIGHBOR, and every age moves with its slot."""
    out_sinks, out_ages = [], []
    for sink_row, age_row, keep_row in zip(sinks.tolist(), ages.tolist(), keep.tolist()):
        kept = [i for i, k in enumerate(keep_row) if k]
        dropped = [i for i, k in enumerate(keep_row) if not k]
        out_sinks.append([sink_row[i] for i in kept] + [NO_NEIGHBOR] * len(dropped))
        out_ages.append([age_row[i] for i in kept + dropped])
    return (np.array(out_sinks, dtype=np.int64).reshape(sinks.shape),
            np.array(out_ages, dtype=np.int64).reshape(ages.shape))


def nearest_members(member) -> list[list[int]]:
    """Immediate sinks of every position, scanning the membership mask
    outward one position at a time: the nearest member on each side, left
    first, for members only."""
    n = len(member)
    out = []
    for u in range(n):
        row = []
        for step in (-1, 1) if member[u] else ():
            v = u + step
            while 0 <= v < n and not member[v]:
                v += step
            if 0 <= v < n:
                row.append(v)
        out.append(row)
    return out


def reference_adjacency(g: OverlayGraph, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    """`OverlayGraph`'s adjacency as CSR (indptr, indices) from one sort of
    int64 keys src * n + dst over every long, immediate and (symmetric)
    reversed long link, self-links and empty slots dropped."""
    n, width = g.sinks.shape
    holders = np.repeat(np.arange(n, dtype=np.int64), width)
    sinks = g.sinks.ravel()
    line = [(u, v) for u, row in enumerate(nearest_members(g.member)) for v in row]
    line_src, line_dst = np.array(line, dtype=np.int64).reshape(-1, 2).T
    src = [holders, line_src] + ([sinks] if symmetric else [])
    dst = [sinks, line_dst] + ([holders] if symmetric else [])
    src, dst = np.concatenate(src), np.concatenate(dst)
    edge = (src != NO_NEIGHBOR) & (dst != NO_NEIGHBOR) & (src != dst)
    key = np.sort(src[edge] * n + dst[edge])
    key = key[np.diff(key, prepend=-1) != 0]
    return np.searchsorted(key, np.arange(n + 1) * n), key % n


def exact_mean_hops_to_zero(n: int, links: int) -> np.ndarray:
    """E[x], the expected greedy hops from x to target 0 on a full line of
    n positions where every node holds `links` directed 1/d long links, for
    x = 0..n-1.  Greedy toward the line's end takes the lowest candidate,
    never overshooting, so each hop leaves x for its best position k:
    one link lands in [0, k] w.p. F_x(k) = (H_x - H_{x-k-1}) / (H_x +
    H_{n-1-x}), so P(best <= k) = 1 - (1 - F_x(k))**links for k <= x - 2,
    and the immediate neighbour x - 1 takes the rest.  Solved in
    increasing x from E[0] = 0 by E[x] = 1 + sum_k P(best = k) E[k]."""
    h = harmonic_numbers(n)
    e = np.zeros(n)
    for x in range(1, n):
        reach = (h[x] - h[x - 1:0:-1]) / (h[x] + h[n - 1 - x])
        at_most = np.append(1.0 - (1.0 - reach) ** links, 1.0)  # P(best <= k), k < x
        e[x] = 1.0 + np.diff(at_most, prepend=0.0) @ e[:x]
    return e


def step_point(x: int, offsets, sidedness: Sidedness) -> int:
    """Greedy successor of position x given the sorted available offsets.

    0 is absorbing.  Raises ValueError when no offset is usable from x.
    """
    if x == 0:
        return 0
    if sidedness is Sidedness.ONE_SIDED and x < 0:
        raise ValueError("one-sided chain positions are nonnegative")
    return x - offsets[_choose(x, offsets, sidedness)]


def nearest_live(live, target: int) -> int:
    """Nearest element of the sorted `live` positions to `target`, one
    candidate at a time; ties go to the lower position."""
    best = None
    for c in live:
        if best is None or abs(c - target) < abs(best - target):
            best = c
    if best is None:
        raise ValueError("no live positions")
    return int(best)


def reference_join(g: OverlayGraph, v: int, links: int, policy: ReplacementPolicy,
                   rng) -> OverlayGraph:
    """`dynamics.join` in its plain form: `Generator.choice` draws the
    requesters from freshly computed weights, the joiner's row is one call
    of the reference 1/d draw (a binary search and `np.clip`), and the
    basin owners take their masked selects.  It draws the same uniforms
    and writes the same rows."""
    if g.alive[v]:
        raise ValueError("position already live")
    live_arr = g.live_sorted()
    g.set_member(v, True)
    row = ()
    if live_arr.size >= 2:
        targets = reference_line_links([v], g.n, links, rng)[0]
        i = np.searchsorted(live_arr, targets)
        lower = live_arr[np.maximum(i - 1, 0)]
        upper = live_arr[np.minimum(i, live_arr.size - 1)]
        row = np.where((i == live_arr.size) | ((i > 0) & (targets - lower <= upper - targets)),
                       lower, upper)
    g.set_links(v, row)
    if live_arr.size == 0:
        return g
    k = min(int(rng.poisson(links)), live_arr.size - 1)
    if k > 0:
        w = 1.0 / np.abs(live_arr - v).astype(float)
        requesters = rng.choice(live_arr, size=k, replace=False, p=w / w.sum())
        ages = g.ages[requesters] if policy is ReplacementPolicy.OLDEST else None
        slots = replacement_decision(g.sinks[requesters], requesters, v, rng, ages)
        hit = slots >= 0
        if hit.any():
            g.replace_link(requesters[hit], slots[hit], v)
    return g


def parse_dump(dump: str) -> tuple[list[bool], list[list[int]], list[list[int]]]:
    """Per position of `OverlayGraph.dump_text()`: liveness, immediate
    sinks in dump order and sorted long sinks."""
    alive, immediate, longs = [], [], []
    for line in dump.splitlines()[2:]:
        _, flag, imm, long_text = line.split("\t")
        alive.append(flag == "1")
        immediate.append([int(v) for v in imm.split(",") if v])
        longs.append([int(v) for v in long_text.split(",") if v])
    return alive, immediate, longs


def immediate_column(g: OverlayGraph) -> list[list[int]]:
    """Immediate sinks of every position, as `g.dump_text()` lists them."""
    return parse_dump(g.dump_text())[1]


def reference_neighbors(dump: str, symmetric: bool) -> list[list[int]]:
    """Greedy candidates of every position, read from the dump: immediate
    and long sinks, plus, with symmetric links, every holder of a long link
    to the position (immediate links are two-way already).  A position is
    never its own candidate."""
    _, immediate, longs = parse_dump(dump)
    out = []
    for u in range(len(longs)):
        sinks = set(longs[u] + immediate[u])
        if symmetric:
            sinks |= {h for h, row in enumerate(longs) if u in row}
        sinks.discard(u)
        out.append(sorted(sinks))
    return out


def reference_step(alive, cands, cur: int, dst: int, sidedness: Sidedness, excluded,
                   probe: bool):
    """Greedy hand-off by scanning every candidate; None means stuck.

    Two-sided: nearest to dst, ties to the side that does not overshoot,
    and only if strictly closer than cur.  One-sided: nearest to dst among
    candidates strictly between cur and dst or on it.  The probe rule
    drops dead candidates first; the commit rule is stuck when its best
    candidate is dead."""
    pool = [c for c in cands[cur] if c not in excluded and (alive[c] or not probe)]
    side = 1 if cur > dst else -1
    if sidedness is Sidedness.ONE_SIDED:
        pool = [c for c in pool if 0 <= side * (c - dst) < side * (cur - dst)]
    else:
        pool = [c for c in pool if abs(c - dst) < abs(cur - dst)]
    if not pool:
        return None
    best = min(pool, key=lambda c: (abs(c - dst), side * (c - dst) < 0, c))
    return best if alive[best] else None


def reference_route(alive, cands, src: int, dst: int, sidedness: Sidedness, strategy,
                    max_hops: int, rng, probe: bool):
    """`routing.route` written out from its documentation, over liveness and
    candidates read from the dump (`parse_dump`, `reference_neighbors`):
    returns (status, hops, backtracks, restarts, capped, path).

    A stuck search restarts at `live[rng.integers(len(live))]` while the
    restart budget lasts (the jump is not a hop), else backs up to the last
    entry of a trail of its `history` most recent (node, choice) moves and
    excludes that choice there, else fails.  A forward or backtrack move
    that would make hop max_hops + 1 ends the route capped, uncounted."""
    live = [u for u, a in enumerate(alive) if a]
    history = strategy.history if isinstance(strategy, Backtrack) else 0
    budget = strategy.max_restarts if isinstance(strategy, RandomRestart) else 0
    trail, excluded = [], {}
    cur, path, hops, backtracks, restarts = src, [src], 0, 0, 0
    while cur != dst:
        nxt = reference_step(alive, cands, cur, dst, sidedness, excluded.get(cur, ()), probe)
        if nxt is None and restarts < budget:
            restarts += 1
            cur = int(live[rng.integers(len(live))])
            path.append(cur)
            continue
        if nxt is None and not trail:
            return "failed", hops, backtracks, restarts, False, path
        if hops == max_hops:
            return "failed", hops, backtracks, restarts, True, path
        if nxt is None:
            cur, choice = trail.pop()
            excluded.setdefault(cur, set()).add(choice)
            backtracks += 1
        else:
            trail = (trail + [(cur, nxt)])[-history:] if history else []
            cur = nxt
        hops += 1
        path.append(cur)
    return "delivered", hops, backtracks, restarts, False, path
