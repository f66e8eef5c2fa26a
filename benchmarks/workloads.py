"""Seeded inputs for the benchmark workloads, and the facts their gates check.

Stdlib only and independent of qbounds: graphs are written in graph6 by
this module's own encoder and the expected counts and witnesses are
derived here, so a defect in the program shows as a failed gate rather
than as a self-consistent wrong answer.

A workload's inputs are a JSON-able dict built from ``(workload, seed)``
alone; the same pair always gives byte-identical inputs.
"""

import random

WORKLOADS = ("graph_sweep", "subset_sweep", "exact_check", "emit_parallel")

# graph_sweep: ROADMAP W1 shape through the exhaustive mask-chunk path.
# Neither checker ever escalates to exact arithmetic.
GRAPH_SWEEP_ORDERS = (3, 6)
GRAPH_SWEEP_BOUNDS = ("main_q1q2", "l_sum2")

# subset_sweep: ROADMAP W2 shape on a seeded file corpus; a fixed number
# of graphs per order keeps the (graph, U) pair count seed-independent.
SUBSET_ORDERS = (5, 6, 7, 8)
SUBSET_PER_ORDER = 16
SUBSET_BOUNDS = ("t1_sandwich:safe", "gm_qanalog")

# emit_parallel: four 2048-graph chunks, so both pool workers get two.
EMIT_ORDERS = (7, 8, 9, 10)
EMIT_PER_ORDER = 2048
EMIT_BOUNDS = "schur_sum,grone_sum_L,main_q1q2"
EMIT_WORKERS = 2

# Labeled connected graphs on n vertices (OEIS A001187).
CONNECTED_LABELED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}

# exact_check pass layout.  Sorted by latency one pass is 16 float-path
# requests, then 22 exact-path ties: six stars at n = 8, two ties at each
# of n = 10..20, three stars at n = 24 and one star at n = 30.  The median
# therefore falls inside the n = 8 block and the p95 (1.9 requests per
# pass beyond it) inside the n = 24 block, so neither statistic sits on
# the edge between two input sizes whatever the number of passes.
TIE_SMALL_ORDER = 8
TIE_SMALL_COUNT = 6
TIE_MID_ORDERS = (10, 12, 14, 16, 18, 20)
TIE_LARGE_ORDER = 24
TIE_LARGE_COUNT = 3
TIE_MAX_ORDER = 30
CONTROL_ORDERS = (8, 12, 16, 20, 24, 30)
FAMILY_REQUESTS = 4


def graph6(n, edges):
    """Short-form graph6 of a graph on n <= 62 vertices."""
    if not 0 <= n <= 62:
        raise ValueError("graph6 short form needs 0 <= n <= 62")
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(i, j) in present for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for bit in bits[k:k + 6]:
            value = (value << 1) | bit
        chars.append(chr(value + 63))
    return "".join(chars)


def is_connected(n, edges):
    if n <= 1:
        return True
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_connected(rng, n, density=0.5):
    """Edges of a G(n, m) sample with m = density * C(n, 2), redrawn until
    connected.  A fixed edge count keeps the work per graph seed-independent."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    m = max(n - 1, round(density * len(pairs)))
    while True:
        edges = sorted(rng.sample(pairs, m))
        if is_connected(n, edges):
            return edges


def relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def star_edges(n, center=0):
    return [(center, v) for v in range(n) if v != center]


def complete_split_edges(p):
    """K2 joined to p independent vertices (the ``csplit:p`` family)."""
    return [(0, 1)] + [(c, w) for c in (0, 1) for w in range(2, 2 + p)]


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def connected_count(n_min, n_max):
    return sum(CONNECTED_LABELED[n] for n in range(n_min, n_max + 1))


def main_q1q2_witnesses(n_min, n_max):
    """Equality class of q1 + q2 >= d1 + d2 + 1: K3 and every labeled star."""
    found = {graph6(3, [(0, 1), (0, 2), (1, 2)])} if n_min <= 3 <= n_max else set()
    return sorted(found | set(star_witnesses(n_min, n_max)))


def star_witnesses(n_min, n_max):
    return sorted(
        graph6(n, star_edges(n, c))
        for n in range(max(3, n_min), n_max + 1)
        for c in range(n)
    )


def _check(argv_tail, kind, **extra):
    request = {"kind": kind, "argv": ["check"] + argv_tail + ["--format", "json"]}
    request.update(extra)
    return request


def _tie(rng, shape, n, relabeled):
    """A guard-band tie: q1_lower on a star, q2_lower on K_n or K2 v pK1."""
    bound = "q1_lower" if shape == "star" else "q2_lower"
    if not relabeled or shape == "complete":
        literal = {"star": "star:%d", "complete": "complete:%d", "csplit": "csplit:%d"}
        arg = n - 2 if shape == "csplit" else n
        return _check(["--family", literal[shape] % arg, "--bound", bound], "tie", n=n)
    edges = star_edges(n) if shape == "star" else complete_split_edges(n - 2)
    return _check([graph6(n, relabel(rng, n, edges)), "--bound", bound], "tie", n=n)


def _exact_check_requests(rng):
    requests = []
    for k in range(TIE_SMALL_COUNT):
        requests.append(_tie(rng, "star", TIE_SMALL_ORDER, relabeled=k % 3 != 0))
    shapes = ("complete", "csplit", "star")
    for k, n in enumerate(TIE_MID_ORDERS):
        requests.append(_tie(rng, shapes[k % 3], n, relabeled=True))
        requests.append(_tie(rng, shapes[(k + 1) % 3], n, relabeled=False))
    for _ in range(TIE_LARGE_COUNT):
        requests.append(_tie(rng, "star", TIE_LARGE_ORDER, relabeled=True))
    requests.append(_tie(rng, "star", TIE_MAX_ORDER, relabeled=True))
    for k, n in enumerate(CONTROL_ORDERS):
        if k % 2:
            requests.append(_check(["--family", "path:%d" % n, "--bound", "q2_lower"],
                                   "control", n=n))
        else:
            g6 = graph6(n, relabel(rng, n, cycle_edges(n)))
            requests.append(_check([g6, "--bound", "q1_lower"], "control", n=n))
        g6 = graph6(n, random_connected(rng, n, density=0.3))
        bound = ("main_q1q2", "q1_lower", "q2_lower")[k % 3]
        requests.append(_check([g6, "--bound", bound], "control", n=n))
    for _ in range(FAMILY_REQUESTS):
        p = rng.randrange(0, 5)
        r = rng.randrange(1, 10)
        s = rng.randrange(1, r + 1)
        literal = "G:%d,%d,%d" % (p, r, s)
        requests.append({"kind": "family", "argv": ["family", literal, "--format", "json"],
                         "n": p + r + s + 2})
    rng.shuffle(requests)
    return requests


def make_inputs(workload, seed):
    """The inputs of one run; ``graphs`` lists are graph6 lines."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "graph_sweep":
        lo, hi = GRAPH_SWEEP_ORDERS
        return {
            "workload": workload,
            "corpus": "enumerate:%d..%d" % (lo, hi),
            "bounds": list(GRAPH_SWEEP_BOUNDS),
        }
    if workload == "subset_sweep":
        graphs = [
            graph6(n, random_connected(rng, n))
            for n in SUBSET_ORDERS
            for _ in range(SUBSET_PER_ORDER)
        ]
        rng.shuffle(graphs)
        return {
            "workload": workload,
            "graphs": graphs,
            "bounds": list(SUBSET_BOUNDS),
            "subsets": "all-subsets",
        }
    if workload == "exact_check":
        return {"workload": workload, "requests": _exact_check_requests(rng)}
    if workload == "emit_parallel":
        graphs = [
            graph6(n, random_connected(rng, n))
            for n in EMIT_ORDERS
            for _ in range(EMIT_PER_ORDER)
        ]
        rng.shuffle(graphs)
        return {
            "workload": workload,
            "graphs": graphs,
            "bounds": EMIT_BOUNDS,
            "workers": EMIT_WORKERS,
        }
    raise ValueError("unknown workload %r" % (workload,))


def expectations(inputs):
    """What a correct run of these inputs must report."""
    workload = inputs["workload"]
    if workload == "graph_sweep":
        lo, hi = GRAPH_SWEEP_ORDERS
        return {
            "graphs": connected_count(lo, hi),
            "witnesses": {
                "main_q1q2": main_q1q2_witnesses(lo, hi),
                "l_sum2": star_witnesses(lo, hi),
            },
        }
    if workload == "subset_sweep":
        pairs = sum(2 ** (ord(g6[0]) - 63) - 2 for g6 in inputs["graphs"])
        return {"graphs": len(inputs["graphs"]), "pairs": pairs}
    if workload == "emit_parallel":
        return {"graphs": len(inputs["graphs"])}
    return {}
