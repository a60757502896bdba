"""Seeded request generators for the hermcycles benchmark.

The generators are self-contained: Gram matrices are assembled and disguised
with the benchmark's own exact arithmetic on pairs (a, b) meaning a + b*pi
with pi**2 = pi0, so later edits to the package or to its tests cannot change
what the benchmark sends.  The program only ever sees the generated request
documents.

A workload is a sequence of rounds.  Round r of a workload depends only on
(seed, r) and always has the same composition; only the random bases,
units and parameters change with the seed.  Each request carries what a
correct answer must satisfy, for ``checks.Checker``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("enum-deep", "enum-small", "queries")

# Enumeration bounds large enough for every lattice of the family (rank 4,
# Jordan scale 4); passed on every vertices/verify request.
ENUM_FLAGS = ("--max-rank", "4", "--max-scale", "4")


@dataclass(frozen=True)
class Request:
    """One CLI call: arguments, the request text on stdin, the expectation."""

    argv: tuple[str, ...]
    text: str
    expect: dict = field(hash=False, compare=False)


# ---------------------------------------------------------------------------
# exact arithmetic on a + b*pi, for building inputs only


def _mul(x, y, pi0):
    return (x[0] * y[0] + x[1] * y[1] * pi0, x[0] * y[1] + x[1] * y[0])


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _conj(x):
    return (x[0], -x[1])


_ZERO = (Fraction(0), Fraction(0))
_ONE = (Fraction(1), Fraction(0))


def _matmul(A, B, pi0):
    n, m, k = len(A), len(B[0]), len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = _ZERO
            for t in range(k):
                if A[i][t] != _ZERO and B[t][j] != _ZERO:
                    acc = _add(acc, _mul(A[i][t], B[t][j], pi0))
            row.append(acc)
        out.append(row)
    return out


def _pi_power(e, pi0):
    if e % 2 == 0:
        return (pi0 ** (e // 2), Fraction(0))
    return (Fraction(0), pi0 ** ((e - 1) // 2))


def block_sum(blocks):
    n = sum(len(b) for b in blocks)
    G = [[_ZERO] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                G[off + i][off + j] = x
        off += len(b)
    return G


def diagonal_block(value):
    return [[(Fraction(value), Fraction(0))]]


def hyperbolic_block(i, pi0):
    """[[0, pi**i], [(-pi)**i, 0]]: the rank-2 hyperbolic plane of scale i."""
    x = _pi_power(i, pi0)
    return [[_ZERO, x], [_conj(x), _ZERO]]


def random_gl(rng, p, pi0, n):
    """Random element of GL_n(O_H): unit diagonal x unipotents x permutation.

    Entries are small elements of Z[pi]: diagonal units a + b*pi with a a
    small integer prime to p, unipotent entries a + b*pi with a, b in
    {-1, 0, 1}.  Small integral entries keep the cost of a disguised request
    close to the same for every seed.  Above rank 4 the unipotent factors
    keep about four off-diagonal entries per row, so entry sizes grow with
    the rank roughly as they do at rank 4 instead of with its square.
    """
    fill = min(1.0, 4 / n)
    small = (-1, 0, 1)
    units = [a for a in (1, -1, 2, -2) if a % p]

    def entry():
        if rng.random() >= fill:
            return _ZERO
        return (Fraction(rng.choice(small)), Fraction(rng.choice(small)))

    diag = [[(Fraction(rng.choice(units)), Fraction(rng.choice(small))) if i == j else _ZERO
             for j in range(n)] for i in range(n)]
    upper = [[_ONE if i == j else (entry() if i < j else _ZERO)
              for j in range(n)] for i in range(n)]
    lower = [[_ONE if i == j else (entry() if i > j else _ZERO)
              for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    P = [[_ONE if perm[i] == j else _ZERO for j in range(n)] for i in range(n)]
    return _matmul(_matmul(_matmul(diag, upper, pi0), lower, pi0), P, pi0)


def disguise(G, U, pi0):
    """Gram of the same lattice in the basis U: U^T * G * conj(U)."""
    Ut = [list(col) for col in zip(*U)]
    Uc = [[_conj(x) for x in row] for row in U]
    return _matmul(_matmul(Ut, G, pi0), Uc, pi0)


def gram_json(G):
    """Entries as CLI request values: rationals as strings, else {"a", "b"}."""
    return [[str(a) if not b else {"a": str(a), "b": str(b)} for a, b in row]
            for row in G]


def _doc(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def smallest_nonresidue(p):
    return next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)


# ---------------------------------------------------------------------------
# the acceptance family of the structure theorems


def acceptance_family():
    """(label, p, eps, blocks) for all 166 lattices; blocks build the Gram."""
    out = []
    for p in (3, 5):
        for eps in (1, -1):
            pi0 = Fraction(eps * p)
            r = smallest_nonresidue(p)
            tag = f"p{p},eps{eps}"
            for a1 in range(3):
                for a2 in range(3):
                    for u1 in (1, r):
                        for u2 in (1, r):
                            out.append((
                                f"{tag}:diag(pi0^{a1}*{u1}, pi0^{a2}*{u2})", p, eps,
                                [diagonal_block(pi0**a1 * u1), diagonal_block(pi0**a2 * u2)],
                            ))
            h1 = hyperbolic_block(1, pi0)
            out.append((f"{tag}:H(1)", p, eps, [h1]))
            out.append((f"{tag}:H(3)", p, eps, [hyperbolic_block(3, pi0)]))
            out.append((f"{tag}:H(1)+(1)", p, eps, [h1, diagonal_block(1)]))
            out.append((f"{tag}:H(1)+(pi0)", p, eps, [h1, diagonal_block(pi0)]))
            out.append((f"{tag}:H(1)+(pi0*r)", p, eps, [h1, diagonal_block(pi0 * r)]))
            if p == 3:
                out.append((f"{tag}:H(1)+H(3)", p, eps, [h1, hyperbolic_block(3, pi0)]))
    return out


DEEP_LABELS = ("p3,eps1:H(1)+H(3)", "p3,eps-1:H(1)+H(3)")


def _enum_request(command, label, p, eps, blocks, rng):
    pi0 = Fraction(eps * p)
    G = block_sum(blocks)
    G = disguise(G, random_gl(rng, p, pi0, len(G)), pi0)
    argv = (command, "--p", str(p), "--epsilon", str(eps)) + ENUM_FLAGS
    return Request(argv, _doc({"gram": gram_json(G)}), {"kind": command, "label": label})


def enum_deep_round(seed, r):
    """One verify request on H(1)+H(3) at p=3; eps = 1, -1 in turn."""
    rng = random.Random(f"enum-deep/{seed}/{r}")
    family = {label: (p, eps, blocks) for label, p, eps, blocks in acceptance_family()}
    label = DEEP_LABELS[r % 2]
    return [_enum_request("verify", label, *family[label], rng)]


# enum-small keeps the lattices at p=3.  At p=5 the scale-4 lattices take
# 0.1-0.25 s each, and a pass over the family would take about 7 s instead of
# 1.8 s: too few passes per run for the best-of-passes latency to be steady.
SMALL_PRIMES = (3,)


def enum_small_round(seed, r):
    """Every other lattice of the family at p=3 once through vertices and verify."""
    rng = random.Random(f"enum-small/{seed}/{r}")
    out = []
    for label, p, eps, blocks in acceptance_family():
        if label in DEEP_LABELS or p not in SMALL_PRIMES:
            continue
        for command in ("vertices", "verify"):
            out.append(_enum_request(command, label, p, eps, blocks, rng))
    return out


# ---------------------------------------------------------------------------
# the closed-form query mix

QUERY_PRIMES = (3, 5, 7, 11, 13)
# Ranks of the 24 jordan and the 24 cycle requests of a round.  Together with
# the three near-bound global requests they set the tail: the slowest 1% of a
# round falls inside the near-bound global group and the slowest 10% inside
# the rank-8 group, so neither percentile sits on a step between groups.
QUERY_RANKS = (1, 2, 3, 4, 6) * 2 + (8,) * 9 + (12,) * 2 + (16,) * 3
HILBERT_PAIRS = 30
HILBERT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
# Primes just below the default trial-division bound of 10**6: a determinant
# q1*q2 of two of them makes global trial-divide almost to the bound.
NEAR_BOUND_PRIMES = (999953, 999959, 999961, 999979, 999983)

# Golden global fixtures: request and the exact expected report.
GOLDEN_GLOBAL = (
    ({"delta": -3, "matrix": [[1, 0], [0, 1]]}, {
        "det": "1", "diff0": [], "positive_definite": True,
        "ramified_primes_odd": [3], "self_dual_exists": True,
        "status": "ramified-supported", "unsupported_primes": [],
        "per_prime": {"3": {
            "L_ge1_split": True, "L_ge2_split": True, "dimension": 0,
            "irreducible": True, "m": 0, "n_even": 0, "n_odd": 0, "rank_L1": 0,
            "single_point": True, "status": "nonempty", "t": 0,
            "zero_dimensional": True}},
    }),
    ({"delta": -3, "matrix": [[1, 0], [0, 3]]}, {
        "det": "3", "diff0": [], "positive_definite": True,
        "ramified_primes_odd": [3], "self_dual_exists": True,
        "status": "ramified-supported", "unsupported_primes": [],
        "per_prime": {"3": {
            "L_ge1_split": False, "L_ge2_split": False, "dimension": 0,
            "irreducible": True, "m": 1, "n_even": 1, "n_odd": 0, "rank_L1": 0,
            "single_point": True, "status": "nonempty", "t": 0,
            "zero_dimensional": True}},
    }),
    ({"delta": -3, "matrix": [[2, 0], [0, 5]]}, {
        "det": "10", "diff0": [2, 5], "positive_definite": True,
        "ramified_primes_odd": [3], "self_dual_exists": False,
        "status": "empty", "unsupported_primes": [], "per_prime": {},
    }),
)
GLOBAL_DELTAS = (-3, -7, -11, -15, -19, -23)


def random_blocks(rng, p, pi0, rank):
    """Diagonal and hyperbolic blocks of total rank ``rank``; (blocks, scales)."""
    blocks, scales = [], []
    left = rank
    while left:
        if left >= 2 and rng.random() < 0.4:
            i = rng.randint(0, 3)
            blocks.append(hyperbolic_block(i, pi0))
            scales.append((i, 2))
            left -= 2
        else:
            k = rng.randint(0, 1)
            u = rng.choice((1, smallest_nonresidue(p))) * rng.choice((1, -1, 2, -2, 4))
            blocks.append(diagonal_block(pi0**k * u))
            scales.append((2 * k, 1))
            left -= 1
    return blocks, scales


def _jordan_or_cycle(rng, command, rank, p):
    eps = rng.choice((1, -1))
    pi0 = Fraction(eps * p)
    blocks, scales = random_blocks(rng, p, pi0, rank)
    G = block_sum(blocks)
    hidden = disguise(G, random_gl(rng, p, pi0, rank), pi0)
    ranks: dict[int, int] = {}
    for s, k in scales:
        ranks[s] = ranks.get(s, 0) + k
    key = "gram" if command == "jordan" else "matrix"
    argv = (command, "--p", str(p), "--epsilon", str(eps))
    expect = {
        "kind": command,
        "scale_ranks": sorted(ranks.items()),
        # the same lattice in its block-diagonal basis: same answer
        "reference": (argv, _doc({key: gram_json(G)})),
    }
    return Request(argv, _doc({key: gram_json(hidden)}), expect)


def _hilbert_group(rng, gid):
    """(a, b) = (+-2^i q1^j / 4^k, +-2^l q2^m) for distinct odd primes q1, q2:
    its symbols at the real place, 2, q1 and q2 must multiply to 1."""
    q1, q2 = rng.sample(HILBERT_PRIMES, 2)
    a = Fraction(rng.choice((1, -1)) * 2 ** rng.randint(0, 2) * q1 ** rng.randint(1, 2),
                 4 ** rng.randint(0, 1))
    b = Fraction(rng.choice((1, -1)) * 2 ** rng.randint(0, 2) * q2 ** rng.randint(1, 2))
    places = ["real", 2, q1, q2]
    return [
        Request(("hilbert",), _doc({"a": str(a), "b": str(b), "place": place}),
                {"kind": "hilbert", "group": gid, "size": len(places)})
        for place in places
    ]


def _global_request(rng, delta, primes):
    """diag(q1*...*qk, d2) over Q(sqrt(delta)), with its known factorization."""
    d2 = rng.choice((1, 2, 3, 5, 7, 11))
    factors = dict.fromkeys(primes, 1)
    if d2 > 1:
        factors[d2] = factors.get(d2, 0) + 1
    d1 = 1
    for q in primes:
        d1 *= q
    return Request(("global",), _doc({"delta": delta, "matrix": [[d1, 0], [0, d2]]}),
                   {"kind": "global", "delta": delta, "factors": sorted(factors.items())})


_ERRORS = (
    # (argv, request document or raw text, exit code, error code)
    (("jordan", "--p", "2"), {"gram": [[1]]}, 2, "unsupported-prime"),
    (("jordan", "--p", "3"), {"gram": [[1, 1], [1, 1]]}, 2, "singular-matrix"),
    (("cycle", "--p", "5"), {"matrix": [[1, {"a": "0", "b": "1"}], [{"a": "0", "b": "1"}, 1]]},
     2, "hermitian-violation"),
    (("hilbert",), {"a": "3", "b": "5"}, 1, "schema-violation"),
    (("hilbert",), {"a": "0", "b": "5", "place": 5}, 2, "precondition-violation"),
    (("hilbert",), {"a": "2", "b": "5", "place": 9}, 2, "precondition-violation"),
    (("global",), {"delta": 5, "matrix": [[1]]}, 2, "invalid-field"),
    (("global",), {"delta": -3, "matrix": [["1/2", 0], [0, 1]]}, 2, "integrality-violation"),
    (("jordan", "--p", "7"), '{"gram": [[1]', 1, "schema-violation"),
    (("jordan", "--p", "7"), {"gram": [[1]], "extra": 1}, 1, "schema-violation"),
)


def queries_round(seed, r):
    """The closed-form mix: jordan, cycle, global, hilbert and ~5% bad input."""
    rng = random.Random(f"queries/{seed}/{r}")
    out = []
    for command in ("jordan", "cycle"):
        for k, rank in enumerate(QUERY_RANKS):
            p = QUERY_PRIMES[(k + r) % len(QUERY_PRIMES)]
            out.append(_jordan_or_cycle(rng, command, rank, p))
    for req, golden in GOLDEN_GLOBAL:
        out.append(Request(("global",), _doc(req), {"kind": "global-golden", "output": golden}))
    for _ in range(6):
        primes = rng.sample((2, 3, 5, 7, 11, 13, 17, 19, 101, 997), rng.randint(1, 3))
        out.append(_global_request(rng, rng.choice(GLOBAL_DELTAS), primes))
    for _ in range(3):
        out.append(_global_request(rng, rng.choice(GLOBAL_DELTAS),
                                   rng.sample(NEAR_BOUND_PRIMES, 2)))
    for gid in range(HILBERT_PAIRS):
        out.extend(_hilbert_group(rng, gid))
    for argv, doc, code, name in rng.sample(_ERRORS, len(_ERRORS)):
        text = doc if isinstance(doc, str) else _doc(doc)
        out.append(Request(argv, text, {"kind": "error", "exit": code, "code": name}))
    rng.shuffle(out)
    return out


ROUNDS = {
    "enum-deep": enum_deep_round,
    "enum-small": enum_small_round,
    "queries": queries_round,
}


def make_round(workload: str, seed: int, r: int) -> list[Request]:
    return ROUNDS[workload](seed, r)
