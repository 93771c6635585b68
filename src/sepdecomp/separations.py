"""Balanced-separation oracles and (S,Z,T)-separations.

Exact searches enumerate candidate separators by increasing size; whether a
separator admits a balanced assignment of the remaining components is a
subset-sum question, answered in the kernels.  Tie-break everywhere:
smallest order, then the first separator in ``itertools.combinations``
order (lexicographically smallest), then a greedy A side: walk the
components of G - Z in order of lowest vertex and take each one when a
balanced completion still exists with it, stopping as soon as the sides
balance.  That A side is not always the lexicographically smallest one.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional

from . import kernels
from .errors import NotSeparatedError, PostconditionFailedError, SizeLimitExceededError
from .graph import (
    Graph,
    Separation,
    VertexSet,
    _check_vertices,
    components_in,
    is_balanced,
    mask_of,
    mask_vertices,
)
from .menger import disjoint_paths

EXACT_LIMIT_SEPARATION = 20
EXACT_LIMIT_SEP_NUMBER = 14
CANDIDATE_BUDGET = 2_000_000
HEURISTIC_TRIALS = 64


@dataclass(frozen=True)
class SeparatorOracleOutcome:
    """Either a qualifying separation, or a witness vertex set.

    ``certified`` tells whether a missing separation is a proof (exhaustive
    search) or merely a heuristic giving up.
    """

    separation: Optional[Separation]
    witness: Optional[VertexSet]
    certified: bool

    @property
    def found(self) -> bool:
        return self.separation is not None


def _separation_from_masks(G: Graph, z_mask: int, a_mask: int) -> Separation:
    b_mask = (G.full_mask() & ~a_mask) | z_mask
    return Separation(
        frozenset(mask_vertices(a_mask)), frozenset(mask_vertices(b_mask))
    )


def stz_separation(G: Graph, S: Iterable[int], Z: Iterable[int], T: Iterable[int]) -> Separation:
    """The canonical (S,Z,T)-separation: X collects the components of G-Z
    that meet S (plus Z), Y collects the rest (plus Z).  Raises
    NotSeparatedError unless Z separates S from T."""
    S = _check_vertices(G, S)
    Z = _check_vertices(G, Z)
    T = _check_vertices(G, T)
    z_mask = mask_of(Z)
    s_mask = mask_of(S)
    t_mask = mask_of(T)
    x_mask = z_mask
    y_mask = z_mask
    for comp in components_in(G.adj_masks, G.full_mask() & ~z_mask):
        if comp & s_mask:
            if comp & t_mask:
                raise NotSeparatedError(f"Z={sorted(Z)} does not separate S and T")
            x_mask |= comp
        else:
            y_mask |= comp
    return Separation(
        frozenset(mask_vertices(x_mask)), frozenset(mask_vertices(y_mask))
    )


def min_balanced_separation(G: Graph, exact_limit: int = EXACT_LIMIT_SEPARATION) -> Separation:
    """Minimum-order balanced separation, by exhaustive separator search."""
    if G.n > exact_limit:
        raise SizeLimitExceededError(G.n, exact_limit, "min_balanced_separation")
    found = kernels.min_balanced_separation(G.n, G.adj_masks, G.n)
    if found is None:
        raise PostconditionFailedError(
            "min_balanced_separation: no balanced separation of order <= n, "
            "although (V, V) is one"
        )
    _, z_mask, a_mask = found
    return _separation_from_masks(G, z_mask, a_mask)


def _bounded_candidates(n: int, a: int) -> int:
    return sum(comb(n, k) for k in range(min(a, n) + 1))


def balanced_separation_within(
    G: Graph,
    a: int,
    mode: str = "auto",
    exact_limit: int = EXACT_LIMIT_SEPARATION,
    candidate_budget: int = CANDIDATE_BUDGET,
    seed: int = 0,
    trials: int = HEURISTIC_TRIALS,
) -> SeparatorOracleOutcome:
    """Balanced separation of order <= a, or a witness.

    Exact (certifying) search runs when the whole order range fits the
    budget: either n <= exact_limit, or the number of candidate separators
    of size <= a is within candidate_budget (the search need not look past
    order a, so it stays exact on large graphs with small a).  Otherwise,
    heuristic mode tries randomized minimum cuts; its failures are not
    certificates.
    """
    if mode not in ("auto", "exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    exact_ok = G.n <= exact_limit or _bounded_candidates(G.n, a) <= candidate_budget
    if mode in ("auto", "exact") and exact_ok:
        found = kernels.min_balanced_separation(G.n, G.adj_masks, min(a, G.n))
        if found is None:
            return SeparatorOracleOutcome(
                None, frozenset(range(G.n)), certified=True
            )
        _, z_mask, a_mask = found
        return SeparatorOracleOutcome(
            _separation_from_masks(G, z_mask, a_mask), None, certified=True
        )
    if mode == "exact":
        raise SizeLimitExceededError(G.n, exact_limit, "exact balanced separation")
    return _heuristic_balanced_within(G, a, seed, trials)


def _heuristic_balanced_within(G: Graph, a: int, seed: int, trials: int) -> SeparatorOracleOutcome:
    best: Optional[Separation] = None

    def better(s: Separation, t: Optional[Separation]) -> bool:
        if t is None:
            return True
        ks, kt = s.order, t.order
        return (ks, sorted(s.separator), sorted(s.a_side)) < (
            kt, sorted(t.separator), sorted(t.a_side)
        )

    # the trivial (Z, V) separation is balanced once |Z| >= n/3
    k0 = -(-G.n // 3)
    if k0 <= a:
        z = frozenset(range(k0))
        cand = Separation(z, frozenset(range(G.n)))
        if better(cand, best):
            best = cand
    rng = random.Random(seed)
    verts = list(range(G.n))
    third = max(1, G.n // 3)
    for _ in range(trials):
        rng.shuffle(verts)
        S = frozenset(verts[:third])
        T = frozenset(verts[third : 2 * third])
        res = disjoint_paths(G, S, T, a + 1)
        if res.separator is None:
            continue
        sep = stz_separation(G, S, res.separator, T)
        if is_balanced(G, sep) and sep.order <= a and better(sep, best):
            best = sep
    if best is None:
        return SeparatorOracleOutcome(None, frozenset(range(G.n)), certified=False)
    return SeparatorOracleOutcome(best, None, certified=True)


def separation_number(G: Graph, exact_limit: int = EXACT_LIMIT_SEP_NUMBER) -> int:
    """Exact separation number: the subgraph maximum of the minimum
    balanced-separation order (induced subgraphs suffice)."""
    if G.n > exact_limit:
        raise SizeLimitExceededError(G.n, exact_limit, "separation_number")
    return kernels.separation_number(G.n, G.adj_masks)


def min_w_balanced_separation(
    G: Graph, W: Iterable[int], exact_limit: int = EXACT_LIMIT_SEPARATION
) -> Separation:
    """Minimum-order W-balanced separation (exhaustive)."""
    W = _check_vertices(G, W)
    if G.n > exact_limit:
        raise SizeLimitExceededError(G.n, exact_limit, "min_w_balanced_separation")
    found = kernels.min_w_balanced_separation(G.n, G.adj_masks, mask_of(W), G.n)
    if found is None:
        raise PostconditionFailedError(
            "min_w_balanced_separation: no W-balanced separation, "
            "although (V, V) is one"
        )
    _, z_mask, a_mask = found
    return _separation_from_masks(G, z_mask, a_mask)


# collections.abc.Callable, not typing.Callable: typing caches subscripted
# aliases, and its cache would keep every re-imported copy of the package alive
Oracle = Callable[[Graph], SeparatorOracleOutcome]


def make_oracle(
    a: int,
    mode: str = "auto",
    exact_limit: int = EXACT_LIMIT_SEPARATION,
    candidate_budget: int = CANDIDATE_BUDGET,
    seed: int = 0,
) -> Oracle:
    """A balanced-separation provider for separation_tree / construct."""

    def oracle(H: Graph) -> SeparatorOracleOutcome:
        return balanced_separation_within(
            H, a, mode=mode, exact_limit=exact_limit,
            candidate_budget=candidate_budget, seed=seed,
        )

    return oracle
