"""Thermodynamic cycle relations, Top-K seeding, Tanimoto-guided beam
search, and the two ion-modification loops.

Sign convention, fixed once and used everywhere: the IL/water transfer
free energy moves the solute from water into the IL, so

    dG_solv(IL) = dG_hyd + dG_transfer(IL/water)
    dG_hyd      = dG_solv(IL) - dG_transfer(IL/water)

and the IL/organic transfer is the difference of the two water-referenced
transfers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .chem import canonicalize, table
from .datasets import ROLE_ORDER, STANDARD_TEMPERATURE, SystemRecord
from .errors import ConfigError, SearchError
from .fingerprints import (
    DEFAULT_NBITS,
    DEFAULT_RADIUS,
    fingerprint_key,
    make_fingerprint,
    pack,
    packed_tanimoto,
    tanimoto,
)


def hydration_dg(solvation: float, transfer_il_water: float) -> float:
    """Hydration free energy from IL solvation and IL/water transfer."""
    if not (math.isfinite(solvation) and math.isfinite(transfer_il_water)):
        raise SearchError("thermodynamic inputs must be finite")
    return solvation - transfer_il_water


def il_organic_transfer(transfer_il_water: float, transfer_org_water: float) -> float:
    """IL/organic transfer free energy from the two water-referenced transfers."""
    if not (math.isfinite(transfer_il_water) and math.isfinite(transfer_org_water)):
        raise SearchError("thermodynamic inputs must be finite")
    return transfer_il_water - transfer_org_water


@dataclass(frozen=True)
class SearchConfig:
    objective: str = "minimize"          # minimize | maximize
    property: str = "solvation_dg"
    beam_width: int = 8
    iterations: int = 5
    top_k: int = 10
    similarity_floor: float = 0.0
    fingerprint: str = "ecfp"
    radius: int = DEFAULT_RADIUS
    nbits: int = DEFAULT_NBITS

    def validate(self) -> None:
        if self.objective not in ("minimize", "maximize"):
            raise ConfigError(f"objective must be minimize|maximize, got {self.objective!r}")
        if self.beam_width < 1 or self.iterations < 0 or self.top_k < 1:
            raise ConfigError("beam_width >= 1, iterations >= 0, top_k >= 1 required")
        if not 0.0 <= self.similarity_floor <= 1.0:
            raise ConfigError("similarity_floor must lie in [0, 1]")
        fingerprint_key(self.fingerprint, self.radius, self.nbits)


@dataclass(frozen=True)
class Candidate:
    record: SystemRecord
    value: float
    provenance: str                      # "seed" or "expanded"
    parent_key: tuple | None = None
    similarity: float | None = None
    iteration: int = 0

    def roles_key(self) -> tuple:
        return self.record.roles_key()


@dataclass(frozen=True)
class SearchResult:
    ranked: tuple[Candidate, ...]        # every scored candidate, best first
    best_trace: tuple[Candidate, ...]    # running best per iteration (index 0 = seeds)
    iterations_run: int
    underfilled: bool = False


def _sort_key(cand: Candidate, minimize: bool):
    v = cand.value if minimize else -cand.value
    return (v, tuple(x or "" for x in cand.roles_key()))


def _seed_candidates(records: Sequence[SystemRecord], predictor: Callable) -> dict[tuple, Candidate]:
    """One scored seed candidate per distinct role tuple, from its first record."""
    seeds: dict[tuple, Candidate] = {}
    for rec in records:
        key = rec.roles_key()
        if key not in seeds:
            scoring = replace(rec, property=None, value=None)
            seeds[key] = Candidate(scoring, float(predictor(scoring)), "seed")
    return seeds


def top_k_seeds(records: Sequence[SystemRecord], predictor: Callable, config: SearchConfig) -> SearchResult:
    """Best k distinct role tuples from the records under the objective."""
    config.validate()
    if not records:
        raise SearchError("top_k_seeds needs a non-empty record list")
    minimize = config.objective == "minimize"
    seeds = _seed_candidates(records, predictor)
    ranked = sorted(seeds.values(), key=lambda c: _sort_key(c, minimize))
    underfilled = config.top_k > len(ranked)
    return SearchResult(tuple(ranked[: config.top_k]), tuple(ranked[:1]), 0, underfilled)


class FingerprintCache:
    """(canonical SMILES, fingerprint) of SMILES texts for one set of
    fingerprint settings, kept under their ``fingerprint_key`` (``key``).

    The fingerprints live in the process-wide molecule table
    (``ilkit.chem.table``), so every instance with the same key shares them
    and none computes a molecule's fingerprint twice while the table holds
    it. A text seen for the first time is parsed once for both.
    """

    def __init__(self, kind: str = "ecfp", radius: int = DEFAULT_RADIUS, nbits: int = DEFAULT_NBITS):
        self.key = fingerprint_key(kind, radius, nbits)
        # make_fingerprint is looked up per call, so a wrapper on it sees each one.
        self._make = lambda mol: make_fingerprint(mol, kind, radius, nbits)

    def get(self, text: str) -> tuple:
        return table.derived(text, self.key, self._make)


def _search_pool(role: str, pool: Sequence[str], fps: FingerprintCache) -> tuple:
    """(sorted distinct canonical SMILES, their fingerprints, read-only packed
    rows or None when unfolded) for one role's pool.

    Kept in the molecule table under the pool's texts and the fingerprint
    key, so repeated searches over one pool prepare it once. A bad or empty
    pool raises on every call.
    """

    def prepare():
        sighted = dict(fps.get(s) for s in pool)
        smiles = tuple(sorted(sighted))
        if not smiles:
            raise SearchError(f"pool for role {role!r} is empty")
        pool_fps = tuple(sighted[s] for s in smiles)
        if not fps.key[-1]:
            return smiles, pool_fps, None
        words, counts = pack(pool_fps, fps.key[-1])
        words.flags.writeable = counts.flags.writeable = False
        return smiles, pool_fps, (words, counts)

    return table.memo(("search pool", tuple(pool), fps.key), prepare)


def _with_canonical_roles(record: SystemRecord) -> SystemRecord:
    present = [role for role in ROLE_ORDER if getattr(record, role)]
    return replace(record, **{role: canonicalize(getattr(record, role)) for role in present})


def beam_search(
    seeds: Sequence[SystemRecord],
    pools: Mapping[str, Sequence[str]],
    predictor: Callable,
    config: SearchConfig,
    fingerprints: FingerprintCache | None = None,
) -> SearchResult:
    """Iterative beam search over candidate molecules per mutable role.

    Expansion set per beam member and role: pool molecules whose Tanimoto
    similarity to the member's current molecule in that role reaches the
    similarity floor. The predictor ranks candidates; the beam keeps the
    global best beam_width of beam plus expansions. Stops at the iteration
    budget or as soon as the beam stops changing.

    Each pool is canonicalized, fingerprinted and (when folded) packed once
    and kept in the molecule table for later searches over it. Each beam
    member is expanded once per search, since after that all its neighbours
    are scored: one vectorized Tanimoto pass per (member, role) picks the
    pool molecules that reach the floor, visited in pool order (unfolded
    fingerprints visit the whole pool), and only a neighbour whose role key
    is new gets a record, a scalar ``tanimoto`` similarity and a prediction.
    """
    config.validate()
    if not seeds:
        raise SearchError("beam_search needs at least one seed")
    if not pools:
        raise SearchError("beam_search needs at least one mutable role pool")
    minimize = config.objective == "minimize"
    seeds = [_with_canonical_roles(rec) for rec in seeds]
    fps = fingerprints or FingerprintCache(config.fingerprint, config.radius, config.nbits)
    if fps.key != fingerprint_key(config.fingerprint, config.radius, config.nbits):
        raise ConfigError("fingerprint cache parameters do not match the search config")
    pools = {role: _search_pool(role, pool, fps) for role, pool in pools.items()}
    seed_cands = _seed_candidates(seeds, predictor)

    def best_of(cands) -> Candidate:
        return min(cands, key=lambda c: _sort_key(c, minimize))

    def top(cands, width) -> dict[tuple, Candidate]:
        ranked = sorted(cands, key=lambda c: _sort_key(c, minimize))[:width]
        return {c.roles_key(): c for c in ranked}

    all_scored: dict[tuple, Candidate] = dict(seed_cands)
    beam = top(seed_cands.values(), config.beam_width)
    trace = [best_of(seed_cands.values())]
    iterations_run = 0
    expanded: set[tuple] = set()  # a member's neighbours are all scored once it is expanded

    for iteration in range(1, config.iterations + 1):
        expansions: dict[tuple, Candidate] = {}
        any_candidate = False
        any_neighbor = False
        for parent_key, cand in beam.items():
            if parent_key in expanded:
                continue
            expanded.add(parent_key)
            for role, (pool, pool_fps, packed) in pools.items():
                current = getattr(cand.record, role)
                if current is None:
                    raise SearchError(f"seed lacks the mutable role {role!r}")
                # The pool is deduplicated: anything but (current,) holds a candidate.
                any_candidate = any_candidate or pool != (current,)
                cur_fp = fps.get(current)[1]
                at = ROLE_ORDER.index(role)
                if config.nbits:
                    row, count = pack([cur_fp], config.nbits)
                    sims = packed_tanimoto(row[0], count[0], *packed)
                    survivors = np.flatnonzero(sims >= config.similarity_floor).tolist()
                else:
                    survivors = range(len(pool))
                for k in survivors:
                    smiles = pool[k]
                    if smiles == current:
                        continue
                    # Folded survivors reach the floor already.
                    if not config.nbits and tanimoto(pool_fps[k], cur_fp) < config.similarity_floor:
                        continue
                    any_neighbor = True
                    key = (*parent_key[:at], smiles, *parent_key[at + 1:])
                    if key in all_scored or key in expansions:
                        continue
                    new_rec = replace(cand.record, **{role: smiles})
                    expansions[key] = Candidate(
                        new_rec, float(predictor(new_rec)), "expanded", parent_key=parent_key,
                        similarity=tanimoto(pool_fps[k], cur_fp), iteration=iteration,
                    )
        if iteration == 1 and any_candidate and not any_neighbor:
            raise SearchError(
                "no pool molecule reaches the similarity floor "
                f"{config.similarity_floor}; lower the floor or widen the pool"
            )
        all_scored.update(expansions)
        new_beam = top(list(beam.values()) + list(expansions.values()), config.beam_width)
        iterations_run = iteration
        stalled = set(new_beam) == set(beam)
        beam = new_beam
        trace.append(best_of([trace[-1], *expansions.values()]))
        if stalled:
            break

    ranked = sorted(all_scored.values(), key=lambda c: _sort_key(c, minimize))
    return SearchResult(tuple(ranked), tuple(trace), iterations_run)


def _modify(
    role: str,
    fixed_role: str,
    fixed: str,
    seed: str,
    pool: Sequence[str],
    predictor: Callable,
    solute: str,
    budget: int,
    config: SearchConfig | None,
    temperature: float,
) -> SearchResult:
    """Hold ``fixed_role`` at ``fixed`` and search ``role`` from ``seed`` over the pool."""
    record = SystemRecord(
        category="il_solute",
        solute=solute,
        temperature=temperature,
        **{fixed_role: fixed, role: seed},
    )
    cfg = replace(config or SearchConfig(), iterations=budget)
    return beam_search([record], {role: pool}, predictor, cfg)


def modify_anion(
    cation: str,
    seed_anion: str,
    anion_pool: Sequence[str],
    predictor: Callable,
    solute: str,
    budget: int = 5,
    config: SearchConfig | None = None,
    temperature: float = STANDARD_TEMPERATURE,
) -> SearchResult:
    """Fix the cation, substitute candidate anions within the budget."""
    return _modify(
        "anion", "cation", cation, seed_anion, anion_pool,
        predictor, solute, budget, config, temperature,
    )


def modify_side_chain(
    anion: str,
    seed_cation: str,
    cation_pool: Sequence[str],
    predictor: Callable,
    solute: str,
    budget: int = 5,
    config: SearchConfig | None = None,
    temperature: float = STANDARD_TEMPERATURE,
) -> SearchResult:
    """Fix the anion, modify the cation within the budget."""
    return _modify(
        "cation", "anion", anion, seed_cation, cation_pool,
        predictor, solute, budget, config, temperature,
    )


class LookupPredictor:
    """Scores records from a fixed table keyed by canonical role tuples."""

    def __init__(self, entries: Mapping[tuple, float] | Sequence[tuple]):
        if isinstance(entries, Mapping):
            items = entries.items()
        else:
            items = entries
        self._table: dict[tuple, float] = {}
        for key, value in items:
            self._table[tuple(canonicalize(s) if s else None for s in key)] = float(value)

    def __call__(self, record: SystemRecord) -> float:
        key = record.roles_key()
        if key not in self._table:
            raise SearchError(f"lookup predictor has no entry for roles {key}")
        return self._table[key]
