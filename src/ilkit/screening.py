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

from .chem import canonicalize, table
from .datasets import ROLE_ORDER, STANDARD_TEMPERATURE, SystemRecord
from .errors import ConfigError, SearchError
from .fingerprints import DEFAULT_NBITS, DEFAULT_RADIUS, make_fingerprint, tanimoto


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
    seed: int = 42

    def validate(self) -> None:
        if self.objective not in ("minimize", "maximize"):
            raise ConfigError(f"objective must be minimize|maximize, got {self.objective!r}")
        if self.beam_width < 1 or self.iterations < 0 or self.top_k < 1:
            raise ConfigError("beam_width >= 1, iterations >= 0, top_k >= 1 required")
        if not 0.0 <= self.similarity_floor <= 1.0:
            raise ConfigError("similarity_floor must lie in [0, 1]")


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


def top_k_seeds(records: Sequence[SystemRecord], predictor: Callable, config: SearchConfig) -> SearchResult:
    """Best k distinct role tuples from the records under the objective."""
    config.validate()
    if not records:
        raise SearchError("top_k_seeds needs a non-empty record list")
    minimize = config.objective == "minimize"
    seen: dict[tuple, Candidate] = {}
    for rec in records:
        key = rec.roles_key()
        if key in seen:
            continue
        scoring = replace(rec, property=None, value=None)
        seen[key] = Candidate(scoring, float(predictor(scoring)), "seed")
    ranked = sorted(seen.values(), key=lambda c: _sort_key(c, minimize))
    underfilled = config.top_k > len(ranked)
    return SearchResult(tuple(ranked[: config.top_k]), tuple(ranked[:1]), 0, underfilled)


class FingerprintCache:
    """Fingerprints of one kind, radius and width, by canonical SMILES.

    The fingerprints live in the process-wide molecule table
    (``ilkit.chem.table``), so every instance with the same parameters
    shares them and none computes a molecule's fingerprint twice while the
    table holds it. An instance only fixes the parameters that
    ``beam_search`` checks against its config.
    """

    def __init__(self, kind: str = "ecfp", radius: int = DEFAULT_RADIUS, nbits: int = DEFAULT_NBITS):
        self.kind = kind
        self.radius = radius
        self.nbits = nbits
        self._key = ("fingerprint", kind, radius, nbits)

    def matches(self, config: SearchConfig) -> bool:
        return (
            self.kind == config.fingerprint
            and self.radius == config.radius
            and self.nbits == config.nbits
        )

    def get(self, smiles: str):
        """Fingerprint of a canonical SMILES."""
        return table.derived(
            smiles, self._key, lambda mol: make_fingerprint(mol, self.kind, self.radius, self.nbits)
        )


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
    """
    config.validate()
    if not seeds:
        raise SearchError("beam_search needs at least one seed")
    if not pools:
        raise SearchError("beam_search needs at least one mutable role pool")
    minimize = config.objective == "minimize"
    seeds = [_with_canonical_roles(rec) for rec in seeds]
    pools = {role: sorted({canonicalize(s) for s in pool}) for role, pool in pools.items()}
    for role, pool in pools.items():
        if not pool:
            raise SearchError(f"pool for role {role!r} is empty")

    if fingerprints is not None and not fingerprints.matches(config):
        raise ConfigError("fingerprint cache parameters do not match the search config")
    fps = fingerprints or FingerprintCache(config.fingerprint, config.radius, config.nbits)
    pool_fps = {role: [fps.get(smiles) for smiles in pool] for role, pool in pools.items()}
    score_cache: dict[tuple, float] = {}

    def score(record: SystemRecord) -> float:
        key = record.roles_key()
        if key not in score_cache:
            score_cache[key] = float(predictor(record))
        return score_cache[key]

    seed_cands: dict[tuple, Candidate] = {}
    for rec in seeds:
        scoring = replace(rec, property=None, value=None)
        cand = Candidate(scoring, score(scoring), "seed")
        seed_cands.setdefault(cand.roles_key(), cand)

    def best_of(cands) -> Candidate:
        return min(cands, key=lambda c: _sort_key(c, minimize))

    def top(cands, width) -> dict[tuple, Candidate]:
        ranked = sorted(cands, key=lambda c: _sort_key(c, minimize))[:width]
        return {c.roles_key(): c for c in ranked}

    all_scored: dict[tuple, Candidate] = dict(seed_cands)
    beam = top(seed_cands.values(), config.beam_width)
    trace = [best_of(seed_cands.values())]
    iterations_run = 0

    for iteration in range(1, config.iterations + 1):
        expansions: dict[tuple, Candidate] = {}
        any_candidate = False
        any_neighbor = False
        for cand in beam.values():
            for role, pool in pools.items():
                current = getattr(cand.record, role)
                if current is None:
                    raise SearchError(f"seed lacks the mutable role {role!r}")
                cur_fp = fps.get(current)
                for smiles, fp in zip(pool, pool_fps[role]):
                    if smiles == current:
                        continue
                    any_candidate = True
                    sim = tanimoto(fp, cur_fp)
                    if sim < config.similarity_floor:
                        continue
                    any_neighbor = True
                    new_rec = replace(cand.record, **{role: smiles})
                    key = new_rec.roles_key()
                    if key in all_scored or key in expansions:
                        continue
                    expansions[key] = Candidate(
                        new_rec, score(new_rec), "expanded",
                        parent_key=cand.roles_key(), similarity=sim, iteration=iteration,
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
        trace.append(best_of(list(all_scored.values())))
        if stalled:
            break

    ranked = sorted(all_scored.values(), key=lambda c: _sort_key(c, minimize))
    return SearchResult(tuple(ranked), tuple(trace), iterations_run)


def _modification_config(config: SearchConfig | None, budget: int) -> SearchConfig:
    base = config or SearchConfig()
    return replace(base, iterations=budget)


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
    cfg = _modification_config(config, budget)
    seed = SystemRecord(
        category="il_solute",
        cation=cation,
        anion=seed_anion,
        solute=solute,
        temperature=temperature,
    )
    return beam_search([seed], {"anion": anion_pool}, predictor, cfg)


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
    cfg = _modification_config(config, budget)
    seed = SystemRecord(
        category="il_solute",
        cation=seed_cation,
        anion=anion,
        solute=solute,
        temperature=temperature,
    )
    return beam_search([seed], {"cation": cation_pool}, predictor, cfg)


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

    @staticmethod
    def from_records(records: Sequence[SystemRecord]) -> "LookupPredictor":
        return LookupPredictor({r.roles_key(): r.value for r in records if r.value is not None})

    def __call__(self, record: SystemRecord) -> float:
        key = record.roles_key()
        if key not in self._table:
            raise SearchError(f"lookup predictor has no entry for roles {key}")
        return self._table[key]
