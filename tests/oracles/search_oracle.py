"""Per-pair beam search: the reference for ``screening.beam_search``.

Frozen as it stood before the search packed each pool's fingerprints and
picked the pool molecules that reach the floor with one vectorized
Tanimoto pass per (beam member, role): here every beam member is compared
with every pool molecule through scalar ``tanimoto``. ``beam_search`` must
return exactly the same ``SearchResult``: rankings, values, similarity
floats, trajectories and errors.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Mapping, Sequence

from ilkit.chem import canonicalize
from ilkit.datasets import SystemRecord
from ilkit.errors import ConfigError, SearchError
from ilkit.fingerprints import fingerprint_key, tanimoto
from ilkit.screening import (
    Candidate,
    FingerprintCache,
    SearchConfig,
    SearchResult,
    _sort_key,
    _with_canonical_roles,
)


def beam_search(
    seeds: Sequence[SystemRecord],
    pools: Mapping[str, Sequence[str]],
    predictor: Callable,
    config: SearchConfig,
    fingerprints: FingerprintCache | None = None,
) -> SearchResult:
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

    key = fingerprint_key(config.fingerprint, config.radius, config.nbits)
    if fingerprints is not None and fingerprints.key != key:
        raise ConfigError("fingerprint cache parameters do not match the search config")
    fps = fingerprints or FingerprintCache(config.fingerprint, config.radius, config.nbits)
    pool_fps = {role: [fps.get(smiles)[1] for smiles in pool] for role, pool in pools.items()}
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
                cur_fp = fps.get(current)[1]
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
