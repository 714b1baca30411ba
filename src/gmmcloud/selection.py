"""AIC-based selection of mixture size and ensemble assembly.

Candidate component counts are fitted independently, scored with AIC,
and converted to Akaike weights. Candidates whose normalized weight
clears a fixed threshold form the ensemble; their weights renormalize to
the selection probabilities p_k.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .em import FitConfig, FitError, fit_em
from .model import EnsembleMember, Gmm, GmmEnsemble, PointCloud, gmm_log_likelihood

KEEP_THRESHOLD = 0.01
DEFAULT_CANDIDATE_KS = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class AicRow:
    k: int
    aic: float
    normalized: float
    kept: bool


@dataclass(frozen=True)
class AicTable:
    """Per-candidate AIC scores and normalized Akaike weights."""

    rows: tuple[AicRow, ...]

    def __post_init__(self):
        rows = tuple(self.rows)
        if len(rows) < 1:
            raise ValueError("an AIC table needs at least one row")
        best = min(r.aic for r in rows)
        for r in rows:
            if r.aic == best and r.normalized != 1.0:
                raise ValueError("the minimum-AIC row must have normalized weight 1")
            if r.kept != (r.normalized > KEEP_THRESHOLD):
                raise ValueError(f"kept flag inconsistent with threshold for K={r.k}")
        object.__setattr__(self, "rows", rows)


def parameter_count(k: int) -> int:
    """Free parameters of a K-component mixture: 10K - 1.

    Each component carries 3 mean entries and 6 covariance entries plus a
    weight, and the weights lose one degree of freedom to normalization.
    """
    return 10 * k - 1


def aic_from_log_likelihood(k: int, log_likelihood: float) -> float:
    return 2.0 * parameter_count(k) - 2.0 * log_likelihood


def aic_score(cloud: PointCloud, model: Gmm) -> float:
    """AIC of a fitted mixture on the cloud it was fitted to."""
    return aic_from_log_likelihood(model.k, gmm_log_likelihood(cloud, model))


def akaike_weights(scores) -> AicTable:
    """Normalized Akaike weights exp((AIC_min - AIC_k) / 2) with keep flags.

    scores: iterable of (K, aic) pairs.
    """
    pairs = [(int(k), float(a)) for k, a in scores]
    if not pairs:
        raise ValueError("need at least one (K, AIC) pair")
    if any(not math.isfinite(a) for _, a in pairs):
        raise ValueError("AIC scores must be finite")
    best = min(a for _, a in pairs)
    rows = []
    for k, a in pairs:
        normalized = math.exp((best - a) / 2.0)
        rows.append(AicRow(k, a, normalized, normalized > KEEP_THRESHOLD))
    return AicTable(tuple(rows))


def default_candidate_ks(n: int) -> tuple[int, ...]:
    """Standard candidate set {1, 2, 4, 8, 16, 32} capped at floor(N/10)."""
    ks = tuple(k for k in DEFAULT_CANDIDATE_KS if k <= n // 10)
    return ks if ks else (1,)


def ensemble_from_scored_models(scored) -> tuple[GmmEnsemble, AicTable]:
    """Assemble an ensemble from (K, aic, model) triples.

    Keeps the candidates above the weight threshold and renormalizes
    their Akaike weights into selection probabilities.
    """
    triples = sorted(scored, key=lambda t: t[0])
    table = akaike_weights([(k, a) for k, a, _ in triples])
    kept = [(row, model) for row, (_, _, model) in zip(table.rows, triples) if row.kept]
    total = math.fsum(row.normalized for row, _ in kept)
    members = tuple(EnsembleMember(row.normalized / total, model) for row, model in kept)
    return GmmEnsemble(members), table


def build_ensemble(cloud: PointCloud, candidate_ks, config: FitConfig = FitConfig()
                   ) -> tuple[GmmEnsemble, AicTable]:
    """Fit every candidate K, score with AIC, and keep the plausible ones.

    A candidate whose fit fails is dropped with a warning; if every
    candidate fails, FitError gives each candidate's reason.
    """
    ks = sorted(set(int(k) for k in candidate_ks))
    if not ks:
        raise ValueError("need at least one candidate component count")
    n = len(cloud)
    for k in ks:
        if not 1 <= k <= n:
            raise ValueError(f"candidate K={k} outside valid range 1..{n}")
    scored = []
    failures = []
    for k in ks:
        try:
            result = fit_em(cloud, k, config)
        except FitError as exc:
            warnings.warn(f"candidate K={k} dropped: {exc}", stacklevel=2)
            failures.append(f"K={k}: {exc}")
            continue
        scored.append((k, aic_score(cloud, result.model), result.model))
    if not scored:
        raise FitError(f"every candidate fit failed: {'; '.join(failures)}")
    return ensemble_from_scored_models(scored)
