"""AIC-based selection of mixture size and ensemble assembly.

Candidate component counts are fitted independently, scored with AIC,
and converted to Akaike weights. Candidates whose normalized weight
clears a fixed threshold form the ensemble; their weights renormalize to
the selection probabilities p_k. build_ensemble fits one cloud's
candidates one K at a time with fit_em; build_ensembles fits many clouds
at all their Ks with one fit_em_candidates call, which prepares each
cloud once for every K. Both score, warn and assemble through the same
code, so each cloud gets the same ensemble either way. akaike_weights
and member_probabilities are the only code that derives weights, keep
flags and p_k from AIC scores; io checks every model file against them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .em import FitConfig, FitError, _check_component_count, fit_em, fit_em_candidates
from .model import EnsembleMember, Gmm, GmmEnsemble, PointCloud, gmm_log_density
from .sampling import checked_integer, is_real

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
    """Per-candidate AIC scores and normalized Akaike weights, unchecked."""

    rows: tuple[AicRow, ...]


def parameter_count(k: int) -> int:
    """Free parameters of a K-component mixture: 10K - 1.

    Each component carries 3 mean entries and 6 covariance entries plus a
    weight, and the weights lose one degree of freedom to normalization.
    """
    return 10 * k - 1


def aic_score(cloud: PointCloud, model: Gmm) -> float:
    """AIC of a fitted mixture on the cloud it was fitted to."""
    log_likelihood = float(np.sum(gmm_log_density(cloud.points, model)))
    return 2.0 * parameter_count(model.k) - 2.0 * log_likelihood


def akaike_weights(scores) -> AicTable:
    """Normalized Akaike weights exp((AIC_min - AIC_k) / 2) with keep flags.

    scores: iterable of (K, aic) pairs.
    """
    pairs = []
    for k, a in scores:
        k = checked_integer("component count", k, 1)
        if not is_real(a):
            raise ValueError(f"AIC score must be a number, got {a!r}")
        pairs.append((k, float(a)))
    if not pairs:
        raise ValueError("need at least one (K, AIC) pair")
    if any(not math.isfinite(a) for _, a in pairs):
        raise ValueError("AIC scores must be finite")
    best = min(a for _, a in pairs)
    weighted = [(k, a, math.exp((best - a) / 2.0)) for k, a in pairs]
    return AicTable(tuple(AicRow(k, a, w, w > KEEP_THRESHOLD) for k, a, w in weighted))


def member_probabilities(table: AicTable) -> list[tuple[int, float]]:
    """(K, p_K) of the kept rows, in order: their weights renormalized."""
    total = math.fsum(r.normalized for r in table.rows if r.kept)
    return [(r.k, r.normalized / total) for r in table.rows if r.kept]


def default_candidate_ks(n: int) -> tuple[int, ...]:
    """Standard candidate set {1, 2, 4, 8, 16, 32} capped at floor(N/10)."""
    n = checked_integer("point count", n, 1)
    ks = tuple(k for k in DEFAULT_CANDIDATE_KS if k <= n // 10)
    return ks if ks else (1,)


def ensemble_from_scored_models(scored) -> tuple[GmmEnsemble, AicTable]:
    """Assemble an ensemble from (K, aic, model) triples.

    Keeps the candidates above the weight threshold and renormalizes
    their Akaike weights into selection probabilities.
    """
    triples = sorted(scored, key=lambda t: t[0])
    table = akaike_weights([(k, a) for k, a, _ in triples])
    kept = [model for row, (_, _, model) in zip(table.rows, triples) if row.kept]
    return GmmEnsemble(tuple(EnsembleMember(p, model) for (_, p), model
                             in zip(member_probabilities(table), kept))), table


def _checked_ks(candidate_ks, clouds) -> list[int]:
    ks = sorted({checked_integer("component count", k) for k in candidate_ks})
    if not ks:
        raise ValueError("need at least one candidate component count")
    for cloud in clouds:
        for k in ks:
            _check_component_count(k, len(cloud))
    return ks


def _ensemble_from_fits(cloud: PointCloud, fits) -> tuple[GmmEnsemble, AicTable]:
    """Score one cloud's (K, FitResult or FitError) pairs and assemble
    the ensemble. A failed candidate is dropped with a warning, attributed
    to the caller of build_ensemble or build_ensembles; if every
    candidate failed, FitError gives each candidate's reason."""
    scored = []
    failures = []
    for k, result in fits:
        if isinstance(result, FitError):
            warnings.warn(f"candidate K={k} dropped: {result}", stacklevel=3)
            failures.append(f"K={k}: {result}")
        else:
            scored.append((k, aic_score(cloud, result.model), result.model))
    if not scored:
        raise FitError(f"every candidate fit failed: {'; '.join(failures)}")
    return ensemble_from_scored_models(scored)


def build_ensemble(cloud: PointCloud, candidate_ks, config: FitConfig = FitConfig()
                   ) -> tuple[GmmEnsemble, AicTable]:
    """Fit every candidate K, score with AIC, and keep the plausible ones.

    A candidate whose fit fails is dropped with a warning; if every
    candidate fails, FitError gives each candidate's reason.
    """
    fits = []
    for k in _checked_ks(candidate_ks, [cloud]):
        try:
            fits.append((k, fit_em(cloud, k, config)))
        except FitError as exc:
            fits.append((k, exc))
    return _ensemble_from_fits(cloud, fits)


def build_ensembles(clouds, candidate_ks, config: FitConfig = FitConfig()
                    ) -> list[tuple[GmmEnsemble, AicTable]]:
    """build_ensemble of every cloud, in input order, with every candidate
    K of every cloud fitted by one fit_em_candidates call, so the
    ensembles, tables and drop warnings are those of build_ensemble bit
    for bit.
    Every cloud's candidates are checked before any fit starts; a cloud
    whose every candidate fails raises its FitError once the clouds
    before it are assembled."""
    clouds = list(clouds)
    ks = _checked_ks(candidate_ks, clouds)
    fits = fit_em_candidates(clouds, ks, config)
    ensembles = []
    for cloud, results in zip(clouds, zip(*fits)):
        ensembles.append(_ensemble_from_fits(cloud, zip(ks, results)))
    return ensembles
