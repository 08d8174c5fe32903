"""Subset-expansion certification and closed-form expansion bounds.

A graph is an (gamma, rho, alpha, delta) expander when every set S of at
most alpha*n variables touches at least delta*|S| checks.  Certification
enumerates subsets exhaustively (small n) or probes randomly (which can
refute but never certify).  The closed forms bound what expansion is
achievable for given degrees and what fault fraction that buys.

The random probe reads the keyed counter streams of the fault plans
(see faults): sample t is a pure function of the key (seed, t), so
``seed`` is an int, or a tuple of ints, each part in [0, 2^64), and a
probe of T samples checks the first T samples of any longer probe under
the same seed.  Graph construction (tanner.build_random_regular) stays
on numpy's Generator, since graph hashes are pinned.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .faults import _PROBE_SET, _PROBE_SIZE, _below, _subset_draw, trial_keys
from .tanner import TannerGraph

EPSILON_MAX = 0.25
# bound on one probe batch's gathered check ids, in bytes
_PROBE_BYTES = 1 << 18


@dataclass(frozen=True)
class ExpansionProfile:
    """Target expansion (alpha, delta) written as delta = (3/4 + epsilon)*gamma.

    epsilon = 1/4 is the one-round-decoder extreme; epsilon = 0 is allowed
    for pure certification queries but carries no correction guarantee.
    """

    alpha: float
    gamma: int
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if self.gamma < 2:
            raise ValueError(f"gamma must be at least 2, got {self.gamma}")
        if not 0.0 <= self.epsilon <= EPSILON_MAX:
            raise ValueError(
                f"epsilon must lie in [0, 1/4], got {self.epsilon}"
            )

    @property
    def delta(self) -> float:
        return (0.75 + self.epsilon) * self.gamma

    @property
    def contraction(self) -> float:
        """Per-round shrink factor 1 - 4*epsilon of the corrupt set."""
        return 1.0 - 4.0 * self.epsilon

    @property
    def correctable_fraction(self) -> float:
        """Guaranteed-decodable corrupt fraction alpha*(1+4*epsilon)/2."""
        return self.alpha * (1.0 + 4.0 * self.epsilon) / 2.0

    @property
    def alpha_total(self) -> float:
        """Tolerable combined fault fraction alpha*(1+4e)*(4e)/2."""
        return alpha_total_from(self.alpha, self.epsilon)

    @classmethod
    def with_delta(cls, alpha: float, gamma: int, delta: float) -> "ExpansionProfile":
        epsilon = delta / gamma - 0.75
        prof = cls(alpha, gamma, epsilon)
        if abs(prof.delta - delta) > 1e-12:
            raise ValueError(f"delta {delta} is not representable as (3/4+eps)*gamma")
        return prof

    def max_subset_size(self, n: int) -> int:
        """Largest subset size covered by the alpha*n budget."""
        return int(math.floor(self.alpha * n + 1e-9))


@dataclass(frozen=True)
class ExpansionCertificate:
    graph_hash: str
    alpha: float
    delta: float
    epsilon: float
    mode: str  # "exhaustive" | "randomized"
    verdict: str  # "certified" | "refuted" | "inconclusive"
    witness: tuple | None
    subsets_checked: int

    def __post_init__(self):
        if self.verdict == "certified" and self.mode != "exhaustive":
            raise ValueError("only exhaustive enumeration can certify")
        if self.verdict == "refuted" and self.witness is None:
            raise ValueError("a refutation requires a witness subset")

    def to_json_obj(self) -> dict:
        return {
            "graph_hash": self.graph_hash,
            "alpha": self.alpha,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "mode": self.mode,
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness is not None else None,
            "subsets_checked": self.subsets_checked,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def neighborhood_size(g: TannerGraph, subset) -> int:
    """|N(S)| by plain set union; used to recount witnesses."""
    checks: set[int] = set()
    for v in subset:
        checks.update(int(c) for c in g.var_nbrs[int(v)])
    return len(checks)


def _check_masks(g: TannerGraph) -> list[int]:
    masks = []
    for v in range(g.n):
        mask = 0
        for c in g.var_nbrs[v]:
            mask |= 1 << int(c)
        masks.append(mask)
    return masks


def _max_subset_size(g: TannerGraph, profile: ExpansionProfile) -> int:
    """floor(alpha*n), the largest subset size a check of ``profile`` on
    ``g`` covers.  Raises ValueError for a profile of another gamma, and
    when alpha*n < 1: no subset is covered, so any verdict would be
    vacuous."""
    if profile.gamma != g.gamma:
        raise ValueError(
            f"profile gamma={profile.gamma} does not match graph gamma={g.gamma}"
        )
    max_size = profile.max_subset_size(g.n)
    if max_size < 1:
        raise ValueError(
            f"alpha*n = {profile.alpha * g.n:g} is below 1, so no subset size "
            "is covered and the check would be vacuous"
        )
    return max_size


def check_expansion_exhaustive(
    g: TannerGraph,
    profile: ExpansionProfile,
    work_budget: int = 2_000_000,
) -> ExpansionCertificate:
    """Enumerate all nonempty subsets of size <= floor(alpha*n).

    Size-ascending with early exit, so a refutation's witness has minimal
    size.  Exceeding ``work_budget`` (in subsets, at least 1) yields an
    inconclusive verdict, never a silent pass.  |N(S)| is compared
    against delta*|S| exactly, with no rounding of the threshold.
    """
    if work_budget < 1:
        raise ValueError(f"work budget must be at least 1, got {work_budget}")
    max_size = _max_subset_size(g, profile)
    masks = _check_masks(g)
    delta = profile.delta
    checked = 0
    for size in range(1, max_size + 1):
        threshold = delta * size
        for combo in itertools.combinations(range(g.n), size):
            if checked >= work_budget:
                return ExpansionCertificate(
                    g.graph_hash(), profile.alpha, delta, profile.epsilon,
                    "exhaustive", "inconclusive", None, checked,
                )
            checked += 1
            union = 0
            for v in combo:
                union |= masks[v]
            if union.bit_count() < threshold:
                return ExpansionCertificate(
                    g.graph_hash(), profile.alpha, delta, profile.epsilon,
                    "exhaustive", "refuted", tuple(combo), checked,
                )
    return ExpansionCertificate(
        g.graph_hash(), profile.alpha, delta, profile.epsilon,
        "exhaustive", "certified", None, checked,
    )


def probe_expansion_randomized(
    g: TannerGraph,
    profile: ExpansionProfile,
    trials: int,
    seed,
) -> ExpansionCertificate:
    """Sample random subsets of sizes 1..floor(alpha*n).

    Returns refuted with a witness if any sampled subset violates the
    bound, else inconclusive; random probing can never certify.

    Sample t reads the keyed stream of (seed, t) (faults.trial_keys): its
    size is 1 + a uniform draw below floor(alpha*n) from one segment, and
    its members the first ``size`` ids of one uniform floor(alpha*n)-subset
    draw from another.  Samples are tested in batches of at most
    _PROBE_BYTES of gathered check ids, |N(S)| being the number of
    distinct values in the sorted checks of S.  The first violating
    sample is the witness (sorted), and subsets_checked counts the
    samples up to it.  A seed part outside [0, 2^64) is a ValueError.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    max_size = _max_subset_size(g, profile)
    batch = max(1, _PROBE_BYTES // (8 * max_size * g.gamma))
    for start in range(0, trials, batch):
        keys = trial_keys(seed, np.arange(start, min(start + batch, trials)))
        hit = _first_violation(g, keys, max_size, profile.delta)
        if hit is not None:
            return ExpansionCertificate(
                g.graph_hash(), profile.alpha, profile.delta, profile.epsilon,
                "randomized", "refuted", hit[1], start + hit[0] + 1,
            )
    return ExpansionCertificate(
        g.graph_hash(), profile.alpha, profile.delta, profile.epsilon,
        "randomized", "inconclusive", None, trials,
    )


def _first_violation(g: TannerGraph, keys: np.ndarray, max_size: int,
                     delta: float):
    """(row, sorted witness) of the first probe sample of ``keys`` with
    |N(S)| < delta*|S|, or None.  A batch's arrays live only in this call,
    so one batch's are freed before the next is drawn."""
    sizes = _below(keys, max_size, _PROBE_SIZE) + 1
    members = _subset_draw(keys, _PROBE_SET, g.n, max_size)
    # the checks of members past a sample's size read m, above every id
    cols = np.arange(max_size * g.gamma) // g.gamma
    checks = np.where(cols < sizes[:, None],
                      g.var_nbrs[members].reshape(keys.size, -1), g.m)
    checks.sort(axis=1)
    distinct = (checks[:, 1:] != checks[:, :-1]).sum(axis=1) + 1
    distinct -= sizes < max_size
    bad = np.flatnonzero(distinct < delta * sizes)
    if not bad.size:
        return None
    r = int(bad[0])
    return r, tuple(sorted(members[r, :sizes[r]].tolist()))


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------


def expansion_upper_bound(gamma: int, rho: int, alpha: float) -> float:
    """Per-n ceiling on |N(S)| for some set of alpha*n variables:
    (gamma/rho) * (1 - (1-alpha)^rho).

    The additive O(1) term of the underlying statement is dropped;
    finite-n comparisons must budget roughly a couple of checks of slack.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if rho <= gamma or gamma < 2:
        raise ValueError("need gamma >= 2 and rho > gamma")
    return (gamma / rho) * (1.0 - (1.0 - alpha) ** rho)


def expansion_lower_bound_alpha(gamma: int, rho: int, delta_frac: float) -> float:
    """Guaranteed-existence alpha for an (alpha*n, delta_frac*gamma) expander:

        alpha = (2 e^{dc+1} (dc/(1-r))^{(1-d)c})^{-1/((1-d)c - 1)}

    with c = gamma, d = delta_frac, r = 1 - gamma/rho.  Requires
    (1-d)*gamma to be an integer >= 2.  Evaluated in log space.
    """
    if gamma < 2 or rho <= gamma:
        raise ValueError("need gamma >= 2 and rho > gamma")
    r = 1.0 - gamma / rho
    if not 0.0 < r < 1.0:
        raise ValueError(f"rate bound r={r} outside (0,1)")
    if not 0.0 < delta_frac < 1.0:
        raise ValueError(f"delta_frac must lie in (0,1), got {delta_frac}")
    t = (1.0 - delta_frac) * gamma
    j = round(t)
    if abs(t - j) > 1e-9 or j < 2:
        raise ValueError(
            f"precondition violated: (1-delta)*gamma = {t} must be an integer >= 2"
        )
    dc = delta_frac * gamma
    log_base = math.log(2.0) + (dc + 1.0) + j * math.log(dc / (1.0 - r))
    return math.exp(-log_base / (j - 1))


def alpha_total_from(alpha: float, epsilon: float) -> float:
    """Map an expansion profile to its fault budget alpha*(1+4e)*(4e)/2."""
    return alpha * (1.0 + 4.0 * epsilon) * (4.0 * epsilon) / 2.0


def invert_expansion_upper_bound(gamma: int, rho: int, epsilon: float) -> float:
    """Largest alpha for which the neighbor-count ceiling still permits
    delta = (3/4+epsilon)*gamma expansion; 0 when no positive alpha does."""
    dfrac = 0.75 + epsilon
    if dfrac >= 1.0:
        return 0.0

    def gap(a):
        return (gamma / rho) * (1.0 - (1.0 - a) ** rho) - dfrac * gamma * a

    lo = 1e-12
    if gap(lo) <= 0.0:
        return 0.0
    # scipy.optimize is slow to import; only alpha_total_bounds gets here
    from scipy.optimize import brentq

    return float(brentq(gap, lo, 1.0, xtol=1e-15, rtol=1e-13))


def admissible_epsilons(gamma: int) -> list[float]:
    """Epsilons for which the existence bound applies: (1/4 - eps)*gamma is
    an integer >= 2."""
    out = []
    for j in range(2, gamma):
        eps = 0.25 - j / gamma
        if eps > 1e-12:
            out.append(eps)
    return sorted(out)


@dataclass(frozen=True)
class AlphaTotalBounds:
    lower: float | None
    upper: float
    lower_epsilon: float | None
    upper_epsilon: float

    def to_json_obj(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "lower_epsilon": self.lower_epsilon,
            "upper_epsilon": self.upper_epsilon,
        }


DEFAULT_EPS_GRID = tuple(k / 100 for k in range(1, 26))


def alpha_total_bounds(gamma: int, rho: int) -> AlphaTotalBounds:
    """Bounds on the tolerable fault budget alpha*(1+4e)*(4e)/2.

    The upper bound maximizes, over DEFAULT_EPS_GRID and the admissible
    epsilons, the budget implied by the largest alpha the neighbor-count
    ceiling allows.  The lower bound maximizes over the admissible
    epsilons (one per integer (1/4-eps)*gamma >= 2), where the existence
    formula applies; for most gamma none of them falls on the
    round-number grid.  lower is None when no admissible epsilon exists.
    """
    if gamma < 2 or rho <= gamma:
        raise ValueError("need gamma >= 2 and rho > gamma")
    lower_grid = admissible_epsilons(gamma)
    upper_grid = sorted(set(DEFAULT_EPS_GRID) | set(lower_grid))

    upper, upper_eps = max(
        ((alpha_total_from(invert_expansion_upper_bound(gamma, rho, e), e), e)
         for e in upper_grid),
        key=lambda t: t[0],
    )
    lower = lower_eps = None
    if lower_grid:
        lower, lower_eps = max(
            ((alpha_total_from(
                expansion_lower_bound_alpha(gamma, rho, 0.75 + e), e), e)
             for e in lower_grid),
            key=lambda t: t[0],
        )
    return AlphaTotalBounds(lower, upper, lower_eps, upper_eps)
