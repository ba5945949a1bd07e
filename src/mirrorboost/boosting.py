"""The five booster families, driven by one round loop.

Every booster is the same mirror-ascent round: train a stump on the current
distribution, compute its edge, take an additive step in the dual
coordinates of the chosen geometry, and project back onto the algorithm's
constraint set. ``run`` is that round; a small per-family policy supplies
the step size with the dual step and projection, the per-round record and
the stop rule. Every run appends a per-round trace and checks each round
against the applicable bounds with ``bounds.RoundChecks`` as it goes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .data import Dataset
from .errors import (
    BoundViolationError,
    ConfigurationError,
    NoWeakLearnabilityError,
    ParseError,
    UsageError,
    opens_file,
    write_over,
)
from .geometry import NEGATIVE_ENTROPY, QUADRATIC, Geometry
from .projection import project_mixed, project_orthant_l1, project_simplex
from .stumps import Stump, edge, loss_vector, sign_pm, train_stump

EDGE_TOL = 1e-12


class Algorithm(enum.Enum):
    MABOOST_ACTIVE = "maboost-active"
    MABOOST_LAZY = "maboost-lazy"
    MAX_MARGIN = "maxmargin"
    SMOOTH = "smooth"
    COMBINED = "combined"
    SPARSE = "sparse"
    MADA = "mada"


# the geometry each of these boosters is defined in; the others take either
FORCED_GEOMETRY = {Algorithm.SPARSE: QUADRATIC, Algorithm.MADA: NEGATIVE_ENTROPY}


class AlphaMode(enum.Enum):
    ZERO = "zero"
    HALF = "half"


class MadaEta(enum.Enum):
    PREVIOUS_ERROR = "previous_error"
    FIXED_POINT = "fixed_point"


def is_number(value) -> bool:
    """A number the bounds can use: bool is not one, and neither is an int
    beyond 2**53, as float arithmetic on it or on its square could overflow."""
    return isinstance(value, float) or type(value) is int and abs(value) <= 2**53


@dataclass(frozen=True)
class BoosterConfig:
    """A run's configuration, converted and checked on construction: an enum field
    takes a member or its value (``"half"`` for ``AlphaMode.HALF``), and a field
    the booster cannot use is a ``ConfigurationError`` naming it."""

    algorithm: Algorithm
    geometry: Geometry
    rounds: int
    target_error: float | None = None    # None: 1/k for smooth, else 0
    k: float | None = None               # smoothness parameter (smooth / combined)
    alpha_mode: AlphaMode | None = None  # sparse only
    mada_eta: MadaEta | None = None      # mada only; None: the previous-error step

    def __post_init__(self):
        self._convert("algorithm", Algorithm)
        self._convert("geometry", Geometry)
        for name, kind, owner in (("alpha_mode", AlphaMode, Algorithm.SPARSE),
                                  ("mada_eta", MadaEta, Algorithm.MADA)):
            if getattr(self, name) is not None:
                self._convert(name, kind)
                if self.algorithm is not owner:
                    raise ConfigurationError(
                        f"{name} is for {owner.value}, not {self.algorithm.value}")
        if type(self.rounds) is not int or self.rounds < 1:
            raise ConfigurationError(f"rounds must be an integer >= 1, got {self.rounds!r}")
        # k first: the default smooth target is 1/k, out of range for k < 1
        if self.k is not None and not (is_number(self.k) and math.isfinite(self.k)):
            raise ConfigurationError(
                f"smoothness parameter k must be a finite number, got {self.k!r}")
        if self.algorithm in (Algorithm.SMOOTH, Algorithm.COMBINED):
            if self.k is None or self.k < 1.0:
                raise ConfigurationError("smoothness parameter k must be >= 1")
        elif self.k is not None:
            raise ConfigurationError(f"k is for smooth and combined, not {self.algorithm.value}")
        if self.target_error is None:
            smooth = self.algorithm is Algorithm.SMOOTH
            object.__setattr__(self, "target_error", 1.0 / self.k if smooth else 0.0)
        if not (is_number(self.target_error) and 0.0 <= self.target_error <= 1.0):
            raise ConfigurationError("target_error must be in [0, 1]")
        forced = FORCED_GEOMETRY.get(self.algorithm, self.geometry)
        if self.geometry is not forced:
            raise ConfigurationError(f"{self.algorithm.value} requires the {forced.value} geometry")
        if self.algorithm is Algorithm.SPARSE and self.alpha_mode is None:
            raise ConfigurationError("sparse boosting requires an alpha mode")
        if self.algorithm is Algorithm.SMOOTH and self.target_error < 1.0 / self.k:
            raise ConfigurationError("smooth boosting requires target_error >= 1/k")

    def _convert(self, name: str, kind: type[enum.Enum]) -> None:
        """Set field ``name`` to the member of ``kind`` it is or names."""
        value = getattr(self, name)
        try:
            object.__setattr__(self, name, kind(value))  # a member is its own value
        except ValueError:  # an unhashable value too
            names = " or ".join(member.value for member in kind)
            raise ConfigurationError(f"{name} must be {names}, got {value!r}") from None


@dataclass
class RoundTrace:
    t: int
    gamma: float
    eta: float
    train_error: float
    bound: float | None
    max_weight: float
    nnz: int
    margin: float | None = None
    eps_a: float | None = None
    eps_b: float | None = None
    y_l1: float | None = None


@dataclass
class BoostResult:
    config: BoosterConfig
    n: int
    n_b: int | None = None  # the samples in subset B (combined only)
    hypotheses: list[tuple[Stump, float]] = field(default_factory=list)
    weights: np.ndarray | None = None
    traces: list[RoundTrace] = field(default_factory=list)
    status: str = "max_rounds"


def predict(hypotheses: list[tuple[Stump, float]], features) -> np.ndarray:
    """Sign of the weighted vote over all stored hypotheses; sign(0) = +1.

    The features must be a numeric (n, d) matrix, finite in every column a
    stump reads.
    """
    if not hypotheses:
        raise UsageError("cannot predict with an empty ensemble")
    try:
        features = np.asarray(features, dtype=float)
    except (ValueError, TypeError) as exc:  # a ragged or non-numeric nested list
        raise UsageError(f"features must be a numeric (n, d) matrix: {exc}") from None
    if features.ndim != 2:
        raise UsageError(f"features must be a 2-D (n, d) matrix, got {features.ndim} dimensions")
    d = features.shape[1]
    if any(h.feature >= d for h, _ in hypotheses):
        raise UsageError(f"the ensemble reads a feature beyond the data's {d} columns")
    score = np.zeros(features.shape[0])
    checked = set()
    for h, eta in hypotheses:
        score += eta * h.predict(features)
        # each column the stumps read, once, while the vote has it in cache
        if h.feature not in checked:
            checked.add(h.feature)
            if not np.isfinite(features[:, h.feature]).all():
                raise UsageError(f"feature {h.feature} contains NaN or Inf")
    return sign_pm(score)


def _error(score: np.ndarray, labels: np.ndarray) -> float:
    """The share of ±1 labels that sign(score), with sign(0) = +1, gets wrong; 0 of none."""
    return int(np.count_nonzero((score >= 0) != (labels > 0))) / max(len(labels), 1)


def run(config: BoosterConfig, dataset: Dataset) -> BoostResult:
    """Boost for up to ``config.rounds`` rounds with the config's policy.

    A round trains a stump on the policy's distribution, stops on a zero
    edge, lets the policy take its dual step and projection, adds the stump
    to the vote and lets the policy record the round; the round must pass
    its bound checks (else ``BoundViolationError``) before the policy
    decides whether to stop. The stump search reads the presort the dataset
    caches, so a dataset whose features were made writeable again, and may
    no longer match it, is refused (``UsageError``).
    """
    if dataset.features.flags.writeable:
        raise UsageError("the dataset's features were made writeable after construction")
    policy = _POLICIES.get(config.algorithm, _Projected)(config, dataset)
    checks = bounds.RoundChecks(config, dataset.n, policy.n_b)
    features, labels = dataset.features, dataset.labels
    result = BoostResult(config, dataset.n, policy.n_b)
    score = np.zeros(dataset.n)
    index = dataset.stump_index  # sorted on the dataset's first run
    scratch = index.scratch()
    for t in range(1, config.rounds + 1):
        w = policy.distribution()
        if w is None:
            result.status = "collapsed"
            break
        # layers are called through module globals: perfbench's tracer swaps them
        h = train_stump(features, labels, w, index, scratch)
        d = loss_vector(features, labels, h)
        gamma = edge(w, d)
        if gamma <= EDGE_TOL:
            if t == 1:
                raise NoWeakLearnabilityError(
                    "the weak learner found no hypothesis with positive edge"
                )
            result.status = "zero_edge"
            break

        # minus h's ±1 votes, exactly, as labels are ±1; subtracting them
        # adds the votes bit for bit
        anti = labels * d
        eta = policy.step(t, gamma, score, anti, d)
        result.hypotheses.append((h, eta))
        score -= eta * anti
        err = _error(score, labels)
        trace = policy.record(t, gamma, eta, err, score)
        mass_after = float(policy.weights().sum()) if checks.reads_mass else None
        trace.bound, held = checks.add(t, gamma, err, trace.y_l1, trace.eps_a, mass_after)
        for family, holds in held:
            if not holds:
                raise BoundViolationError(f"round {t}: the {family} bound does not hold")
        result.traces.append(trace)
        status = policy.stop(trace)
        if status is not None:
            result.status = status
            break

    result.weights = policy.weights()
    return result


class _Policy:
    """A booster family's part of the round loop in ``run``.

    ``distribution()`` is what the stump trains on (None once collapsed),
    ``step`` picks eta from the edge gamma, takes the dual step eta * d and
    the projection, and returns eta; ``record`` returns the round's trace
    without its bound column, ``stop`` returns a final status or None. By
    default the weights are a uniform start ``w`` and the run stops once the
    error meets the target.
    """

    def __init__(self, config: BoosterConfig, dataset: Dataset):
        self.config = config
        self.n_b = None  # the samples in subset B, counted by the combined policy
        self.labels = dataset.labels
        self.n = dataset.n
        self.w = np.full(self.n, 1.0 / self.n)

    def distribution(self) -> np.ndarray | None:
        return self.w

    def weights(self) -> np.ndarray:
        return self.w

    def stop(self, trace: RoundTrace) -> str | None:
        return "target_reached" if trace.train_error <= self.config.target_error else None


class _Projected(_Policy):
    """Active and lazy MABoost, max-margin, smooth and combined.

    The weights live on the simplex, capped at k/N on every sample (smooth)
    or on subset B only (combined). The step is gamma/L, or gamma/(L sqrt t)
    under the margin schedule. Lazy boosting keeps the unprojected dual
    point, in log space under entropy because its exponent is unbounded.
    """

    def __init__(self, config: BoosterConfig, dataset: Dataset):
        super().__init__(config, dataset)
        algo = self.algo = config.algorithm
        n = self.n
        self.g = config.geometry
        self.entropic = self.g is NEGATIVE_ENTROPY
        self.dual_bound = self.g.dual_norm_sq_bound(n)
        self.caps = None
        if algo is Algorithm.SMOOTH:
            self.caps = np.full(n, config.k / n)
        elif algo is Algorithm.COMBINED:
            if dataset.subset_flags is None:
                raise ConfigurationError("combined boosting requires subset flags")
            self.in_b = dataset.subset_flags
            self.in_a = ~self.in_b
            self.n_b = int(self.in_b.sum())
            self.caps = np.where(self.in_b, config.k / n, np.inf)
        self.lazy = algo is Algorithm.MABOOST_LAZY
        if self.lazy:
            self.z = np.full(n, -math.log(n)) if self.entropic else np.full(n, 1.0 / n)
        self.sum_eta = 0.0

    def step(self, t, gamma, score, anti, d) -> float:
        margin = self.algo is Algorithm.MAX_MARGIN
        eta = gamma / (self.dual_bound * math.sqrt(t)) if margin else gamma / self.dual_bound
        if self.lazy:
            self.z += eta * d
            z = np.exp(self.z - self.z.max()) if self.entropic else self.z
        else:
            z = self.w * np.exp(eta * d) if self.entropic else self.w + eta * d
        if self.caps is None:
            self.w = project_simplex(self.g, z)
        else:
            self.w = project_mixed(self.g, z, self.caps)
        return eta

    def record(self, t, gamma, eta, err, score) -> RoundTrace:
        w = self.w
        trace = RoundTrace(t, gamma, eta, err, None, float(w.max()), int(np.count_nonzero(w)))
        if self.algo is Algorithm.MAX_MARGIN:
            self.sum_eta += eta
            trace.margin = float(np.min(self.labels * score) / self.sum_eta)
        elif self.algo is Algorithm.COMBINED:
            labels = self.labels
            trace.eps_a = _error(score[self.in_a], labels[self.in_a])
            trace.eps_b = _error(score[self.in_b], labels[self.in_b])
        return trace

    def stop(self, trace) -> str | None:
        if self.algo is Algorithm.MAX_MARGIN:
            return None  # the margin schedule runs its full budget
        if self.algo is Algorithm.COMBINED:
            done = (
                trace.eps_a <= self.config.target_error
                and trace.eps_b <= 1.0 / self.config.k
            )
            return "target_reached" if done else None
        return super().stop(trace)


class _Sparse(_Policy):
    """l1-regularized boosting over the positive orthant with normalization.

    Keeps an unnormalized nonnegative vector y and trains on w = y/||y||_1;
    the step z = y + eta d is followed by the nonnegative soft-threshold with
    penalty alpha * eta, zero unless the half-edge penalty mode is on.
    """

    def __init__(self, config: BoosterConfig, dataset: Dataset):
        super().__init__(config, dataset)
        self.half = config.alpha_mode is AlphaMode.HALF
        self.y = self.w

    def distribution(self) -> np.ndarray | None:
        self.y_l1 = float(self.y.sum())
        if self.y_l1 <= 0.0:
            return None
        self.w = self.y / self.y_l1
        return self.w

    def weights(self) -> np.ndarray:
        return self.y

    def step(self, t, gamma, score, anti, d) -> float:
        eta = gamma * self.y_l1 / (2.0 * self.n) if self.half else gamma * self.y_l1 / self.n
        alpha = min(1.0, 0.5 * gamma * self.y_l1) if self.half else 0.0
        self.y = project_orthant_l1(self.y + eta * d, alpha * eta)
        return eta

    def record(self, t, gamma, eta, err, score) -> RoundTrace:
        nnz = int(np.count_nonzero(self.y))
        return RoundTrace(t, gamma, eta, err, None, float(self.w.max()), nnz, y_l1=self.y_l1)


class _Mada(_Policy):
    """Lazy entropic boosting with the hypercube-then-simplex double projection.

    The dual point accumulates additively in log space; each round clamps it
    to the unit hypercube and normalizes. The step couples to the ensemble
    error: eta_t = eps * gamma_t, where eps is the previous round's ensemble
    error by default or a one-step fixed-point refinement of the circular
    definition, which keeps the previous-error step when that one already
    separates the data.
    """

    def __init__(self, config: BoosterConfig, dataset: Dataset):
        super().__init__(config, dataset)
        self.log_z = np.zeros(self.n)
        self.prev_err = 1.0  # ensemble error before any hypothesis, taken pessimistically

    def step(self, t, gamma, score, anti, d) -> float:
        eta = self.prev_err * gamma
        if self.config.mada_eta is MadaEta.FIXED_POINT:
            # a step that already separates the data refines to 0: keep it
            eta = _error(score - eta * anti, self.labels) * gamma or eta
        self.log_z += eta * d
        # min(1, z) taken in log space: an exp that underflows is a valid zero
        self.y = np.exp(np.minimum(self.log_z, 0.0))
        self.y_l1 = float(self.y.sum())
        self.w = self.y / self.y_l1
        return eta

    def record(self, t, gamma, eta, err, score) -> RoundTrace:
        self.prev_err = err
        nnz = int(np.count_nonzero(self.y))
        return RoundTrace(t, gamma, eta, err, None, float(self.w.max()), nnz, y_l1=self.y_l1)

    def stop(self, trace) -> str | None:
        if trace.train_error == 0.0:
            return "perfect"
        return super().stop(trace)


_POLICIES = {Algorithm.SPARSE: _Sparse, Algorithm.MADA: _Mada}


@opens_file("write", 1)
def save_model(result: BoostResult, path: str) -> None:
    """Plain-text model: a header line, then one stump per line."""
    config = result.config
    lines = [f"# algorithm={config.algorithm.value} geometry={config.geometry.value}\n"]
    lines += [f"{h.feature} {h.threshold!r} {h.polarity} {eta!r}\n" for h, eta in result.hypotheses]
    write_over(path, "".join(lines))


@opens_file("read")
def load_model(path: str) -> tuple[str, str, list[tuple[Stump, float]]]:
    """Read a model file back: (algorithm, geometry, hypotheses), the names as strings."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# algorithm="):
            raise UsageError("missing model header")
        try:
            fields = dict(p.split("=", 1) for p in header[2:].split())
            algorithm, geometry = fields["algorithm"], fields["geometry"]
            Algorithm(algorithm), Geometry(geometry)  # an unknown name is a ValueError
        except (ValueError, KeyError):
            raise ParseError("expected '# algorithm=<name> geometry=<name>'", 1) from None
        hypotheses = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                feat, thr, pol, eta = line.split()
                h, eta = Stump(int(feat), float(thr), int(pol)), float(eta)
            except ValueError:
                raise ParseError(
                    f"expected 'feature threshold polarity eta', got {line.strip()!r}", lineno
                ) from None
            # a threshold may be a -inf or +inf sentinel, never NaN
            bad = h.feature < 0 or h.polarity not in (-1, 1) or math.isnan(h.threshold)
            if bad or not math.isfinite(eta):
                raise ParseError("expected feature >= 0, a threshold, polarity ±1 and a finite "
                                 f"eta, got {line.strip()!r}", lineno)
            hypotheses.append((h, eta))
    return algorithm, geometry, hypotheses
