"""Toy report-generating policy and the executable-reward GRPO loop.

The policy is slot-factored: one categorical distribution per decision
slot (diagnosis, concluding cue, confidence, per-domain qualifier,
per-biomarker mention/status, sentence ordering), each a linear map from
a patient-feature vector. A rollout's log-probability is the sum of its
chosen-slot log-probabilities, so the sequence-level importance ratio is
exact, and the KL to the reference policy has a closed form per slot. The
reference is frozen, so ``grpo_loss`` and ``ReportPolicy.mean_kl_to`` take
it as its probability vector (``ref.probs(features)``), computed once per
reference and feature vector and shared by every call on them.

Parameter layout: the 11 slots have 43 choices in all, and every weight
lives in one float64 vector, ``ReportPolicy.flat`` (731 scalars): the
(43, 16) matrix ``W`` with one row per choice in slot order, then the 43
biases ``b``. ``ReportPolicy.params`` names read-only views into it
(``diagnosis.w``, ``diagnosis.b``, ...); ``grpo_loss`` returns a gradient of
the same layout. The 43 logits are one ``W @ features + b`` product, written
into an (11, 5) slot table padded with ``-inf``, so the softmax and the
sampling CDFs are row operations on the whole table; the per-slot KL sums
each slot's run of the 43 with ``np.add.reduceat``. Checkpoints keep one
EMAD file per name, so the flat layout never reaches the disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import phrases, tensorio
from .errors import DimMismatchError, ValidationError
from .losses import LossWithGrad
from .records import BIOMARKERS, COGNITIVE_DOMAINS, LABELS, PatientRecord
from .report import parse_report, render_report
from .rules import (
    _QUALIFIER_SEVERITY,
    EntailmentScorer,
    RewardBreakdown,
    RuleConfig,
    biomarker_abnormal,
    total_reward,
)

RATIO_EXPONENT_CLAMP = 30.0
ADVANTAGE_STD_FLOOR = 1e-8
# floor only guards 0*log(0) under extreme softmax underflow
LOG_PROB_FLOOR = 1e-300

_CONCLUSION_CHOICES = LABELS + ("omit",)
_CONFIDENCE_CHOICES = ("High", "Medium", "Low", "Certain", "omit")
_DOMAIN_CHOICES = ("omit", "intact", "mild", "moderate", "severe")
# biomarker sentences report the measured status; the policy decides whether
# to name the marker at all and whether to state its status
_BIOMARKER_CHOICES = ("omit", "mention", "status")
_ORDER_CHOICES = ("domains_first", "biomarkers_first")


def slot_layout() -> list[tuple[str, tuple[str, ...]]]:
    slots = [
        ("diagnosis", LABELS),
        ("conclusion", _CONCLUSION_CHOICES),
        ("confidence", _CONFIDENCE_CHOICES),
        ("order", _ORDER_CHOICES),
    ]
    slots += [(f"domain.{d}", _DOMAIN_CHOICES) for d in COGNITIVE_DOMAINS]
    slots += [(f"biomarker.{m}", _BIOMARKER_CHOICES) for m in BIOMARKERS]
    return slots


def patient_features(p: PatientRecord) -> np.ndarray:
    """Fixed standardized feature vector conditioning every slot.

    Biomarkers are centered at their abnormality thresholds, and signed
    indicator features for threshold crossings and severity bins make the
    staging decision linearly separable with wide margins.
    """
    d = p.demographics
    worst = min(p.cognition.values())
    return np.array(
        [
            (d["age"] - 72.0) / 8.0,
            1.0 if d["sex"] == "female" else 0.0,
            (d["education_years"] - 14.0) / 4.0,
            p.cognition["memory"],
            p.cognition["executive"],
            p.cognition["visuospatial"],
            p.cognition["language"],
            (p.biomarkers["abeta"] - 977.0) / 300.0,
            (p.biomarkers["ttau"] - 300.0) / 150.0,
            (p.biomarkers["ptau"] - 27.0) / 15.0,
            float(p.genetics["apoe"].count("e4")),
            1.0 if p.biomarkers["abeta"] < 977.0 else -1.0,
            1.0 if p.biomarkers["ttau"] > 300.0 else -1.0,
            1.0 if p.biomarkers["ptau"] > 27.0 else -1.0,
            1.0 if worst < -0.5 else -1.0,
            1.0 if worst < -1.5 else -1.0,
        ]
    )


FEATURE_DIM = 16

_SLOT_NAMES = tuple(name for name, _ in slot_layout())
_SLOT_SIZES = np.array([len(choices) for _, choices in slot_layout()])
N_SLOTS = len(_SLOT_NAMES)
N_CHOICES = int(_SLOT_SIZES.sum())
# index of each slot's first choice in the 43 choices
_SLOT_START = np.cumsum(_SLOT_SIZES) - _SLOT_SIZES
# cells of the (slot, option) table that hold a choice; row-major is slot order
_IN_SLOT = np.arange(_SLOT_SIZES.max()) < _SLOT_SIZES[:, None]
_SLOT_OF_CHOICE = np.repeat(np.arange(N_SLOTS), _SLOT_SIZES)
_W_SIZE = N_CHOICES * FEATURE_DIM


def _slot_table(values: np.ndarray) -> np.ndarray:
    """Per-choice values laid out as the (slot, option) table, padded with 0."""
    table = np.zeros(_IN_SLOT.shape)
    table[_IN_SLOT] = values
    return table


def _named_views(vec: np.ndarray) -> dict[str, np.ndarray]:
    """Named per-slot views into a vector laid out like ``ReportPolicy.flat``."""
    w = vec[:_W_SIZE].reshape(N_CHOICES, FEATURE_DIM)
    b = vec[_W_SIZE:]
    views = {}
    for name, start, size in zip(_SLOT_NAMES, _SLOT_START, _SLOT_SIZES):
        views[f"{name}.w"] = w[start : start + size]
        views[f"{name}.b"] = b[start : start + size]
    return views


def _slot_kl(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot KL(p || q) and the per-choice log-ratio log(p / q), floored."""
    log_ratio = np.log(np.maximum(p, LOG_PROB_FLOOR)) - np.log(np.maximum(q, LOG_PROB_FLOOR))
    return np.add.reduceat(p * log_ratio, _SLOT_START), log_ratio


def _check_ref_probs(ref_probs: np.ndarray) -> None:
    if ref_probs.shape != (N_CHOICES,):
        raise DimMismatchError(f"ref_probs must have shape ({N_CHOICES},), got {ref_probs.shape}")


def _log_probs(p: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """Log-probability of the rollout whose choice positions are ``chosen``,
    or of each rollout if ``chosen`` has one row per rollout: the sum of its
    slots' floored log-probabilities. ``log_prob``, ``sample`` and
    ``grpo_loss`` all score rollouts with it, so the policy that drew a
    rollout scores it at a ratio of exactly 1."""
    return np.log(np.maximum(p[chosen], LOG_PROB_FLOOR)).sum(axis=-1)


def _chosen(choices: dict[str, int]) -> np.ndarray:
    """Positions of a rollout's choices among the 43."""
    return _SLOT_START + [choices[name] for name in _SLOT_NAMES]


class ReportPolicy:
    """Per-slot logits = W @ features + b; zero init is uniform sampling.

    Status sentences report the record's thresholded measurement, so the
    policy chooses coverage and conclusions, not the measurements.

    ``flat`` holds every weight; ``params`` names read-only views into it.
    """

    def __init__(self, seed: int = 0, rules: RuleConfig | None = None):
        self.seed = seed
        self.rules = rules or RuleConfig()
        self.slots = slot_layout()
        self.flat = np.zeros(_W_SIZE + N_CHOICES)
        self.params = MappingProxyType(_named_views(self.flat))
        self._w = self.flat[:_W_SIZE].reshape(N_CHOICES, FEATURE_DIM)
        self._b = self.flat[_W_SIZE:]
        # logits table reused by every ``probs`` call; padding stays -inf
        self._logits = np.full(_IN_SLOT.shape, -np.inf)

    def copy(self) -> "ReportPolicy":
        clone = ReportPolicy(self.seed, self.rules)
        clone.flat[...] = self.flat
        return clone

    def probs(self, features: np.ndarray) -> np.ndarray:
        """Choice probabilities of every slot, the 43 in slot order.

        The 43 logits are one ``W @ features + b`` product, written into the
        padded slot table whose rows are each slot's softmax.
        """
        logits = self._logits
        logits[_IN_SLOT] = self._w @ features + self._b
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return (e / e.sum(axis=1, keepdims=True))[_IN_SLOT]

    def log_prob(self, choices: dict[str, int], features: np.ndarray) -> float:
        return float(_log_probs(self.probs(features), _chosen(choices)))

    def sample(
        self, features: np.ndarray, rng, g: int
    ) -> list[tuple[dict[str, int], float]]:
        """``g`` rollouts' slot choices with their log-probabilities.

        One ``rng.random((g, 11))`` draw is inverted through each slot's
        normalized CDF, which consumes the stream exactly as ``g * 11``
        calls of ``rng.choice`` with each slot's probabilities do and picks
        the same options.
        """
        p = self.probs(features)
        if not np.all(np.isfinite(p)):
            raise ValidationError("policy probabilities are not finite")
        cdf = np.cumsum(_slot_table(p), axis=1)
        cdf /= cdf[:, -1:]
        u = rng.random((g, N_SLOTS))
        picks = np.count_nonzero(cdf <= u[:, :, None], axis=2)
        logps = _log_probs(p, _SLOT_START + picks)
        return [
            (dict(zip(_SLOT_NAMES, row)), logp)
            for row, logp in zip(picks.tolist(), logps.tolist())
        ]

    def mean_kl_to(self, ref_probs: np.ndarray, features: np.ndarray) -> float:
        """Exact categorical KL(self || ref), averaged over slots; ``ref_probs``
        is the reference's probability vector on ``features``, as in
        ``grpo_loss``."""
        _check_ref_probs(ref_probs)
        kl, _ = _slot_kl(self.probs(features), ref_probs)
        return sum(kl.tolist()) / N_SLOTS

    # --- rendering -------------------------------------------------------------

    def render(self, p: PatientRecord, choices: dict[str, int]) -> str:
        d = p.demographics
        sentences = [phrases.lead_sentence(d["age"], d["sex"], d["education_years"])]
        domain_sents = []
        for domain in COGNITIVE_DOMAINS:
            opt = _DOMAIN_CHOICES[choices[f"domain.{domain}"]]
            if opt != "omit":
                domain_sents.append(phrases.domain_sentence(domain, _QUALIFIER_SEVERITY[opt]))
        marker_sents = []
        for marker in BIOMARKERS:
            opt = _BIOMARKER_CHOICES[choices[f"biomarker.{marker}"]]
            if opt == "mention":
                marker_sents.append(f"{phrases.BIOMARKER_PHRASES[marker]} was measured.")
            elif opt == "status":
                abnormal = biomarker_abnormal(marker, p.biomarkers[marker], self.rules)
                marker_sents.append(phrases.biomarker_sentence(marker, abnormal))
        if _ORDER_CHOICES[choices["order"]] == "domains_first":
            sentences += domain_sents + marker_sents
        else:
            sentences += marker_sents + domain_sents
        conclusion = _CONCLUSION_CHOICES[choices["conclusion"]]
        if conclusion != "omit":
            sentences.append(phrases.conclusion_sentence(conclusion))
        confidence = _CONFIDENCE_CHOICES[choices["confidence"]]
        return render_report(
            " ".join(sentences),
            LABELS[choices["diagnosis"]],
            None if confidence == "omit" else confidence,
        )

    # --- checkpoints -------------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        tensorio.save_params(directory, self.params, {"kind": "policy", "seed": self.seed})

    @classmethod
    def load(cls, directory: str | Path) -> "ReportPolicy":
        """Rebuild a saved policy; its tensors must match the slot layout."""
        params, meta = tensorio.load_params(directory, ("seed",))
        pol = cls(**meta)
        tensorio.copy_params(params, pol.params, directory)
        return pol


@dataclass
class Rollout:
    """One sampled report; ``choices`` is fixed once the rollout exists."""

    choices: dict[str, int]
    text: str
    old_logprob: float
    reward: RewardBreakdown | None = None
    advantage: float = 0.0
    # positions of ``choices`` among the 43, read by every ``grpo_loss`` call
    chosen: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.chosen = _chosen(self.choices)


@dataclass
class SampleGroup:
    patient_id: str
    features: np.ndarray
    rollouts: list[Rollout] = field(default_factory=list)

    @property
    def rewards(self) -> np.ndarray:
        return np.array([r.reward.total for r in self.rollouts])


def sample_group(policy: ReportPolicy, patient: PatientRecord, g: int, seed) -> SampleGroup:
    """G seed-deterministic rollouts with recorded log-probabilities."""
    if g < 2:
        raise ValidationError("group size must be >= 2")
    rng = np.random.default_rng(seed)
    features = patient_features(patient)
    group = SampleGroup(patient.id, features)
    for choices, logprob in policy.sample(features, rng, g):
        group.rollouts.append(Rollout(choices, policy.render(patient, choices), logprob))
    return group


def score_group(
    group: SampleGroup,
    patient: PatientRecord,
    cfg: RuleConfig,
    scorer: EntailmentScorer,
) -> None:
    for rollout in group.rollouts:
        rollout.reward = total_reward(parse_report(rollout.text), patient, cfg, scorer)
    advs = normalize_advantages(group.rewards)
    for rollout, a in zip(group.rollouts, advs):
        rollout.advantage = float(a)


def normalize_advantages(rewards: np.ndarray) -> np.ndarray:
    """(R - mean) / (population std + 1e-8); exactly zero for equal rewards."""
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.size < 2:
        raise ValidationError("need at least two rewards")
    if np.ptp(rewards) == 0.0:
        return np.zeros_like(rewards)
    return (rewards - rewards.mean()) / (rewards.std() + ADVANTAGE_STD_FLOOR)


def grpo_loss(
    group: SampleGroup,
    policy: ReportPolicy,
    ref_probs: np.ndarray,
    epsilon: float = 0.2,
    beta: float = 0.1,
) -> LossWithGrad:
    """Clipped surrogate plus exact per-slot KL anchor; ``grads["flat"]`` is the
    gradient in the layout of ``policy.flat``.

    ``ref_probs`` is the frozen reference policy's probability vector on the
    group's features, ``ref.probs(group.features)`` of shape ``(43,)``. It is
    only read, so a caller computes it once per reference and feature vector
    and passes it to every loss call.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValidationError("epsilon must be in (0, 1)")
    if beta < 0.0:
        raise ValidationError("beta must be nonnegative")
    _check_ref_probs(ref_probs)
    p = policy.probs(group.features)
    features = group.features.copy()  # read by the backward

    surrogate = 0.0
    coeffs = []
    if group.rollouts:
        g = len(group.rollouts)
        chosen = np.array([rollout.chosen for rollout in group.rollouts])
        new_lps = _log_probs(p, chosen).tolist()
        for rollout, new_lp in zip(group.rollouts, new_lps):
            delta = new_lp - rollout.old_logprob
            # min/max clip exactly as np.clip does, without its per-call overhead
            clamped = min(max(delta, -RATIO_EXPONENT_CLAMP), RATIO_EXPONENT_CLAMP)
            rho = float(np.exp(clamped))
            a = rollout.advantage
            unclipped = rho * a
            clipped = min(max(rho, 1.0 - epsilon), 1.0 + epsilon) * a
            surrogate += -min(unclipped, clipped) / g
            # active branch's d/d(new_lp); the clipped branch is flat outside the band
            if unclipped <= clipped:
                coeff = 0.0 if clamped != delta else -a * rho / g
            else:
                coeff = -a * rho / g if (1.0 - epsilon) <= rho <= (1.0 + epsilon) else 0.0
            coeffs.append(coeff)

    kl_total = 0.0
    if beta > 0.0:
        kl_slot, log_ratio = _slot_kl(p, ref_probs)
        kl_total = sum(kl_slot.tolist()) / N_SLOTS

    def backward():
        grad = np.zeros(_W_SIZE + N_CHOICES)
        dlogits = grad[_W_SIZE:]
        if coeffs:
            # sum over rollouts of coeff * (onehot(chosen) - p)
            onehots = np.bincount(chosen.ravel(), np.repeat(coeffs, N_SLOTS), N_CHOICES)
            dlogits += onehots - sum(coeffs) * p
        if beta > 0.0:
            dlogits += (beta / N_SLOTS) * p * (log_ratio - kl_slot[_SLOT_OF_CHOICE])
        dw = grad[:_W_SIZE].reshape(N_CHOICES, FEATURE_DIM)
        np.multiply(dlogits[:, None], features, out=dw)
        return {"flat": grad}

    return LossWithGrad(surrogate + beta * kl_total, backward)


@dataclass
class RftConfig:
    group_size: int = 4
    epsilon: float = 0.2
    beta: float = 0.1
    iters: int = 500
    lr: float = 0.05

    def __post_init__(self):
        if self.group_size < 2:
            raise ValidationError("group_size must be >= 2")
        if not 0.0 < self.epsilon < 1.0:
            raise ValidationError("epsilon must be in (0, 1)")
        if self.beta < 0.0 or self.lr <= 0.0 or self.iters < 1:
            raise ValidationError("beta >= 0, lr > 0, iters >= 1 required")


def train_rft(
    policy: ReportPolicy,
    patients: list[PatientRecord],
    rule_cfg: RuleConfig,
    scorer: EntailmentScorer,
    cfg: RftConfig,
    *,
    seed: int,
) -> tuple[ReportPolicy, list[dict]]:
    """sample -> score -> normalize -> single update per group.

    The reference policy is snapshotted at the start and never refreshed.
    Returns the trained policy and one log row per iteration.
    """
    if not patients:
        raise ValidationError("no patients to train on")
    ref = policy.copy()
    rng = np.random.default_rng(seed)
    rows = []
    for it in range(cfg.iters):
        patient = patients[int(rng.integers(len(patients)))]
        group = sample_group(policy, patient, cfg.group_size, rng.integers(2**63))
        score_group(group, patient, rule_cfg, scorer)
        ref_probs = ref.probs(group.features)
        loss = grpo_loss(group, policy, ref_probs, cfg.epsilon, cfg.beta)
        policy.flat -= cfg.lr * loss.grads["flat"]
        breakdowns = [r.reward for r in group.rollouts]
        rows.append(
            {
                "iter": it,
                "mean_reward": float(np.mean([b.total for b in breakdowns])),
                "r_format": float(np.mean([b.r_format for b in breakdowns])),
                "r_nia": float(np.mean([b.r_nia for b in breakdowns])),
                "r_consistency": float(np.mean([b.r_consistency for b in breakdowns])),
                "kl_ref": policy.mean_kl_to(ref_probs, group.features),
            }
        )
    return policy, rows


def evaluate_policy_reward(
    policy: ReportPolicy,
    patients: list[PatientRecord],
    rule_cfg: RuleConfig,
    scorer: EntailmentScorer,
    group_size: int = 4,
    seed: int = 12345,
) -> float:
    """Mean total reward of fresh rollouts across patients."""
    rng = np.random.default_rng(seed)
    totals = []
    for patient in patients:
        group = sample_group(policy, patient, group_size, rng.integers(2**63))
        score_group(group, patient, rule_cfg, scorer)
        totals.extend(group.rewards.tolist())
    return float(np.mean(totals))
