"""Behavior of the fully trained grounder on the held-out split."""

import numpy as np

from eviground import metrics
from eviground.segdecoder import decode_mask
from eviground.textenc import tokenize


def test_heldout_r_at_1(default_cohort, trained_sea):
    emb, _, _ = trained_sea
    table = metrics.eval_grounding(emb, None, default_cohort, "test")
    assert table["r_at_1"] >= 0.9


def test_training_loss_decreases(default_cohort):
    from eviground.grounding import GrounderConfig, train_grounding

    _, _, rows = train_grounding(
        default_cohort,
        GrounderConfig(epochs=6, train_decoder=False),
        patient_ids=default_cohort.split["train"][:20],
        seed=1,
    )
    curve = [row["l_se"] for row in rows]
    assert curve[-1] < curve[0]
    smoothed = np.convolve(curve, np.ones(3) / 3, mode="valid")
    assert all(b <= a + 1e-3 for a, b in zip(smoothed, smoothed[1:]))


def _centroid(mask):
    idx = np.argwhere(mask)
    return idx.mean(axis=0)


def test_swapping_sides_moves_mask_centroid_across_midline(default_cohort, trained_sea):
    emb, dec, _ = trained_sea
    midline = 16 / 2
    moved = 0
    checked = 0
    for pid in default_cohort.split["test"]:
        record = default_cohort.records[pid]
        tokens = dec.volume_to_tokens(default_cohort.volume(pid))
        sides = {}
        for item in record.evidence:
            if item.anatomy_ref is None:
                continue
            probs = decode_mask(dec, tokens, emb.embed_tokens(tokenize(item.descriptor)))
            binary = probs >= 0.5
            if binary.any():
                sides[item.anatomy_ref] = _centroid(binary)[2]  # lateral axis
        if len(sides) == 2:
            checked += 1
            left = sides["left_hippocampus"]
            right = sides["right_hippocampus"]
            if left < midline < right:
                moved += 1
    assert checked >= 15
    assert moved / checked >= 0.9
