"""Loss kernels: target building, term values, analytic vs numeric gradients."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubestream.decode import ATTR_ACT, AnchorSet, attr_width
from tubestream.losses import (
    LossWeights,
    build_targets,
    check_gradients,
    loss_gradient,
    loss_terms,
    random_check_case,
)
from tubestream.tubes import GroundTruthTube


def gt_tube(box, t_start=1, t_end=4, class_id=0, video="v"):
    length = t_end - t_start + 1
    return GroundTruthTube(video, class_id, t_start, t_end, (box,) * length)


def perfect_prediction(target):
    """A prediction achieving exactly zero loss for the given targets."""
    s, _, b, c = target.target_class.shape
    pred = np.zeros((s, s, b, attr_width(c)))
    pred[..., 0:4] = target.target_offsets
    pred[..., ATTR_ACT] = target.act_mask
    pred[..., 5 : 5 + c] = target.target_class
    # Off-class progression is unconstrained wherever the mining gate is shut;
    # an arbitrary value proves it costs nothing.
    pred[..., 5 + c : 5 + 2 * c] = np.where(target.target_class > 0, 1.0, 0.31)
    pred[..., 5 + 2 * c : 5 + 3 * c] = target.target_rate
    return pred


class TestBuildTargets:
    def test_rate_target_is_completion_fraction(self):
        # Tube of length 4, queried at its second covered frame.
        target = build_targets([gt_tube((0.3, 0.3, 0.6, 0.6))], 2, (4, 1, 1), AnchorSet(((1.0, 1.0),)))
        iy, ix, j, c = np.argwhere(target.target_class)[0]
        assert target.target_rate[iy, ix, j, c] == pytest.approx(0.5, abs=1e-12)

    def test_last_frame_rate_is_one_first_is_one_over_length(self):
        tube = gt_tube((0.3, 0.3, 0.6, 0.6), 1, 4)
        grid, anchors = (4, 1, 1), AnchorSet(((1.0, 1.0),))
        first = build_targets([tube], 1, grid, anchors)
        last = build_targets([tube], 4, grid, anchors)
        assert first.target_rate.max() == pytest.approx(0.25)
        assert last.target_rate.max() == pytest.approx(1.0)

    def test_empty_ground_truth_all_negative(self):
        target = build_targets([], 1, (3, 2, 2), AnchorSet(((1.0, 1.0), (2.0, 2.0))))
        assert not target.act_mask.any()
        assert not target.target_class.any()

    def test_responsible_anchor_by_shape_iou(self):
        # 0.3x0.3 box centered in cell (1,1) of a 4-grid; anchor (1,1) wins
        # with co-centered IoU 0.694 over anchor (3,3) at 0.16.
        box = (0.375 - 0.15, 0.375 - 0.15, 0.375 + 0.15, 0.375 + 0.15)
        anchors = AnchorSet(((1.0, 1.0), (3.0, 3.0)))
        target = build_targets([gt_tube(box)], 1, (4, 2, 1), anchors)
        assert target.act_mask[1, 1, 0] == 1.0
        assert target.act_mask[1, 1, 1] == 0.0
        np.testing.assert_allclose(
            target.target_offsets[1, 1, 0], (0.5, 0.5, math.log(1.2), math.log(1.2)), atol=1e-12
        )

    def test_box_outside_unit_square_rejected(self):
        tube = GroundTruthTube("v", 0, 1, 1, ((-0.1, 0.2, 0.5, 0.6),))
        with pytest.raises(ValueError, match="unit square"):
            build_targets([tube], 1, (4, 1, 1), AnchorSet(((1.0, 1.0),)))

    def test_tubes_not_covering_frame_ignored(self):
        target = build_targets([gt_tube((0.3, 0.3, 0.6, 0.6), 5, 9)], 1, (4, 1, 1), AnchorSet(((1.0, 1.0),)))
        assert not target.act_mask.any()

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_one_class_per_responsible_slot(self, seed):
        _, target, _ = random_check_case(seed)
        assert np.all(target.target_class.sum(-1) == target.act_mask)


class TestLossTerms:
    def test_perfect_prediction_zero_everywhere(self):
        _, target, weights = random_check_case(5)
        loss = loss_terms(perfect_prediction(target), target, weights)
        for name in ("coord", "conf", "cls", "hp", "sp", "total"):
            assert getattr(loss, name) == 0.0

    def test_actionness_term_with_default_weight(self):
        # One responsible slot predicted at 0.5: 10 * (0.5 - 1)^2 = 2.5.
        target = build_targets([gt_tube((0.3, 0.3, 0.6, 0.6))], 1, (2, 1, 1), AnchorSet(((1.0, 1.0),)))
        pred = perfect_prediction(target)
        pos = np.argwhere(target.act_mask)[0]
        pred[tuple(pos)][ATTR_ACT] = 0.5
        loss = loss_terms(pred, target, LossWeights())
        assert loss.conf == pytest.approx(2.5, abs=1e-12)
        assert loss.coord == loss.cls == loss.hp == loss.sp == 0.0

    def test_progression_negative_mining_gate(self):
        # Negative slot: counted only while actionness exceeds the 0.2 gate,
        # and with unit weight.
        target = build_targets([], 1, (1, 1, 1), AnchorSet(((1.0, 1.0),)))
        pred = np.zeros((1, 1, 1, 8))
        pred[0, 0, 0, ATTR_ACT] = 0.3
        pred[0, 0, 0, 5 + 1] = 0.4  # progression block for C=1 starts at 6
        mined = loss_terms(pred, target, LossWeights())
        assert mined.hp == pytest.approx(0.16, abs=1e-12)
        pred[0, 0, 0, ATTR_ACT] = 0.1
        idle = loss_terms(pred, target, LossWeights())
        assert idle.hp == 0.0
        assert mined.conf > idle.conf  # both pay the noact actionness penalty

    def test_total_is_sum_of_parts(self):
        pred, target, weights = random_check_case(12)
        loss = loss_terms(pred, target, weights)
        assert loss.total == pytest.approx(loss.coord + loss.conf + loss.cls + loss.hp + loss.sp, abs=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_terms_nonnegative(self, seed):
        pred, target, weights = random_check_case(seed)
        loss = loss_terms(pred, target, weights)
        assert min(loss.coord, loss.conf, loss.cls, loss.hp, loss.sp) >= 0.0

    @given(st.integers(0, 10_000), st.sampled_from(["coord", "act", "noact", "cls", "progression", "rate"]))
    @settings(max_examples=60, deadline=None)
    def test_doubling_a_weight_doubles_its_contribution_only(self, seed, name):
        # Every term is affine in each weight, so doubling a weight must add
        # exactly the contribution that zeroing it removes; all other terms
        # stay bit-identical.  For the single-weight terms this is literal
        # doubling.
        pred, target, weights = random_check_case(seed)
        base = loss_terms(pred, target, weights)
        doubled = loss_terms(pred, target, replace(weights, **{name: 2 * getattr(weights, name)}))
        zeroed = loss_terms(pred, target, replace(weights, **{name: 0.0}))
        term_of = {"coord": "coord", "act": "conf", "noact": "conf", "cls": "cls", "progression": "hp", "rate": "sp"}
        affected = term_of[name]
        for term in ("coord", "conf", "cls", "hp", "sp"):
            got, ref, off = getattr(doubled, term), getattr(base, term), getattr(zeroed, term)
            if term == affected:
                assert got - ref == pytest.approx(ref - off, rel=1e-9, abs=1e-12)
                if name in ("coord", "cls", "rate"):
                    assert got == 2 * ref
            else:
                assert got == ref == off

    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_gated_negative_progression_is_free(self, seed, new_value):
        # Perturbing progression at a negative slot whose actionness is at or
        # below the gate never changes the loss.
        pred, target, weights = random_check_case(seed)
        quiet = np.argwhere((target.act_mask == 0) & (pred[..., ATTR_ACT] <= weights.neg_gate))
        if len(quiet) == 0:
            return
        before = loss_terms(pred, target, weights).total
        iy, ix, j = quiet[0]
        c = target.target_class.shape[-1]
        pred[iy, ix, j, 5 + c : 5 + 2 * c] = new_value
        assert loss_terms(pred, target, weights).total == before


class TestGradients:
    def test_zero_at_perfect_prediction(self):
        _, target, weights = random_check_case(6)
        grad = loss_gradient(perfect_prediction(target), target, weights)
        assert not grad.any()

    def test_actionness_gradient_closed_form(self):
        target = build_targets([gt_tube((0.3, 0.3, 0.6, 0.6))], 1, (2, 1, 1), AnchorSet(((1.0, 1.0),)))
        pred = perfect_prediction(target)
        pos = tuple(np.argwhere(target.act_mask)[0])
        pred[pos][ATTR_ACT] = 0.5
        grad = loss_gradient(pred, target, LossWeights())
        assert grad[pos][ATTR_ACT] == pytest.approx(-10.0, abs=1e-12)

    def test_finite_difference_seed_42(self):
        assert check_gradients(*random_check_case(42)) < 1e-4

    def test_zero_loss_point_checks_clean(self):
        # At the exact minimum the difference quotient only picks up
        # perturbation-rounding residue (~1e-15), further divided by the
        # 1e-8 denominator floor.
        _, target, weights = random_check_case(6)
        assert check_gradients(perfect_prediction(target), target, weights) < 1e-6

    def test_quadratic_single_coordinate_is_tight(self):
        target = build_targets([gt_tube((0.3, 0.3, 0.6, 0.6))], 1, (2, 1, 1), AnchorSet(((1.0, 1.0),)))
        pred = perfect_prediction(target)
        pos = tuple(np.argwhere(target.act_mask)[0])
        pred[pos][0] = 0.9  # x offset off target: a pure quadratic term
        assert check_gradients(pred, target, LossWeights()) < 1e-6

    def test_eps_validated(self):
        pred, target, weights = random_check_case(1)
        with pytest.raises(ValueError):
            check_gradients(pred, target, weights, eps=0.5)
