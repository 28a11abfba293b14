import math

import numpy as np
import pytest

from moefy.autograd import Tensor, no_grad, param
from moefy.losses import LteHyperparams, aux_loss_graph, perplexity, task_loss
from moefy.numerics import Rng, ShapeError, finite_diff_grad


def aux_values(score_mats, tau=0.5, guard=1e-3):
    """(efficiency, separability) floats, one sequence per layer."""
    hp = LteHyperparams(tau=tau, denom_guard=guard)
    with no_grad():
        eff, sep = aux_loss_graph([[Tensor(g)] for g in score_mats], hp)
    return eff.item(), sep.item()


def efficiency(score_mats):
    return aux_values(score_mats)[0]


def separability(score_mats, tau, guard):
    return aux_values(score_mats, tau, guard)[1]


def stage1_total(task, score_mats, hp):
    """The stage-1 objective as training builds it: task + eta * eff + lam * sep."""
    hp.validate()
    eff, sep = aux_values(score_mats, hp.tau, hp.denom_guard)
    return eff, sep, task + hp.eta * eff + hp.lam * sep


class TestTaskLoss:
    def test_uniform_logits(self):
        logits = np.zeros((10, 256))
        assert abs(task_loss(logits, np.zeros(10, dtype=np.int64)) - math.log(256)) < 1e-9

    def test_one_hot_margin_ten(self):
        # hand evaluation: ln(1 + e^-10) = 4.53989e-5
        logits = np.array([[10.0, 0.0]])
        assert abs(task_loss(logits, np.array([0])) - 4.5398899216864645e-05) < 1e-12

    def test_perplexity_definition(self):
        ce = task_loss(np.zeros((4, 7)), np.zeros(4, dtype=np.int64))
        assert abs(perplexity(ce) - 7.0) < 1e-9

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            task_loss(np.zeros((3, 5)), np.zeros(2, dtype=np.int64))

    def test_stable_for_large_logits(self):
        logits = np.array([[1e4, 0.0], [0.0, 1e4]])
        assert np.isfinite(task_loss(logits, np.array([0, 1])))


class TestEfficiencyLoss:
    def test_all_half(self):
        assert abs(efficiency([np.full((5, 4), 0.5)]) - 0.25) < 1e-12

    def test_all_zero(self):
        assert efficiency([np.zeros((3, 2))]) == 0.0

    def test_layer_average(self):
        # per-layer means 0.04 and 0.16 -> 0.10
        l1 = np.full((6, 3), 0.2)
        l2 = np.full((6, 3), 0.4)
        assert abs(efficiency([l1, l2]) - 0.10) < 1e-12

    def test_monotone_in_any_score(self):
        g = Rng(0).normal((4, 4), std=0.1, dtype=np.float64) + 0.5
        base = efficiency([g])
        bumped = g.copy()
        bumped[2, 1] += 0.01
        assert efficiency([bumped]) > base

    def test_empty_error(self):
        with pytest.raises(ValueError):
            efficiency([])


class TestSeparabilityLoss:
    def test_all_point_nine(self):
        val = separability([np.full((4, 4), 0.9)], tau=0.5, guard=1e-6)
        assert abs(val - 6.25) < 1e-9

    def test_guard_active_at_tau(self):
        val = separability([np.full((2, 2), 0.5)], tau=0.5, guard=1e-3)
        assert abs(val - 1000.0) < 1e-9

    def test_extremes_give_four(self):
        val = separability([np.array([[0.0, 1.0]])], tau=0.5, guard=1e-6)
        assert abs(val - 4.0) < 1e-9

    def test_maximized_at_tau(self):
        at_tau = separability([np.full((1, 1), 0.5)], 0.5, 1e-4)
        for g in (0.1, 0.3, 0.7, 0.99):
            assert separability([np.full((1, 1), g)], 0.5, 1e-4) < at_tau


class TestStage1Loss:
    def test_eta_lam_zero(self):
        _, _, total = stage1_total(3.5, [np.full((2, 2), 0.7)], LteHyperparams(eta=0.0, lam=0.0))
        assert total == 3.5

    def test_hand_arithmetic_combination(self):
        # guard 0.25 makes scores-at-0.5 give eff=0.25, sep=4 -> 2 + 0.25 + 2 = 4.25
        hp = LteHyperparams(eta=1.0, lam=0.5, tau=0.5, denom_guard=0.25)
        eff, sep, total = stage1_total(2.0, [np.full((3, 4), 0.5)], hp)
        assert abs(eff - 0.25) < 1e-12
        assert abs(sep - 4.0) < 1e-12
        assert abs(total - 4.25) < 1e-12

    def test_breakdown_invariant(self):
        # the graph total training backpropagates equals task + eta*eff + lam*sep
        rng = Rng(1)
        mats = [np.clip(rng.normal((6, 4), std=0.2, dtype=np.float64) + 0.5, 0.01, 0.99)
                for _ in range(3)]
        hp = LteHyperparams(eta=2.0, lam=0.7)
        eff_t, sep_t = aux_loss_graph([[param(m)] for m in mats], hp)
        total = eff_t * hp.eta + sep_t * hp.lam + 1.25
        eff, sep, expected = stage1_total(1.25, mats, hp)
        assert abs(total.item() - expected) < 1e-6
        assert (eff_t.item(), sep_t.item()) == (eff, sep)

    def test_doubling_eta_doubles_efficiency_term(self):
        mats = [np.full((2, 2), 0.6)]
        _, _, a = stage1_total(1.0, mats, LteHyperparams(eta=1.0, lam=0.0))
        _, _, b = stage1_total(1.0, mats, LteHyperparams(eta=2.0, lam=0.0))
        assert abs((b - 1.0) - 2 * (a - 1.0)) < 1e-12

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            LteHyperparams(eta=-1.0).validate()
        with pytest.raises(ValueError):
            LteHyperparams(lam=-0.5).validate()


class TestGraphGradients:
    def test_aux_losses_match_finite_differences(self):
        hp = LteHyperparams(eta=1.0, lam=0.5, tau=0.5, denom_guard=1e-3)
        raw = Rng(2).normal((5, 3), std=0.9, dtype=np.float64)
        # keep every coordinate clear of the clamp boundary at (g-tau)^2 == guard
        raw = raw[np.newaxis][0]
        g0 = 0.5 + np.sign(raw) * (0.08 + 0.3 * np.abs(raw) / np.abs(raw).max())
        g0 = np.clip(g0, 0.02, 0.98)

        def eff_fn(flat):
            eff, _ = aux_loss_graph([[param(flat.reshape(g0.shape))]], hp)
            return float(eff.data)

        def sep_fn(flat):
            _, sep = aux_loss_graph([[param(flat.reshape(g0.shape))]], hp)
            return float(sep.data)

        t = param(g0.copy())
        eff, sep = aux_loss_graph([[t]], hp)
        eff.backward()
        fd = finite_diff_grad(eff_fn, g0.ravel(), eps=1e-6)
        np.testing.assert_allclose(t.grad.ravel(), fd, rtol=1e-4, atol=1e-9)

        t2 = param(g0.copy())
        _, sep2 = aux_loss_graph([[t2]], hp)
        sep2.backward()
        fd2 = finite_diff_grad(sep_fn, g0.ravel(), eps=1e-6)
        np.testing.assert_allclose(t2.grad.ravel(), fd2, rtol=1e-4, atol=1e-7)

    def test_separability_gradient_points_away_from_tau(self):
        hp = LteHyperparams(tau=0.5, denom_guard=1e-4)
        for g0, sign in ((0.62, 1.0), (0.38, -1.0)):
            t = param(np.full((1, 1), g0))
            _, sep = aux_loss_graph([[t]], hp)
            sep.backward()
            # descending the loss moves the score further from tau
            assert -t.grad[0, 0] * sign > 0

    def test_graph_values_match_numpy_losses(self):
        # two sequences per layer; reference is the flat numpy mean over all tokens
        hp = LteHyperparams(eta=1.0, lam=0.5)
        mats = [[np.clip(Rng(3 + l).split(str(b)).normal((4, 3), std=0.2, dtype=np.float64)
                         + 0.5, 0.01, 0.99) for b in range(2)] for l in range(2)]
        eff, sep = aux_loss_graph([[param(m) for m in layer] for layer in mats], hp)
        flat = [np.concatenate(layer) for layer in mats]
        ref_eff = np.mean([np.mean(np.square(g)) for g in flat])
        ref_sep = np.mean([np.mean(1.0 / np.maximum(np.square(g - hp.tau), hp.denom_guard))
                           for g in flat])
        assert abs(eff.item() - ref_eff) < 1e-12
        assert abs(sep.item() - ref_sep) < 1e-12
