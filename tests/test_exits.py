import numpy as np
import pytest

from moticomp.autodiff import Tape
from moticomp.errors import ConfigError, NumericError, ShapeError
from moticomp.exits import (SOFT_VAR_EPS, FlopsReport, _gumbel_softmax_st, _policy_forward,
                            _tendency_loss_soft, branch_exit_macs, count_flops,
                            gc_layer_macs, init_policy)
from moticomp.layers import bind
from moticomp.motion import LOWER, UPPER, MotionSequence, PartLayout, Skeleton
from moticomp.predictor import (BRANCH_KINDS, PredictorConfig, _branch_encode,
                                branch_node_counts, init_predictor)
from moticomp.training import TrainConfig, init_predictor_model, train_predictor


# exits that predict and count_flops reject, with the message each names;
# toy_config has three blocks
BAD_EXITS = [((1, 2), r"need one exit per branch.*got shape \(1, 2\)"),
             ((1, 2, 3, 1), r"got shape \(1, 4\)"),
             (np.zeros((0, 3), int), r"got shape \(0, 3\)"),
             ((0, 1, 1), "exit index 0 outside 1..3"),
             ((1, 4, 1), "exit index 4 outside 1..3"),
             ([[1, 1, 1], [2, 2, 9]], "exit index 9 outside 1..3"),
             ((2.0, 1, 1), r"exit indices must be integers, got float64 \[\[2.0, 1.0"),
             ((1.5, 1, 1), r"exit indices must be integers, got float64 \[\[1.5, 1.0"),
             # np.asarray reads a bool among ints as an integer
             ((True, 2, 3), r"exit indices must be integers, got a bool in \(True, 2, 3\)"),
             ((1, 2, np.True_), "exit indices must be integers, got a bool in"),
             ([[1, 1, 1], [2, False, 2]], "exit indices must be integers, got a bool in")]


def toy_layout():
    sk = Skeleton(parent=(0, 0, 0, 2), part_of=(LOWER, LOWER, UPPER, UPPER))
    return PartLayout.from_skeleton(sk)


def toy_config():
    return PredictorConfig(input_frames=8, output_frames=4, feature_width=8,
                           policy_hidden=6, coeff_scale=10.0)


def toy_predictor(seed=0):
    return init_predictor(np.random.default_rng(seed), toy_layout(), toy_config())


def policy_logits(params, x):
    """Exit logits (D,) of one policy on features x, through the training forward."""
    tape = Tape()
    tensors = bind(tape, {f"p.{k}": v for k, v in params.items()}, trainable=False)
    return _policy_forward(tape, tensors, "p", tape.constant(x)).values.reshape(-1)


class TestPolicyForward:
    def test_zero_head_gives_zero_logits(self):
        params = init_policy(np.random.default_rng(0), 8, 6, 3)
        x = np.random.default_rng(1).normal(size=(5, 8))
        assert np.array_equal(policy_logits(params, x), np.zeros(3))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        params = init_policy(rng, 8, 6, 3)
        params["w2"][:] = rng.normal(size=params["w2"].shape)
        x = rng.normal(size=(5, 8))
        assert np.array_equal(policy_logits(params, x), policy_logits(params, x))

    def test_matches_hand_rolled_mlp(self):
        rng = np.random.default_rng(3)
        params = init_policy(rng, 4, 5, 3)
        params["w2"][:] = rng.normal(size=params["w2"].shape)
        params["b2"][:] = rng.normal(size=params["b2"].shape)
        x = rng.normal(size=(6, 4))
        pooled = x.mean(axis=0, keepdims=True)
        expected = (np.tanh(pooled @ params["w1"] + params["b1"]) @ params["w2"]
                    + params["b2"])
        assert np.allclose(policy_logits(params, x), expected.reshape(-1), atol=1e-12)

    def test_width_mismatch_rejected(self):
        params = init_policy(np.random.default_rng(4), 8, 6, 3)
        with pytest.raises(ShapeError):
            policy_logits(params, np.zeros((5, 7)))


def draw(logits, temperature, noise):
    """(hard, soft) rows of one straight-through draw."""
    tape = Tape()
    hard, soft = _gumbel_softmax_st(tape, tape.constant(np.reshape(logits, (1, -1))),
                                    temperature, noise)
    return hard.values.reshape(-1), soft.values.reshape(-1)


class TestGumbelSoftmaxSt:
    def test_dominant_logit_selected(self):
        hard, _ = draw(np.array([10.0, 0.0, 0.0]), 1.0, np.zeros(3))
        assert np.array_equal(hard, [1.0, 0.0, 0.0])
        assert int(np.argmax(hard)) + 1 == 1

    def test_tie_breaks_to_lowest_index(self):
        hard, _ = draw(np.zeros(4), 1.0, np.zeros(4))
        assert np.array_equal(hard, [1.0, 0.0, 0.0, 0.0])

    def test_noise_moves_selection(self):
        noise = np.array([0.0, 5.0, 0.0])
        hard, _ = draw(np.zeros(3), 1.0, noise)
        assert int(np.argmax(hard)) + 1 == 2

    def test_non_positive_temperature_rejected(self):
        with pytest.raises(ConfigError):
            draw(np.zeros(3), 0.0, np.zeros(3))

    def test_always_one_hot(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            logits = rng.normal(scale=3.0, size=4)
            noise = rng.gumbel(size=4)
            hard, soft = draw(logits, 1.0, noise)
            assert hard.sum() == 1.0
            assert np.all((hard == 0.0) | (hard == 1.0))
            assert hard[int(np.argmax(soft))] == 1.0

    def test_temperature_limit_sharpens_soft(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=5)
        noise = rng.gumbel(size=5)
        hard, soft = draw(logits, 1e-3, noise)
        assert np.abs(soft - hard).max() < 1e-6

    def test_selection_frequencies_near_uniform(self):
        rng = np.random.default_rng(7)
        n, d = 100_000, 3
        # batched rows exercise the same softmax/straight-through kernel
        tape = Tape()
        logits = tape.constant(np.zeros((n, d)))
        perturbed = tape.add(logits, tape.constant(rng.gumbel(size=(n, d))))
        hard = tape.straight_through(tape.softmax_lastdim(perturbed))
        freq = hard.values.mean(axis=0)
        assert np.abs(freq - 1.0 / d).max() < 0.02

    def test_straight_through_gradient_matches_soft_path(self):
        rng = np.random.default_rng(8)
        c = rng.normal(size=(1, 3))
        logits = rng.normal(size=(1, 3))
        noise = rng.gumbel(size=(1, 3))

        def grads(hard_path: bool) -> np.ndarray:
            tape = Tape()
            x = tape.leaf(logits, requires_grad=True)
            b, soft = _gumbel_softmax_st(tape, x, 1.0, noise)
            target = b if hard_path else soft
            weighted = tape.hadamard(target, tape.constant(c))
            tape.backward(tape.scale(tape.mean(weighted), weighted.size))
            return x.grad.copy()

        assert np.array_equal(grads(True), grads(False))


def forced_exit_counts(exits, n_train=6):
    """Exit tallies of one training epoch whose branch policies always pick `exits`."""
    rng = np.random.default_rng(20)
    layout = toy_layout()
    model = init_predictor_model(rng, layout, toy_config())
    for kind, d in zip(BRANCH_KINDS, exits):
        model.policies[f"policy.{kind}.b2"][0, d - 1] = 1e3  # outweighs any Gumbel draw
    train = [MotionSequence(data=rng.normal(scale=10.0, size=(12, layout.size)),
                            fps=10.0, label="a") for _ in range(n_train)]
    config = TrainConfig(epochs=1, constrain_epochs=1, batch_size=3, seed=0)
    return train_predictor(model, train, [], config).history[0].exit_counts


def soft_tendency(counts, w_tendency=1.0):
    tape = Tape()
    tally = tape.constant(np.asarray(counts, dtype=np.float64).reshape(1, -1))
    return _tendency_loss_soft(tape, tally, w_tendency).item()


def closed_form_tendency(counts, w_tendency=1.0):
    """w * sqrt(var + eps) / mean, with the population variance."""
    counts = np.asarray(counts, dtype=np.float64)
    mean = counts.mean()
    return w_tendency * np.sqrt(((counts - mean) ** 2).mean() + SOFT_VAR_EPS) / mean


class TestTendency:
    def test_all_first_exit(self):
        assert forced_exit_counts((1, 1, 1)) == (18, 0, 0)

    def test_balanced_counts(self):
        assert forced_exit_counts((1, 2, 3)) == (6, 6, 6)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(4):
            exits = tuple(int(d) for d in rng.integers(1, 4, size=3))
            counts = forced_exit_counts(exits)
            assert counts == tuple(6 * exits.count(d) for d in (1, 2, 3))
            assert sum(counts) == 18

    def test_loss_zero_iff_equal(self):
        # zero up to the SOFT_VAR_EPS floor w * sqrt(eps) / mean, reached only at balance
        assert soft_tendency([10, 10, 10]) == pytest.approx(
            closed_form_tendency([10, 10, 10]), rel=1e-12)
        rng = np.random.default_rng(10)
        for _ in range(50):
            counts = rng.integers(0, 40, size=3)
            if counts.sum() == 0:
                continue
            loss = soft_tendency(counts)
            floor = np.sqrt(SOFT_VAR_EPS) / counts.mean()
            if counts[0] == counts[1] == counts[2]:
                assert loss == pytest.approx(floor, rel=1e-12)
            else:
                assert loss > floor

    def test_concentrated_counts_closed_form(self):
        # counts (3B, 0, 0): population variance 200 at B=10, mean 10, CV ~ sqrt(2)
        expected = np.sqrt(200.0 + SOFT_VAR_EPS) / 10.0
        assert soft_tendency([30, 0, 0], 1.0) == pytest.approx(expected, abs=1e-12)
        assert soft_tendency([30, 0, 0], 0.5) == pytest.approx(0.5 * expected, abs=1e-12)

    def test_matches_spreadsheet_cv(self):
        rng = np.random.default_rng(11)
        counts = rng.integers(1, 50, size=4)
        assert soft_tendency(counts, 0.5) == pytest.approx(
            closed_form_tendency(counts, 0.5), rel=1e-12)

    def test_all_zero_counts_rejected(self):
        with pytest.raises(NumericError):
            soft_tendency([0, 0, 0])


class TestFlops:
    def test_single_layer_closed_form(self):
        assert gc_layer_macs(4, 8, 8) == 4 * 4 * 8 + 4 * 8 * 8 == 384

    def test_monotone_in_exit_depth(self):
        params = toy_predictor()
        for n in branch_node_counts(params.layout).values():
            counts = branch_exit_macs(n, params.config)
            assert counts[0] < counts[1] < counts[2]

    def test_exit_one_cheaper_than_exit_three(self):
        params = toy_predictor()
        shallow = count_flops(params, (1, 1, 1))
        deep = count_flops(params, (3, 3, 3))
        assert shallow.weighted_average_total() < deep.weighted_average_total()
        assert deep.weighted_average_total() == deep.full_depth_total()

    def test_analytic_matches_instrumented_tape(self):
        # oracle: replay the branch forward and add up the MACs of its nodes;
        # test_autodiff pins each kind's node MACs to its matmul shapes
        params = toy_predictor(seed=1)
        rng = np.random.default_rng(12)
        policy = init_policy(rng, params.config.feature_width,
                             params.config.policy_hidden, params.config.n_blocks)
        for kind, n in branch_node_counts(params.layout).items():
            analytic = branch_exit_macs(n, params.config)
            for exit_index in (1, 2, 3):
                tape = Tape()
                tensors = bind(tape, params.named_parameters(), trainable=False)
                tensors.update(bind(tape, {f"pol.{k}": v for k, v in policy.items()},
                                    trainable=False))
                x = tape.constant(rng.normal(size=(n, params.config.resolved_n_coeffs)))
                encoded = _branch_encode(tape, tensors, kind, x)
                _policy_forward(tape, tensors, "pol", encoded)
                from moticomp.predictor import _branch_tail
                _branch_tail(tape, kind, tensors, encoded, exit_index)
                counted = sum(node.macs for node in tape.nodes)
                assert counted == analytic[exit_index - 1], (kind, exit_index)

    def test_report_validates_monotonicity(self):
        with pytest.raises(ValueError):
            FlopsReport(branch_names=("a",), counts={"a": (5, 5, 6)},
                        exit_distribution={"a": (1.0, 0.0, 0.0)})

    def test_csv_shape(self):
        params = toy_predictor()
        report = count_flops(params, (1, 2, 3))
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "branch,exit_1,exit_2,exit_3"
        assert len(lines) == 5  # header + 3 branches + summary
        assert lines[-1].startswith("weighted_average,")

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FlopsReport(branch_names=("a",), counts={"a": (4, 5, 6)},
                        exit_distribution={"a": (0.5, 0.0, 0.0)})

    def test_triple_gives_one_hot_distribution(self):
        params = toy_predictor()
        report = count_flops(params, (1, 2, 3))
        assert [report.exit_distribution[k] for k in BRANCH_KINDS] == [
            (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        assert count_flops(params, np.array([[1, 2, 3]])) == report

    def test_batch_of_exits_tallies_per_branch(self):
        params = toy_predictor()
        exits = np.random.default_rng(3).integers(1, 4, size=(7, 3))
        exits[0] = (1, 2, 3)  # one sample takes a different exit in each branch
        report = count_flops(params, exits)
        for i, kind in enumerate(BRANCH_KINDS):
            tally = np.bincount(exits[:, i] - 1, minlength=3)
            assert report.exit_distribution[kind] == tuple(tally / tally.sum())
            assert report.branch_average(kind) == pytest.approx(
                np.mean([report.counts[kind][d - 1] for d in exits[:, i]]), rel=1e-12)

    @pytest.mark.parametrize("exits,match", BAD_EXITS,
                             ids=[f"exits{i}" for i in range(len(BAD_EXITS))])
    def test_bad_exits_rejected(self, exits, match):
        with pytest.raises(ValueError, match=match):
            count_flops(toy_predictor(), exits)
