"""Tests for the learned aggregation model: forward/backward, losses,
training, statistics modulation, weight analysis, serialization."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lidar_ensemble import lam, phi_layout
from lidar_ensemble.errors import FileFormatError
from lidar_ensemble.lam import (
    EpochStats,
    LamTrainingError,
    LamTrainingSet,
    TrainConfig,
    eval_scores,
    initialize_lam_params,
    lam_backward,
    lam_forward,
    load_lam_params,
    modulate_statistics,
    save_lam_params,
    segment_exp,
    segment_softmax,
    segment_sum,
    train_lam,
    training_loss_and_grads,
    write_histogram_csv,
    write_loss_trace_csv,
)
from tests.conftest import traced
from tests.oracles import (lam_loss, lovasz_softmax, oracle_backward, oracle_forward, phi_matrix,
                           pooled_weight_histograms, row_moments, score_array, weight_histograms)
from lidar_ensemble.lam import _lovasz_softmax_with_grad


def random_simplex(rng, n, k):
    raw = rng.uniform(0.05, 1.0, size=(n, k))
    return raw / raw.sum(axis=1, keepdims=True)


def miniature_params(rng, d=7, hidden=(4, 4, 4)):
    params = initialize_lam_params(d, hidden_sizes=hidden, seed=int(rng.integers(1 << 30)))
    params.std_mean = rng.normal(size=d) * 0.1
    params.std_var = rng.uniform(0.5, 2.0, size=d)
    return params


class TestForward:
    def test_zero_network_scores_zero(self):
        params = initialize_lam_params(7, hidden_sizes=(4, 4, 4), seed=0)
        for layer in params.layers:
            layer.weight[:] = 0.0
        params.head_weight[:] = 0.0
        params.head_bias = 0.0
        feats = np.random.default_rng(0).normal(size=(10, 7))
        for train in (False, True):
            scores, _ = lam_forward(params, feats, train=train)
            assert np.abs(scores).max() == 0.0

    def test_eval_mode_is_bit_deterministic(self):
        rng = np.random.default_rng(1)
        params = miniature_params(rng)
        feats = rng.normal(size=(32, 7))
        a, _ = lam_forward(params, feats)
        b, _ = lam_forward(params, feats)
        assert np.array_equal(a, b)

    def test_train_mode_uses_batch_statistics(self):
        rng = np.random.default_rng(2)
        params = miniature_params(rng)
        feats = rng.normal(size=(64, 7))
        _, cache = lam_forward(params, feats, train=True)
        for entry in cache["layers"]:
            # batch-normalized pre-activations are standardized
            assert np.abs(entry["xhat"].mean(axis=0)).max() < 1e-12
            assert np.abs(entry["xhat"].var(axis=0) - 1.0).max() < 1e-3

    def test_running_statistics_momentum(self):
        rng = np.random.default_rng(3)
        params = miniature_params(rng)
        feats = rng.normal(size=(50, 7))
        before = [(l.run_mean.copy(), l.run_var.copy()) for l in params.layers]
        _, cache = lam_forward(params, feats, train=True)
        z0 = cache["x0"] @ params.layers[0].weight.T
        expected_mean = before[0][0] * 0.9 + 0.1 * z0.mean(axis=0)
        assert np.abs(params.layers[0].run_mean - expected_mean).max() < 1e-12
        expected_var = before[0][1] * 0.9 + 0.1 * z0.var(axis=0) * 50 / 49
        assert np.abs(params.layers[0].run_var - expected_var).max() < 1e-12

    def test_dimension_mismatch_rejected(self):
        params = initialize_lam_params(7, seed=0)
        with pytest.raises(ValueError, match="expected"):
            lam_forward(params, np.zeros((3, 5)))

    def test_non_finite_input_rejected(self):
        params = initialize_lam_params(7, seed=0)
        feats = np.zeros((2, 7))
        feats[1, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            lam_forward(params, feats)


def varied_params(rng, d, hidden):
    """Parameters with every tensor and statistic away from its initial value."""
    params = miniature_params(rng, d=d, hidden=hidden)
    for layer in params.layers:
        layer.gamma = rng.uniform(0.5, 1.5, len(layer.gamma))
        layer.beta = rng.normal(size=len(layer.beta)) * 0.3
        layer.run_mean = rng.normal(size=len(layer.run_mean))
        layer.run_var = rng.uniform(0.5, 2.0, len(layer.run_var))
    params.head_bias = 0.125
    return params


BLOCK = lam._ROW_BLOCK
ORACLE_ROWS = [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 4113]


class TestBlockedStepMatchesOracle:
    """The row-blocked, workspace-backed forward and backward give the same
    bits as the plain whole-array numpy they replace. Only a train forward
    has a backward; an eval forward leaves the running statistics as they
    were."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    # every layer after the first of (4, 4, 4), (8, 8) and (64, 32), and the
    # last of (8, 16, 4), is narrower than twice its fan-in, so the rebuilt
    # activation and the input gradient take workspace buffers
    @pytest.mark.parametrize("hidden", [(4, 4, 4), (8, 8), (32, 64, 128), (64, 32), (8, 16, 4)])
    @pytest.mark.parametrize("rows", ORACLE_ROWS)
    def test_scores_statistics_and_gradients(self, rows, hidden, mode):
        rng = np.random.default_rng(rows * 7 + len(hidden))
        train = mode == "train"
        params = varied_params(rng, 9, hidden)
        feats = rng.normal(size=(rows, 9)) * rng.uniform(0.1, 10.0, 9)
        dscores = rng.normal(size=rows)
        ref, got = params.copy(), params.copy()
        ref_scores, ref_cache = oracle_forward(ref, feats, train=train)
        scores, cache = lam_forward(got, feats, train=train)
        assert np.array_equal(scores, ref_scores)
        for a, b, before in zip(got.layers, ref.layers, params.layers):
            assert np.array_equal(a.run_mean, b.run_mean)
            assert np.array_equal(a.run_var, b.run_var)
            if not train:
                assert np.array_equal(a.run_mean, before.run_mean)
                assert np.array_equal(a.run_var, before.run_var)
        if not train:
            assert cache is None
            return
        for entry, ref_entry in zip(cache["layers"], ref_cache["layers"]):
            assert np.array_equal(entry["xhat"], ref_entry["xhat"])
        ref_grads = oracle_backward(ref, ref_cache, dscores)
        grads = lam_backward(got, cache, dscores)
        assert grads.keys() == ref_grads.keys()
        for name, value in ref_grads.items():
            assert np.array_equal(grads[name], value), name

    def test_reused_workspace_matches_fresh_calls(self):
        # (32, 64, 128) rebuilds each activation in the next layer's xhat; in
        # (48, 40, 24) and (8, 8) it never fits there, so workspace buffers
        # take it, two layers in a row in (48, 40, 24); (6, 1, 12) has both,
        # and a 1-wide layer that is one block of every row
        rng = np.random.default_rng(30)
        for hidden in ((32, 64, 128), (48, 40, 24), (8, 8), (6, 1, 12)):
            params = varied_params(rng, 9, hidden)
            ref, got = params.copy(), params.copy()
            workspace = lam._Workspace()
            for rows in (1, BLOCK + 1, 4113, BLOCK, 1, 4113):
                feats = rng.normal(size=(rows, 9)) * rng.uniform(0.1, 10.0, 9)
                dscores = rng.normal(size=rows)
                ref_scores, ref_cache = oracle_forward(ref, feats, train=True)
                ref_grads = oracle_backward(ref, ref_cache, dscores)
                scores, cache = lam_forward(got, feats, train=True, workspace=workspace)
                grads = lam_backward(got, cache, dscores, workspace=workspace)
                assert np.array_equal(scores, ref_scores)
                assert grads.keys() == ref_grads.keys()
                for name, value in ref_grads.items():
                    assert np.array_equal(grads[name], value), (hidden, rows, name)
                for a, b in zip(got.layers, ref.layers):
                    assert np.array_equal(a.run_mean, b.run_mean)
                    assert np.array_equal(a.run_var, b.run_var)

    @staticmethod
    def train_step(widths, rows=4096, size=64, k=3):
        """A training_loss_and_grads step of rows feature rows, in
        neighborhoods of size rows: step(workspace) runs it."""
        rng = np.random.default_rng(35)
        d = phi_layout.feature_dim(k)
        params = varied_params(rng, d, widths)
        args = (rng.normal(size=(rows, d)), np.repeat(np.arange(rows // size), size),
                random_simplex(rng, rows, k), rng.integers(0, k, rows // size))

        def step(workspace):
            total, *_ = training_loss_and_grads(params, *args, workspace=workspace)
            assert np.isfinite(total)

        return step

    def test_train_step_workspace_fits_its_budget(self):
        # the cache keeps x0 and each layer's xhat, and every activation
        # shares one buffer of the widest layer; beside them only the
        # column-sum scratch of block + 1 rows and the block's ReLU mask
        rows, d, widths = 4096, phi_layout.feature_dim(3), lam.HIDDEN_SIZES
        workspace = lam._Workspace()
        self.train_step(widths, rows)(workspace)
        held = sum(buf.nbytes for buf in workspace._buffers.values())
        budget = (8 * rows * (d + sum(widths) + max(widths))
                  + 8 * (BLOCK + 1) * max(widths) + BLOCK * max(widths))
        assert held <= budget

    # (48, 40, 24) takes workspace buffers for the rebuilt activations and
    # the input gradients, two layers in a row
    @pytest.mark.parametrize("widths", [lam.HIDDEN_SIZES, (48, 40, 24)])
    def test_warm_workspace_step_allocates_no_layer_array(self, widths):
        rows, workspace = 4096, lam._Workspace()
        step = self.train_step(widths, rows)
        step(workspace)
        _, peak, _ = traced(lambda: step(workspace))
        assert peak < 8 * rows * min(widths)

    def test_ragged_training_saves_oracle_checkpoint(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(31)
        data, _ = separable_task(rng, 45, neighbors=40)  # 45 neighborhoods: last batch of 13
        config = TrainConfig(learning_rate=1e-2, epochs=2, batch=16, seed=3)
        params, trace = train_lam(data, config)
        save_lam_params(params, tmp_path / "blocked.ckpt")
        monkeypatch.setattr(lam, "lam_forward", oracle_forward)
        monkeypatch.setattr(lam, "lam_backward", oracle_backward)
        ref_params, ref_trace = train_lam(data, config)
        save_lam_params(ref_params, tmp_path / "oracle.ckpt")
        assert trace == ref_trace
        assert (tmp_path / "blocked.ckpt").read_bytes() == (tmp_path / "oracle.ckpt").read_bytes()

    def test_successive_caches_do_not_share_memory(self):
        rng = np.random.default_rng(32)
        params = varied_params(rng, 9, (8, 8))

        def arrays(cache):
            out = [cache["x0"], cache["a_last"]]
            for entry in cache["layers"]:
                out += [value for value in entry.values() if isinstance(value, np.ndarray)]
            return out

        _, first = lam_forward(params, rng.normal(size=(600, 9)), train=True)
        _, second = lam_forward(params, rng.normal(size=(600, 9)), train=True)
        for a in arrays(first):
            for b in arrays(second):
                assert not np.shares_memory(a, b)


class TestCacheFreeEval:
    """eval_scores keeps no activation: each layer's output is normalized
    and rectified in place, in two workspace buffers used in turn."""

    def test_scores_match_the_oracle_chunk_by_chunk(self):
        rng = np.random.default_rng(33)
        chunk = lam._ROW_BLOCK
        for d, hidden, rows in ((9, (32, 64, 128), 2 * chunk + 17), (41, (8, 16, 4), 7),
                                (9, (64, 32), chunk + 1), (41, (32, 64, 128), chunk)):
            params = varied_params(rng, d, hidden)
            feats = rng.normal(size=(rows, d)) * rng.uniform(0.1, 10.0, d)
            want = np.concatenate([oracle_forward(params, feats[lo:lo + chunk])[0]
                                   for lo in range(0, rows, chunk)])

            def fill(lo, hi, out):
                assert lo % chunk == 0 and hi == min(lo + chunk, rows) and out.shape == (hi - lo, d)
                out[:] = feats[lo:hi]

            assert np.array_equal(eval_scores(params, rows, fill), want)

    def test_zero_rows_give_zero_scores(self):
        params = initialize_lam_params(7, seed=0)
        scores = eval_scores(params, 0, lambda lo, hi, out: pytest.fail("no rows to fill"))
        assert scores.shape == (0,) and scores.dtype == np.float64


class TestColumnSumOrder:
    """Block-chained column sums rely on numpy adding the rows of a C-ordered
    array one after another when reducing over axis 0. A numpy whose order
    differs fails here rather than silently changing checkpoint bytes."""

    @staticmethod
    def chained(a):
        block = lam._block_rows(len(a), a.shape[1])
        total = lam._ColumnSum(np.empty((block + 1, a.shape[1])))
        for lo, hi in lam._blocks(len(a), block):
            total.rows(hi - lo)[:] = a[lo:hi]
            total.add(hi - lo)
        return total.total

    @pytest.mark.parametrize("width", [1, 2, 7, 128])
    @pytest.mark.parametrize("rows", ORACLE_ROWS)
    def test_chained_sum_equals_numpy_sum(self, rows, width):
        rng = np.random.default_rng(rows + width)
        a = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-12, 13, size=(rows, width))
        assert np.array_equal(self.chained(a), a.sum(axis=0))

    def test_data_is_order_sensitive(self):
        rng = np.random.default_rng(33)
        a = rng.normal(size=(4113, 128)) * 10.0 ** rng.integers(-12, 13, size=(4113, 128))
        assert not np.array_equal(a[::-1].sum(axis=0), a.sum(axis=0))


def prefix_jaccard_oracle(probs, truth):
    """Lovasz extension by its interpolation definition: sorted errors dotted
    with differences of prefix-set Jaccard losses, averaged over present
    classes. Set intersections are recounted explicitly per prefix."""
    present = sorted(set(int(t) for t in truth))
    total = 0.0
    for c in present:
        fg = set(i for i in range(len(truth)) if truth[i] == c)
        errors = [1.0 - probs[i, c] if i in fg else probs[i, c] for i in range(len(truth))]
        order = sorted(range(len(errors)), key=lambda i: (-errors[i], i))
        prev = 0.0
        value = 0.0
        prefix = set()
        for i in order:
            prefix.add(i)
            inter = len(fg - prefix)
            union = len(fg | prefix)
            jac = 1.0 - inter / union
            value += errors[i] * (jac - prev)
            prev = jac
        total += value
    return total / len(present)


class TestLovaszSoftmax:
    def test_perfect_predictions_are_exactly_zero(self):
        truth = np.array([0, 1, 2, 1, 0])
        probs = np.zeros((5, 3))
        probs[np.arange(5), truth] = 1.0
        assert lovasz_softmax(probs, truth) == 0.0

    def test_single_point_reduces_to_error(self):
        for e in (0.0, 0.25, 0.6, 1.0):
            probs = np.array([[1.0 - e, e]])
            assert lovasz_softmax(probs, np.array([0])) == pytest.approx(e, abs=1e-12)

    def test_matches_prefix_jaccard_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            probs = random_simplex(rng, n, 3)
            truth = rng.integers(0, 3, size=n)
            got = lovasz_softmax(probs, truth)
            want = prefix_jaccard_oracle(probs, truth)
            assert abs(got - want) < 1e-9

    def test_value_range_and_positivity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            probs = random_simplex(rng, n, 4)
            truth = rng.integers(0, 4, size=n)
            val = lovasz_softmax(probs, truth)
            assert 0.0 <= val <= 1.0
            assert val > 0.0  # random simplex rows are never exactly one-hot

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            lovasz_softmax(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        probs = random_simplex(rng, 5, 3)
        truth = np.array([0, 1, 2, 0, 1])
        _, grad = _lovasz_softmax_with_grad(probs, truth)
        h = 1e-6
        for i in range(5):
            for c in range(3):
                up, down = probs.copy(), probs.copy()
                up[i, c] += h
                down[i, c] -= h
                fd = (lovasz_softmax(up, truth) - lovasz_softmax(down, truth)) / (2 * h)
                assert abs(grad[i, c] - fd) < 1e-6


class TestLamLoss:
    def test_perfect_one_hot_gives_zero(self):
        truth = np.array([0, 2, 1])
        probs = np.zeros((3, 3))
        probs[np.arange(3), truth] = 1.0
        assert lam_loss(probs, truth) == 0.0

    def test_uniform_binary_cross_entropy_is_ln2(self):
        probs = np.array([[0.5, 0.5], [0.5, 0.5]])
        truth = np.array([0, 1])
        assert lam_loss(probs, truth, ce_weight=1.0, lovasz_weight=0.0) == pytest.approx(np.log(2), abs=1e-12)

    def test_combined_matches_independent_reference(self):
        rng = np.random.default_rng(7)
        probs = random_simplex(rng, 6, 3)
        truth = rng.integers(0, 3, size=6)
        ce_ref = -np.mean([np.log(probs[i, truth[i]]) for i in range(6)])
        lov_ref = prefix_jaccard_oracle(probs, truth)
        for w_ce, w_lov in ((1.0, 1.0), (0.5, 2.0)):
            got = lam_loss(probs, truth, ce_weight=w_ce, lovasz_weight=w_lov)
            assert abs(got - (w_ce * ce_ref + w_lov * lov_ref)) < 1e-6

    def test_ignore_label_excluded(self):
        probs = np.array([[0.5, 0.5], [1.0, 0.0]])
        truth = np.array([255, 0])
        assert lam_loss(probs, truth, lovasz_weight=0.0, ignore_label=255) == 0.0

    def test_all_ignored_is_an_error(self):
        with pytest.raises(ValueError, match="ignored"):
            lam_loss(np.array([[1.0, 0.0]]), np.array([255]), ignore_label=255)

    def test_probability_clamp(self):
        probs = np.array([[1.0, 0.0]])
        val = lam_loss(probs, np.array([1]), lovasz_weight=0.0)
        assert val == pytest.approx(-np.log(1e-12), rel=1e-9)


def miniature_batch(rng, k=2, sizes=(4, 5, 3)):
    d = 2 * k + 3
    row_query = np.repeat(np.arange(len(sizes)), sizes)
    phis = rng.normal(size=(sum(sizes), d))
    probs = random_simplex(rng, sum(sizes), k)
    labels = rng.integers(0, k, size=len(sizes))
    return phis, row_query, probs, labels


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(42)
        params = miniature_params(rng)
        phis, row_query, probs, labels = miniature_batch(rng)

        def loss_at(p):
            total, _, _, _ = training_loss_and_grads(p, phis, row_query, probs, labels, 1.0, 1.0)
            return total

        _, _, _, grads = training_loss_and_grads(params, phis, row_query, probs, labels, 1.0, 1.0)
        h = 1e-4
        for name, tensor in params.named_parameters():
            analytic = np.atleast_1d(grads[name])
            fd = np.zeros_like(analytic)
            flat = np.atleast_1d(tensor)
            for idx in np.ndindex(flat.shape):
                up, down = params.copy(), params.copy()
                if name == "head.bias":
                    up.head_bias += h
                    down.head_bias -= h
                else:
                    dict(up.named_parameters())[name][idx] += h
                    dict(down.named_parameters())[name][idx] -= h
                fd[idx] = (loss_at(up) - loss_at(down)) / (2 * h)
            scale = np.maximum(np.abs(analytic), np.abs(fd))
            rel = np.abs(analytic - fd) / np.maximum(scale, 1e-8)
            rel[scale < 1e-7] = 0.0
            assert rel.max() < 1e-4, f"{name}: max rel {rel.max():.2e}"

    def test_score_shift_gradient_sums_to_zero(self):
        # adding a constant to all scores of a neighborhood changes nothing,
        # so the score gradient must sum to zero per neighborhood
        rng = np.random.default_rng(8)
        params = miniature_params(rng)
        phis, row_query, probs, labels = miniature_batch(rng)
        _, _, _, grads = training_loss_and_grads(
            params, phis, row_query, probs, labels, 1.0, 1.0)
        assert abs(grads["head.bias"][0]) < 1e-12

    @pytest.mark.parametrize("k", [2, 3, 5, 19])
    def test_strided_label_columns_give_the_bits_of_a_copy(self, k):
        # train_lam hands the loss the neighbor-label columns of its phi rows
        # as a strided view; a contiguous copy must give the same bits
        rng = np.random.default_rng(k)
        d = phi_layout.feature_dim(k)
        params = miniature_params(rng, d=d)
        columns = phi_layout.neighbor_label_columns(k)
        for n in range(1, 257):
            sizes = rng.integers(1, 13, size=n)
            row_query = np.repeat(np.arange(n), sizes)
            phis = rng.normal(size=(len(row_query), d))
            phis[:, columns] = random_simplex(rng, len(row_query), k)
            labels = rng.integers(0, k, size=n)
            view = phis[:, columns]
            assert not view.flags.c_contiguous
            strided = training_loss_and_grads(params, phis, row_query, view, labels)
            copied = training_loss_and_grads(params, phis, row_query, np.ascontiguousarray(view),
                                             labels)
            assert strided[:3] == copied[:3], n
            for name, grad in copied[3].items():
                assert np.array_equal(strided[3][name], grad), (n, name)


def separable_task(rng, n_hoods, neighbors=8, window=4):
    """Sensor-distance column perfectly separates reliable neighbors.

    Each neighborhood owns a query point and its neighbor points in the
    point table, the neighbors up to window frames from the query."""
    probs, sensor_distance, frames, labels, reliable_masks = [], [], [], [], []
    for _ in range(n_hoods):
        y = int(rng.integers(0, 2))
        reliable = rng.random(neighbors) < 0.5
        reliable[0] = True
        reliable[1] = False
        v_n = np.where(reliable[:, None], [[0.9, 0.1]], [[0.1, 0.9]])
        if y == 1:
            v_n = v_n[:, ::-1]
        probs += [random_simplex(rng, 1, 2), v_n]
        sensor_distance += [rng.uniform(2, 40, 1),
                            np.where(reliable, rng.uniform(2, 10, neighbors), rng.uniform(20, 40, neighbors))]
        frames += [[window], window + rng.integers(-window, window + 1, neighbors)]
        labels.append(y)
        reliable_masks.append(reliable)
    query = np.arange(n_hoods) * (neighbors + 1)
    data = LamTrainingSet(
        offsets=np.arange(n_hoods + 1) * neighbors,
        neighbor=(query[:, None] + np.arange(1, neighbors + 1)).ravel(),
        distance=rng.uniform(0.0, 0.2, n_hoods * neighbors),
        query=query, labels=labels, probs=np.concatenate(probs),
        sensor_distance=np.concatenate(sensor_distance), frame=np.concatenate(frames), window=window)
    return data, reliable_masks


class TestTraining:
    def test_zero_learning_rate_leaves_parameters_unchanged(self):
        rng = np.random.default_rng(9)
        data, _ = separable_task(rng, 50)
        cfg = TrainConfig(learning_rate=0.0, epochs=3, batch=16, seed=5)
        init = modulate_statistics(initialize_lam_params(7, seed=cfg.seed), [data.phi_moments()])
        before = {name: t.copy() for name, t in init.named_parameters()}
        params, _ = train_lam(data, cfg)
        for name, tensor in params.named_parameters():
            assert np.array_equal(tensor, before[name]), name

    def test_learns_separable_reliability_feature(self):
        rng = np.random.default_rng(10)
        train_data, _ = separable_task(rng, 600)
        test_data, reliable = separable_task(rng, 200)
        params, trace = train_lam(
            train_data, TrainConfig(learning_rate=1e-3, epochs=25, batch=64, seed=1))
        assert trace[-1].total < trace[0].total
        wins = 0
        phis = phi_matrix(test_data)
        for i in range(len(test_data)):
            lo, hi = test_data.offsets[i], test_data.offsets[i + 1]
            scores, _ = lam_forward(params, phis[lo:hi])
            r = reliable[i]
            if scores[r].mean() > scores[~r].mean():
                wins += 1
        assert wins / len(test_data) >= 0.95

    def test_reproducible_given_seed(self):
        rng = np.random.default_rng(11)
        data, _ = separable_task(rng, 40)
        cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch=16, seed=7)
        a, trace_a = train_lam(data, cfg)
        b, trace_b = train_lam(data, cfg)
        for (name, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(ta, tb), name
        assert trace_a == trace_b

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_loss_aborts_with_step(self, monkeypatch):
        rng = np.random.default_rng(12)
        data, _ = separable_task(rng, 20)

        def bad_init(feature_dim, seed):
            bad = initialize_lam_params(feature_dim, seed=seed)
            bad.head_weight[0] = np.nan
            return bad

        monkeypatch.setattr(lam, "initialize_lam_params", bad_init)
        with pytest.raises(LamTrainingError, match="step 0"):
            train_lam(data, TrainConfig(epochs=1, batch=8))

    def test_trace_has_one_record_per_epoch(self):
        rng = np.random.default_rng(13)
        data, _ = separable_task(rng, 30)
        _, trace = train_lam(data, TrainConfig(epochs=4, batch=16, seed=2))
        assert [rec.epoch for rec in trace] == [0, 1, 2, 3]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(ce_weight=0.0, lovasz_weight=0.0)


class TestModulateStatistics:
    def test_matching_stream_is_a_fixed_point(self):
        rng = np.random.default_rng(14)
        stream = rng.normal(loc=3.0, scale=2.0, size=(500, 7))
        params = initialize_lam_params(7, seed=0)
        once = modulate_statistics(params, [row_moments(stream)])
        twice = modulate_statistics(once, [row_moments(stream)])
        assert np.abs(once.std_mean - twice.std_mean).max() < 1e-9
        assert np.abs(once.std_var - twice.std_var).max() < 1e-9

    def test_constant_feature_floored_with_warning(self):
        stream = np.ones((100, 7)) * 4.0
        params = initialize_lam_params(7, seed=0)
        with pytest.warns(RuntimeWarning, match="floored"):
            out = modulate_statistics(params, [row_moments(stream)])
        assert np.abs(out.std_mean - 4.0).max() == 0.0
        assert np.all(out.std_var == 1e-8)

    def test_standardized_stream_has_unit_statistics(self):
        rng = np.random.default_rng(15)
        stream = rng.normal(size=(2000, 7)) * rng.uniform(0.5, 8.0, 7) + rng.normal(size=7) * 50
        params = modulate_statistics(initialize_lam_params(7, seed=0), [row_moments(stream)])
        standardized = (stream - params.std_mean) / np.sqrt(params.std_var)
        assert np.abs(standardized.mean(axis=0)).max() < 1e-6
        assert np.abs(standardized.var(axis=0) - 1.0).max() < 1e-6

    def test_other_parameters_untouched(self):
        rng = np.random.default_rng(16)
        params = initialize_lam_params(7, seed=3)
        out = modulate_statistics(params, [row_moments(rng.normal(size=(50, 7)))])
        for (name, a), (_, b) in zip(params.named_parameters(), out.named_parameters()):
            assert np.array_equal(a, b), name

    def test_chunked_stream_matches_whole_array(self):
        rng = np.random.default_rng(17)
        stream = rng.normal(loc=2.0, size=(999, 7))
        params = initialize_lam_params(7, seed=0)
        whole = modulate_statistics(params, [row_moments(stream)])
        chunked = modulate_statistics(params, map(row_moments, [stream[:100], stream[100:350], stream[350:]]))
        assert np.abs(whole.std_mean - chunked.std_mean).max() < 1e-9
        assert np.abs(whole.std_var - chunked.std_var).max() < 1e-9

    def test_empty_stream_rejected(self):
        params = initialize_lam_params(7, seed=0)
        with pytest.raises(ValueError, match="empty"):
            modulate_statistics(params, [])
        with pytest.raises(ValueError, match="statistics stream is empty"):
            modulate_statistics(params, (row_moments(chunk) for chunk in ()))

    def test_only_row_moments_are_streamed(self):
        params = initialize_lam_params(7, seed=0)
        stream = np.random.default_rng(26).normal(size=(20, 7))
        for given in (stream, [stream], [row_moments(stream), stream[:5]]):
            with pytest.raises(TypeError, match="RowMoments"):
                modulate_statistics(params, given)

    def test_generator_gives_the_bits_of_a_list(self):
        rng = np.random.default_rng(22)
        stream = rng.normal(loc=-1.5, scale=3.0, size=(700, 7))
        chunks = [row_moments(c) for c in (stream[:5], stream[5:300], stream[300:])]
        params = initialize_lam_params(7, seed=0)
        listed = modulate_statistics(params, chunks)
        streamed = modulate_statistics(params, (chunk for chunk in chunks))
        assert np.array_equal(listed.std_mean, streamed.std_mean)
        assert np.array_equal(listed.std_var, streamed.std_var)

    @pytest.mark.parametrize("window", [4, 0])
    def test_training_set_gives_the_bits_of_its_rows(self, window):
        # a zero-width window makes the temporal column 0, which is floored
        rng = np.random.default_rng(24)
        data, _ = separable_task(rng, 300, neighbors=7, window=window)
        params = initialize_lam_params(data.feature_dim, seed=0)
        with warnings.catch_warnings(record=True) as from_set:
            warnings.simplefilter("always")
            streamed = modulate_statistics(params, [data.phi_moments()])
        with warnings.catch_warnings(record=True) as from_rows:
            warnings.simplefilter("always")
            whole = modulate_statistics(params, [row_moments(phi_matrix(data))])
        assert [str(w.message) for w in from_set] == [str(w.message) for w in from_rows]
        assert len(from_set) == (window == 0)
        assert streamed.std_mean.tobytes() == whole.std_mean.tobytes()
        assert streamed.std_var.tobytes() == whole.std_var.tobytes()

    @given(st.data())
    def test_streamed_moments_give_the_bits_of_numpy(self, data):
        # a short block, or one to four blocks of _ROW_BLOCK rows, the last partial or full
        block = lam._ROW_BLOCK
        rows = data.draw(st.one_of(st.integers(1, 40), st.integers(block - 1, 3 * block + 1)), label="rows")
        width = data.draw(st.integers(2, 9), label="width")
        values = st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300]),
                           st.floats(-1e6, 1e6, allow_nan=False))
        a = data.draw(hnp.arrays(np.float64, (rows, width), elements=values), label="a")

        def fill(lo, hi, out):
            assert hi - lo <= block
            out[:] = a[lo:hi]

        with np.errstate(over="ignore", invalid="ignore"):
            moments = lam.column_moments(fill, rows, width)
            assert moments.rows == rows
            assert moments.mean.tobytes() == np.mean(a, axis=0).tobytes()
            assert moments.var.tobytes() == np.var(a, axis=0).tobytes()

    def test_row_moments_stand_for_their_chunk(self):
        # moments streamed from the three blocks of a chunk never held
        # whole merge like the chunk's own
        rng = np.random.default_rng(25)
        a, b = rng.normal(size=(2 * lam._ROW_BLOCK + 40, 7)), rng.normal(loc=3.0, size=(13, 7))
        params = initialize_lam_params(7, seed=0)
        want = modulate_statistics(params, [row_moments(a), row_moments(b)])

        def fill(lo, hi, out):
            out[:] = a[lo:hi]

        got = modulate_statistics(params, [lam.column_moments(fill, len(a), 7), row_moments(b)])
        assert got.std_mean.tobytes() == want.std_mean.tobytes()
        assert got.std_var.tobytes() == want.std_var.tobytes()

    def test_one_array_gives_exactly_its_mean_and_var(self):
        rng = np.random.default_rng(23)
        stream = rng.normal(loc=7.0, scale=0.3, size=(333, 7)) * rng.uniform(0.1, 9.0, 7)
        params = initialize_lam_params(7, seed=0)
        for given in ([row_moments(stream)], iter([row_moments(stream)])):
            out = modulate_statistics(params, given)
            assert np.array_equal(out.std_mean, stream.mean(axis=0))
            assert np.array_equal(out.std_var, stream.var(axis=0))


class TestSegmentSums:
    """The one reduction of every per-query average: rows add in row
    order, bit for bit the order of np.add.at."""

    def test_sums_equal_add_at(self):
        rng = np.random.default_rng(22)
        row_query = rng.integers(0, 40, size=3000)  # unsorted; query 40 has no rows
        rows = rng.normal(size=(3000, 19)) * 10.0 ** rng.integers(-8, 8, size=(3000, 1))
        expected = np.zeros((41, 19))
        np.add.at(expected, row_query, rows)
        assert np.array_equal(segment_sum(rows, row_query, 41), expected)
        expected = np.zeros(41)
        np.add.at(expected, row_query, rows[:, 3])
        assert np.array_equal(segment_sum(rows[:, 3], row_query, 41), expected)

    def test_exp_is_shifted_by_the_query_maximum(self):
        rng = np.random.default_rng(23)
        row_query = np.repeat(np.arange(5), [4, 1, 0, 7, 3])
        scores = rng.normal(size=15) * 300.0
        e, z = segment_exp(scores, row_query, 5)
        for q in range(5):
            s = scores[row_query == q]
            assert np.array_equal(e[row_query == q], np.exp(s - s.max()) if len(s) else s)
        assert z[2] == 0.0 and np.isfinite(e).all() and (z[z > 0] >= 1.0).all()
        assert np.array_equal(segment_softmax(scores, row_query, 5), e / z[row_query])


def pair_records(rng, sizes, scores, window, points=40):
    """One PairRecord per list in sizes (a scan's neighborhood sizes), its
    weights the segment softmax of its share of scores, its pairs at
    random center distances from random neighbors among points sequence
    points, at offsets in [-window, window]."""
    records, lo = [], 0
    for scan in sizes:
        n = sum(scan)
        weights = segment_softmax(scores[lo:lo + n], np.repeat(np.arange(len(scan)), scan), len(scan))
        records.append(lam.PairRecord(
            weights=weights, center_distance=rng.uniform(0, 2, n),
            neighbor=rng.integers(0, points, n).astype(np.uint32),
            temporal_offset=rng.integers(-window, window + 1, n).astype(lam.offset_dtype(window))))
        lo += n
    return records


@st.composite
def block_crossing_sizes(draw):
    """Record lengths (pairs per scan) totalling more than three histogram
    blocks, with an empty record and a record that crosses a block
    boundary."""
    block = lam._HISTOGRAM_BLOCK
    sizes = draw(st.lists(st.one_of(st.just(0), st.integers(1, 80000)), min_size=1, max_size=5))
    before = sum(sizes)
    boundary = max(before // block + 1, 3) * block
    sizes.append(boundary - before + draw(st.integers(1, block)))
    sizes.insert(draw(st.integers(0, len(sizes))), 0)
    return sizes


class TestWeightHistograms:
    def test_uniform_kernel_gives_reciprocal_counts(self):
        rng = np.random.default_rng(18)
        records = pair_records(rng, [[5]], np.zeros(5), window=3)
        report = lam.weight_histograms(records, rng.uniform(1, 40, 40), 3, bins=4)
        for hs in report.values():
            assert hs.counts.sum() == 5
            nonzero = hs.counts > 0
            assert np.abs(hs.mean_weight[nonzero] - 0.2).max() < 1e-12

    def test_counts_conserved_across_slices(self):
        rng = np.random.default_rng(19)
        sizes = [[3, 7], [5, 1]]
        params = initialize_lam_params(7, seed=1)
        scores = score_array(params, rng.normal(size=(16, 7)))
        records = pair_records(rng, sizes, scores, window=2)
        report = lam.weight_histograms(records, rng.uniform(1, 40, 40), 2, bins=6)
        for hs in report.values():
            assert hs.counts.sum() == 16

    def test_temporal_slice_covers_normalized_offsets(self):
        rng = np.random.default_rng(20)
        records = pair_records(rng, [[50]], np.zeros(50), window=4)
        records[0].temporal_offset[:2] = -4, 4
        report = lam.weight_histograms(records, rng.uniform(1, 40, 40), 4, bins=10)
        edges = report["temporal"].edges
        assert edges[0] == -1.0 and edges[-1] == 1.0

    def test_scoring_leaves_running_statistics_untouched(self):
        # scores come from the running statistics, which no scoring call writes
        rng = np.random.default_rng(24)
        params = varied_params(rng, 7, (8, 16, 4))
        before = [(name, np.array(t).tobytes()) for name, t in lam._named_tensors(params)]
        phis = rng.normal(size=(4 * lam._ROW_BLOCK + 5, 7))
        row_query = np.repeat(np.arange(len(phis) // 5), 5)
        score_array(params, phis)
        weight_histograms(params, phis[:len(row_query)], row_query, len(row_query) // 5)
        lam_forward(params, phis)
        assert [(name, np.array(t).tobytes()) for name, t in lam._named_tensors(params)] == before

    @settings(max_examples=12)
    @given(sizes=block_crossing_sizes(), window=st.integers(0, 3),
           decimals=st.one_of(st.none(), st.integers(0, 2)),
           constant=st.sampled_from([None, "sensor_distance", "center_distance"]),
           bins=st.integers(1, 25), seed=st.integers(0, 2 ** 16))
    @example(sizes=[0, 65535, 0, 131075], window=0, decimals=1, constant="center_distance", bins=20, seed=0)
    @example(sizes=[70000, 0, 60000, 70000], window=2, decimals=None, constant="sensor_distance", bins=7,
             seed=1)
    def test_streamed_blocks_keep_the_pooled_bits(self, sizes, window, decimals, constant, bins, seed):
        # ties come from quantized distances and few temporal offsets; a
        # zero window or a constant slice has min == max, which numpy
        # widens by 0.5 either way
        rng = np.random.default_rng(seed)
        table = rng.uniform(1, 40, 1000)
        if decimals is not None:
            table = np.round(table, decimals)
        if constant == "sensor_distance":
            table[:] = table[0]
        records, features = [], []
        for n in sizes:
            distance = rng.uniform(0, 2, n) if constant != "center_distance" else np.full(n, 0.75)
            if decimals is not None:
                distance = np.round(distance, decimals)
            record = lam.PairRecord(
                weights=rng.uniform(0, 1, n), center_distance=distance,
                neighbor=rng.integers(0, len(table), n).astype(np.uint32),
                temporal_offset=rng.integers(-window, window + 1, n).astype(lam.offset_dtype(window)))
            records.append(record)
            features.append({"temporal": phi_layout.temporal_feature(record.temporal_offset, window),
                             "sensor_distance": table[record.neighbor], "center_distance": distance})
        assert sum(sizes) > 3 * lam._HISTOGRAM_BLOCK and 0 in sizes
        want = pooled_weight_histograms(features, [r.weights for r in records], bins)
        got = lam.weight_histograms(records, table, window, bins)
        assert list(got) == list(want)
        for name, hs in want.items():
            for field in ("edges", "counts", "mean_weight"):
                a, b = getattr(got[name], field), getattr(hs, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), (name, field)

    def test_memory_above_the_records_is_a_few_blocks(self):
        # the pairs are read in blocks of 65536 (lam._HISTOGRAM_BLOCK): two
        # buffers hold a block's values and weights and a third its sort
        # order; the sorted weights and their cumulative sum go into the
        # values' buffer, and the gather of a block's sensor distances takes
        # the order's place. Nothing grows with the pair count
        block_bytes = 8 * (1 << 16)
        peaks = []
        for scans in (10, 20):
            rng = np.random.default_rng(25)
            pairs = 16 * 7500 * scans
            records = pair_records(rng, [[16] * 7500] * scans, np.zeros(pairs), window=90, points=50000)
            table = rng.uniform(1, 40, 50000)
            peaks.append(traced(lambda: lam.weight_histograms(records, table, 90))[1])
        assert max(peaks) <= 3.5 * block_bytes, [p / block_bytes for p in peaks]
        assert peaks[1] - peaks[0] < block_bytes // 8, peaks

    def test_csv_rendering(self, tmp_path):
        rng = np.random.default_rng(21)
        report = lam.weight_histograms(pair_records(rng, [[10]], np.zeros(10), window=1),
                                       rng.uniform(1, 40, 40), 1, bins=3)
        path = tmp_path / "hist.csv"
        write_histogram_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "slice,bin_left,bin_right,count,normalized_weight_mean"
        assert len(lines) == 1 + 3 * len(report)


class TestSerialization:
    def test_checkpoint_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(22)
        params = initialize_lam_params(9, seed=4)  # K=3
        params.std_mean = rng.normal(size=9)
        params.std_var = rng.uniform(0.5, 2.0, 9)
        params.head_bias = 0.25
        for layer in params.layers:
            layer.run_mean = rng.normal(size=layer.run_mean.shape)
            layer.run_var = rng.uniform(0.5, 2.0, layer.run_var.shape)
        path = tmp_path / "model.ckpt"
        save_lam_params(params, path)
        back = load_lam_params(path)
        assert np.array_equal(back.std_mean, params.std_mean)
        assert np.array_equal(back.std_var, params.std_var)
        assert back.head_bias == params.head_bias
        for a, b in zip(params.layers, back.layers):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.gamma, b.gamma)
            assert np.array_equal(a.beta, b.beta)
            assert np.array_equal(a.run_mean, b.run_mean)
            assert np.array_equal(a.run_var, b.run_var)

    def test_header_layout(self, tmp_path):
        params = initialize_lam_params(7, seed=0)
        path = tmp_path / "model.ckpt"
        save_lam_params(params, path)
        blob = path.read_bytes()
        assert blob[:4] == b"LAMW"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 7
        assert int.from_bytes(blob[12:16], "little") == 2

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(FileFormatError, match="magic"):
            load_lam_params(path)

    def test_truncated_tensor_reports_offset(self, tmp_path):
        params = initialize_lam_params(7, seed=0)
        path = tmp_path / "model.ckpt"
        save_lam_params(params, path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FileFormatError, match="byte offset"):
            load_lam_params(path)

    def test_any_number_of_layers_round_trips(self, tmp_path):
        rng = np.random.default_rng(23)
        for hidden in ((8, 8), (5,), (3, 6, 4, 2)):
            params = varied_params(rng, 9, hidden)
            path = tmp_path / "model.ckpt"
            save_lam_params(params, path)
            back = load_lam_params(path)
            assert [len(layer.weight) for layer in back.layers] == list(hidden)
            for (name, a), (_, b) in zip(params.named_parameters(), back.named_parameters()):
                assert np.array_equal(a, b), name
            for a, b in zip(params.layers, back.layers):
                assert np.array_equal(a.run_mean, b.run_mean)
                assert np.array_equal(a.run_var, b.run_var)

    @pytest.mark.parametrize("name, bad", [
        ("layer1.weight", np.zeros((64, 33))),
        ("layer0.weight", np.zeros((32, 8))),
        ("layer2.gamma", np.ones(127)),
        ("head.weight", np.zeros(64)),
        ("std_var", np.ones(8)),
        ("layer1.run_var", np.r_[0.0, np.ones(63)]),
    ])
    def test_misshapen_tensor_reports_its_record_offset(self, tmp_path, name, bad):
        params = initialize_lam_params(9, seed=0)
        layer = params.layers[int(name[5])] if name.startswith("layer") else None
        if layer is not None:
            setattr(layer, name.split(".")[1], bad)
        elif name == "head.weight":
            params.head_weight = bad
        else:
            params.std_var = bad
        path = tmp_path / "bad.ckpt"
        save_lam_params(params, path)
        record = path.read_bytes().index(name.encode()) - 4
        fault = "holds a variance that is not positive" if name.endswith("run_var") else "has shape .*"
        with pytest.raises(FileFormatError, match=f"'{name}' {fault}, in the record at byte offset {record}$"):
            load_lam_params(path)

    def test_loss_trace_csv(self, tmp_path):
        trace = [EpochStats(0, 0.5, 0.25, 0.75), EpochStats(1, 0.4, 0.2, 0.6)]
        path = tmp_path / "trace.csv"
        write_loss_trace_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_ce,mean_lovasz,total"
        assert lines[1].startswith("0,0.5,0.25,0.75")
        assert len(lines) == 3
