"""Acceptance suite: one test per release criterion, each at its stated
tolerance and runtime budget, printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import functools
import time

import numpy as np
import pytest
from scipy import stats

from lidar_ensemble.aggregate import AggregationSpec, LamKernel, UniformKernel
from lidar_ensemble.cli import main
from lidar_ensemble.geometry import PointCloud, SensorConfig, project_to_range_image
from lidar_ensemble.lam import (
    TrainConfig,
    initialize_lam_params,
    lovasz_softmax,
    modulate_statistics,
    train_lam,
    training_loss_and_grads,
)
from lidar_ensemble.metrics import ConfusionMatrix, condense_static_dynamic, confusion, iou
from lidar_ensemble.neighbors import DenseCloud, SpatialIndex, precompute_neighborhoods
from lidar_ensemble.selftrain import (
    AdaptationConfig,
    CbstConfig,
    HeightThresholdRule,
    MockPredictor,
    NoisyPredictor,
    build_lam_training_set,
    cbst_select,
    generate_refined_predictions,
)
from lidar_ensemble.subsample import SubsampleSpec, row_mask
from lidar_ensemble.synth import HEIGHT_THRESHOLDS, SyntheticSceneSpec, generate_sequence, sensor_config
from tests.oracles import from_padded, kernel_score, padded, phi, phi_stream, row_moments
from tests.test_lam import prefix_jaccard_oracle


def criterion(number, name, budget_seconds):
    """Run the decorated body, print one PASS/FAIL line, enforce the budget."""

    def wrap(body):
        @functools.wraps(body)
        def runner(*args, **kwargs):
            start = time.perf_counter()
            ok = False
            try:
                body(*args, **kwargs)
                ok = True
            finally:
                elapsed = time.perf_counter() - start
                status = "PASS" if ok else "FAIL"
                budget = f", budget {budget_seconds:.0f}s" if budget_seconds else ""
                print(f"\n[criterion {number:02d}] {name}: {status} ({elapsed:.2f}s{budget})")
            if budget_seconds:
                assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s exceeds {budget_seconds}s"

        return runner

    return wrap


# ---------------------------------------------------------------------------
# 1. Projection conformance
# ---------------------------------------------------------------------------

@criterion(1, "projection conformance", 1.0)
def test_criterion_01_projection_conformance():
    cfg = SensorConfig(height=64, width=2048, fov_up=3.0, fov_down=25.0)

    # worked examples
    index = project_to_range_image(PointCloud(points=np.array([[10.0, 0.0, 0.0]])), cfg)
    assert index.pixel_of_point[0, 0] == 1024
    assert index.pixel_of_point[0, 1] == 6
    index = project_to_range_image(PointCloud(points=np.array([[0.0, 10.0, 0.0]])), cfg)
    assert index.pixel_of_point[0, 0] == 512

    # scalar-wise re-evaluation matches the batch path exactly
    rng = np.random.default_rng(0)
    pts = rng.normal(scale=20.0, size=(10000, 3))
    batch = project_to_range_image(PointCloud(points=pts), cfg).pixel_of_point
    width, height = float(cfg.width), float(cfg.height)
    fov_down, fov = np.radians(cfg.fov_down), np.radians(cfg.fov_up + cfg.fov_down)
    for i in range(len(pts)):
        x, y, z = pts[i, 0], pts[i, 1], pts[i, 2]
        r = np.sqrt(x * x + y * y + z * z)
        cu = 0.5 * (1.0 - np.arctan2(y, x) / np.pi) * width
        cv = (1.0 - (np.arcsin(min(max(z / r, -1.0), 1.0)) + fov_down) / fov) * height
        u = int(np.floor(min(max(cu, 0.0), np.nextafter(width, 0.0))))
        v = int(np.floor(min(max(cv, 0.0), np.nextafter(height, 0.0))))
        assert (u, v) == (batch[i, 0], batch[i, 1])


# ---------------------------------------------------------------------------
# 2. Subsampling statistics
# ---------------------------------------------------------------------------

@criterion(2, "subsampling statistics", 5.0)
def test_criterion_02_subsampling_statistics():
    cfg = SensorConfig(height=64, width=2048, fov_up=3.0, fov_down=25.0)
    spec = SubsampleSpec(mode="random", ratio=0.5)
    rng = np.random.default_rng(1)
    counts = np.zeros(cfg.height)
    masks = 10000
    for _ in range(masks):
        counts += row_mask(cfg, spec, rng)
    frac = counts.sum() / (masks * cfg.height)
    assert abs(frac - 0.5) < 0.02

    expected = counts.mean()
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < stats.chi2.ppf(0.99, cfg.height - 1)

    regular = row_mask(cfg, SubsampleSpec(mode="regular", ratio=0.5), rng)
    assert np.array_equal(np.flatnonzero(regular), np.arange(0, cfg.height, 2))


# ---------------------------------------------------------------------------
# 3. Refinement equals the weighted-average oracle
# ---------------------------------------------------------------------------

@criterion(3, "refinement equals the per-point weighted-average oracle", 10.0)
def test_criterion_03_refinement_oracle():
    from lidar_ensemble.aggregate import refine_labels
    from lidar_ensemble.lam import lam_forward

    rng = np.random.default_rng(2)
    k_classes, k = 3, 60
    m = 20000
    raw = rng.uniform(0.05, 1.0, size=(m, k_classes))
    dense = DenseCloud(
        points=rng.uniform(-8, 8, size=(m, 3)),
        probs=raw / raw.sum(1, keepdims=True),
        temporal_offset=rng.integers(-10, 11, size=m),
        sensor_distance=rng.uniform(1.0, 40.0, size=m),
        source_frame=rng.integers(0, 21, size=m),
        window=10,
    )
    queries = rng.uniform(-8, 8, size=(1000, 3))
    raw = rng.uniform(0.05, 1.0, size=(1000, k_classes))
    v = raw / raw.sum(1, keepdims=True)
    nbh = precompute_neighborhoods(SpatialIndex(dense.points), queries, k=k)
    indices, distances, valid = padded(nbh)
    assert int(valid.min()) == k

    def oracle_features(q, idx):
        # independent per-point feature assembly, straight from dense arrays
        n = len(idx)
        feats = np.empty((n, 2 * k_classes + 3))
        feats[:, 0] = np.linalg.norm(dense.points[idx] - queries[q], axis=1)
        feats[:, 1 : 1 + k_classes] = v[q]
        feats[:, 1 + k_classes : 1 + 2 * k_classes] = dense.probs[idx]
        feats[:, 1 + 2 * k_classes] = dense.temporal_offset[idx] / dense.window
        feats[:, 2 + 2 * k_classes] = dense.sensor_distance[idx]
        return feats

    params = initialize_lam_params(2 * k_classes + 3, seed=7)
    for kernel in (UniformKernel(), LamKernel(params)):
        out = refine_labels(queries, v, dense, nbh, kernel)
        # simplex preservation
        assert out.probs.min() >= 0.0
        assert np.abs(out.probs.sum(axis=1) - 1.0).max() < 1e-5
        for q in range(len(queries)):
            idx = indices[q, : valid[q]]
            if isinstance(kernel, UniformKernel):
                # plain averaging: exact equality with the arithmetic mean
                assert np.array_equal(out.probs[q], dense.probs[idx].mean(axis=0))
            else:
                scores, _ = lam_forward(params, oracle_features(q, idx))
                weights = np.exp(scores)
                expected = (weights[:, None] * dense.probs[idx]).sum(0) / weights.sum()
                assert np.abs(out.probs[q] - expected).max() < 1e-6

    # spot-check the fully scalar kernel route on a query subsample
    kernel = LamKernel(params)
    for q in rng.choice(len(queries), size=25, replace=False):
        idx = indices[q, : valid[q]]
        num = np.zeros(k_classes)
        den = 0.0
        for j in idx:
            s = kernel_score(kernel, phi(queries[q], v[q], dense, j))
            num += s * dense.probs[j]
            den += s
        got = refine_labels(queries[q : q + 1], v[q : q + 1], dense,
                            from_padded(indices[q : q + 1], distances[q : q + 1],
                                        valid[q : q + 1]), kernel)
        assert np.abs(got.probs[0] - num / den).max() < 1e-6


# ---------------------------------------------------------------------------
# 4. k-NN exactness at scale
# ---------------------------------------------------------------------------

@criterion(4, "k-NN exactness (100 queries over 1e5 points)", 30.0)
def test_criterion_04_knn_exactness():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-20, 20, size=(100000, 3))
    queries = rng.uniform(-20, 20, size=(100, 3))
    index = SpatialIndex(pts)
    indices, distances, valid = padded(precompute_neighborhoods(index, queries, k=60, eps=0.2))
    for qi in range(len(queries)):
        d = np.sqrt(((pts - queries[qi]) ** 2).sum(axis=1))
        order = np.lexsort((np.arange(len(pts)), d))[:60]
        dd = d[order]
        keep = dd <= 0.2
        oracle_idx, oracle_dist = order[keep], dd[keep]
        n = int(valid[qi])
        assert n == len(oracle_idx)
        assert np.array_equal(indices[qi, :n], oracle_idx)
        assert np.array_equal(distances[qi, :n], oracle_dist)
        assert np.all(indices[qi, n:] == 0) and np.all(distances[qi, n:] == 0.0)


# ---------------------------------------------------------------------------
# 5. Analytic gradients through refinement and the network
# ---------------------------------------------------------------------------

@criterion(5, "gradient check (CE + Lovasz through refinement)", 10.0)
def test_criterion_05_gradient_check():
    rng = np.random.default_rng(42)
    params = initialize_lam_params(7, hidden_sizes=(4, 4, 4), seed=3)
    params.std_mean = rng.normal(size=7) * 0.1
    params.std_var = rng.uniform(0.5, 2.0, size=7)

    sizes = (4, 5, 3)  # 3 neighborhoods
    row_query = np.repeat(np.arange(3), sizes)
    phis = rng.normal(size=(sum(sizes), 7))
    raw = rng.uniform(0.1, 1.0, size=(sum(sizes), 2))
    probs = raw / raw.sum(1, keepdims=True)
    labels = np.array([0, 1, 0])

    def loss_at(p):
        total, _, _, _ = training_loss_and_grads(p, phis, row_query, probs, labels, 1.0, 1.0)
        return total

    _, _, _, grads = training_loss_and_grads(params, phis, row_query, probs, labels, 1.0, 1.0)

    h = 1e-4
    worst = 0.0
    for name, tensor in params.named_parameters():
        analytic = np.atleast_1d(grads[name])
        flat = np.atleast_1d(tensor)
        fd = np.zeros_like(analytic)
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
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4, f"max relative gradient error {worst:.2e}"


# ---------------------------------------------------------------------------
# 6. Lovasz-Softmax against the prefix-Jaccard oracle
# ---------------------------------------------------------------------------

@criterion(6, "Lovasz-Softmax oracle (500 random configurations)", 5.0)
def test_criterion_06_lovasz_oracle():
    rng = np.random.default_rng(4)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        raw = rng.uniform(0.05, 1.0, size=(n, 3))
        probs = raw / raw.sum(1, keepdims=True)
        truth = rng.integers(0, 3, size=n)
        assert abs(lovasz_softmax(probs, truth) - prefix_jaccard_oracle(probs, truth)) < 1e-9

    truth = np.array([0, 1, 2, 2, 0, 1])
    perfect = np.zeros((6, 3))
    perfect[np.arange(6), truth] = 1.0
    assert lovasz_softmax(perfect, truth) == 0.0


# ---------------------------------------------------------------------------
# 7. Synthetic adaptation benefit
# ---------------------------------------------------------------------------

def _sequence_accuracy(predictions, truths):
    return float(np.mean([(p.probs.argmax(1) == t).mean() for p, t in zip(predictions, truths)]))


@criterion(7, "synthetic adaptation benefit (uniform and learned kernels)", 300.0)
def test_criterion_07_adaptation_benefit():
    subsample = SubsampleSpec(mode="random", ratio=0.5, trials=3, include_identity=True)
    agg = AggregationSpec(kernel=UniformKernel(), k=16, epsilon=None, window=20, stride=1)
    base = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))

    # (a) flat 30% label noise: uniform cross-frame refinement recovers >= 5pp
    target_spec = SyntheticSceneSpec(num_frames=20, points_per_frame=1000, seed=11)
    target, target_truth = generate_sequence(target_spec)
    flat_noisy = NoisyPredictor(base, 0.3, 0.3, np.inf, seed=5)
    config = AdaptationConfig(sensor=sensor_config(), subsample=subsample, aggregation=agg,
                              cbst=CbstConfig(portion=1.0))
    within, refined = generate_refined_predictions(
        target.scans, target.poses, flat_noisy, config, seed=3)
    acc_unrefined = _sequence_accuracy(within, target_truth)
    acc_uniform = _sequence_accuracy(refined, target_truth)
    print(f"\n  flat noise: unrefined {acc_unrefined:.4f}, uniform {acc_uniform:.4f}")
    assert acc_uniform - acc_unrefined >= 0.05

    # (b) noise correlated with sensor distance: a LAM trained on a clean
    # source sequence (paper-default 25 epochs at lr 1e-3) beats uniform
    def gated(seed):
        return NoisyPredictor(base, near_rate=0.05, far_rate=0.75, range_threshold=10.0, seed=seed)

    source_spec = SyntheticSceneSpec(num_frames=14, points_per_frame=700, seed=21)
    source, source_truth = generate_sequence(source_spec)
    source_within, _ = generate_refined_predictions(
        source.scans, source.poses, gated(101), config, seed=8)
    data = build_lam_training_set(source.scans, source.poses, source_within, source_truth, agg)
    params, trace = train_lam(data, TrainConfig(learning_rate=1e-3, epochs=25, batch=256, seed=0))
    assert trace[-1].total < trace[0].total

    tgt_within, tgt_uniform = generate_refined_predictions(
        target.scans, target.poses, gated(55), config, seed=3)

    # modulate standardization statistics on the target feature stream
    chunks, _ = phi_stream(target.scans, target.poses, tgt_within, agg)
    params = modulate_statistics(params, [row_moments(chunk) for chunk in chunks if len(chunk)])

    lam_agg = AggregationSpec(kernel=LamKernel(params), k=agg.k, epsilon=agg.epsilon,
                              window=agg.window, stride=agg.stride)
    lam_config = AdaptationConfig(sensor=sensor_config(), subsample=subsample, aggregation=lam_agg,
                                  cbst=CbstConfig(portion=1.0))
    _, tgt_lam = generate_refined_predictions(
        target.scans, target.poses, gated(55), lam_config, seed=3)

    acc_gated_uniform = _sequence_accuracy(tgt_uniform, target_truth)
    acc_gated_lam = _sequence_accuracy(tgt_lam, target_truth)
    print(f"  gated noise: uniform {acc_gated_uniform:.4f}, learned {acc_gated_lam:.4f}")
    assert acc_gated_lam - acc_gated_uniform >= 0.01


# ---------------------------------------------------------------------------
# 8. Statistics modulation
# ---------------------------------------------------------------------------

@criterion(8, "statistics modulation", 1.0)
def test_criterion_08_statistics_modulation():
    rng = np.random.default_rng(6)
    d = 9
    stream = rng.normal(size=(4000, d)) * rng.uniform(0.5, 12.0, d) + rng.normal(size=d) * 30.0
    params = initialize_lam_params(d, seed=0)
    modulated = modulate_statistics(params, [row_moments(stream)])
    standardized = (stream - modulated.std_mean) / np.sqrt(modulated.std_var)
    assert np.abs(standardized.mean(axis=0)).max() < 1e-6
    assert np.abs(standardized.var(axis=0) - 1.0).max() < 1e-6

    again = modulate_statistics(modulated, [row_moments(stream)])
    assert np.array_equal(modulated.std_mean, again.std_mean)
    assert np.array_equal(modulated.std_var, again.std_var)


# ---------------------------------------------------------------------------
# 9. CBST selection counts
# ---------------------------------------------------------------------------

@criterion(9, "CBST class-balanced selection", 1.0)
def test_criterion_09_cbst():
    rng = np.random.default_rng(7)
    sizes = [1, 2, 3, 5, 7, 20, 55, 137, 1000]
    labels = np.concatenate([np.full(n, c) for c, n in enumerate(sizes)])
    conf = rng.permutation(len(labels)).astype(np.float64) / len(labels)  # no ties
    selected = cbst_select(labels, conf, CbstConfig(portion=0.2))
    for c, n in enumerate(sizes):
        assert selected[labels == c].sum() == -(-n // 5)  # exact ceil(0.2 n)
    assert cbst_select(labels, conf, CbstConfig(portion=1.0)).all()


# ---------------------------------------------------------------------------
# 10. Metrics closed forms
# ---------------------------------------------------------------------------

@criterion(10, "metrics closed forms", 0.0)
def test_criterion_10_metrics():
    report = iou(ConfusionMatrix(np.array([[1, 1], [0, 0]])))
    assert report.iou[0] == pytest.approx(50.0)
    assert report.iou[1] == pytest.approx(0.0)
    assert report.miou == pytest.approx(25.0)

    rng = np.random.default_rng(8)
    pred = rng.integers(0, 10, 5000)
    truth = rng.integers(0, 10, 5000)
    matrix = confusion(pred, truth, 10)
    grouping = {c: ("static" if c < 6 else "dynamic") for c in range(10)}
    condensed = condense_static_dynamic(matrix, grouping)
    assert condensed.counts.sum() == matrix.counts.sum()
    assert np.allclose(condensed.normalized.sum(axis=1), 1.0)

    # additivity under sharding is exact
    whole = confusion(pred, truth, 10)
    parts = confusion(pred[:1234], truth[:1234], 10).counts + confusion(pred[1234:], truth[1234:], 10).counts
    assert np.array_equal(whole.counts, parts)


# ---------------------------------------------------------------------------
# 11. End-to-end determinism
# ---------------------------------------------------------------------------

@criterion(11, "end-to-end determinism across runs and thread counts", 0.0)
def test_criterion_11_determinism(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    data = root / "data"
    assert main(["synthgen", "--out", str(data), "--frames", "5", "--points", "400",
                 "--seed", "9"]) == 0
    cfg = root / "cfg.ini"
    cfg.write_text(f"""
[dataset]
root = {data}
[sensor]
height = 32
width = 512
fov_up = 15
fov_down = 25
beams = 32
[aggregate]
kernel = uniform
k = 12
epsilon =
window = 5
stride = 1
[predictor]
kind = mock_height
thresholds = 0.5,2.5
noise = 0.3
[run]
seed = 17
""")
    outs = [root / name for name in ("run_a", "run_b", "run_c")]
    for out, threads in zip(outs, ("1", "1", "8")):
        assert main(["pipeline", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 0

    reference = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    names = {str(p) for p in reference}
    for required in ("histograms.csv", "report.csv", "manifest.txt",
                     "iteration_00/sequence/000000.label", "iteration_00/sequence/000000.mask"):
        assert required in names
    for other in outs[1:]:
        files = sorted(p.relative_to(other) for p in other.rglob("*") if p.is_file())
        assert files == reference
        for rel in reference:
            assert (outs[0] / rel).read_bytes() == (other / rel).read_bytes(), str(rel)
