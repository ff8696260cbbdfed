import numpy as np
import pytest

from pointline.ba import (
    BaConfig,
    LmSchedule,
    assemble_problem,
    hessian_spectrum,
    lm_step,
    optimize,
)
from pointline.errors import EmptyProblemError
from pointline.geometry import CameraIntrinsics, Se3Pose, project, se3_exp
from pointline.harness import HarnessConfig, generate_scene
from pointline.lines import LineObservation
from pointline.point_errors import PointObservation, virtual_right_coordinate
from pointline.sparse_map import SparseMap

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, baseline=0.08)


def scene_config(**kwargs) -> HarnessConfig:
    base = dict(
        keyframes=5, points=40, lines=8, seed=1,
        noise_scale=0.0, perturb_translation=0.0, perturb_rotation_deg=0.0,
        perturb_points=0.0, perturb_lines=0.0, mono_fraction_points=0.0,
        mono_fraction_lines=0.0, max_iters=30,
    )
    base.update(kwargs)
    return HarnessConfig(**base)


def test_stereo_line_observation_contributes_two_terms():
    m = SparseMap(K)
    m.add_keyframe(Se3Pose.identity(), kf_id=0)
    m.add_keyframe(Se3Pose(np.eye(3), np.array([0.1, 0, 0])), kf_id=1)
    ln = m.add_line([-0.2, 0.0, 2.0], [0.3, 0.1, 2.2])
    for kf_id in (0, 1):
        pose = m.keyframes[kf_id].pose
        p_px = project(K, pose.transform(ln.p))
        q_px = project(K, pose.transform(ln.q))
        m.add_line_observation(
            kf_id, ln.id,
            LineObservation(p_px, q_px, depth_p=float(pose.transform(ln.p)[2]),
                            depth_q=float(pose.transform(ln.q)[2])),
        )
    problem = assemble_problem(m, BaConfig(fix_first_pose=True))
    counts = {t.kind: len(t) for t in problem.tables}
    assert counts == {"line_2d": 2, "line_3d": 2}


def test_mono_line_needs_three_observations():
    m = SparseMap(K)
    m.add_keyframe(Se3Pose.identity(), kf_id=0)
    m.add_keyframe(Se3Pose(np.eye(3), np.array([0.1, 0, 0])), kf_id=1)
    m.add_point([0, 0, 2.0])  # keeps the problem non-empty
    m.add_point_observation(0, next(iter(m.points)), PointObservation([320, 240]))
    m.add_point_observation(1, next(iter(m.points)), PointObservation([300, 240]))
    ln = m.add_line([-0.2, 0.0, 2.0], [0.3, 0.1, 2.2])
    for kf_id in (0, 1):
        pose = m.keyframes[kf_id].pose
        m.add_line_observation(
            kf_id, ln.id,
            LineObservation(project(K, pose.transform(ln.p)), project(K, pose.transform(ln.q))),
        )
    problem = assemble_problem(m, BaConfig())
    assert sum(len(t) for t in problem.tables if t.kind.startswith("line")) == 0
    # a third mono observation activates the 2D terms
    m2 = SparseMap(K)
    for kf_id in range(3):
        m2.add_keyframe(Se3Pose(np.eye(3), np.array([0.05 * kf_id, 0, 0])), kf_id=kf_id)
    ln = m2.add_line([-0.2, 0.0, 2.0], [0.3, 0.1, 2.2])
    for kf_id in range(3):
        pose = m2.keyframes[kf_id].pose
        m2.add_line_observation(
            kf_id, ln.id,
            LineObservation(project(K, pose.transform(ln.p)), project(K, pose.transform(ln.q))),
        )
    problem = assemble_problem(m2, BaConfig())
    assert sum(len(t) for t in problem.tables if t.kind == "line_2d") == 3


def test_empty_problem_rejected():
    m = SparseMap(K)
    m.add_keyframe(Se3Pose.identity(), kf_id=0)
    with pytest.raises(EmptyProblemError):
        assemble_problem(m, BaConfig())  # single fixed keyframe, nothing else


def test_zero_residual_gives_zero_step():
    _, smap = generate_scene(scene_config())
    problem = assemble_problem(smap, BaConfig())
    cost, _ = problem.evaluate(problem.initial_state)
    assert cost < 1e-18
    delta, predicted = lm_step(problem, 1e-4)
    assert np.abs(delta).max() < 1e-9
    assert abs(predicted) < 1e-15


def test_large_damping_gradient_descent_limit():
    _, smap = generate_scene(scene_config(perturb_points=0.05, perturb_lines=0.05))
    problem = assemble_problem(smap, BaConfig(kernel="none"))
    ne = problem.linearize(problem.initial_state)
    h, g = ne.dense(), ne.g
    lam = 1e12
    delta, _ = lm_step(problem, lam)
    assert np.isclose(np.linalg.norm(delta), np.linalg.norm(g) / lam, rtol=1e-3)
    explicit = np.linalg.solve(h + lam * np.eye(len(g)), -g)
    scale = max(np.abs(explicit).max(), 1e-300)
    assert np.abs(delta - explicit).max() < 1e-9 * scale


def test_two_observation_point_closed_form():
    # two keyframes observing one free point; the first LM step with tiny
    # damping reproduces the hand-solved weighted least-squares update
    m = SparseMap(K)
    poses = [Se3Pose.identity(), Se3Pose(np.eye(3), np.array([-0.2, 0.0, 0.0]))]
    for i, pose in enumerate(poses):
        m.add_keyframe(pose, kf_id=i)
    true_point = np.array([0.1, -0.05, 2.0])
    pt = m.add_point(true_point + np.array([0.02, -0.01, 0.03]))
    for i, pose in enumerate(poses):
        m.add_point_observation(i, pt.id, PointObservation(project(K, pose.transform(true_point))))
    config = BaConfig(kernel="none", fix_first_pose=True, fixed_pose_ids=(1,))
    problem = assemble_problem(m, config)
    assert problem.n_params == 3

    # hand-built normal equations from the two projection Jacobians
    from pointline.geometry import projection_jacobian

    h = np.zeros((3, 3))
    g = np.zeros(3)
    x0 = m.points[pt.id].position
    for i, pose in enumerate(poses):
        x_c = pose.transform(x0)
        res = project(K, pose.transform(true_point)) - project(K, x_c)
        j = -projection_jacobian(K, x_c) @ pose.rotation
        h += j.T @ j
        g += j.T @ res
    lam = 1e-12
    expected = np.linalg.solve(h + lam * np.eye(3), -g)
    delta, _ = lm_step(problem, lam)
    assert np.allclose(delta, expected, rtol=1e-9, atol=1e-12)


def test_dense_and_schur_solvers_identical():
    _, smap = generate_scene(scene_config(noise_scale=1.0, perturb_translation=0.02,
                                          perturb_rotation_deg=1.0, perturb_points=0.02,
                                          perturb_lines=0.02))
    problem = assemble_problem(smap, BaConfig())
    for lam in (1e-6, 1e-2, 1.0):
        d1, p1 = lm_step(problem, lam, schedule=LmSchedule(linear_solver="dense"))
        d2, p2 = lm_step(problem, lam, schedule=LmSchedule(linear_solver="schur"))
        scale = max(np.abs(d1).max(), 1e-12)
        assert np.abs(d1 - d2).max() < 1e-9 * scale
        assert abs(p1 - p2) < 1e-9 * max(abs(p1), 1e-12)


def test_optimize_from_ground_truth_is_fixed_point():
    _, smap = generate_scene(scene_config())
    problem = assemble_problem(smap, BaConfig())
    values, report = optimize(problem, LmSchedule(max_iters=10))
    assert report.converged
    assert report.final_cost <= 1e-18
    assert len(report.rows) <= 2


def test_noiseless_perturbed_scene_recovers_exactly():
    truth, smap = generate_scene(
        scene_config(perturb_translation=0.01, perturb_rotation_deg=0.5,
                     perturb_points=0.01, perturb_lines=0.01)
    )
    problem = assemble_problem(smap, BaConfig())
    values, report = optimize(problem, LmSchedule(max_iters=60))
    # residual RMSE in pixels over point terms
    sq = []
    for kf_id, kf in smap.keyframes.items():
        pose = values.poses[kf_id]
        for pid, obs in kf.point_obs.items():
            sq.extend((obs.pixel - project(K, pose.transform(values.points[pid]))) ** 2)
    rmse = np.sqrt(np.mean(sq))
    assert rmse < 1e-6


def test_pose_only_recovery_with_fixed_landmarks():
    rng = np.random.default_rng(3)
    m = SparseMap(K)
    m.add_keyframe(Se3Pose.identity(), kf_id=0)
    true_pose = se3_exp(np.array([0.02, -0.01, 0.03, 0.05, 0.02, -0.04]))
    start = se3_exp(np.array([0.0, 0.01, -0.01, -0.02, 0.01, 0.02])).compose(true_pose)
    m.add_keyframe(start, kf_id=1)
    for _ in range(12):
        x_w = np.append(rng.uniform(-0.8, 0.8, 2), rng.uniform(1.5, 3.0))
        pt = m.add_point(x_w)
        for kf_id, pose in ((0, Se3Pose.identity()), (1, true_pose)):
            x_c = pose.transform(x_w)
            uv = project(K, x_c)
            u_r = virtual_right_coordinate(K, uv[0], x_c[2])
            m.add_point_observation(kf_id, pt.id, PointObservation(uv, right_u=u_r))
    config = BaConfig(fix_points=True, kernel="none")
    problem = assemble_problem(m, config)
    values, report = optimize(problem, LmSchedule(max_iters=40))
    err = values.poses[1].matrix() - true_pose.matrix()
    assert np.abs(err).max() < 1e-8


def test_whole_problem_jacobian_matches_stacked_residual_fd():
    from pointline.errors import ConfigError

    checked = 0
    seed = 0
    while checked < 10:
        seed += 1
        cfg = scene_config(
            keyframes=4, points=6, lines=4, seed=seed,
            noise_scale=1.0, perturb_translation=0.02, perturb_rotation_deg=1.0,
            perturb_points=0.02, perturb_lines=0.02,
        )
        try:
            _, smap = generate_scene(cfg)
        except ConfigError:
            continue
        checked += 1
        problem = assemble_problem(smap, BaConfig(kernel="none"))
        state = problem.initial_state

        def stacked(s):
            parts = []
            for table in problem.tables:
                res, ok = problem._residuals(s, table)
                assert ok
                parts.append(res.reshape(-1))
            return np.concatenate(parts)

        n = problem.n_params
        eps = 1e-6
        j_fd = np.zeros((stacked(state).size, n))
        for col in range(n):
            e = np.zeros(n)
            e[col] = eps
            j_fd[:, col] = (stacked(problem.retract(state, e)) - stacked(problem.retract(state, -e))) / (2 * eps)
        # weighted FD normal matrix vs the analytic one
        blocks = []
        for table in problem.tables:
            info = table.info
            r = info.shape[1]
            for i in range(len(table)):
                blocks.append(info[i])
        big_info = np.zeros((j_fd.shape[0], j_fd.shape[0]))
        row = 0
        for b in blocks:
            r = b.shape[0]
            big_info[row : row + r, row : row + r] = b
            row += r
        h_fd = j_fd.T @ big_info @ j_fd
        g_fd = j_fd.T @ big_info @ stacked(state)
        ne = problem.linearize(state)
        h, g = ne.dense(), ne.g
        assert np.abs(h - h_fd).max() / max(np.abs(h_fd).max(), 1e-9) < 1e-4
        assert np.abs(g - g_fd).max() / max(np.abs(g_fd).max(), 1e-9) < 1e-4


def test_accepted_costs_monotone_on_noisy_scene():
    cfg = scene_config(
        keyframes=8, points=80, lines=15, noise_scale=1.0,
        perturb_translation=0.02, perturb_rotation_deg=1.0,
        perturb_points=0.02, perturb_lines=0.02, seed=5,
    )
    _, smap = generate_scene(cfg)
    problem = assemble_problem(smap, BaConfig())
    _, report = optimize(problem, LmSchedule(max_iters=25))
    costs = report.accepted_costs()
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    assert any(r.accepted for r in report.rows)


def test_determinism_bit_identical_iterates():
    cfg = scene_config(
        keyframes=6, points=50, lines=10, noise_scale=1.0,
        perturb_translation=0.02, perturb_rotation_deg=1.0,
        perturb_points=0.02, perturb_lines=0.02, seed=6,
    )

    def run():
        _, smap = generate_scene(cfg)
        problem = assemble_problem(smap, BaConfig())
        _, report = optimize(problem, LmSchedule(max_iters=15))
        return [(r.cost, r.lamda, r.step_norm) for r in report.rows]

    assert run() == run()


def test_local_scope_frees_covisible_only():
    cfg = scene_config(keyframes=8, points=60, lines=0, seed=7, mono_fraction_points=0.0)
    _, smap = generate_scene(cfg)
    problem = assemble_problem(
        smap, BaConfig(covisibility_threshold=10_000), scope="local", reference_kf=3
    )
    # impossible threshold: only the reference keyframe is free
    free = [problem.kf_ids[i] for i in range(len(problem.kf_ids)) if problem.pose_free[i]]
    assert free == [3]
    # every pose observing the reference's landmarks is present but fixed
    assert len(problem.kf_ids) > 1
    problem2 = assemble_problem(
        smap, BaConfig(covisibility_threshold=1), scope="local", reference_kf=3
    )
    free2 = [problem2.kf_ids[i] for i in range(len(problem2.kf_ids)) if problem2.pose_free[i]]
    assert 3 in free2 and len(free2) > 1
    with pytest.raises(EmptyProblemError):
        assemble_problem(smap, BaConfig(), scope="local", reference_kf=999)


def test_hessian_spectrum_excludes_fixed_blocks():
    cfg = scene_config(keyframes=4, points=10, lines=0, seed=8)
    _, smap = generate_scene(cfg)
    problem = assemble_problem(smap, BaConfig(fix_points=True))
    with pytest.raises(EmptyProblemError):
        hessian_spectrum(problem, ("point", None))
    eigs = hessian_spectrum(problem, ("pose", None))
    assert eigs.shape == (6 * (4 - 1),)


def test_hessian_spectrum_matches_dense_submatrix():
    cfg = scene_config(keyframes=5, points=30, lines=6, seed=11, noise_scale=1.0,
                       perturb_points=0.02, perturb_lines=0.02)
    _, smap = generate_scene(cfg)
    problem = assemble_problem(smap, BaConfig())
    h = problem.linearize(problem.initial_state).dense()
    layouts = {
        "pose": (problem.kf_ids, problem.pose_param, 0, 6),
        "point": (problem.point_ids, problem.point_param, problem.point_offset, 3),
        "line": (problem.line_ids, problem.line_param, problem.line_offset, 6),
    }
    for kind, (ids, param, offset, d) in layouts.items():
        for chosen in (None, ids[1:4]):
            slots = range(len(ids)) if chosen is None else [ids.index(i) for i in chosen]
            cols = [offset + d * param[s] + c for s in slots if param[s] >= 0 for c in range(d)]
            expected = np.linalg.eigvalsh(h[np.ix_(cols, cols)])
            eigs = hessian_spectrum(problem, (kind, chosen))
            assert eigs.shape == expected.shape
            assert np.abs(eigs - expected).max() <= 1e-10 * np.abs(expected).max()


def test_linearize_memory_linear_in_terms():
    import tracemalloc

    _, smap = generate_scene(HarnessConfig(seed=1, keyframes=10, points=700, lines=20))
    problem = assemble_problem(smap, BaConfig())
    n = problem.n_params
    assert n >= 2000
    tracemalloc.start()
    try:
        problem.linearize(problem.initial_state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense n x n H alone would take n^2 * 8 bytes
    assert peak < n * n * 8 / 4


def test_optimize_linearizes_once_per_state(monkeypatch):
    from pointline.ba import Problem

    cfg = scene_config(keyframes=8, points=80, lines=15, noise_scale=1.0,
                       perturb_translation=0.02, perturb_rotation_deg=1.0,
                       perturb_points=0.02, perturb_lines=0.02, seed=5)
    _, smap = generate_scene(cfg)
    linearize = Problem.linearize
    for refresh in (False, True):
        problem = assemble_problem(smap, BaConfig())
        calls = []
        monkeypatch.setattr(
            Problem, "linearize", lambda self, state: calls.append(state) or linearize(self, state)
        )
        _, report = optimize(problem, LmSchedule(max_iters=25, refresh_covariances=refresh))
        accepted = [r.accepted for r in report.rows]
        assert not all(accepted)  # some steps are solved again from the same state
        # the initial state, and each accepted state another step was solved from
        assert len(calls) == 1 + sum(accepted[:-1])


def test_hessian_nonsingular_with_depth_terms():
    # first keyframe fixed + stereo/RGB-D terms: no gauge freedom remains
    cfg = scene_config(
        keyframes=6, points=60, lines=10, seed=10, noise_scale=1.0,
        perturb_translation=0.02, perturb_rotation_deg=1.0,
        perturb_points=0.02, perturb_lines=0.02, mono_fraction_points=0.2,
    )
    _, smap = generate_scene(cfg)
    problem = assemble_problem(smap, BaConfig())
    h = problem.linearize(problem.initial_state).dense()
    eigs = np.linalg.eigvalsh(h)
    assert eigs[0] > 0
    assert np.isfinite(eigs[-1] / eigs[0])


def test_report_csv_shape():
    cfg = scene_config(keyframes=4, points=20, lines=4, seed=9, noise_scale=1.0,
                       perturb_points=0.02)
    _, smap = generate_scene(cfg)
    problem = assemble_problem(smap, BaConfig())
    _, report = optimize(problem, LmSchedule(max_iters=5))
    text = report.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("iteration,cost,lambda,accepted,step_norm")
    assert len(lines) == len(report.rows) + 1


# -- assembly against the per-observation functions -----------------------------


def _observed_map(rng) -> SparseMap:
    """Three keyframes observing mono, binocular and RGB-D points, a mono line
    seen three times and stereo lines, one of them recorded with its image
    endpoints reversed (SWAPPED pairing). Observations carry small noise."""
    m = SparseMap(K)
    poses = [
        Se3Pose.identity(),
        se3_exp(np.array([0.01, -0.02, 0.01, -0.1, 0.02, 0.01])),
        se3_exp(np.array([-0.02, 0.01, 0.02, 0.05, -0.08, 0.03])),
    ]
    for i, pose in enumerate(poses):
        m.add_keyframe(pose, kf_id=i)
    for channel in ("mono", "mono", "right_u", "right_u", "depth", "depth"):
        pt = m.add_point(np.append(rng.uniform(-0.5, 0.5, 2), rng.uniform(1.5, 3.0)))
        for i, pose in enumerate(poses):
            x_c = pose.transform(pt.position)
            uv = project(K, x_c) + rng.normal(size=2) * 0.5
            extra = {}
            if channel == "right_u":
                extra["right_u"] = virtual_right_coordinate(K, uv[0], x_c[2]) + rng.normal() * 0.5
            elif channel == "depth":
                extra["depth"] = x_c[2] + rng.normal() * 0.01
            m.add_point_observation(i, pt.id, PointObservation(uv, level=i, **extra))

    def line_obs(pose, p_w, q_w, stereo, level):
        ends = [pose.transform(x) for x in (p_w, q_w)]
        px = [project(K, x) + rng.normal(size=2) * 0.5 for x in ends]
        if not stereo:
            return LineObservation(px[0], px[1], level=level)
        depths = [float(x[2] + rng.normal() * 0.01) for x in ends]
        return LineObservation(px[0], px[1], depth_p=depths[0], depth_q=depths[1], level=level)

    mono = m.add_line([-0.4, 0.1, 2.2], [0.3, -0.2, 2.6])
    stereo = m.add_line([-0.3, -0.3, 2.0], [0.4, 0.2, 2.4])
    reversed_ = m.add_line([0.2, 0.4, 1.8], [-0.3, 0.1, 2.3])
    for i, pose in enumerate(poses):
        m.add_line_observation(i, mono.id, line_obs(pose, mono.p, mono.q, False, i))
        m.add_line_observation(i, stereo.id, line_obs(pose, stereo.p, stereo.q, True, i))
        # the image endpoint recorded first is the one of landmark endpoint Q
        m.add_line_observation(i, reversed_.id, line_obs(pose, reversed_.q, reversed_.p, True, i))
    return m


def _oracle_rows(m: SparseMap, config: BaConfig) -> dict:
    """Per kind, in assembly order: (kf id, landmark id, residual, covariance
    and, for line_3d, the pairing) from the per-observation functions."""
    from collections import defaultdict

    from pointline.lines import (
        BackprojectedSegment,
        EndpointPairing,
        associate_endpoints,
        backprojection_distance,
        backprojection_distance_covariance,
        distance_2d,
        distance_2d_variance,
    )
    from pointline.noise import sigma_pixel
    from pointline.point_errors import (
        depth_point_residual,
        mono_point_residual,
        rgbd_point_residual,
        stereo_point_residual,
    )

    rows = defaultdict(list)
    noise = (config.pixel_noise, config.depth_noise)
    for kf_id in sorted(m.keyframes):
        kf = m.keyframes[kf_id]
        pose = kf.pose
        for pid in sorted(kf.point_obs):
            obs, lm = kf.point_obs[pid], m.points[pid]
            if obs.is_mono:
                rows["point_mono"].append((kf_id, pid, *mono_point_residual(obs, pose, K, lm, noise[0])))
            elif obs.right_u is not None:
                res, cov = stereo_point_residual(obs, pose, K, lm, noise[0])
                if config.cov_mode == "propagated_cov":
                    disparity_depth = K.baseline * K.fx / (obs.pixel[0] - obs.right_u)
                    as_rgbd = PointObservation(obs.pixel, depth=disparity_depth, level=obs.level)
                    _, cov = rgbd_point_residual(as_rgbd, pose, K, lm, *noise, "propagated_cov")
                rows["point_stereo"].append((kf_id, pid, res, cov))
            elif config.point_residual == "depth":
                rows["point_depth"].append((kf_id, pid, *depth_point_residual(obs, pose, K, lm, *noise)))
            else:
                res_cov = rgbd_point_residual(obs, pose, K, lm, *noise, config.cov_mode)
                rows["point_stereo"].append((kf_id, pid, *res_cov))
        for lid in sorted(kf.line_obs):
            obs, lm = kf.line_obs[lid], m.lines[lid]
            sigma = sigma_pixel(config.pixel_noise, obs.level)
            params = obs.line_params()
            res = [distance_2d(params, pose, K, x) for x in (lm.p, lm.q)]
            var = [distance_2d_variance(obs, pose, K, x, sigma) for x in (lm.p, lm.q)]
            rows["line_2d"].append((kf_id, lid, np.array(res), np.diag(var)))
            if obs.is_stereo:
                seg = BackprojectedSegment.from_observation(obs, K)
                pairing = associate_endpoints(seg, pose.transform(lm.p), pose.transform(lm.q))
                res = backprojection_distance(obs, pose, K, lm, config.mu, pairing)
                cov = backprojection_distance_covariance(
                    obs, pose, K, lm, config.mu, pairing, sigma, config.depth_noise
                )
                rows["line_3d"].append((kf_id, lid, res, cov, pairing is EndpointPairing.SWAPPED))
    return rows


@pytest.mark.parametrize(
    "overrides",
    [
        dict(cov_mode="identity_cov"),
        dict(cov_mode="propagated_cov"),
        dict(point_residual="depth"),
    ],
)
def test_assembled_tables_match_per_observation_functions(overrides):
    m = _observed_map(np.random.default_rng(12))
    config = BaConfig(kernel="none", **overrides)
    problem = assemble_problem(m, config)
    expected = _oracle_rows(m, config)

    kinds = [t.kind for t in problem.tables]
    assert kinds == [k for k in ("point_mono", "point_stereo", "point_depth", "line_2d", "line_3d")
                     if k in expected]
    for table in problem.tables:
        rows = expected[table.kind]
        assert len(table) == len(rows)
        res, ok = problem._residuals(problem.initial_state, table)
        assert ok
        ids = problem.point_ids if table.kind.startswith("point") else problem.line_ids
        for i, (kf_id, lm_id, want_res, want_cov, *pairing) in enumerate(rows):
            assert problem.kf_ids[table.kf_slot[i]] == kf_id
            assert ids[table.lm_slot[i]] == lm_id
            assert np.allclose(res[i], want_res, rtol=1e-12, atol=1e-12)
            want_info = np.linalg.inv(want_cov)
            assert np.abs(table.info[i] - want_info).max() <= 1e-12 * np.abs(want_info).max()
            if pairing:
                assert bool(table.swapped[i]) == pairing[0]
    swapped = problem.tables[-1].swapped
    assert swapped.any() and not swapped.all()
    assert problem.covariance_fallbacks == 0


def test_covariance_fallbacks_counted():
    from pointline.lines import BackprojectedSegment

    m = SparseMap(K)
    poses = [
        Se3Pose.identity(),
        Se3Pose(np.eye(3), np.array([-0.1, 0.0, 0.0])),
        Se3Pose(np.eye(3), np.array([0.0, 0.0, -2.5])),
    ]
    for i, pose in enumerate(poses):
        m.add_keyframe(pose, kf_id=i)
    # noise-free, consistent stereo line: its propagated variances vanish in
    # both keyframes that see it
    consistent = m.add_line([-0.2, 0.0, 2.0], [0.3, 0.1, 2.2])
    for i in (0, 1):
        ends = [poses[i].transform(x) for x in (consistent.p, consistent.q)]
        m.add_line_observation(
            i, consistent.id,
            LineObservation(project(K, ends[0]), project(K, ends[1]),
                            depth_p=float(ends[0][2]), depth_q=float(ends[1][2])),
        )
    # mono line whose endpoint Q (z = 2) lies behind keyframe 2 (z_c = -0.5)
    behind = m.add_line([-0.3, 0.2, 3.0], [0.2, -0.1, 2.0])
    for i in (0, 1):
        ends = [poses[i].transform(x) for x in (behind.p, behind.q)]
        m.add_line_observation(i, behind.id, LineObservation(project(K, ends[0]), project(K, ends[1])))
    m.add_line_observation(2, behind.id, LineObservation([300.0, 200.0], [380.0, 260.0]))
    assert poses[2].transform(behind.q)[2] < 0

    problem = assemble_problem(m, BaConfig())
    assert problem.covariance_fallbacks == 3
    unit = np.eye(2)
    for table in problem.tables:
        for i in range(len(table)):
            kf_id = problem.kf_ids[table.kf_slot[i]]
            line_id = problem.line_ids[table.lm_slot[i]]
            falls_back = (table.kind == "line_3d" and line_id == consistent.id) or (
                table.kind == "line_2d" and line_id == behind.id and kf_id == 2
            )
            assert np.array_equal(table.info[i], unit) == falls_back
    # the consistent line's backprojection really is its landmark
    seg = BackprojectedSegment.from_observation(m.keyframes[0].line_obs[consistent.id], K)
    assert np.abs(seg.b_p - consistent.p).max() < 1e-12


# -- covariance refresh -----------------------------------------------------------


def _noisy_problem():
    cfg = scene_config(
        keyframes=5, points=30, lines=8, seed=4, noise_scale=1.0,
        perturb_translation=0.02, perturb_rotation_deg=1.0,
        perturb_points=0.02, perturb_lines=0.02,
    )
    _, smap = generate_scene(cfg)
    return smap, assemble_problem(smap, BaConfig())


def test_refresh_at_initial_state_reproduces_assembly():
    from pointline.ba import _refresh_covariances

    _, problem = _noisy_problem()
    assembled = [t.info.copy() for t in problem.tables]
    assert {t.kind for t in problem.tables} >= {"line_2d", "line_3d"}
    _refresh_covariances(problem, problem.initial_state)
    for table, info in zip(problem.tables, assembled):
        assert np.array_equal(table.info, info)


def test_refresh_matches_per_term_covariances_at_moved_state():
    from pointline.ba import _refresh_covariances
    from pointline.lines import (
        EndpointPairing,
        LineLandmark,
        backprojection_distance_covariance,
        distance_2d_variance,
    )
    from pointline.noise import sigma_pixel

    smap, problem = _noisy_problem()
    config, k = problem.config, problem.intrinsics
    step = np.random.default_rng(5).normal(size=problem.n_params) * 1e-3
    state = problem.retract(problem.initial_state, step)
    _refresh_covariances(problem, state)
    assert problem.covariance_fallbacks == 0
    checked = 0
    for table in problem.tables:
        if not table.kind.startswith("line"):
            continue
        for i in range(len(table)):
            kf, ln = table.kf_slot[i], table.lm_slot[i]
            pose = Se3Pose(state.rotations[kf], state.translations[kf])
            lm = LineLandmark(state.lines[ln, 0], state.lines[ln, 1])
            obs = smap.keyframes[problem.kf_ids[kf]].line_obs[problem.line_ids[ln]]
            sigma = sigma_pixel(config.pixel_noise, obs.level)
            if table.kind == "line_2d":
                var = np.array([distance_2d_variance(obs, pose, k, x, sigma) for x in (lm.p, lm.q)])
            else:
                pairing = EndpointPairing.SWAPPED if table.swapped[i] else EndpointPairing.DIRECT
                var = np.diag(backprojection_distance_covariance(
                    obs, pose, k, lm, config.mu, pairing, sigma, config.depth_noise
                ))
            assert np.abs(np.diag(table.info[i]) * var - 1.0).max() < 1e-12
            assert table.info[i, 0, 1] == 0.0 and table.info[i, 1, 0] == 0.0
            checked += 1
    assert checked > 0


def test_optimize_with_covariance_refresh_is_finite():
    _, problem = _noisy_problem()
    _, report = optimize(problem, LmSchedule(max_iters=8, refresh_covariances=True))
    assert np.isfinite(report.final_cost)
    assert report.final_cost <= report.initial_cost


# -- block accumulation and the Schur solve ------------------------------------------


def _add_at_normal_equations(problem, state):
    """H blocks and g by per-term einsum products and np.add.at."""
    from pointline.noise import robust_weight_batch

    k, n_pt, n_ln = problem.n_free_poses, problem.n_free_points, problem.n_free_lines
    pose, g_pose = np.zeros((k, 6, 6)), np.zeros((k, 6))
    lm = {"point": np.zeros((n_pt, 3, 3)), "line": np.zeros((n_ln, 6, 6))}
    g_lm = {"point": np.zeros((n_pt, 3)), "line": np.zeros((n_ln, 6))}
    coupling = {"point": np.zeros((k, 6, n_pt, 3)), "line": np.zeros((k, 6, n_ln, 6))}
    for table in problem.tables:
        family = "point" if table.kind.startswith("point") else "line"
        res, _ = problem._residuals(state, table)
        _, w = robust_weight_batch(table.kernel, np.einsum("ni,nij,nj->n", res, table.info, res))
        winfo = w[:, None, None] * table.info
        j_pose, j_lm = problem._jacobians(state, table)
        pose_param = problem.pose_param[table.kf_slot]
        lm_param = (problem.point_param if family == "point" else problem.line_param)[table.lm_slot]
        p_on, l_on = pose_param >= 0, lm_param >= 0
        both = p_on & l_on
        np.add.at(pose, pose_param[p_on],
                  np.einsum("nri,nrs,nsj->nij", j_pose, winfo, j_pose)[p_on])
        np.add.at(g_pose, pose_param[p_on], np.einsum("nri,nrs,ns->ni", j_pose, winfo, res)[p_on])
        np.add.at(lm[family], lm_param[l_on],
                  np.einsum("nri,nrs,nsj->nij", j_lm, winfo, j_lm)[l_on])
        np.add.at(g_lm[family], lm_param[l_on], np.einsum("nri,nrs,ns->ni", j_lm, winfo, res)[l_on])
        np.add.at(coupling[family], (pose_param[both], slice(None), lm_param[both]),
                  np.einsum("nri,nrs,nsj->nij", j_pose, winfo, j_lm)[both])
    g = np.concatenate([g_pose.reshape(-1), g_lm["point"].reshape(-1), g_lm["line"].reshape(-1)])
    return dict(pose=pose, point=lm["point"], line=lm["line"], w_point=coupling["point"],
                w_line=coupling["line"], g=g)


def test_linearize_matches_add_at_oracle():
    from pointline.ba import Problem

    cfg = scene_config(keyframes=6, points=40, lines=8, seed=4, noise_scale=1.0,
                       perturb_translation=0.02, perturb_rotation_deg=1.0,
                       perturb_points=0.02, perturb_lines=0.02, mono_fraction_points=0.3)
    _, smap = generate_scene(cfg)
    base = assemble_problem(smap, BaConfig(cov_mode="propagated_cov"))
    # poses 0 and 3 fixed, every third point fixed, every line fixed: the line
    # family is empty while its terms still load the poses
    pose_free = np.ones(len(base.kf_ids), dtype=bool)
    pose_free[[0, 3]] = False
    point_free = np.arange(len(base.point_ids)) % 3 != 0
    line_free = np.zeros(len(base.line_ids), dtype=bool)
    problem = Problem(base.intrinsics, base.kf_ids, base.point_ids, base.line_ids,
                      base.initial_state, pose_free, point_free, line_free, base.tables,
                      base.config)
    assert {t.kind for t in problem.tables} >= {"point_mono", "point_stereo", "line_2d", "line_3d"}
    assert problem.n_free_lines == 0 and len(base.line_ids) > 0
    state = problem.retract(problem.initial_state,
                            np.random.default_rng(1).normal(size=problem.n_params) * 1e-3)
    ne = problem.linearize(state)
    expected = _add_at_normal_equations(problem, state)
    for name, want in expected.items():
        got = getattr(ne, name)
        assert got.shape == want.shape, name
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0), name
    assert ne.line.shape == (0, 6, 6) and ne.w_line.shape == (4, 6, 0, 6)


def test_assembled_tables_have_one_term_per_keyframe_and_landmark():
    from pointline.harness.experiments import ba_config

    cfg = HarnessConfig(seed=0)
    _, smap = generate_scene(cfg)
    problem = assemble_problem(smap, ba_config(cfg))
    for table in problem.tables:
        pairs = table.kf_slot.astype(np.int64) * (len(problem.point_ids) + len(problem.line_ids)) + table.lm_slot
        assert len(np.unique(pairs)) == len(table), table.kind


def _schur_dense_rel(problem, lam):
    d_dense, p_dense = lm_step(problem, lam, schedule=LmSchedule(linear_solver="dense"))
    d_schur, p_schur = lm_step(problem, lam, schedule=LmSchedule(linear_solver="schur"))
    assert d_schur.shape == (problem.n_params,)
    return (np.linalg.norm(d_schur - d_dense) / np.linalg.norm(d_dense),
            abs(p_schur - p_dense) / abs(p_dense))


@pytest.mark.parametrize("fixing", ["fix_all_poses", "fix_points", "fix_lines"])
def test_schur_matches_dense_with_an_empty_family(fixing):
    _, smap = generate_scene(scene_config(noise_scale=1.0, perturb_translation=0.02,
                                          perturb_rotation_deg=1.0, perturb_points=0.02,
                                          perturb_lines=0.02))
    problem = assemble_problem(smap, BaConfig(**{fixing: True}))
    empty = {"fix_all_poses": problem.n_free_poses, "fix_points": problem.n_free_points,
             "fix_lines": problem.n_free_lines}
    assert empty[fixing] == 0
    for lam in (1e-6, 1e-2, 1.0):
        assert max(_schur_dense_rel(problem, lam)) < 1e-9


def test_schur_matches_dense_on_cli_default_scene():
    from pointline.harness.experiments import ba_config

    cfg = HarnessConfig(seed=0)
    _, smap = generate_scene(cfg)
    problem = assemble_problem(smap, ba_config(cfg))
    assert max(_schur_dense_rel(problem, 1e-4)) < 1e-9
