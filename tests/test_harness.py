import dataclasses

import numpy as np
import pytest

from pointline.ba import assemble_problem, optimize
from pointline.errors import ConfigError
from pointline.harness import (
    HarnessConfig,
    evaluate_solution,
    generate_scene,
    parse_config,
    reports_to_csv,
    run_covariance_ablation,
    run_drift_experiment,
    run_matching_experiment,
    run_voma_pipeline,
)
from pointline.harness.experiments import ba_config, lm_schedule, render_room_depth
from pointline.geometry import CameraIntrinsics, Se3Pose


def small_cfg(**kwargs) -> HarnessConfig:
    base = dict(keyframes=8, points=60, lines=14, seed=2, max_iters=12)
    base.update(kwargs)
    return HarnessConfig(**base)


def test_config_defaults_and_file(tmp_path):
    cfg = parse_config(None)
    assert cfg.keyframes == 20 and cfg.trajectory == "orbit"
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nkeyframes = 6\npixel_sigma=0.5\ntrajectory=corridor\n\n")
    cfg = parse_config(path)
    assert cfg.keyframes == 6
    assert cfg.pixel_sigma == 0.5
    assert cfg.trajectory == "corridor"


def test_config_overrides_and_errors(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed=4\n")
    assert parse_config(path, overrides={"seed": 9}).seed == 9
    assert parse_config(path, overrides={"seed": None}).seed == 4
    path.write_text("nope=1\n")
    with pytest.raises(ConfigError):
        parse_config(path)
    path.write_text("keyframes=abc\n")
    with pytest.raises(ConfigError):
        parse_config(path)
    path.write_text("keyframes 7\n")
    with pytest.raises(ConfigError):
        parse_config(path)
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "missing.cfg")
    with pytest.raises(ConfigError):
        HarnessConfig(mono_fraction_points=2.0)
    with pytest.raises(ConfigError):
        HarnessConfig(trajectory="spiral")


def test_scene_deterministic_in_seed():
    cfg = small_cfg()
    _, first = generate_scene(cfg)
    _, second = generate_scene(cfg)
    assert first.to_text() == second.to_text()
    _, third = generate_scene(dataclasses.replace(cfg, seed=3))
    assert third.to_text() != first.to_text()


def test_every_landmark_observed_twice():
    _, smap = generate_scene(small_cfg())
    assert all(len(v) >= 2 for v in smap.point_observers.values())
    assert all(len(v) >= 2 for v in smap.line_observers.values())


def test_zero_noise_zero_perturbation_consistency():
    cfg = small_cfg(
        noise_scale=0.0, perturb_translation=0.0, perturb_rotation_deg=0.0,
        perturb_points=0.0, perturb_lines=0.0, mono_fraction_points=0.0,
        mono_fraction_lines=0.0,
    )
    _, smap = generate_scene(cfg)
    problem = assemble_problem(smap, ba_config(cfg))
    cost, _ = problem.evaluate(problem.initial_state)
    assert cost < 1e-18


def test_mono_fraction_one_gives_no_stereo_lines():
    cfg = small_cfg(mono_fraction_lines=1.0)
    _, smap = generate_scene(cfg)
    assert all(
        not obs.is_stereo for kf in smap.keyframes.values() for obs in kf.line_obs.values()
    )


def test_corridor_trajectory_feasible():
    cfg = small_cfg(trajectory="corridor", keyframes=6, points=120, lines=20, seed=5)
    truth, smap = generate_scene(cfg)
    assert len(smap.points) >= 60
    first = truth.poses[0]
    later = truth.poses[5]
    assert np.allclose(first.rotation, later.rotation)


def test_metrics_decomposition_invariant():
    cfg = small_cfg(noise_scale=1.0)
    truth, smap = generate_scene(cfg)
    problem = assemble_problem(smap, ba_config(cfg))
    values, report = optimize(problem, lm_schedule(cfg))
    rep = evaluate_solution(truth, smap, values, report, "test")
    err = rep.endpoint_errors
    assert err.shape[1] == 3
    assert np.all(np.abs(err[:, 0] ** 2 + err[:, 1] ** 2 - err[:, 2] ** 2) < 1e-9)


def test_reprojection_rmse_matches_per_observation_projection():
    from pointline.geometry import project

    cfg = small_cfg(noise_scale=1.0)
    truth, smap = generate_scene(cfg)
    problem = assemble_problem(smap, ba_config(cfg))
    values = problem.values(problem.initial_state)
    kf_ids = sorted(smap.keyframes)
    # every point of one keyframe absent from values (and from the truth,
    # whose points the point RMSE reads)
    gone = set(smap.keyframes[kf_ids[4]].point_obs)
    for pid in gone:
        del values.points[pid]
    truth = dataclasses.replace(
        truth, points={pid: x for pid, x in truth.points.items() if pid not in gone}
    )
    # one point moved 1 m behind the camera of another keyframe
    behind = values.poses[kf_ids[0]]
    moved = next(pid for pid in smap.keyframes[kf_ids[0]].point_obs if pid not in gone)
    values.points[moved] = behind.inverse().transform(np.array([0.0, 0.0, -1.0]))

    sq, skipped = [], 0
    for kf_id, kf in smap.keyframes.items():
        pose = values.poses[kf_id]
        for pid, obs in kf.point_obs.items():
            if pid not in values.points:
                continue
            x_c = pose.transform(values.points[pid])
            if x_c[2] <= 1e-6:
                skipped += 1
                continue
            sq.extend((obs.pixel - project(smap.intrinsics, x_c)) ** 2)
    assert skipped >= 1
    expected = float(np.sqrt(np.mean(sq)))
    rep = evaluate_solution(truth, smap, values, None, "oracle")
    assert abs(rep.reprojection_rmse - expected) <= 1e-12 * expected


def test_gauge_alignment_fixes_first_pose():
    cfg = small_cfg()
    truth, smap = generate_scene(cfg)
    problem = assemble_problem(smap, ba_config(cfg))
    values, report = optimize(problem, lm_schedule(cfg))
    from pointline.harness.metrics import gauge_alignment

    w = gauge_alignment(truth, values)
    aligned_first = values.poses[0].matrix() @ np.linalg.inv(w)
    assert np.allclose(aligned_first, truth.poses[0].matrix(), atol=1e-12)


def test_report_csv_deterministic():
    cfg = small_cfg(noise_scale=1.0)

    def run():
        truth, smap = generate_scene(cfg)
        problem = assemble_problem(smap, ba_config(cfg))
        values, report = optimize(problem, lm_schedule(cfg))
        return reports_to_csv([evaluate_solution(truth, smap, values, report, "run")])

    assert run() == run()


def test_drift_experiment_requires_stereo_lines():
    from pointline.errors import PointlineError

    cfg = small_cfg(mono_fraction_lines=1.0)
    with pytest.raises(PointlineError):
        run_drift_experiment(cfg)


def test_drift_experiment_single_seed():
    cfg = small_cfg(
        keyframes=12, points=100, lines=30, mono_fraction_lines=0.0,
        extent=3.0, min_line_views=4, max_iters=25, seed=0,
    )
    rep_2d, rep_full = run_drift_experiment(cfg)
    assert rep_2d.label == "line_2d_only"
    assert rep_full.label == "full_line_3d"
    assert rep_2d.line_along_rmse > 5.0 * rep_full.line_along_rmse
    assert rep_full.line_along_rmse <= 2.0 * rep_full.line_perp_rmse


def test_covariance_ablation_noiseless_equivalence():
    cfg = small_cfg(
        noise_scale=0.0, perturb_translation=0.005, perturb_rotation_deg=0.2,
        perturb_points=0.005, perturb_lines=0.005, lines=0, points=80,
        mono_fraction_points=0.0, max_iters=40,
    )
    reports = run_covariance_ablation(cfg)
    assert [r.label for r in reports] == [
        "identity_cov", "propagated_cov", "depth_point_residual",
    ]
    for rep in reports:
        assert rep.pose_translation_rmse < 1e-6
        assert rep.point_rmse < 1e-6
    # single mode -> single row
    single = run_covariance_ablation(cfg, modes=("identity_cov",))
    assert len(single) == 1


def test_covariance_ablation_requires_rgbd():
    with pytest.raises(ConfigError):
        run_covariance_ablation(small_cfg(sensor="stereo"))


def test_stereo_sensor_scene_runs():
    cfg = small_cfg(sensor="stereo", lines=0, noise_scale=1.0)
    truth, smap = generate_scene(cfg)
    has_right = any(
        obs.right_u is not None for kf in smap.keyframes.values() for obs in kf.point_obs.values()
    )
    assert has_right
    problem = assemble_problem(smap, ba_config(cfg))
    values, report = optimize(problem, lm_schedule(cfg))
    rep = evaluate_solution(truth, smap, values, report, "stereo")
    assert rep.reprojection_rmse < 1.5


def test_matching_experiment_perfect_at_zero_flip():
    cfg = small_cfg(points=30, lines=25, seed=4)
    rows = run_matching_experiment(cfg, flip_rates=(0.0,))
    assert rows[0]["precision"] == 1.0
    assert rows[0]["queries"] > 0


def test_room_render_depth_consistency():
    intr = CameraIntrinsics(45.0, 45.0, 24.0, 18.0)
    pose = Se3Pose.identity()
    image, normals, wall_id = render_room_depth(pose, 8.0, intr, 48, 36)
    assert np.all(np.isfinite(image.depths))
    assert np.all(image.depths > 0)
    # center pixel looks down +z to the wall at z = +4
    assert np.isclose(image.depths[18, 24], 4.0)
    assert np.allclose(normals[18, 24], [0, 0, -1])
    with pytest.raises(ConfigError):
        render_room_depth(Se3Pose(np.eye(3), np.array([0.0, 0.0, -10.0])), 8.0, intr, 8, 8)


def test_voma_pipeline_integrity():
    cfg = small_cfg(
        keyframes=6, points=50, lines=10, max_iters=8,
        voma_image_width=40, voma_image_height=30, voma_fx=38.0, voma_fy=38.0,
    )
    integrity, cloud = run_voma_pipeline(cfg)
    assert integrity.rebuild_equals_fresh
    assert integrity.batch_independent
    assert integrity.rebuild_identity_no_change
    assert integrity.normal_fraction_within_half_degree >= 0.99
    assert len(cloud) == integrity.cells
