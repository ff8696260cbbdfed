"""Correctness checks the benchmark makes apart from the program.

Each check returns a list of problems; an empty list means it passed. They
recompute what they compare from the scene's raw observations and ground
truth with their own numpy code, or test a property the method must have,
and never compare against a stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np

REPROJECTION_RMSE_MAX_PX = 1.3  # pixel noise sigma is 1 px
SCHUR_DENSE_REL_TOL = 1e-9
GROUP_BY_REL_TOL = 1e-9
METRIC_AGREEMENT_REL_TOL = 1e-9
NORMAL_ANGLE_DEG = 0.5
NORMAL_FRACTION_MIN = 0.99


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# -- bundle adjustment -----------------------------------------------------------


def reprojection_rmse(smap, poses, points) -> float:
    """Pinhole reprojection RMSE (px) of every point observation.

    ``poses`` maps keyframe id to a world->camera pose and ``points`` maps
    point id to a world position; a point at or behind the camera gives inf.
    """
    k = smap.intrinsics
    sq = []
    for kf_id, kf in smap.keyframes.items():
        if not kf.point_obs:
            continue
        ids = list(kf.point_obs)
        pose = poses[kf_id]
        x_w = np.array([points[i] for i in ids])
        x_c = x_w @ pose.rotation.T + pose.translation
        if np.any(x_c[:, 2] <= 0):
            return float("inf")
        uv = np.stack([k.fx * x_c[:, 0] / x_c[:, 2] + k.cx, k.fy * x_c[:, 1] / x_c[:, 2] + k.cy], axis=1)
        pixels = np.array([kf.point_obs[i].pixel for i in ids])
        sq.append(((pixels - uv) ** 2).ravel())
    return float(np.sqrt(np.mean(np.concatenate(sq))))


def _center(pose) -> np.ndarray:
    return -pose.rotation.T @ pose.translation


def trajectory_errors(truth, poses, lines) -> tuple[float, float]:
    """(ATE, line endpoint RMSE) in metres after fixing the gauge on the first
    keyframe: the rigid W = T_true^-1 T_est of that keyframe maps estimated
    camera centres and line endpoints into the true frame."""
    first = min(truth.poses)
    t_true, t_est = truth.poses[first], poses[first]
    w_rot = t_true.rotation.T @ t_est.rotation
    w_trans = t_true.rotation.T @ (t_est.translation - t_true.translation)
    centre_sq = [
        np.sum((w_rot @ _center(poses[k]) + w_trans - _center(truth.poses[k])) ** 2)
        for k in truth.poses
    ]
    endpoint_sq = [
        np.sum((w_rot @ est + w_trans - ref) ** 2)
        for lid, refs in truth.lines.items()
        for est, ref in zip(lines[lid], refs)
    ]
    return float(np.sqrt(np.mean(centre_sq))), float(np.sqrt(np.mean(endpoint_sq)))


def initial_values(smap):
    """The map's own (perturbed) initialisation, keyed like MapValues."""
    poses = {k: kf.pose for k, kf in smap.keyframes.items()}
    points = {p: lm.position for p, lm in smap.points.items()}
    lines = {l: (lm.p, lm.q) for l, lm in smap.lines.items()}
    return poses, points, lines


def check_ba_solution(truth, smap, values, report, experiment) -> list[str]:
    """Reprojection, LM cost monotonicity, and agreement of the library's
    metrics with this module's own."""
    problems = []
    rmse = reprojection_rmse(smap, values.poses, values.points)
    if not rmse <= REPROJECTION_RMSE_MAX_PX:
        problems.append(f"reprojection RMSE {rmse:.4f} px > {REPROJECTION_RMSE_MAX_PX}")

    ate, line_rmse = trajectory_errors(truth, values.poses, values.lines)
    for name, own, lib in (
        ("ATE", ate, experiment.pose_translation_rmse),
        ("line RMSE", line_rmse, experiment.line_endpoint_rmse),
    ):
        if not _rel(lib, own) <= METRIC_AGREEMENT_REL_TOL:
            problems.append(f"library {name} {lib:.12g} differs from recomputed {own:.12g}")

    costs = report.accepted_costs()
    if any(b > a for a, b in zip(costs, costs[1:])):
        problems.append("an accepted step increased the cost")
    if not (np.isfinite(report.final_cost) and report.final_cost <= report.initial_cost):
        problems.append(
            f"final cost {report.final_cost!r} not finite and <= initial {report.initial_cost!r}"
        )
    return problems


def _median_errors(solves) -> tuple[np.ndarray, np.ndarray]:
    """Median (ATE, line RMSE) over ``solves`` of (truth, map, values), at the
    returned values and at the map's perturbed initialisation."""
    final = [trajectory_errors(t, v.poses, v.lines) for t, _, v in solves]
    initial = []
    for truth, smap, _ in solves:
        poses, _, lines = initial_values(smap)
        initial.append(trajectory_errors(truth, poses, lines))
    return np.median(np.array(final), axis=0), np.median(np.array(initial), axis=0)


def check_accuracy_gain(solves) -> list[str]:
    """The run's ate_mm and line_rmse_mm, medians over its solves, each lie
    below their value at the perturbed initialisation. The line half fails
    on some seeds today (ba_large seed 406), a fault of the BA: see the
    FOUND line on line endpoint drift in CHANGES.md."""
    (ate, line), (ate0, line0) = _median_errors(solves)
    problems = []
    if not ate < ate0:
        problems.append(f"median ATE {ate:.6g} m not below its initial {ate0:.6g} m")
    if not line < line0:
        problems.append(f"median line RMSE {line:.6g} m not below its initial {line0:.6g} m")
    return problems


def check_schur_step(delta_schur: np.ndarray, delta_dense: np.ndarray) -> list[str]:
    """A damped step by Schur elimination equals the dense solve of the same
    damped normal equations."""
    rel = float(np.linalg.norm(delta_schur - delta_dense) / np.linalg.norm(delta_dense))
    if not rel <= SCHUR_DENSE_REL_TOL:
        return [f"Schur step differs from the dense solve by {rel:.3e} relative"]
    return []


# -- volumetric map -------------------------------------------------------------


def world_points(clouds, poses) -> np.ndarray:
    """Every cloud point in the world frame under its keyframe's pose.

    The arithmetic is the library's own transform (points @ R_inv^T + t_inv),
    so points lying exactly on a cell face, as the room's walls do, fall in
    the same cell on both sides of the comparison.
    """
    rows = []
    for kf_id, cloud in clouds:
        inv = poses[kf_id].inverse()
        rows.append(cloud.points @ inv.rotation.T + inv.translation)
    return np.concatenate(rows)


def check_group_by(octree, clouds, poses) -> list[str]:
    """Per-cell counts and centroids equal a numpy group-by of the world points."""
    pts = world_points(clouds, poses)
    keys = np.floor(pts / octree.resolution).astype(np.int64)
    unique, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.ravel()
    centroids = np.stack(
        [np.bincount(inverse, weights=pts[:, a], minlength=len(unique)) for a in range(3)], axis=1
    ) / counts[:, None]
    cells = octree.cells()
    got_keys = np.array([index for index, _ in cells], dtype=np.int64).reshape(-1, 3)
    if got_keys.shape != unique.shape or np.any(got_keys != unique):
        return [f"map holds {len(cells)} cells, the group-by {len(unique)} (or other keys)"]
    got_counts = np.array([cell.count for _, cell in cells])
    if np.any(got_counts != counts):
        return [f"{int(np.sum(got_counts != counts))} cells have a wrong point count"]
    got_centroids = np.array([cell.position_sum / cell.count for _, cell in cells])
    err = np.abs(got_centroids - centroids).max() / max(np.abs(centroids).max(), 1.0)
    if not err <= GROUP_BY_REL_TOL:
        return [f"cell centroids differ from the group-by by {err:.3e} relative"]
    return []


def check_normals(clouds, renders, poses) -> list[str]:
    """Normals of interior single-wall pixels lie within 0.5 degrees of the
    renderer's analytic wall normal; ``renders[kf_id]`` is (image, wall
    normals in the world frame, wall ids) and ``poses`` the true poses."""
    problems = []
    for kf_id, cloud in clouds:
        image, wall_normals_w, wall_id = renders[kf_id]
        valid = np.isfinite(image.depths)
        est = np.full(image.depths.shape + (3,), np.nan)
        est[valid] = cloud.normals
        analytic_c = wall_normals_w @ poses[kf_id].rotation.T
        same = np.zeros(wall_id.shape, dtype=bool)
        c = wall_id[1:-1, 1:-1]
        same[1:-1, 1:-1] = (
            (c == wall_id[:-2, 1:-1]) & (c == wall_id[2:, 1:-1])
            & (c == wall_id[1:-1, :-2]) & (c == wall_id[1:-1, 2:])
        )
        support = same & np.all(np.isfinite(est), axis=-1)
        cosang = np.clip(np.sum(est[support] * analytic_c[support], axis=-1), -1.0, 1.0)
        frac = float(np.mean(np.degrees(np.arccos(cosang)) <= NORMAL_ANGLE_DEG))
        if not frac >= NORMAL_FRACTION_MIN:
            problems.append(
                f"keyframe {kf_id}: {frac:.4f} of wall pixels within {NORMAL_ANGLE_DEG} deg"
            )
    return problems


def check_exports(ply: str, csv: str, n_cells: int) -> list[str]:
    """PLY and CSV each hold one row per map cell."""
    problems = []
    head, sep, body = ply.partition("end_header\n")
    ply_rows = len(body.splitlines()) if sep else -1
    if f"element vertex {n_cells}\n" not in head or ply_rows != n_cells:
        problems.append(f"PLY holds {ply_rows} rows for {n_cells} cells")
    csv_rows = len(csv.splitlines()) - 1
    if csv_rows != n_cells:
        problems.append(f"CSV holds {csv_rows} rows for {n_cells} cells")
    return problems


def check_flags(flags: dict[str, bool]) -> list[str]:
    return [f"integrity flag {name} is false" for name, ok in flags.items() if not ok]
