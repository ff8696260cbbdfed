"""Experiment drivers: full BA, the line-drift comparison, the point-covariance
ablation, the volumetric pipeline, descriptor matching, and the
finite-difference Jacobian check."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..ba import BaConfig, LmSchedule, assemble_problem, optimize
from ..errors import ConfigError, DegenerateGeometryError, PointlineError, ProjectionDomainError
from ..geometry import (
    CameraIntrinsics,
    Se3Pose,
    pose_chain,
    project,
    se3_exp,
)
from .. import lines as ln
from .. import point_errors as pe
from ..sparse_map import build_tile_index, candidate_matches, match_descriptor
from ..voma import (
    DepthImage,
    OctreeMap,
    VolumetricMapper,
    backproject_depth_image,
    extract_global_cloud,
    maps_equal,
    rebuild_on_adjustment,
)
from .config import HarnessConfig
from .metrics import ExperimentReport, evaluate_solution
from .scene import generate_scene, noise_models


def ba_config(cfg: HarnessConfig, **overrides) -> BaConfig:
    pixel_table, depth_model = noise_models(cfg)
    kwargs = dict(
        pixel_noise=pixel_table,
        depth_noise=depth_model,
        kernel=cfg.kernel,
        kernel_tau_2d=cfg.kernel_tau_2d,
        kernel_tau_3d=cfg.kernel_tau_3d,
        cov_mode=cfg.cov_mode,
        point_residual=cfg.point_residual,
        mu=cfg.mu,
        min_mono_line_obs=cfg.min_mono_line_obs,
    )
    kwargs.update(overrides)
    return BaConfig(**kwargs)


def lm_schedule(cfg: HarnessConfig, **overrides) -> LmSchedule:
    kwargs = dict(max_iters=cfg.max_iters)
    kwargs.update(overrides)
    return LmSchedule(**kwargs)


def run_ba_experiment(cfg: HarnessConfig, label: str = "ba", **config_overrides):
    """Generate a scene, run full BA, return (report, truth, map, values)."""
    truth, smap = generate_scene(cfg)
    problem = assemble_problem(smap, ba_config(cfg, **config_overrides))
    values, opt_report = optimize(problem, lm_schedule(cfg))
    report = evaluate_solution(truth, smap, values, opt_report, label)
    return report, truth, smap, values


def run_drift_experiment(cfg: HarnessConfig) -> tuple[ExperimentReport, ExperimentReport]:
    """Same scene and initialization, with and without the 3D backprojection
    terms; the pair exposes along-line endpoint drift of the 2D-only model."""
    truth, smap = generate_scene(cfg)
    n_stereo = sum(
        1 for kf in smap.keyframes.values() for o in kf.line_obs.values() if o.is_stereo
    )
    if n_stereo == 0:
        raise PointlineError("drift experiment needs stereo line observations")

    reports = []
    for label, include_3d in (("line_2d_only", False), ("full_line_3d", True)):
        problem = assemble_problem(smap, ba_config(cfg, include_line_3d=include_3d))
        values, opt_report = optimize(problem, lm_schedule(cfg))
        reports.append(evaluate_solution(truth, smap, values, opt_report, label))
    return reports[0], reports[1]


COVARIANCE_MODES = ("identity_cov", "propagated_cov", "depth_point_residual")


def run_covariance_ablation(
    cfg: HarnessConfig, modes: tuple[str, ...] = COVARIANCE_MODES
) -> list[ExperimentReport]:
    """One full-BA run per point covariance treatment on the identical scene."""
    if cfg.sensor != "rgbd":
        raise ConfigError("covariance ablation needs an RGB-D scene")
    truth, smap = generate_scene(cfg)
    reports = []
    for mode in modes:
        if mode == "depth_point_residual":
            config = ba_config(cfg, point_residual="depth")
        elif mode in ("identity_cov", "propagated_cov"):
            config = ba_config(cfg, cov_mode=mode, point_residual="virtual_baseline")
        else:
            raise ConfigError(f"unknown covariance mode {mode!r}")
        problem = assemble_problem(smap, config)
        values, opt_report = optimize(problem, lm_schedule(cfg))
        reports.append(evaluate_solution(truth, smap, values, opt_report, mode))
    return reports


# ---------------------------------------------------------------------------
# Volumetric pipeline


_WALL_COLORS = np.array(
    [
        [200, 60, 60],
        [60, 200, 60],
        [60, 60, 200],
        [200, 200, 60],
        [60, 200, 200],
        [200, 60, 200],
    ],
    dtype=np.uint8,
)


def render_room_depth(
    pose: Se3Pose, room_size: float, intrinsics: CameraIntrinsics, width: int, height: int
) -> tuple[DepthImage, np.ndarray, np.ndarray]:
    """Ray-cast a closed axis-aligned cube room around the origin.

    Returns the depth image (z along the optical axis), the per-pixel inward
    wall normal in the world frame, and the per-pixel wall id (0..5).
    """
    u, v = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    dirs_c = np.stack(
        [(u - intrinsics.cx) / intrinsics.fx, (v - intrinsics.cy) / intrinsics.fy, np.ones_like(u)],
        axis=-1,
    )
    dirs_w = dirs_c @ pose.rotation  # row-vector form of R^T @ d
    center = -pose.rotation.T @ pose.translation
    half = room_size / 2.0
    if np.any(np.abs(center) >= half):
        raise ConfigError("camera outside the synthetic room")

    best_t = np.full((height, width), np.inf)
    normal = np.zeros((height, width, 3))
    wall_id = np.full((height, width), -1, dtype=int)
    for axis in range(3):
        for sign_idx, sign in enumerate((1.0, -1.0)):
            denom = dirs_w[..., axis]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (sign * half - center[axis]) / denom
                hit = center[None, None, :] + t[..., None] * dirs_w
            other = [a for a in range(3) if a != axis]
            valid = (
                (t > 1e-9)
                & np.isfinite(t)
                & (np.abs(hit[..., other[0]]) <= half + 1e-9)
                & (np.abs(hit[..., other[1]]) <= half + 1e-9)
            )
            closer = valid & (t < best_t)
            best_t = np.where(closer, t, best_t)
            n_w = np.zeros(3)
            n_w[axis] = -sign
            normal[closer] = n_w
            wall_id[closer] = 2 * axis + sign_idx
    color = _WALL_COLORS[np.clip(wall_id, 0, 5)]
    return DepthImage(best_t, color=color), normal, wall_id


@dataclass
class VomaIntegrityReport:
    cells: int
    rebuild_equals_fresh: bool
    batch_independent: bool
    rebuild_identity_no_change: bool
    normal_fraction_within_half_degree: float

    def row(self) -> dict:
        return {
            "cells": self.cells,
            "rebuild_equals_fresh": self.rebuild_equals_fresh,
            "batch_independent": self.batch_independent,
            "rebuild_identity_no_change": self.rebuild_identity_no_change,
            "normal_fraction_within_half_degree": self.normal_fraction_within_half_degree,
        }


def run_voma_pipeline(cfg: HarnessConfig):
    """Backproject synthetic room depth maps, fuse through the FIFO, bundle
    adjust, rebuild, and verify the map integrity properties.

    Returns (integrity report, exported global cloud).
    """
    truth, smap = generate_scene(cfg)
    voma_intr = CameraIntrinsics(
        cfg.voma_fx, cfg.voma_fy, cfg.voma_image_width / 2.0, cfg.voma_image_height / 2.0
    )
    clouds = []
    normal_fracs = []
    for kf_id in sorted(truth.poses):
        pose = truth.poses[kf_id]
        image, wall_normals_w, wall_id = render_room_depth(
            pose, cfg.room_size, voma_intr, cfg.voma_image_width, cfg.voma_image_height
        )
        cloud = backproject_depth_image(image, voma_intr)
        clouds.append((kf_id, cloud))
        valid = np.isfinite(image.depths)
        est = np.full(image.depths.shape + (3,), np.nan)
        est[valid] = cloud.normals  # the per-pixel normals the cloud carries
        analytic_c = wall_normals_w @ pose.rotation.T  # world -> camera rows
        interior = np.all(np.isfinite(est), axis=-1)
        # the analytic reference only exists where the whole 4-neighborhood
        # lies on one wall; seam pixels have no single plane normal
        single_wall = np.zeros_like(interior)
        single_wall[1:-1, 1:-1] = (
            (wall_id[1:-1, 1:-1] == wall_id[:-2, 1:-1])
            & (wall_id[1:-1, 1:-1] == wall_id[2:, 1:-1])
            & (wall_id[1:-1, 1:-1] == wall_id[1:-1, :-2])
            & (wall_id[1:-1, 1:-1] == wall_id[1:-1, 2:])
        )
        support = interior & single_wall
        cosang = np.clip(np.einsum("ijk,ijk->ij", est, analytic_c), -1.0, 1.0)
        ang = np.degrees(np.arccos(cosang[support]))
        normal_fracs.append(float(np.mean(ang <= 0.5)))

    def fresh_map(batch: int, poses: dict[int, Se3Pose]) -> VolumetricMapper:
        mapper = VolumetricMapper(
            OctreeMap(cfg.voma_resolution, max_extent=cfg.room_size), batch_size=batch
        )
        for kf_id, cloud in clouds:
            mapper.submit(kf_id, cloud, poses[kf_id])
        mapper.process_batches(drain=True)
        return mapper

    initial_poses = {kf_id: smap.keyframes[kf_id].pose for kf_id in smap.keyframes}
    mapper = fresh_map(cfg.voma_batch, initial_poses)
    batched = fresh_map(5, initial_poses)
    batch_independent = maps_equal(mapper.octree, batched.octree, tol=0.0)

    unchanged = rebuild_on_adjustment(mapper.octree, mapper.archive)
    rebuild_identity = maps_equal(mapper.octree, unchanged, tol=0.0)

    problem = assemble_problem(smap, ba_config(cfg))
    values, _ = optimize(problem, lm_schedule(cfg))
    rebuilt = mapper.rebuild(values.poses)
    fresh = fresh_map(1, values.poses)
    rebuild_equals_fresh = maps_equal(rebuilt, fresh.octree, tol=1e-12)

    cloud = extract_global_cloud(rebuilt)
    report = VomaIntegrityReport(
        cells=rebuilt.n_cells,
        rebuild_equals_fresh=rebuild_equals_fresh,
        batch_independent=batch_independent,
        rebuild_identity_no_change=rebuild_identity,
        normal_fraction_within_half_degree=float(np.min(normal_fracs)),
    )
    return report, cloud


# ---------------------------------------------------------------------------
# Descriptor matching experiment


def run_matching_experiment(
    cfg: HarnessConfig, flip_rates: tuple[float, ...] = (0.0, 0.05, 0.1)
) -> list[dict]:
    """Tile + ratio-test matching against ground truth at several noise rates."""
    rows = []
    for rate in flip_rates:
        scene_cfg = dataclasses.replace(cfg, descriptor_flip_rate=rate)
        truth, smap = generate_scene(scene_cfg)
        queries = 0
        matched = 0
        correct = 0
        for kf_id in sorted(smap.keyframes):
            kf = smap.keyframes[kf_id]
            if not kf.line_obs:
                continue
            ids = sorted(kf.line_obs)
            observations = [kf.line_obs[i] for i in ids]
            index = build_tile_index(observations, ids=ids)
            for lid in ids:
                p_true, q_true = truth.lines[lid]
                pose = truth.poses[kf_id]
                try:
                    p_px = project(smap.intrinsics, pose.transform(p_true))
                    q_px = project(smap.intrinsics, pose.transform(q_true))
                    params = ln.line_params_from_endpoints(p_px, q_px)
                except (ProjectionDomainError, DegenerateGeometryError):
                    continue
                queries += 1
                cand_ids = candidate_matches(index, params)
                cands = [(cid, kf.line_obs[cid]) for cid in cand_ids]
                got = match_descriptor(truth.descriptors[lid], cands, query_params=params)
                if got is not None:
                    matched += 1
                    if got == lid:
                        correct += 1
        precision = correct / matched if matched else 1.0
        recall = correct / queries if queries else 0.0
        rows.append(
            {
                "flip_rate": rate,
                "queries": queries,
                "matched": matched,
                "correct": correct,
                "precision": precision,
                "recall": recall,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Finite-difference Jacobian check


FD_STEP = 1e-6
FD_TOLERANCE = 1e-5


def _transform(rotations: np.ndarray, translations: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``R X + t`` for stacked poses (N, 3, 3), (N, 3) and world points (N, 3)."""
    return (rotations @ points[..., None])[..., 0] + translations


def _rel_errs(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Per trial (first axis): worst entry error over the largest numeric entry."""
    axes = tuple(range(1, numeric.ndim))
    scale = np.maximum(np.abs(numeric).max(axis=axes), 1e-6)
    return np.abs(analytic - numeric).max(axis=axes) / scale


def _family_errors(f, j_pose, j_point, rotations, translations, x_w, step: float = FD_STEP):
    """Per-trial worst relative error of (j_pose, j_point) against central
    differences of ``f(X_c)``, ``X_c = T X_w``, in the left pose increment
    and in X_w, for all trials at once."""
    pose_cols = []
    for j in range(6):
        e = np.zeros(6)
        e[j] = step
        ends = []
        for inc in (se3_exp(e), se3_exp(-e)):
            rot = inc.rotation @ rotations
            t = (inc.rotation @ translations[..., None])[..., 0] + inc.translation
            ends.append(f(_transform(rot, t, x_w)))
        pose_cols.append((ends[0] - ends[1]) / (2.0 * step))
    point_cols = []
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        plus = f(_transform(rotations, translations, x_w + e))
        minus = f(_transform(rotations, translations, x_w - e))
        point_cols.append((plus - minus) / (2.0 * step))
    return np.maximum(
        _rel_errs(j_pose, np.stack(pose_cols, axis=-1)),
        _rel_errs(j_point, np.stack(point_cols, axis=-1)),
    )


def run_jacobian_check(trials: int = 1000, seed: int = 0) -> list[dict]:
    """Analytic-vs-central-difference check of the batched residual kernels
    that bundle adjustment runs, one family at a time.

    The trials are drawn one by one (a draw near a singular locus is
    resampled), then each family is checked on all of them in one kernel
    call per evaluation. ``line_d3d`` and ``line_dp`` check the two rows
    that the ``line_3d`` kernel sums, ``line_db`` the kernel itself. One row
    per family with the worst relative error and the count of trials
    exceeding the 1e-5 tolerance.
    """
    rng = np.random.default_rng(seed)
    intr = CameraIntrinsics(500.0, 490.0, 320.0, 240.0, baseline=0.08)
    mu = 0.5
    draws: dict[str, list] = {}

    done = 0
    while done < trials:
        pose = se3_exp(rng.normal(size=6) * 0.3)
        x_w = pose.inverse().transform(rng.uniform(-1.0, 1.0, 3) + np.array([0.0, 0.0, 3.0]))
        x_c = pose.transform(x_w)
        if x_c[2] < 0.5:
            continue
        # line observation geometry; resample when near a singular locus
        p_px = rng.uniform(100, 540, 2)
        q_px = rng.uniform(100, 540, 2)
        if np.linalg.norm(p_px - q_px) < 30:
            continue
        obs = ln.LineObservation(
            p_px, q_px, depth_p=float(rng.uniform(1.0, 4.0)), depth_q=float(rng.uniform(1.0, 4.0))
        )
        seg = ln.BackprojectedSegment.from_observation(obs, intr)
        b_p, b_q = seg.b_p, seg.b_q
        x_line_w = pose.inverse().transform(b_p + rng.normal(size=3) * 0.3)
        x_line_c = pose.transform(x_line_w)
        if x_line_c[2] < 0.5:
            continue
        v = np.cross(x_line_c - b_p, x_line_c - b_q)
        if np.linalg.norm(v) < 1e-4 or np.linalg.norm(x_line_c - b_p) < 1e-4:
            continue
        params = obs.line_params()

        meas2 = project(intr, x_c) + rng.normal(size=2)
        depth_meas = float(x_c[2] + rng.normal() * 0.01)
        meas3 = np.array(
            [meas2[0], meas2[1], meas2[0] - intr.baseline * intr.fx / max(depth_meas, 0.1)]
        )
        measd = np.array([meas2[0], meas2[1], depth_meas])
        for name, value in (
            ("rot", pose.rotation), ("t", pose.translation), ("x_w", x_w), ("x_c", x_c),
            ("x_line_w", x_line_w), ("x_line_c", x_line_c), ("b_p", b_p), ("b_q", b_q),
            ("normal", params.normal), ("offset", params.offset),
            ("point_mono", meas2), ("point_stereo", meas3), ("point_depth", measd),
        ):
            draws.setdefault(name, []).append(value)
        done += 1

    d = {name: np.array(values) for name, values in draws.items()}
    rot, t, x_c, x_line_c = d["rot"], d["t"], d["x_c"], d["x_line_c"]
    b_p, b_q = d["b_p"], d["b_q"]
    results: dict[str, np.ndarray] = {}

    def check(name, f, jacobians, x_w):
        results[name] = _family_errors(f, *jacobians, rot, t, x_w)

    for kind in ("point_mono", "point_stereo", "point_depth"):
        check(kind, lambda xc: d[kind] - pe.point_prediction_batch(kind, intr, xc),
              pe.point_jacobians_batch(kind, intr, x_c, rot), d["x_w"])
    check("line_d2d", lambda xc: ln.distance_2d_batch(intr, d["normal"], d["offset"], xc),
          ln.distance_2d_jacobians_batch(intr, d["normal"], x_line_c, rot), d["x_line_w"])
    check("line_d3d", lambda xc: ln.distance_3d_batch(xc, b_p, b_q),
          pose_chain(ln.distance_3d_rows(x_line_c, b_p, b_q)[0], x_line_c, rot), d["x_line_w"])
    check("line_dp", lambda xc: ln.endpoint_distance_batch(xc, b_p),
          pose_chain(ln.endpoint_distance_rows(x_line_c, b_p)[0], x_line_c, rot), d["x_line_w"])
    check("line_db", lambda xc: ln.backprojection_distance_batch(xc, b_p, b_q, b_p, mu),
          ln.backprojection_distance_jacobians_batch(x_line_c, rot, b_p, b_q, b_p, mu)[:2],
          d["x_line_w"])

    rows = []
    for family in (
        "point_mono", "point_stereo", "point_depth",
        "line_d2d", "line_d3d", "line_dp", "line_db",
    ):
        errs = results[family]
        rows.append(
            {
                "family": family,
                "trials": len(errs),
                "max_rel_err": float(errs.max()),
                "failures": int(np.sum(errs >= FD_TOLERANCE)),
            }
        )
    return rows
