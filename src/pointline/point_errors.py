"""Point reprojection residuals (mono, binocular, RGB-D virtual-baseline, depth).

The batched kernels ``point_prediction_batch`` (a residual is measurement
minus prediction) and ``point_jacobians_batch`` are what bundle adjustment
runs; the per-observation functions are single-point calls into them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDepthError
from .geometry import (
    CameraIntrinsics,
    Se3Pose,
    in_front,
    pose_chain,
    project_batch,
    projection_jacobian_batch,
)
from .noise import DepthNoiseModel, PyramidNoiseTable, sigma_pixel, sigma_z


@dataclass(frozen=True)
class PointObservation:
    """One keypoint measurement.

    ``depth`` carries an RGB-D depth reading, ``right_u`` a binocular
    right-image column; at most one of them may be set. Both absent means
    a mono observation.
    """

    pixel: np.ndarray
    depth: float | None = None
    right_u: float | None = None
    level: int = 0

    def __post_init__(self):
        px = np.asarray(self.pixel, dtype=float)
        if px.shape != (2,):
            raise ValueError("pixel must be a 2-vector")
        if self.depth is not None and self.right_u is not None:
            raise ValueError("at most one of depth / right_u may drive the stereo channel")
        object.__setattr__(self, "pixel", px)

    @property
    def is_mono(self) -> bool:
        return self.depth is None and self.right_u is None


@dataclass(frozen=True)
class PointLandmark:
    position: np.ndarray
    id: int = -1

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float)
        if p.shape != (3,) or not np.all(np.isfinite(p)):
            raise ValueError("position must be a finite 3-vector")
        object.__setattr__(self, "position", p)


def point_prediction_batch(
    kind: str, intrinsics: CameraIntrinsics, points_c: np.ndarray
) -> np.ndarray:
    """Predicted measurements (..., r) of camera-frame points (..., 3).

    ``point_mono`` predicts the pixel (u, v); ``point_stereo`` (binocular and
    virtual-baseline) appends the right-image column at baseline b,
    ``point_depth`` the camera-frame depth.
    """
    uv = project_batch(intrinsics, points_c)
    if kind == "point_mono":
        return uv
    x, z = points_c[..., 0], points_c[..., 2]
    if kind == "point_stereo":
        third = intrinsics.fx * (x - intrinsics.baseline) / z + intrinsics.cx
    else:  # point_depth
        third = z
    return np.concatenate([uv, third[..., None]], axis=-1)


def point_jacobians_batch(
    kind: str, intrinsics: CameraIntrinsics, points_c: np.ndarray, rotations: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residual Jacobians w.r.t. the twist (..., r, 6) and the world point (..., r, 3)."""
    j_pred = projection_jacobian_batch(intrinsics, points_c)
    if kind != "point_mono":
        x, z = points_c[..., 0], points_c[..., 2]
        zero = np.zeros_like(z)
        if kind == "point_stereo":
            third = [intrinsics.fx / z, zero, -intrinsics.fx * (x - intrinsics.baseline) / (z * z)]
        else:  # point_depth
            third = [zero, zero, np.ones_like(z)]
        j_pred = np.concatenate([j_pred, np.stack(third, axis=-1)[..., None, :]], axis=-2)
    return pose_chain(-j_pred, points_c[..., None, :], rotations[..., None, :, :])


def _stereo_prediction(intrinsics: CameraIntrinsics, point_c: np.ndarray) -> np.ndarray:
    """(u, v, u_r) prediction: left projection plus right column at baseline b."""
    if intrinsics.baseline is None:
        raise ValueError("intrinsics carry no baseline")
    return point_prediction_batch("point_stereo", intrinsics, in_front(point_c))


def mono_point_residual(
    obs: PointObservation,
    pose: Se3Pose,
    intrinsics: CameraIntrinsics,
    landmark: PointLandmark,
    pixel_noise: PyramidNoiseTable,
) -> tuple[np.ndarray, np.ndarray]:
    """2D reprojection residual p_i - proj(P) and its isotropic covariance."""
    point_c = in_front(pose.transform(landmark.position))
    residual = obs.pixel - point_prediction_batch("point_mono", intrinsics, point_c)
    var = sigma_pixel(pixel_noise, obs.level) ** 2
    return residual, var * np.eye(2)


def stereo_point_residual(
    obs: PointObservation,
    pose: Se3Pose,
    intrinsics: CameraIntrinsics,
    landmark: PointLandmark,
    pixel_noise: PyramidNoiseTable,
) -> tuple[np.ndarray, np.ndarray]:
    """Binocular residual (u_l, v_l, u_r) - prediction, covariance sigma^2 I3."""
    if obs.right_u is None:
        raise ValueError("stereo residual needs a right-image measurement")
    measured = np.array([obs.pixel[0], obs.pixel[1], obs.right_u])
    residual = measured - _stereo_prediction(intrinsics, pose.transform(landmark.position))
    var = sigma_pixel(pixel_noise, obs.level) ** 2
    return residual, var * np.eye(3)


def virtual_right_coordinate(intrinsics: CameraIntrinsics, u: float, depth: float) -> float:
    """Synthesized right-image column u - b fx / depth for an RGB-D measurement."""
    if intrinsics.baseline is None:
        raise ValueError("intrinsics carry no baseline")
    if not (np.isfinite(depth) and depth > 0):
        raise InvalidDepthError(f"depth must be positive, got {depth}")
    return u - intrinsics.baseline * intrinsics.fx / depth


def rgbd_point_residual(
    obs: PointObservation,
    pose: Se3Pose,
    intrinsics: CameraIntrinsics,
    landmark: PointLandmark,
    pixel_noise: PyramidNoiseTable,
    depth_noise: DepthNoiseModel,
    mode: str = "identity_cov",
) -> tuple[np.ndarray, np.ndarray]:
    """Virtual-baseline stereo residual for an RGB-D observation.

    ``mode`` selects the covariance: "identity_cov" uses sigma_pi^2 I3,
    "propagated_cov" propagates (sigma_pi, sigma_pi, sigma_z(depth))
    through the measurement map (u, v, u - b fx / depth).
    """
    if obs.depth is None:
        raise InvalidDepthError("RGB-D residual needs a depth measurement")
    if mode not in ("identity_cov", "propagated_cov"):
        raise ValueError(f"unknown covariance mode {mode!r}")
    u_r = virtual_right_coordinate(intrinsics, obs.pixel[0], obs.depth)
    measured = np.array([obs.pixel[0], obs.pixel[1], u_r])
    residual = measured - _stereo_prediction(intrinsics, pose.transform(landmark.position))

    var_px = sigma_pixel(pixel_noise, obs.level) ** 2
    if mode == "identity_cov":
        return residual, var_px * np.eye(3)
    var_z = sigma_z(depth_noise, obs.depth) ** 2
    return residual, propagated_stereo_covariance_batch(intrinsics, var_px, obs.depth, var_z)


def propagated_stereo_covariance_batch(
    intrinsics: CameraIntrinsics, var_px, depth, var_z
) -> np.ndarray:
    """Covariance (..., 3, 3) of (u, v, u - b fx / depth) under independent
    (var_px, var_px, var_z) noise on (u, v, depth)."""
    # J_S = d(u, v, u - b fx / d)/d(u, v, d) = [[1,0,0],[0,1,0],[1,0,b fx/d^2]]
    depth = np.asarray(depth, dtype=float)
    gain = intrinsics.baseline * intrinsics.fx / (depth * depth)
    cov = np.zeros(depth.shape + (3, 3))
    cov[..., 0, 0] = cov[..., 0, 2] = cov[..., 2, 0] = cov[..., 1, 1] = var_px
    cov[..., 2, 2] = var_px + gain * gain * var_z
    return cov


def depth_point_residual(
    obs: PointObservation,
    pose: Se3Pose,
    intrinsics: CameraIntrinsics,
    landmark: PointLandmark,
    pixel_noise: PyramidNoiseTable,
    depth_noise: DepthNoiseModel,
) -> tuple[np.ndarray, np.ndarray]:
    """RGB-D residual (p_i - proj(P), depth - z_c) with diagonal covariance."""
    if obs.depth is None:
        raise InvalidDepthError("depth residual needs a depth measurement")
    point_c = in_front(pose.transform(landmark.position))
    measured = np.array([obs.pixel[0], obs.pixel[1], obs.depth])
    residual = measured - point_prediction_batch("point_depth", intrinsics, point_c)
    var_px = sigma_pixel(pixel_noise, obs.level) ** 2
    var_z = sigma_z(depth_noise, obs.depth) ** 2
    return residual, np.diag([var_px, var_px, var_z])


def _point_jacobians(kind: str, pose: Se3Pose, intrinsics: CameraIntrinsics, landmark):
    point_c = in_front(pose.transform(landmark.position))
    return point_jacobians_batch(kind, intrinsics, point_c, pose.rotation)


def mono_point_jacobians(
    pose: Se3Pose, intrinsics: CameraIntrinsics, landmark: PointLandmark
) -> tuple[np.ndarray, np.ndarray]:
    """d(residual)/d(twist) and d(residual)/d(landmark) for the mono residual."""
    return _point_jacobians("point_mono", pose, intrinsics, landmark)


def stereo_point_jacobians(
    pose: Se3Pose, intrinsics: CameraIntrinsics, landmark: PointLandmark
) -> tuple[np.ndarray, np.ndarray]:
    """Residual Jacobians for the binocular and virtual-baseline variants."""
    return _point_jacobians("point_stereo", pose, intrinsics, landmark)


def depth_point_jacobians(
    pose: Se3Pose, intrinsics: CameraIntrinsics, landmark: PointLandmark
) -> tuple[np.ndarray, np.ndarray]:
    """Residual Jacobians for the (pixel, depth) RGB-D variant."""
    return _point_jacobians("point_depth", pose, intrinsics, landmark)
