"""SO(3)/SE(3) operations, left-perturbation Jacobians, and the pinhole camera.

Conventions used throughout the library:

* Poses are world->camera transforms ``X_c = R @ X_w + t``.
* Twists are ordered ``xi = (phi, rho)`` with the rotation vector first.
* Pose increments are left-multiplicative: ``T <- exp(hat(xi)) @ T``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InvalidDepthError, ProjectionDomainError

# Small-angle switch for the Rodrigues / closed-form J coefficient functions.
SMALL_ANGLE = 1e-6

# Near-plane guard for projection (meters).
Z_MIN = 1e-6

_ORTHONORMALITY_TOL = 1e-9


def _as_vec(v, n: int) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (n,):
        raise ValueError(f"expected a {n}-vector, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Se3Pose:
    """Rigid world->camera transform ``[R | t]``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = _as_vec(self.translation, 3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if not np.all(np.abs(r.T @ r - np.eye(3)) < _ORTHONORMALITY_TOL):
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > _ORTHONORMALITY_TOL:
            raise ValueError("rotation determinant is not +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Se3Pose":
        return cls(np.eye(3), np.zeros(3))

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def transform(self, point_w) -> np.ndarray:
        """Map world coordinates to camera coordinates."""
        return self.rotation @ _as_vec(point_w, 3) + self.translation

    def inverse(self) -> "Se3Pose":
        rt = self.rotation.T
        return Se3Pose(rt, -rt @ self.translation)

    def compose(self, other: "Se3Pose") -> "Se3Pose":
        """Return self @ other as a transform chain."""
        return Se3Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )


@dataclass(frozen=True)
class Twist:
    """se(3) coordinates ``(phi, rho)``: rotation vector and translation part."""

    phi: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        phi = _as_vec(self.phi, 3)
        rho = _as_vec(self.rho, 3)
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(rho))):
            raise ValueError("twist entries must be finite")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_vector(cls, xi) -> "Twist":
        xi = _as_vec(xi, 6)
        return cls(xi[:3], xi[3:])

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.phi, self.rho])


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole model plus an optional stereo / virtual baseline."""

    fx: float
    fy: float
    cx: float
    cy: float
    baseline: float | None = None

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.baseline is not None and self.baseline <= 0:
            raise ValueError("baseline must be positive when present")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


def hat3(v) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector: ``hat3(x) @ y == cross(x, y)``."""
    x, y, z = _as_vec(v, 3)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _rotation_coefficients(angle: float) -> tuple[float, float]:
    """Coefficients (sin a / a, (1 - cos a) / a^2) with a 4th-order Taylor branch."""
    if angle < SMALL_ANGLE:
        t = angle * angle
        return 1.0 - t / 6.0 + t * t / 120.0, 0.5 - t / 24.0 + t * t / 720.0
    return np.sin(angle) / angle, (1.0 - np.cos(angle)) / (angle * angle)


def so3_exp(phi) -> np.ndarray:
    """Rodrigues' rotation from a rotation vector."""
    phi = _as_vec(phi, 3)
    angle = np.linalg.norm(phi)
    a, b = _rotation_coefficients(angle)
    k = hat3(phi)
    return np.eye(3) + a * k + b * (k @ k)


def so3_left_jacobian(phi) -> np.ndarray:
    """Closed-form J with ``exp(hat(xi)) = [exp(hat(phi)), J rho; 0 1]``."""
    phi = _as_vec(phi, 3)
    angle = np.linalg.norm(phi)
    if angle < SMALL_ANGLE:
        t = angle * angle
        b = 0.5 - t / 24.0 + t * t / 720.0
        c = 1.0 / 6.0 - t / 120.0 + t * t / 5040.0
    else:
        b = (1.0 - np.cos(angle)) / (angle * angle)
        c = (angle - np.sin(angle)) / (angle ** 3)
    k = hat3(phi)
    return np.eye(3) + b * k + c * (k @ k)


def se3_exp(xi) -> Se3Pose:
    """Exponential map se(3) -> SE(3) for a twist (``Twist`` or 6-vector)."""
    if isinstance(xi, Twist):
        phi, rho = xi.phi, xi.rho
    else:
        xi = _as_vec(xi, 6)
        phi, rho = xi[:3], xi[3:]
    return Se3Pose(so3_exp(phi), so3_left_jacobian(phi) @ rho)


def so3_log(rotation) -> np.ndarray:
    """Rotation vector of a rotation matrix; rejects angles within 1e-6 of pi."""
    r = np.asarray(rotation, dtype=float)
    cos_angle = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    angle = np.arccos(cos_angle)
    if angle > np.pi - 1e-6:
        raise DegenerateGeometryError("rotation angle within 1e-6 of pi")
    axis_times_two_sin = np.array(
        [r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]
    )
    if angle < SMALL_ANGLE:
        # vee(R - R^T)/2 = sin(angle) * axis; divide by sinc(angle).
        t = angle * angle
        sinc = 1.0 - t / 6.0 + t * t / 120.0
        return axis_times_two_sin / (2.0 * sinc)
    return axis_times_two_sin * (angle / (2.0 * np.sin(angle)))


def se3_log(pose: Se3Pose) -> Twist:
    """Inverse of ``se3_exp``; valid for rotation angles below pi."""
    phi = so3_log(pose.rotation)
    rho = np.linalg.solve(so3_left_jacobian(phi), pose.translation)
    return Twist(phi, rho)


_E3 = np.eye(3)


def se3_generator(j: int) -> np.ndarray:
    """Generator G_j of SE(3), 1-based: 1..3 rotational, 4..6 translational."""
    if not 1 <= j <= 6:
        raise ValueError(f"generator index must be in 1..6, got {j}")
    g = np.zeros((4, 4))
    if j <= 3:
        g[:3, :3] = hat3(_E3[j - 1])
    else:
        g[j - 4, 3] = 1.0
    return g


def left_perturbation_point_jacobian(point_c) -> np.ndarray:
    """d X_c / d xi for the left perturbation, columns ordered (phi, rho).

    Equals ``[-hat3(X_c) | I3]``.
    """
    j = np.empty((3, 6))
    j[:, :3] = -hat3(point_c)
    j[:, 3:] = np.eye(3)
    return j


def pose_chain(rows_c: np.ndarray, point_c: np.ndarray, rotation: np.ndarray):
    """Chain rows d f / d X_c (..., 3) through X_c = R X_w + t.

    Returns (d f / d xi, d f / d X_w): ``rows_c @ [-hat3(X_c) | I3]`` and
    ``rows_c @ R``. Leading axes of the three arrays broadcast.
    """
    j_pose = np.concatenate([np.cross(point_c, rows_c), rows_c], axis=-1)
    return j_pose, np.einsum("...c,...cd->...d", rows_c, rotation)


def in_front(point_c) -> np.ndarray:
    """The camera-frame 3-vector, or ProjectionDomainError behind the near plane."""
    p = _as_vec(point_c, 3)
    if not p[2] > Z_MIN:
        raise ProjectionDomainError(f"point depth {p[2]} is behind the near plane")
    return p


def project_batch(intrinsics: CameraIntrinsics, points_c: np.ndarray) -> np.ndarray:
    """Pinhole projection of camera-frame points (..., 3) to pixels (..., 2).

    No near-plane check: callers mask or reject z <= Z_MIN themselves.
    """
    x, y, z = points_c[..., 0], points_c[..., 1], points_c[..., 2]
    return np.stack(
        [intrinsics.fx * x / z + intrinsics.cx, intrinsics.fy * y / z + intrinsics.cy], axis=-1
    )


def project(intrinsics: CameraIntrinsics, point_c) -> np.ndarray:
    """Pinhole projection of a camera-frame point to pixels."""
    x, y, z = _as_vec(point_c, 3)
    if not z > Z_MIN:
        raise ProjectionDomainError(f"point depth {z} is behind the near plane")
    return np.array(
        [intrinsics.fx * x / z + intrinsics.cx, intrinsics.fy * y / z + intrinsics.cy]
    )


def backproject(intrinsics: CameraIntrinsics, pixel, depth: float) -> np.ndarray:
    """Camera-frame point of a pixel at the given depth."""
    u, v = _as_vec(pixel, 2)
    if not (np.isfinite(depth) and depth > 0):
        raise InvalidDepthError(f"depth must be positive and finite, got {depth}")
    return np.array(
        [
            (u - intrinsics.cx) / intrinsics.fx * depth,
            (v - intrinsics.cy) / intrinsics.fy * depth,
            depth,
        ]
    )


def projection_jacobian_batch(intrinsics: CameraIntrinsics, points_c: np.ndarray) -> np.ndarray:
    """d(projection)/d(X_c), (..., 2, 3), for camera-frame points (..., 3)."""
    x, y, z = points_c[..., 0], points_c[..., 1], points_c[..., 2]
    zero = np.zeros_like(z)
    rows = (
        (intrinsics.fx / z, zero, -intrinsics.fx * x / (z * z)),
        (zero, intrinsics.fy / z, -intrinsics.fy * y / (z * z)),
    )
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def projection_jacobian(intrinsics: CameraIntrinsics, point_c) -> np.ndarray:
    """d(projection)/d(X_c), the 2x3 pinhole Jacobian."""
    x, y, z = _as_vec(point_c, 3)
    if not z > Z_MIN:
        raise ProjectionDomainError(f"point depth {z} is behind the near plane")
    return np.array(
        [
            [intrinsics.fx / z, 0.0, -intrinsics.fx * x / (z * z)],
            [0.0, intrinsics.fy / z, -intrinsics.fy * y / (z * z)],
        ]
    )
