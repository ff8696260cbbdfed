"""Line-segment geometry: triangulation, 2D/3D distances, covariances, Jacobians.

Image lines are parameterized as ``n . u - h = 0`` with a unit normal n and
signed offset h. A 3D segment landmark is a pair of world endpoints (P, Q);
a stereo observation additionally yields the two endpoints backprojected at
their measured depths, fixed in the camera frame.

Distances, their Jacobians and their covariances exist once, as the
``*_batch`` kernels over camera-frame points (..., 3) and per-term arrays
whose leading axes broadcast. Bundle adjustment calls them with one row per
term and endpoint; the per-observation functions are single-row calls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometryError,
    SingularJacobianError,
    TriangulationDegeneracyError,
)
from .geometry import (
    CameraIntrinsics,
    Se3Pose,
    backproject,
    in_front,
    pose_chain,
    project_batch,
    projection_jacobian_batch,
)
from .noise import DepthNoiseModel, sigma_z

# Degeneracy threshold for triangulation, applied after scaling the line to a
# unit normal part and the pixel to unit homogeneous coordinate.
EPS_DEGENERATE = 1e-8

# Singular-locus guards: |V| = |(X-Bp) x (X-Bq)| in m^2, |X - B| in m.
EPS_V = 1e-9
EPS_ENDPOINT = 1e-9

MIN_SEGMENT_LENGTH_PX = 5.0

# d(l)/d(p, q) for l = (q_v - p_v, p_u - q_u).
_DL_DPQ = np.array([[0.0, -1.0, 0.0, 1.0], [1.0, 0.0, -1.0, 0.0]])
_DP_DPQ = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


class EndpointPairing(enum.Enum):
    DIRECT = "direct"
    SWAPPED = "swapped"


@dataclass(frozen=True)
class Line2dParams:
    """Image line ``normal . u - offset = 0`` with cached orientation theta."""

    normal: np.ndarray
    offset: float
    theta: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if n.shape != (2,):
            raise ValueError("normal must be a 2-vector")
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("normal must be unit length")
        object.__setattr__(self, "normal", n)

    def as_homogeneous(self) -> np.ndarray:
        """Homogeneous coefficients (n_u, n_v, -h)."""
        return np.array([self.normal[0], self.normal[1], -self.offset])

    def canonical(self) -> "Line2dParams":
        """Resolve the (n, h) vs (-n, -h) ambiguity: n_u >= 0, tie n_v > 0."""
        n_u, n_v = self.normal
        if n_u < 0 or (n_u == 0 and n_v < 0):
            return Line2dParams(-self.normal, -self.offset, np.arctan2(-n_v, -n_u))
        return self


def line_params_from_endpoints(p, q) -> Line2dParams:
    """Unit-normal line parameters through two pixels."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    l = np.array([q[1] - p[1], p[0] - q[0]])
    norm = np.linalg.norm(l)
    if norm == 0.0:
        raise DegenerateGeometryError("coincident endpoints define no line")
    n = l / norm
    return Line2dParams(n, float(n @ p), float(np.arctan2(n[1], n[0])))


def homogeneous_line(p, q) -> np.ndarray:
    """Homogeneous image line through two pixels: cross of their lifted coords."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return np.cross(np.append(p, 1.0), np.append(q, 1.0))


@dataclass(frozen=True)
class LineObservation:
    """Matched image segment (p, q) with optional per-endpoint depths.

    Stereo means both depths exist and are finite; only then can the
    endpoints be backprojected.
    """

    p: np.ndarray
    q: np.ndarray
    depth_p: float | None = None
    depth_q: float | None = None
    level: int = 0
    descriptor: np.ndarray | None = None
    min_length: float = MIN_SEGMENT_LENGTH_PX

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if p.shape != (2,) or q.shape != (2,):
            raise ValueError("endpoints must be 2-vectors")
        if np.linalg.norm(p - q) < self.min_length:
            raise DegenerateGeometryError(
                f"segment shorter than {self.min_length} px"
            )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if self.descriptor is not None:
            d = np.asarray(self.descriptor, dtype=bool)
            object.__setattr__(self, "descriptor", d)

    @property
    def is_stereo(self) -> bool:
        return (
            self.depth_p is not None
            and self.depth_q is not None
            and np.isfinite(self.depth_p)
            and np.isfinite(self.depth_q)
        )

    def line_params(self) -> Line2dParams:
        return line_params_from_endpoints(self.p, self.q)


@dataclass(frozen=True)
class LineLandmark:
    """3D segment landmark: world endpoints p and q."""

    p: np.ndarray
    q: np.ndarray
    id: int = -1
    n_obs: int = 0

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if p.shape != (3,) or q.shape != (3,):
            raise ValueError("endpoints must be 3-vectors")
        if np.linalg.norm(p - q) == 0.0:
            raise DegenerateGeometryError("zero-length 3D segment")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def direction(self) -> np.ndarray:
        d = self.q - self.p
        return d / np.linalg.norm(d)


@dataclass(frozen=True)
class BackprojectedSegment:
    """Observation endpoints cast to 3D at their measured depths (camera frame)."""

    b_p: np.ndarray
    b_q: np.ndarray

    def __post_init__(self):
        b_p = np.asarray(self.b_p, dtype=float)
        b_q = np.asarray(self.b_q, dtype=float)
        if np.linalg.norm(b_p - b_q) == 0.0:
            raise DegenerateGeometryError("zero-length backprojected segment")
        object.__setattr__(self, "b_p", b_p)
        object.__setattr__(self, "b_q", b_q)

    @classmethod
    def from_observation(
        cls, obs: LineObservation, intrinsics: CameraIntrinsics
    ) -> "BackprojectedSegment":
        if not obs.is_stereo:
            raise DegenerateGeometryError("mono observation has no backprojection")
        return cls(
            backproject(intrinsics, obs.p, obs.depth_p),
            backproject(intrinsics, obs.q, obs.depth_q),
        )


# ---------------------------------------------------------------------------
# Triangulation


def _normalize_line_and_pixel(line2, x) -> tuple[np.ndarray, np.ndarray]:
    line2 = np.asarray(line2, dtype=float)
    x = np.asarray(x, dtype=float)
    normal = np.linalg.norm(line2[:2])
    if normal == 0.0:
        raise DegenerateGeometryError("line at infinity")
    if x[2] == 0.0:
        raise DegenerateGeometryError("pixel at infinity")
    return line2 / normal, x / x[2]


def triangulate_line_depth(
    pose1: Se3Pose,
    pose2: Se3Pose,
    intrinsics1: CameraIntrinsics,
    intrinsics2: CameraIntrinsics,
    line2,
    x,
    eps: float = EPS_DEGENERATE,
) -> float:
    """Depth of the image-1 pixel x whose 3D point lies on the plane of line2.

    ``line2`` is the homogeneous 2D line observed in image 2, ``x`` the
    homogeneous pixel in image 1. The depth follows from intersecting the ray
    of x with the plane backprojected from line2:

        depth = -(l2 . e2) / (l2 . H21 x)

    with epipole e2 = K2 t21 and infinite homography H21 = K2 R21 K1^-1.
    The configuration is degenerate when the vanishing point H21 x falls on
    line2; if additionally the epipole lies on line2 the plane coincides
    with the epipolar plane of x and every depth fits.
    """
    l2n, xn = _normalize_line_and_pixel(line2, x)
    r21 = pose2.rotation @ pose1.rotation.T
    t21 = pose2.translation - r21 @ pose1.translation
    k2 = intrinsics2.matrix()
    epipole = k2 @ t21
    h21 = k2 @ r21 @ np.linalg.inv(intrinsics1.matrix())
    denominator = float(l2n @ (h21 @ xn))
    numerator = float(-l2n @ epipole)
    if abs(denominator) <= eps:
        infinite = abs(numerator) <= eps
        raise TriangulationDegeneracyError(
            "epipolar-plane-parallel configuration"
            + (" (infinite solutions)" if infinite else " (no solution)"),
            infinite_solutions=infinite,
        )
    return numerator / denominator


def triangulate_rectified(
    baseline: float, fx: float, line2, x, eps: float = EPS_DEGENERATE
) -> tuple[float, float]:
    """Closed-form depth and disparity for an ideal rectified binocular pair.

    depth = b fx l2_x / (l2 . x) and disparity = (l2 . x) / l2_x, so
    depth * disparity = b fx identically.
    """
    l2n, xn = _normalize_line_and_pixel(line2, x)
    dot = float(l2n @ xn)
    if abs(dot) <= eps:
        # Horizontal epipolar geometry: parallel image lines. Infinite
        # solutions exactly when the line itself is epipolar (horizontal).
        raise TriangulationDegeneracyError(
            "parallel image lines",
            infinite_solutions=abs(l2n[0]) <= eps,
        )
    if abs(l2n[0]) <= eps:
        raise TriangulationDegeneracyError(
            "line is epipolar but the pixel is off it (no solution)",
            infinite_solutions=False,
        )
    return baseline * fx * l2n[0] / dot, dot / l2n[0]


# ---------------------------------------------------------------------------
# Distances and their Jacobians (twist columns ordered (phi, rho))


def distance_2d_batch(
    intrinsics: CameraIntrinsics, normal: np.ndarray, offset, points_c: np.ndarray
) -> np.ndarray:
    """Signed image-plane distances ``n . proj(X_c) - h`` of camera-frame points."""
    return np.einsum("...i,...i->...", normal, project_batch(intrinsics, points_c)) - offset


def distance_2d_jacobians_batch(
    intrinsics: CameraIntrinsics, normal: np.ndarray, points_c: np.ndarray, rotations: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the 2D distance w.r.t. the twist (..., 6) and the world point (..., 3)."""
    rows_c = np.einsum("...i,...ij->...j", normal, projection_jacobian_batch(intrinsics, points_c))
    return pose_chain(rows_c, points_c, rotations)


def distance_3d_batch(points_c: np.ndarray, b_p: np.ndarray, b_q: np.ndarray) -> np.ndarray:
    """Perpendicular distances of camera-frame points from the lines through (b_p, b_q)."""
    v = np.cross(points_c - b_p, points_c - b_q)
    return np.linalg.norm(v, axis=-1) / np.linalg.norm(b_p - b_q, axis=-1)


def distance_3d_rows(
    points_c: np.ndarray, b_p: np.ndarray, b_q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """d(d3D)/d(X_c) rows (..., 3) and the on-line singular mask, where rows are zero."""
    v = np.cross(points_c - b_p, points_c - b_q)
    v_norm = np.linalg.norm(v, axis=-1)
    db = b_p - b_q
    singular = v_norm < EPS_V
    scale = np.maximum(v_norm, EPS_V) * np.linalg.norm(db, axis=-1)
    return np.where(singular[..., None], 0.0, -np.cross(v, db) / scale[..., None]), singular


def endpoint_distance_batch(points_c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between camera-frame points and backprojected endpoints."""
    return np.linalg.norm(points_c - b, axis=-1)


def endpoint_distance_rows(points_c: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d|X_c - b|/d(X_c) rows (..., 3) and the coincidence mask, where rows are zero."""
    delta = points_c - b
    norm = np.linalg.norm(delta, axis=-1)
    singular = norm < EPS_ENDPOINT
    rows = delta / np.maximum(norm, EPS_ENDPOINT)[..., None]
    return np.where(singular[..., None], 0.0, rows), singular


def backprojection_distance_batch(
    points_c: np.ndarray, b_p: np.ndarray, b_q: np.ndarray, b_paired: np.ndarray, mu: float
) -> np.ndarray:
    """Per-endpoint residuals ``d3D + mu * |X_c - b_paired|``."""
    return distance_3d_batch(points_c, b_p, b_q) + mu * endpoint_distance_batch(points_c, b_paired)


def backprojection_distance_jacobians_batch(
    points_c: np.ndarray, rotations: np.ndarray, b_p, b_q, b_paired, mu: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of ``d3D + mu * dP`` w.r.t. the twist (..., 6) and the world point (..., 3).

    The d3D row plus mu times the dP row, chained once through the pose. Each
    row is zero on its singular locus (the distances are at their minima
    there); the third result marks points on either locus.
    """
    row_3d, on_line = distance_3d_rows(points_c, b_p, b_q)
    row_p, at_endpoint = endpoint_distance_rows(points_c, b_paired)
    j_pose, j_point = pose_chain(row_3d + mu * row_p, points_c, rotations)
    return j_pose, j_point, on_line | at_endpoint


def associate_endpoints_batch(
    b_p: np.ndarray, b_q: np.ndarray, p_c: np.ndarray, q_c: np.ndarray
) -> np.ndarray:
    """True where pairing (P, Q) with (b_q, b_p) has the smaller summed endpoint
    distance (SWAPPED); ties stay DIRECT."""
    direct = endpoint_distance_batch(p_c, b_p) + endpoint_distance_batch(q_c, b_q)
    swapped = endpoint_distance_batch(p_c, b_q) + endpoint_distance_batch(q_c, b_p)
    return swapped < direct


def paired_backprojections_batch(
    b_p: np.ndarray, b_q: np.ndarray, swapped
) -> tuple[np.ndarray, np.ndarray]:
    """Backprojected endpoints matched to (P, Q): (b_p, b_q), or (b_q, b_p) where swapped."""
    s = np.asarray(swapped, dtype=bool)[..., None]
    return np.where(s, b_q, b_p), np.where(s, b_p, b_q)


def distance_2d(line: Line2dParams, pose: Se3Pose, intrinsics: CameraIntrinsics, point_w) -> float:
    """Signed image-plane distance of the projected world point from the line."""
    point_c = in_front(pose.transform(point_w))
    return float(distance_2d_batch(intrinsics, line.normal, line.offset, point_c))


def distance_3d(point_c, seg: BackprojectedSegment) -> float:
    """Perpendicular distance of a camera-frame point from the backprojected line."""
    return float(distance_3d_batch(np.asarray(point_c, dtype=float), seg.b_p, seg.b_q))


def endpoint_distance(point_c, b) -> float:
    """Euclidean distance between a camera-frame point and a backprojected endpoint."""
    return float(
        endpoint_distance_batch(np.asarray(point_c, dtype=float), np.asarray(b, dtype=float))
    )


def associate_endpoints(seg: BackprojectedSegment, p_c, q_c) -> EndpointPairing:
    """Pairing of (P, Q) with (b_p, b_q) minimizing the summed endpoint distances.

    Ties resolve to DIRECT. Computed once when an optimization is set up and
    held fixed for the whole run.
    """
    swapped = associate_endpoints_batch(
        seg.b_p, seg.b_q, np.asarray(p_c, dtype=float), np.asarray(q_c, dtype=float)
    )
    return EndpointPairing.SWAPPED if swapped else EndpointPairing.DIRECT


def backprojection_distance(
    obs: LineObservation,
    pose: Se3Pose,
    intrinsics: CameraIntrinsics,
    landmark: LineLandmark,
    mu: float,
    association: EndpointPairing,
) -> np.ndarray:
    """Per-endpoint residual d3D + mu * (distance to the paired backprojection)."""
    seg = BackprojectedSegment.from_observation(obs, intrinsics)
    points_c = np.stack([pose.transform(landmark.p), pose.transform(landmark.q)])
    b_paired = np.stack(
        paired_backprojections_batch(seg.b_p, seg.b_q, association is EndpointPairing.SWAPPED)
    )
    return backprojection_distance_batch(points_c, seg.b_p, seg.b_q, b_paired, mu)


def _raise_if_singular(singular, on_singular: str, message: str):
    if on_singular != "zero" and np.any(singular):
        raise SingularJacobianError(message)


def distance_2d_jacobians(
    line: Line2dParams, pose: Se3Pose, intrinsics: CameraIntrinsics, point_w
) -> tuple[np.ndarray, np.ndarray]:
    """Rows d(distance)/d(twist) and d(distance)/d(point) for the 2D term."""
    point_c = in_front(pose.transform(point_w))
    return distance_2d_jacobians_batch(intrinsics, line.normal, point_c, pose.rotation)


def distance_3d_jacobians(
    seg: BackprojectedSegment,
    pose: Se3Pose,
    point_w,
    on_singular: str = "raise",
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the perpendicular 3D distance w.r.t. twist and world point."""
    point_c = pose.transform(point_w)
    rows, singular = distance_3d_rows(point_c, seg.b_p, seg.b_q)
    _raise_if_singular(singular, on_singular, "point lies on the backprojected line")
    return pose_chain(rows, point_c, pose.rotation)


def endpoint_distance_jacobians(
    b, pose: Se3Pose, point_w, on_singular: str = "raise"
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the endpoint-to-backprojection distance w.r.t. twist and point."""
    point_c = pose.transform(point_w)
    rows, singular = endpoint_distance_rows(point_c, np.asarray(b, dtype=float))
    _raise_if_singular(singular, on_singular, "point coincides with the backprojection")
    return pose_chain(rows, point_c, pose.rotation)


def backprojection_distance_jacobians(
    seg: BackprojectedSegment,
    paired_b,
    pose: Se3Pose,
    point_w,
    mu: float,
    on_singular: str = "raise",
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of d3D + mu * dP for one endpoint, chained once through the pose."""
    point_c = pose.transform(point_w)
    j_pose, j_point, singular = backprojection_distance_jacobians_batch(
        point_c, pose.rotation, seg.b_p, seg.b_q, np.asarray(paired_b, dtype=float), mu
    )
    _raise_if_singular(singular, on_singular, "point lies on a singular locus of d3D or dP")
    return j_pose, j_point


# ---------------------------------------------------------------------------
# Covariances


def _line_param_jacobians_batch(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d(n)/d(p,q) (..., 2, 4) and d(h)/d(p,q) (..., 4) for image endpoints (..., 2)."""
    l = np.stack([q[..., 1] - p[..., 1], p[..., 0] - q[..., 0]], axis=-1)
    norm = np.linalg.norm(l, axis=-1)[..., None]
    n = l / norm
    proj = np.eye(2) - n[..., :, None] * n[..., None, :]
    dn = proj @ _DL_DPQ / norm[..., None]
    dh = n @ _DP_DPQ + np.einsum("...i,...ij->...j", p, dn)
    return dn, dh


def _line_param_jacobians(p, q) -> tuple[np.ndarray, np.ndarray]:
    """d(n)/d(p,q) and d(h)/d(p,q) for one pair of distinct endpoints."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.linalg.norm(p - q) == 0.0:
        raise DegenerateGeometryError("coincident endpoints")
    return _line_param_jacobians_batch(p, q)


def normal_covariance(p, q, sigma_li: float) -> np.ndarray:
    """Covariance of the unit line normal under iid endpoint noise."""
    dn, _ = _line_param_jacobians(p, q)
    return sigma_li * sigma_li * dn @ dn.T


def offset_variance(p, q, sigma_li: float) -> float:
    """Variance of the signed line offset h under iid endpoint noise."""
    _, dh = _line_param_jacobians(p, q)
    return float(sigma_li * sigma_li * dh @ dh)


def distance_2d_variance_batch(
    intrinsics: CameraIntrinsics, p_px: np.ndarray, q_px: np.ndarray, points_c: np.ndarray, sigma_li
) -> np.ndarray:
    """First-order variances of the signed 2D distances w.r.t. endpoint noise.

    Propagates iid endpoint noise through the full chain (p, q) -> (n, h) ->
    distance, keeping the n-h cross covariance so the result matches direct
    propagation through the four endpoint coordinates.
    """
    dn, dh = _line_param_jacobians_batch(p_px, q_px)
    j_pq = np.einsum("...i,...ij->...j", project_batch(intrinsics, points_c), dn) - dh
    return sigma_li * sigma_li * np.einsum("...i,...i->...", j_pq, j_pq)


def distance_2d_variance(
    obs: LineObservation,
    pose: Se3Pose,
    intrinsics: CameraIntrinsics,
    point_w,
    sigma_li: float,
) -> float:
    """First-order variance of the signed 2D distance w.r.t. endpoint noise."""
    point_c = in_front(pose.transform(point_w))
    return float(distance_2d_variance_batch(intrinsics, obs.p, obs.q, point_c, sigma_li))


def backprojected_point_covariance_batch(
    pixel: np.ndarray, depth, intrinsics: CameraIntrinsics, sigma_li, sigma_depth
) -> np.ndarray:
    """Covariances (..., 3, 3) of backprojected endpoints under pixel and depth noise.

    Closed form of J diag(sigma_li^2, sigma_li^2, sigma_depth^2) J^T with
    J the backprojection Jacobian w.r.t. (u, v, depth); xn, yn below are the
    normalized image coordinates (the backprojected point divided by depth).
    """
    xn = (pixel[..., 0] - intrinsics.cx) / intrinsics.fx
    yn = (pixel[..., 1] - intrinsics.cy) / intrinsics.fy
    var_li = sigma_li * sigma_li
    var_z = sigma_depth * sigma_depth
    d2 = depth * depth
    xx, xy, xz, yy, yz, zz = np.broadcast_arrays(
        var_z * xn * xn + d2 * var_li / intrinsics.fx**2,
        var_z * xn * yn,
        var_z * xn,
        var_z * yn * yn + d2 * var_li / intrinsics.fy**2,
        var_z * yn,
        var_z,
    )
    return np.stack(
        [np.stack(r, axis=-1) for r in ((xx, xy, xz), (xy, yy, yz), (xz, yz, zz))], axis=-2
    )


def backprojected_point_covariance(
    pixel, depth: float, intrinsics: CameraIntrinsics, sigma_li: float, sigma_depth: float
) -> np.ndarray:
    """Covariance of one backprojected endpoint under pixel and depth noise."""
    if not (np.isfinite(depth) and depth > 0):
        raise DegenerateGeometryError(f"invalid depth {depth}")
    pixel = np.asarray(pixel, dtype=float)
    return backprojected_point_covariance_batch(pixel, depth, intrinsics, sigma_li, sigma_depth)


def _distance_3d_segment_rows(
    points_c: np.ndarray, b_p: np.ndarray, b_q: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """d(d3D)/d(b_p) and d(d3D)/d(b_q), (..., 3) each, zero where the point is on
    the line, and that on-line mask."""
    dp = points_c - b_p
    dq = points_c - b_q
    v = np.cross(dp, dq)
    v_norm = np.linalg.norm(v, axis=-1)[..., None]
    db = b_p - b_q
    db_norm = np.linalg.norm(db, axis=-1)[..., None]
    singular = v_norm[..., 0] < EPS_V
    scale = np.maximum(v_norm, EPS_V) * db_norm
    along = v_norm * db / db_norm**3
    row_bp = np.cross(v, dq) / scale - along
    row_bq = -np.cross(v, dp) / scale + along
    on_line = singular[..., None]
    return np.where(on_line, 0.0, row_bp), np.where(on_line, 0.0, row_bq), singular


def _distance_3d_rows(point_c, seg: BackprojectedSegment) -> tuple[np.ndarray, np.ndarray] | None:
    """d(d3D)/d(b_p) and d(d3D)/d(b_q) at a camera-frame point; None when on-line."""
    row_bp, row_bq, singular = _distance_3d_segment_rows(
        np.asarray(point_c, dtype=float), seg.b_p, seg.b_q
    )
    return None if singular else (row_bp, row_bq)


def backprojection_distance_covariance_batch(
    p_c: np.ndarray, q_c: np.ndarray, b_p, b_q, swapped, cov_bp, cov_bq, mu: float
) -> np.ndarray:
    """Variances (..., 2) of the backprojection-distance residuals at (P, Q).

    Each propagates the per-endpoint backprojection covariances through
    d3D + mu * dP evaluated at that map endpoint; the cross-endpoint coupling
    is deliberately dropped. Where the map endpoint sits on the backprojected
    line the d3D derivative is singular and the propagation keeps the dP part
    alone; where that also vanishes the variance is 0.
    """
    swapped = np.asarray(swapped, dtype=bool)
    b_for_p, b_for_q = paired_backprojections_batch(b_p, b_q, swapped)
    variances = []
    for x, paired, takes_bp in ((p_c, b_for_p, ~swapped), (q_c, b_for_q, swapped)):
        row_bp, row_bq, _ = _distance_3d_segment_rows(x, b_p, b_q)
        # d|X - b|/db = -d|X - b|/dX, added to the row of the paired endpoint
        row_x, _ = endpoint_distance_rows(x, paired)
        takes_bp = takes_bp[..., None]
        row_bp = row_bp - mu * np.where(takes_bp, row_x, 0.0)
        row_bq = row_bq - mu * np.where(takes_bp, 0.0, row_x)
        variances.append(
            np.einsum("...i,...ij,...j->...", row_bp, cov_bp, row_bp)
            + np.einsum("...i,...ij,...j->...", row_bq, cov_bq, row_bq)
        )
    return np.stack(variances, axis=-1)


def backprojection_distance_covariance(
    obs: LineObservation,
    pose: Se3Pose,
    intrinsics: CameraIntrinsics,
    landmark: LineLandmark,
    mu: float,
    association: EndpointPairing,
    sigma_li: float,
    depth_noise: DepthNoiseModel,
) -> np.ndarray:
    """Diagonal 2x2 covariance of the backprojection-distance residual.

    See ``backprojection_distance_covariance_batch``. When a propagated
    variance vanishes the observation carries no usable information and the
    call fails.
    """
    seg = BackprojectedSegment.from_observation(obs, intrinsics)
    cov_bp = backprojected_point_covariance(
        obs.p, obs.depth_p, intrinsics, sigma_li, sigma_z(depth_noise, obs.depth_p)
    )
    cov_bq = backprojected_point_covariance(
        obs.q, obs.depth_q, intrinsics, sigma_li, sigma_z(depth_noise, obs.depth_q)
    )
    variances = backprojection_distance_covariance_batch(
        pose.transform(landmark.p), pose.transform(landmark.q), seg.b_p, seg.b_q,
        association is EndpointPairing.SWAPPED, cov_bp, cov_bq, mu,
    )
    if np.any(variances <= 0.0):
        raise DegenerateGeometryError(
            "propagated backprojection-distance variance vanished"
        )
    return np.diag(variances)
