"""Solution metrics: gauge-aligned pose errors, landmark errors, the
along-line / perpendicular decomposition of line endpoint errors."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..ba import MapValues, OptimizationReport
from ..geometry import Se3Pose, project_batch
from ..sparse_map import SparseMap
from .scene import GroundTruth


@dataclass
class ExperimentReport:
    label: str
    pose_translation_rmse: float
    pose_rotation_rmse_deg: float
    point_rmse: float
    line_endpoint_rmse: float
    line_along_rmse: float
    line_perp_rmse: float
    reprojection_rmse: float
    final_cost: float
    iterations: int
    converged: bool
    # per endpoint rows (along, perp, total); along^2 + perp^2 = total^2
    endpoint_errors: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    iteration_report: OptimizationReport | None = None

    METRIC_FIELDS = (
        "pose_translation_rmse",
        "pose_rotation_rmse_deg",
        "point_rmse",
        "line_endpoint_rmse",
        "line_along_rmse",
        "line_perp_rmse",
        "reprojection_rmse",
        "final_cost",
        "iterations",
        "converged",
    )

    def row(self) -> dict:
        out = {"label": self.label}
        for name in self.METRIC_FIELDS:
            v = getattr(self, name)
            out[name] = bool(v) if name == "converged" else v
        return out


def gauge_alignment(truth: GroundTruth, values: MapValues) -> np.ndarray:
    """World transform W with aligned landmark = W @ estimate, fixing the first pose.

    Defined by requiring the aligned first estimated pose to equal the first
    true pose; scale is observable so the alignment is rigid.
    """
    first = min(truth.poses)
    w = truth.poses[first].inverse().matrix() @ values.poses[first].matrix()
    return w


def _apply(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    return w[:3, :3] @ x + w[:3, 3]


def _rotation_angle_deg(r: np.ndarray) -> float:
    c = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.degrees(np.arccos(c)))


def evaluate_solution(
    truth: GroundTruth,
    smap: SparseMap,
    values: MapValues,
    opt_report: OptimizationReport | None,
    label: str,
) -> ExperimentReport:
    w = gauge_alignment(truth, values)
    w_inv = np.linalg.inv(w)

    trans_sq = []
    rot_sq = []
    for kf_id, pose_t in truth.poses.items():
        m = values.poses[kf_id].matrix() @ w_inv
        aligned = Se3Pose(m[:3, :3], m[:3, 3])
        center_true = -pose_t.rotation.T @ pose_t.translation
        center_est = -aligned.rotation.T @ aligned.translation
        trans_sq.append(float(np.sum((center_true - center_est) ** 2)))
        rot_sq.append(_rotation_angle_deg(aligned.rotation @ pose_t.rotation.T) ** 2)

    point_sq = [
        float(np.sum((_apply(w, values.points[pid]) - pos) ** 2))
        for pid, pos in truth.points.items()
    ]

    endpoint_rows = []
    for lid, (p_true, q_true) in truth.lines.items():
        direction = q_true - p_true
        direction = direction / np.linalg.norm(direction)
        est_p, est_q = values.lines[lid]
        for est, ref in ((est_p, p_true), (est_q, q_true)):
            err = _apply(w, est) - ref
            along = float(err @ direction)
            perp = float(np.linalg.norm(err - along * direction))
            endpoint_rows.append((abs(along), perp, float(np.linalg.norm(err))))
    endpoint_errors = np.array(endpoint_rows).reshape(-1, 3)

    # per keyframe, its observed points that have values, in observation order;
    # points at z <= 1e-6 in the camera are skipped
    reproj_sq = []
    for kf_id, kf in smap.keyframes.items():
        pose = values.poses[kf_id]
        seen = [(values.points[pid], obs.pixel) for pid, obs in kf.point_obs.items()
                if pid in values.points]
        if not seen:
            continue
        points, pixels = (np.array(col) for col in zip(*seen))
        x_c = points @ pose.rotation.T + pose.translation
        front = ~(x_c[:, 2] <= 1e-6)
        err = pixels[front] - project_batch(smap.intrinsics, x_c[front])
        reproj_sq.append((err ** 2).reshape(-1))
    reproj_sq = np.concatenate(reproj_sq) if reproj_sq else np.zeros(0)

    def rms(values_sq) -> float:
        return float(np.sqrt(np.mean(values_sq))) if len(values_sq) else 0.0

    return ExperimentReport(
        label=label,
        pose_translation_rmse=rms(trans_sq),
        pose_rotation_rmse_deg=rms(rot_sq),
        point_rmse=rms(point_sq),
        line_endpoint_rmse=rms(endpoint_errors[:, 2] ** 2) if len(endpoint_rows) else 0.0,
        line_along_rmse=rms(endpoint_errors[:, 0] ** 2) if len(endpoint_rows) else 0.0,
        line_perp_rmse=rms(endpoint_errors[:, 1] ** 2) if len(endpoint_rows) else 0.0,
        reprojection_rmse=rms(reproj_sq),
        final_cost=opt_report.final_cost if opt_report else 0.0,
        iterations=len(opt_report.rows) if opt_report else 0,
        converged=opt_report.converged if opt_report else False,
        endpoint_errors=endpoint_errors,
        iteration_report=opt_report,
    )


def reports_to_csv(reports: list[ExperimentReport]) -> str:
    header = ["label", *ExperimentReport.METRIC_FIELDS]
    lines = [",".join(header)]
    for rep in reports:
        row = rep.row()
        cells = []
        for name in header:
            v = row[name]
            if isinstance(v, float):
                cells.append(f"{v:.9g}")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reports_to_json(reports: list[ExperimentReport]) -> str:
    return json.dumps([rep.row() for rep in reports], indent=2, sort_keys=True) + "\n"
