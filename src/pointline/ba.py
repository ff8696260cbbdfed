"""Bundle adjustment: residual-table assembly and Levenberg-Marquardt.

The solver minimizes the robustified sum of point reprojection errors and
line 2D/backprojection errors over keyframe poses (left-multiplicative SE(3)
increments), point positions, and line endpoint pairs. Damped normal
equations follow the augmented form (H + lambda I) dx = -g with IRLS robust
weights folded into the per-term information matrices.

Assembly walks the map's observations once into columnar tables, one per
residual family; residuals, Jacobians and line covariances come from the
batched kernels in ``point_errors`` and ``lines``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyProblemError, SingularSystemError
from .geometry import Z_MIN, CameraIntrinsics, Se3Pose, se3_exp
from .lines import (
    BackprojectedSegment,
    associate_endpoints_batch,
    backprojected_point_covariance_batch,
    backprojection_distance_batch,
    backprojection_distance_covariance_batch,
    backprojection_distance_jacobians_batch,
    distance_2d_batch,
    distance_2d_jacobians_batch,
    distance_2d_variance_batch,
    paired_backprojections_batch,
)
from .noise import (
    CHI2_95_2D,
    CHI2_95_3D,
    DepthNoiseModel,
    PyramidNoiseTable,
    RobustKernel,
    robust_weight_batch,
    sigma_pixel,
    sigma_z,
)
from .point_errors import (
    point_jacobians_batch,
    point_prediction_batch,
    propagated_stereo_covariance_batch,
)
from .sparse_map import SparseMap


@dataclass(frozen=True)
class BaConfig:
    """Problem-assembly options (term selection, noise models, fixing)."""

    pixel_noise: PyramidNoiseTable = PyramidNoiseTable()
    depth_noise: DepthNoiseModel = DepthNoiseModel()
    kernel: str = "huber"  # huber | cauchy | none
    kernel_tau_2d: float = 0.0  # 0 -> 95% chi-square default
    kernel_tau_3d: float = 0.0
    cov_mode: str = "identity_cov"  # identity_cov | propagated_cov
    point_residual: str = "virtual_baseline"  # virtual_baseline | depth
    mu: float = 0.5
    include_line_2d: bool = True
    include_line_3d: bool = True
    min_mono_line_obs: int = 3
    fix_first_pose: bool = True
    fixed_pose_ids: tuple = ()
    fix_all_poses: bool = False
    fix_points: bool = False
    fix_lines: bool = False
    covisibility_threshold: int = 15

    def kernel_for(self, residual_dim: int) -> RobustKernel:
        if self.kernel == "none":
            return RobustKernel("none")
        if residual_dim == 2:
            tau = self.kernel_tau_2d or CHI2_95_2D
        else:
            tau = self.kernel_tau_3d or CHI2_95_3D
        return RobustKernel(self.kernel, tau)


@dataclass(frozen=True)
class LmSchedule:
    """Levenberg-Marquardt iteration policy."""

    max_iters: int = 50
    cost_rel_tol: float = 1e-9
    cost_abs_tol: float = 1e-18
    lambda0: float = 1e-4
    lambda_up: float = 10.0
    lambda_down: float = 10.0
    lambda_min: float = 1e-12
    lambda_max: float = 1e10
    linear_solver: str = "schur"  # schur | dense
    refresh_covariances: bool = False


@dataclass
class State:
    """Mutable optimization state: stacked pose/landmark values."""

    rotations: np.ndarray  # (K, 3, 3)
    translations: np.ndarray  # (K, 3)
    points: np.ndarray  # (P, 3)
    lines: np.ndarray  # (L, 2, 3)

    def copy(self) -> "State":
        return State(
            self.rotations.copy(),
            self.translations.copy(),
            self.points.copy(),
            self.lines.copy(),
        )


@dataclass
class MapValues:
    """Optimized values keyed by map ids, ready to write back into a SparseMap."""

    poses: dict[int, Se3Pose]
    points: dict[int, np.ndarray]
    lines: dict[int, tuple[np.ndarray, np.ndarray]]


@dataclass
class IterationRow:
    iteration: int
    cost: float
    lamda: float
    accepted: bool
    step_norm: float
    breakdown: dict[str, float]


@dataclass
class OptimizationReport:
    rows: list[IterationRow] = field(default_factory=list)
    converged: bool = False
    message: str = ""
    initial_cost: float = 0.0
    final_cost: float = 0.0

    def accepted_costs(self) -> list[float]:
        return [self.initial_cost] + [r.cost for r in self.rows if r.accepted]

    def to_csv(self) -> str:
        kinds = sorted({k for r in self.rows for k in r.breakdown})
        header = ["iteration", "cost", "lambda", "accepted", "step_norm"] + kinds
        lines = [",".join(header)]
        for r in self.rows:
            cells = [
                str(r.iteration),
                f"{r.cost:.9g}",
                f"{r.lamda:.9g}",
                str(int(r.accepted)),
                f"{r.step_norm:.9g}",
            ] + [f"{r.breakdown.get(k, 0.0):.9g}" for k in kinds]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


_KINDS = ("point_mono", "point_stereo", "point_depth", "line_2d", "line_3d")


@dataclass
class _Table:
    """All terms of one residual family, one row per term in assembly order."""

    kind: str  # one of _KINDS
    kf_slot: np.ndarray
    lm_slot: np.ndarray
    info: np.ndarray  # (N, r, r) inverse covariances (robust weights applied later)
    kernel: RobustKernel
    # point payload: measurements (N, r)
    meas: np.ndarray | None = None
    # line_2d payload: the observed image line, and its observed endpoints
    # (N, 2, 2) and pixel sigmas, which its covariance propagates
    normal: np.ndarray | None = None
    offset: np.ndarray | None = None
    endpoints_px: np.ndarray | None = None
    sigma_px: np.ndarray | None = None
    # line_3d payload: backprojected endpoints, their covariances (N, 3, 3),
    # and the pairing of (P, Q) with them fixed at assembly
    b_p: np.ndarray | None = None
    b_q: np.ndarray | None = None
    cov_bp: np.ndarray | None = None
    cov_bq: np.ndarray | None = None
    swapped: np.ndarray | None = None
    mu: float = 0.0

    def __len__(self):
        return len(self.kf_slot)

    def paired(self) -> np.ndarray:
        """line_3d: the backprojected endpoint paired with P and with Q, (N, 2, 3)."""
        return np.stack(paired_backprojections_batch(self.b_p, self.b_q, self.swapped), axis=1)


@dataclass
class NormalEquations:
    """Undamped H = J^T W J and g = J^T W r over the free parameters, in blocks.

    Every term couples one pose and one landmark, so H's pose part and its
    landmark part are block diagonal; ``w_point`` and ``w_line`` hold the
    pose-landmark coupling, H's off-diagonal part.
    """

    pose: np.ndarray  # (K, 6, 6) free-pose blocks
    point: np.ndarray  # (P, 3, 3) free-point blocks
    line: np.ndarray  # (L, 6, 6) free-line blocks
    w_point: np.ndarray  # (K, 6, P, 3)
    w_line: np.ndarray  # (K, 6, L, 6)
    g: np.ndarray  # (n,) in the layout [poses | points | lines]

    def dense(self) -> np.ndarray:
        """H as one dense n x n matrix, for the reference dense solve and tests."""
        k6, p3, l6 = 6 * len(self.pose), 3 * len(self.point), 6 * len(self.line)
        w_point = self.w_point.reshape(k6, p3)
        w_line = self.w_line.reshape(k6, l6)
        zeros = np.zeros((p3, l6))
        return np.block([
            [_block_diagonal(self.pose), w_point, w_line],
            [w_point.T, _block_diagonal(self.point), zeros],
            [w_line.T, zeros.T, _block_diagonal(self.line)],
        ])


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """(count, d, d) blocks as one (count*d, count*d) block-diagonal matrix."""
    count, d, _ = blocks.shape
    out = np.zeros((count, d, count, d))
    out[np.arange(count), :, np.arange(count), :] = blocks
    return out.reshape(count * d, count * d)


# Rows per bincount in _segment_sum.
_SEGMENT_CHUNK = 8192


def _segment_sum(index: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """Rows of ``values`` (N, ...) summed by ``index`` (N,) into (count, ...).

    Rows with index -1 (a fixed block) are dropped. A bincount over the
    flattened (segment, entry) index adds each segment's rows in row order.
    It runs over chunks of rows: a whole table's flattened index would take
    as much memory as its values.
    """
    shape = values.shape[1:]
    width = int(np.prod(shape))
    segment = np.where(index < 0, count, index)
    entry = np.arange(width)
    total = np.zeros((count + 1) * width)
    for start in range(0, len(index), _SEGMENT_CHUNK):
        rows = values[start : start + _SEGMENT_CHUNK]
        flat = (segment[start : start + _SEGMENT_CHUNK, None] * width + entry).reshape(rows.size)
        total += np.bincount(flat, weights=rows.reshape(rows.size), minlength=total.size)
    return total[: count * width].reshape(count, *shape)


def _normal_rows(j: np.ndarray, wj: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Per term [J^T W J | (W J)^T r], (N, d, d + 1), from J and W J (N, r, d)
    and the residuals (N, r)."""
    n, _, d = j.shape
    rows = np.empty((n, d, d + 1))
    np.matmul(j.transpose(0, 2, 1), wj, out=rows[:, :, :d])
    np.matmul(wj.transpose(0, 2, 1), res[..., None], out=rows[:, :, d:])
    return rows


def _camera_frame(state: State, table: _Table):
    """The terms' landmark points (N, 3), or line endpoints (N, 2, 3), in their
    keyframes' frames, and those keyframes' rotations (N, 3, 3)."""
    rot = state.rotations[table.kf_slot]
    t = state.translations[table.kf_slot]
    if table.kind.startswith("point"):
        return np.einsum("nij,nj->ni", rot, state.points[table.lm_slot]) + t, rot
    return np.einsum("nij,nkj->nki", rot, state.lines[table.lm_slot]) + t[:, None], rot


class Problem:
    """Assembled BA problem: state snapshot, free-block layout, term tables."""

    def __init__(
        self,
        intrinsics: CameraIntrinsics,
        kf_ids: list[int],
        point_ids: list[int],
        line_ids: list[int],
        initial_state: State,
        pose_free: np.ndarray,
        point_free: np.ndarray,
        line_free: np.ndarray,
        tables: list[_Table],
        config: BaConfig,
    ):
        self.intrinsics = intrinsics
        self.kf_ids = kf_ids
        self.point_ids = point_ids
        self.line_ids = line_ids
        self.config = config
        self.initial_state = initial_state
        self.pose_free = pose_free
        self.point_free = point_free
        self.line_free = line_free

        # parameter layout: [free poses | free points | free lines]
        self.pose_param = np.where(pose_free, np.cumsum(pose_free) - 1, -1)
        self.point_param = np.where(point_free, np.cumsum(point_free) - 1, -1)
        self.line_param = np.where(line_free, np.cumsum(line_free) - 1, -1)
        self.n_free_poses = int(pose_free.sum())
        self.n_free_points = int(point_free.sum())
        self.n_free_lines = int(line_free.sum())
        self.point_offset = 6 * self.n_free_poses
        self.line_offset = self.point_offset + 3 * self.n_free_points
        self.n_params = self.line_offset + 6 * self.n_free_lines
        if self.n_params == 0:
            raise EmptyProblemError("no free parameter blocks")
        if not tables:
            raise EmptyProblemError("no residual terms")
        self.tables = tables
        # line terms whose covariance fell back to unit variances at the last
        # (re-)evaluation; see _refresh_covariances
        self.covariance_fallbacks = 0

    # -- evaluation ------------------------------------------------------------

    def _residuals(self, state: State, table: _Table) -> tuple[np.ndarray, bool]:
        """Residual array (N, r) for one table and a validity flag."""
        x_c, _ = _camera_frame(state, table)
        if table.kind == "line_3d":
            res = backprojection_distance_batch(
                x_c, table.b_p[:, None], table.b_q[:, None], table.paired(), table.mu
            )
        elif np.any(x_c[..., 2] <= Z_MIN):
            return np.zeros((len(table), 0)), False
        elif table.kind == "line_2d":
            res = distance_2d_batch(
                self.intrinsics, table.normal[:, None], table.offset[:, None], x_c
            )
        else:
            res = table.meas - point_prediction_batch(table.kind, self.intrinsics, x_c)
        return res, bool(np.all(np.isfinite(res)))

    def evaluate(self, state: State) -> tuple[float, dict[str, float]]:
        """Robustified total cost and a per-kind breakdown; inf when any term
        leaves the projection domain."""
        total = 0.0
        breakdown: dict[str, float] = {}
        for table in self.tables:
            res, valid = self._residuals(state, table)
            if not valid:
                return np.inf, {}
            s = np.einsum("ni,nij,nj->n", res, table.info, res)
            cost, _ = robust_weight_batch(table.kernel, s)
            c = float(cost.sum())
            breakdown[table.kind] = breakdown.get(table.kind, 0.0) + c
            total += c
        return total, breakdown

    # -- linearization -----------------------------------------------------------

    def _jacobians(self, state: State, table: _Table):
        """Per-term J wrt twist (N, r, 6) and wrt landmark (N, r, d)."""
        x_c, rot = _camera_frame(state, table)
        if table.kind.startswith("point"):
            return point_jacobians_batch(table.kind, self.intrinsics, x_c, rot)
        rot = rot[:, None]  # one rotation for both endpoint rows
        if table.kind == "line_2d":
            j_pose, j_end = distance_2d_jacobians_batch(
                self.intrinsics, table.normal[:, None], x_c, rot
            )
        else:
            j_pose, j_end, _ = backprojection_distance_jacobians_batch(
                x_c, rot, table.b_p[:, None], table.b_q[:, None], table.paired(), table.mu
            )
        # the P row moves only P, the Q row only Q
        j_lm = np.zeros((len(table), 2, 6))
        j_lm[:, 0, :3] = j_end[:, 0]
        j_lm[:, 1, 3:] = j_end[:, 1]
        return j_pose, j_lm

    def linearize(self, state: State) -> NormalEquations:
        """Undamped H = J^T W J and g = J^T W r over the free parameters, robust
        IRLS weights folded into W, each term added straight into its blocks."""
        k, n_pt, n_ln = self.n_free_poses, self.n_free_points, self.n_free_lines
        ne = NormalEquations(
            np.zeros((k, 6, 6)), np.zeros((n_pt, 3, 3)), np.zeros((n_ln, 6, 6)),
            np.zeros((k, 6, n_pt, 3)), np.zeros((k, 6, n_ln, 6)), np.zeros(self.n_params),
        )
        g_pose = ne.g[: self.point_offset].reshape(k, 6)
        for table in self.tables:
            res, valid = self._residuals(state, table)
            if not valid:
                raise FloatingPointError("linearization at an invalid state")
            s = np.einsum("ni,nij,nj->n", res, table.info, res)
            _, w = robust_weight_batch(table.kernel, s)
            winfo = w[:, None, None] * table.info
            j_pose, j_lm = self._jacobians(state, table)

            if table.kind.startswith("point"):
                lm_param = self.point_param[table.lm_slot]
                lm_blocks, coupling = ne.point, ne.w_point
                g_lm = ne.g[self.point_offset : self.line_offset].reshape(n_pt, 3)
            else:
                lm_param = self.line_param[table.lm_slot]
                lm_blocks, coupling = ne.line, ne.w_line
                g_lm = ne.g[self.line_offset :].reshape(n_ln, 6)
            pose_param = self.pose_param[table.kf_slot]

            # per term: J^T W J beside (W J)^T r, for the pose and the landmark
            wj_pose, wj_lm = winfo @ j_pose, winfo @ j_lm
            pose_sum = _segment_sum(pose_param, _normal_rows(j_pose, wj_pose, res), k)
            ne.pose += pose_sum[:, :, :6]
            g_pose += pose_sum[:, :, 6]
            lm_sum = _segment_sum(lm_param, _normal_rows(j_lm, wj_lm, res), len(lm_blocks))
            lm_blocks += lm_sum[:, :, :-1]
            g_lm += lm_sum[:, :, -1]
            # A table holds at most one term per (keyframe, landmark), because
            # a keyframe's point_obs and line_obs are dicts keyed by landmark,
            # so the fancy index hits each coupling block once and += is exact.
            both = (pose_param >= 0) & (lm_param >= 0)
            coupling[pose_param[both], :, lm_param[both]] += (
                j_pose[both].transpose(0, 2, 1) @ wj_lm[both]
            )
        return ne

    # -- state updates ------------------------------------------------------------

    def retract(self, state: State, delta: np.ndarray) -> State:
        """Left-multiplicative pose retraction, additive landmark updates."""
        out = state.copy()
        for slot, param in enumerate(self.pose_param):
            if param < 0:
                continue
            inc = se3_exp(delta[6 * param : 6 * param + 6])
            out.rotations[slot] = inc.rotation @ state.rotations[slot]
            out.translations[slot] = inc.rotation @ state.translations[slot] + inc.translation
        if self.n_free_points:
            free = self.point_free
            d = delta[self.point_offset : self.point_offset + 3 * self.n_free_points]
            out.points[free] += d.reshape(-1, 3)
        if self.n_free_lines:
            free = self.line_free
            d = delta[self.line_offset :]
            out.lines[free] += d.reshape(-1, 2, 3)
        return out

    def values(self, state: State) -> MapValues:
        poses = {
            kf_id: Se3Pose(state.rotations[i], state.translations[i])
            for i, kf_id in enumerate(self.kf_ids)
        }
        points = {pid: state.points[i].copy() for i, pid in enumerate(self.point_ids)}
        lines = {
            lid: (state.lines[i, 0].copy(), state.lines[i, 1].copy())
            for i, lid in enumerate(self.line_ids)
        }
        return MapValues(poses, points, lines)


# ---------------------------------------------------------------------------
# Assembly


def assemble_problem(
    sparse_map: SparseMap,
    config: BaConfig | None = None,
    scope: str = "full",
    reference_kf: int | None = None,
) -> Problem:
    """Build residual tables and parameter blocks from a map snapshot.

    ``scope="full"`` takes every keyframe; ``scope="local"`` frees only the
    reference keyframe and the keyframes covisible with it (at least
    ``config.covisibility_threshold`` shared landmarks), keeps every other
    observer of the involved landmarks fixed, and drops the rest.
    """
    config = config or BaConfig()
    k = sparse_map.intrinsics

    kf_ids = sorted(sparse_map.keyframes)
    if scope == "local":
        if reference_kf is None or reference_kf not in sparse_map.keyframes:
            raise EmptyProblemError("local scope needs a valid reference keyframe")
        weights = sparse_map.covisibility(reference_kf)
        core = {reference_kf} | {
            kid for kid, w in weights.items() if w >= config.covisibility_threshold
        }
        landmarks_pt = set()
        landmarks_ln = set()
        for kid in core:
            landmarks_pt |= sparse_map.keyframes[kid].point_obs.keys()
            landmarks_ln |= sparse_map.keyframes[kid].line_obs.keys()
        involved = set(core)
        for pid in landmarks_pt:
            involved |= sparse_map.point_observers[pid]
        for lid in landmarks_ln:
            involved |= sparse_map.line_observers[lid]
        kf_ids = sorted(involved)
    elif scope != "full":
        raise ValueError(f"unknown scope {scope!r}")

    poses = [sparse_map.keyframes[i].pose for i in kf_ids]
    kf_set = set(kf_ids)

    point_ids = sorted(
        pid for pid, obs in sparse_map.point_observers.items() if obs & kf_set
    )
    line_ids = sorted(
        lid for lid, obs in sparse_map.line_observers.items() if obs & kf_set
    )
    state = State(
        np.stack([p.rotation for p in poses]) if poses else np.zeros((0, 3, 3)),
        np.stack([p.translation for p in poses]) if poses else np.zeros((0, 3)),
        np.array([sparse_map.points[p].position for p in point_ids], dtype=float).reshape(-1, 3),
        np.array(
            [[sparse_map.lines[l].p, sparse_map.lines[l].q] for l in line_ids], dtype=float
        ).reshape(-1, 2, 3),
    )

    pose_free = np.ones(len(kf_ids), dtype=bool)
    if scope == "local":
        for i, kid in enumerate(kf_ids):
            pose_free[i] = kid in core
    if config.fix_all_poses:
        pose_free[:] = False
    else:
        if config.fix_first_pose and len(kf_ids):
            pose_free[0] = False
        for kid in config.fixed_pose_ids:
            if kid in kf_set:
                pose_free[kf_ids.index(kid)] = False
    point_free = np.full(len(point_ids), not config.fix_points)
    line_free = np.full(len(line_ids), not config.fix_lines)

    # One walk over the observations appends a row per term to its family.
    point_slot = {pid: i for i, pid in enumerate(point_ids)}
    line_slot = {lid: i for i, lid in enumerate(line_ids)}
    propagated = config.cov_mode == "propagated_cov"
    columns: dict[str, list[dict]] = {kind: [] for kind in _KINDS}
    for slot, kf_id in enumerate(kf_ids):
        kf = sparse_map.keyframes[kf_id]
        for pt_id in sorted(kf.point_obs):
            obs = kf.point_obs[pt_id]
            var_px = sigma_pixel(config.pixel_noise, obs.level) ** 2
            u, v = obs.pixel
            term = dict(kf=slot, lm=point_slot[pt_id])
            if obs.is_mono:
                columns["point_mono"].append(dict(meas=obs.pixel, var=np.full(2, var_px), **term))
                continue
            if obs.right_u is not None:
                meas = np.array([u, v, obs.right_u])
                # depth from disparity feeds the propagated covariance only
                depth = None
                if k.baseline is not None and u - obs.right_u > 0:
                    depth = k.baseline * k.fx / (u - obs.right_u)
            elif config.point_residual == "depth":
                var_z = sigma_z(config.depth_noise, obs.depth) ** 2
                term.update(meas=np.array([u, v, obs.depth]), var=np.array([var_px, var_px, var_z]))
                columns["point_depth"].append(term)
                continue
            else:
                meas = np.array([u, v, u - k.baseline * k.fx / obs.depth])
                depth = obs.depth
            if propagated and depth is not None:
                var_z = sigma_z(config.depth_noise, depth) ** 2
            else:  # identity covariance: a NaN depth marks the row
                depth = var_z = np.nan
            term.update(meas=meas, var=np.full(3, var_px), depth=depth, var_z=var_z)
            columns["point_stereo"].append(term)

        for line_id in sorted(kf.line_obs):
            obs = kf.line_obs[line_id]
            sigma_li = sigma_pixel(config.pixel_noise, obs.level)
            if not obs.is_stereo and sparse_map.lines[line_id].n_obs < config.min_mono_line_obs:
                continue
            term = dict(kf=slot, lm=line_slot[line_id], sigma=sigma_li, endpoints=(obs.p, obs.q))
            if config.include_line_2d:
                params = obs.line_params()
                columns["line_2d"].append(dict(normal=params.normal, offset=params.offset, **term))
            if obs.is_stereo and config.include_line_3d:
                seg = BackprojectedSegment.from_observation(obs, k)
                depths = (obs.depth_p, obs.depth_q)
                sigma_depth = tuple(sigma_z(config.depth_noise, d) for d in depths)
                term.update(b_p=seg.b_p, b_q=seg.b_q, depths=depths, sigma_z=sigma_depth)
                columns["line_3d"].append(term)

    tables = []
    for kind, rows in columns.items():
        if not rows:
            continue
        col = {name: np.array([row[name] for row in rows]) for name in rows[0]}
        if kind.startswith("point"):
            r = col["var"].shape[1]
            info = np.zeros((len(col["kf"]), r, r))
            info[:, np.arange(r), np.arange(r)] = 1.0 / col["var"]
            if kind == "point_stereo":
                prop = np.isfinite(col["depth"])
                info[prop] = np.linalg.inv(
                    propagated_stereo_covariance_batch(
                        k, col["var"][prop, 0], col["depth"][prop], col["var_z"][prop]
                    )
                )
            payload = dict(meas=col["meas"])
        elif kind == "line_2d":
            payload = dict(
                normal=col["normal"], offset=col["offset"],
                endpoints_px=col["endpoints"], sigma_px=col["sigma"],
            )
        else:  # line_3d
            cov_b = backprojected_point_covariance_batch(
                col["endpoints"], col["depths"], k, col["sigma"][:, None], col["sigma_z"]
            )
            payload = dict(
                b_p=col["b_p"], b_q=col["b_q"], cov_bp=cov_b[:, 0], cov_bq=cov_b[:, 1],
                mu=config.mu,
            )
        if kind.startswith("line"):  # info follows from the state: _refresh_covariances
            info = np.zeros((len(col["kf"]), 2, 2))
        kernel = config.kernel_for(info.shape[-1])
        table = _Table(kind, col["kf"], col["lm"], info, kernel, **payload)
        if kind == "line_3d":  # the pairing is fixed at the initial state
            ends_c, _ = _camera_frame(state, table)
            table.swapped = associate_endpoints_batch(
                table.b_p, table.b_q, ends_c[:, 0], ends_c[:, 1]
            )
        tables.append(table)

    problem = Problem(
        k, kf_ids, point_ids, line_ids, state,
        pose_free, point_free, line_free, tables, config,
    )
    _refresh_covariances(problem, state)
    return problem


# ---------------------------------------------------------------------------
# Damped solves


def _solve_dense(ne: NormalEquations, lamda: float) -> np.ndarray:
    h = ne.dense()
    h[np.diag_indices_from(h)] += lamda
    try:
        return np.linalg.solve(h, -ne.g)
    except np.linalg.LinAlgError as e:
        raise SingularSystemError(f"damped normal equations singular: {e}") from e


def _solve_schur(ne: NormalEquations, lamda: float) -> np.ndarray:
    """Eliminate landmark blocks, solve the reduced pose system, back-substitute.

    Exact block elimination of the same damped system the dense path solves.
    """
    np_pose = 6 * len(ne.pose)
    s = _block_diagonal(ne.pose)
    s[np.diag_indices_from(s)] += lamda
    rhs = -ne.g[:np_pose]

    # Each family is one batched matmul for W·inv, one GEMM for the reduced
    # matrix and GEMVs for the right-hand sides, over W as (np_pose, count*d).
    # Sizes are explicit: np_pose or count may be 0, where reshape(-1) fails.
    pieces = []
    offset = np_pose
    for blocks, coupling in ((ne.point, ne.w_point), (ne.line, ne.w_line)):
        count, d, _ = blocks.shape
        w = coupling.reshape(np_pose, count * d)
        g_l = ne.g[offset : offset + count * d]
        offset += count * d
        try:
            inv_blocks = np.linalg.inv(blocks + lamda * np.eye(d))
        except np.linalg.LinAlgError as e:
            raise SingularSystemError(f"landmark block singular: {e}") from e
        # W·inv written straight into the (np_pose, count*d) layout the GEMM reads
        w_inv = np.empty((np_pose, count, d))
        np.matmul(w.reshape(np_pose, count, d).transpose(1, 0, 2), inv_blocks,
                  out=w_inv.transpose(1, 0, 2))
        w_inv = w_inv.reshape(np_pose, count * d)
        s -= w_inv @ w.T
        rhs += w_inv @ g_l
        pieces.append((w, inv_blocks, g_l))

    try:
        x_pose = np.linalg.solve(s, rhs)
    except np.linalg.LinAlgError as e:
        raise SingularSystemError(f"reduced pose system singular: {e}") from e

    delta = [x_pose]
    for w, inv_blocks, g_l in pieces:
        count, d, _ = inv_blocks.shape
        rhs_l = (-g_l - x_pose @ w).reshape(count, d, 1)
        delta.append(np.matmul(inv_blocks, rhs_l).reshape(count * d))
    return np.concatenate(delta)


def _damped_step(ne: NormalEquations, lamda: float, schedule: LmSchedule) -> np.ndarray:
    if schedule.linear_solver == "dense":
        return _solve_dense(ne, lamda)
    return _solve_schur(ne, lamda)


def lm_step(
    problem: Problem,
    lamda: float,
    state: State | None = None,
    schedule: LmSchedule | None = None,
) -> tuple[np.ndarray, float]:
    """One linearization and damped normal-equation solve; returns (delta,
    predicted cost reduction)."""
    if lamda <= 0:
        raise ValueError("damping must be positive")
    ne = problem.linearize(state or problem.initial_state)
    delta = _damped_step(ne, lamda, schedule or LmSchedule())
    predicted = float(delta @ (lamda * delta) - delta @ ne.g)
    return delta, predicted


def optimize(
    problem: Problem, schedule: LmSchedule | None = None
) -> tuple[MapValues, OptimizationReport]:
    """Levenberg-Marquardt loop with multiplicative damping policy.

    Accepted iterations never increase the robustified cost; rejected steps
    raise the damping and solve again from the same linearization.
    Non-convergence is reported, not raised.
    """
    schedule = schedule or LmSchedule()
    state = problem.initial_state.copy()
    report = OptimizationReport()
    cost, _ = problem.evaluate(state)
    report.initial_cost = cost
    lamda = schedule.lambda0

    if not np.isfinite(cost):
        report.message = "initial state outside the projection domain"
        report.final_cost = cost
        return problem.values(state), report
    if cost <= schedule.cost_abs_tol:
        report.converged = True
        report.message = "initial cost below absolute tolerance"
        report.final_cost = cost
        return problem.values(state), report

    ne = None  # linearization at ``state``; None once a step moves it
    for it in range(schedule.max_iters):
        if ne is None:
            if schedule.refresh_covariances and it > 0:
                _refresh_covariances(problem, state)
            ne = problem.linearize(state)
        try:
            delta = _damped_step(ne, lamda, schedule)
        except SingularSystemError as e:
            report.message = f"singular system: {e}"
            break
        candidate = problem.retract(state, delta)
        new_cost, breakdown = problem.evaluate(candidate)
        accepted = np.isfinite(new_cost) and new_cost <= cost
        step_norm = float(np.linalg.norm(delta))
        if accepted:
            state = candidate
            ne = None
            decrease = cost - new_cost
            cost = new_cost
            lamda = max(lamda / schedule.lambda_down, schedule.lambda_min)
            report.rows.append(
                IterationRow(it, cost, lamda, True, step_norm, breakdown)
            )
            if cost <= schedule.cost_abs_tol:
                report.converged = True
                report.message = "cost below absolute tolerance"
                break
            if decrease <= schedule.cost_rel_tol * max(cost, 1e-300):
                report.converged = True
                report.message = "relative cost decrease below tolerance"
                break
        else:
            lamda = min(lamda * schedule.lambda_up, schedule.lambda_max)
            report.rows.append(
                IterationRow(it, cost, lamda, False, step_norm, {})
            )
            if lamda >= schedule.lambda_max:
                report.message = "damping limit reached"
                break
    else:
        report.message = "iteration limit reached"
    report.final_cost = cost
    return problem.values(state), report


def _refresh_covariances(problem: Problem, state: State):
    """Evaluate the line terms' covariances at ``state`` into their tables' info.

    A term gets unit variances in both rows where its covariance is
    undefined: a zero-length landmark; for line_2d an endpoint at
    z <= Z_MIN, which cannot be projected; for line_3d a propagated variance
    <= 0 (noise-free consistent geometry, where the residual and its Jacobian
    vanish, so any finite weight is inert). ``problem.covariance_fallbacks``
    counts those terms.
    """
    problem.covariance_fallbacks = 0
    for table in problem.tables:
        if not table.kind.startswith("line"):
            continue
        ends_c, _ = _camera_frame(state, table)
        ends_w = state.lines[table.lm_slot]
        fallback = np.linalg.norm(ends_w[:, 0] - ends_w[:, 1], axis=-1) == 0.0
        if table.kind == "line_2d":
            fallback |= np.any(ends_c[..., 2] <= Z_MIN, axis=1)
            var = distance_2d_variance_batch(
                problem.intrinsics, table.endpoints_px[:, None, 0],
                table.endpoints_px[:, None, 1], ends_c, table.sigma_px[:, None],
            )
        else:
            var = backprojection_distance_covariance_batch(
                ends_c[:, 0], ends_c[:, 1], table.b_p, table.b_q, table.swapped,
                table.cov_bp, table.cov_bq, table.mu,
            )
            fallback |= np.any(var <= 0.0, axis=1)
        fallback = fallback[:, None]
        table.info[:, [0, 1], [0, 1]] = np.where(fallback, 1.0, 1.0 / np.where(fallback, 1.0, var))
        problem.covariance_fallbacks += int(fallback.sum())


def hessian_spectrum(
    problem: Problem,
    selection: tuple[str, list[int] | None],
    state: State | None = None,
) -> np.ndarray:
    """Eigenvalues of the selected free diagonal block of the GN matrix J^T W J.

    ``selection`` is ("pose" | "point" | "line", ids or None for all free).
    Fixed blocks have no columns and are excluded. Poses, and likewise
    landmarks, share no term, so the selected blocks are uncoupled and the
    spectrum is the sorted union of theirs.
    """
    ne = problem.linearize(state or problem.initial_state)
    kind, ids = selection
    if kind == "pose":
        id_list, param, blocks = problem.kf_ids, problem.pose_param, ne.pose
    elif kind == "point":
        id_list, param, blocks = problem.point_ids, problem.point_param, ne.point
    elif kind == "line":
        id_list, param, blocks = problem.line_ids, problem.line_param, ne.line
    else:
        raise ValueError(f"unknown block kind {kind!r}")
    slots = range(len(id_list)) if ids is None else [id_list.index(i) for i in ids]
    params = [param[slot] for slot in slots if param[slot] >= 0]
    if not params:
        raise EmptyProblemError("selection contains no free parameters")
    return np.sort(np.linalg.eigvalsh(blocks[params]), axis=None)
