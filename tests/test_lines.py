import numpy as np
import pytest

from conftest import fd_pose, fd_vector, random_pose, rel_err
from pointline.errors import DegenerateGeometryError, SingularJacobianError
from pointline.geometry import CameraIntrinsics, Se3Pose, project
from pointline.lines import (
    BackprojectedSegment,
    EndpointPairing,
    LineLandmark,
    LineObservation,
    associate_endpoints,
    backprojection_distance,
    backprojection_distance_covariance,
    backprojection_distance_jacobians,
    backprojected_point_covariance,
    distance_2d,
    distance_2d_jacobians,
    distance_2d_variance,
    distance_3d,
    distance_3d_jacobians,
    endpoint_distance,
    endpoint_distance_jacobians,
    line_params_from_endpoints,
    normal_covariance,
    offset_variance,
)
from pointline.noise import DepthNoiseModel, sigma_z

K = CameraIntrinsics(500.0, 510.0, 320.0, 240.0, baseline=0.1)
DEPTH = DepthNoiseModel()


def random_stereo_obs(rng, min_sep=30.0):
    while True:
        p = rng.uniform(100, 540, 2)
        q = rng.uniform(100, 540, 2)
        if np.linalg.norm(p - q) >= min_sep:
            return LineObservation(
                p, q, depth_p=float(rng.uniform(1, 4)), depth_q=float(rng.uniform(1, 4))
            )


def test_line_params_examples():
    params = line_params_from_endpoints([0, 0], [1, 0])
    assert np.allclose(params.normal, [0, -1])
    assert params.offset == 0.0
    params = line_params_from_endpoints([5, 0], [5, 9])
    assert np.allclose(params.normal, [1, 0])
    assert params.offset == 5.0
    with pytest.raises(DegenerateGeometryError):
        line_params_from_endpoints([3, 3], [3, 3])


def test_line_params_both_endpoints_on_line():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p, q = rng.uniform(0, 640, 2), rng.uniform(0, 640, 2)
        if np.linalg.norm(p - q) < 1:
            continue
        params = line_params_from_endpoints(p, q)
        assert abs(params.normal @ p - params.offset) < 1e-9
        assert abs(params.normal @ q - params.offset) < 1e-9
        assert abs(np.linalg.norm(params.normal) - 1) < 1e-12


def test_canonicalization():
    params = line_params_from_endpoints([0, 0], [0, 5])  # normal (-1, 0) direction
    canon = params.canonical()
    assert canon.normal[0] >= 0
    assert abs(abs(canon.offset) - abs(params.offset)) < 1e-12
    # the canonical line is the same set of points
    assert abs(canon.normal @ np.array([0, 3.0]) - canon.offset) < 1e-12


def test_distance_2d_values():
    line = line_params_from_endpoints([0, 0], [1, 0])  # x axis, n = (0, -1)
    pose = Se3Pose.identity()
    k = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
    assert np.isclose(distance_2d(line, pose, k, [3, 2, 1]), -2.0)
    assert np.isclose(distance_2d(line, pose, k, [3, 0, 1]), 0.0)


def test_distance_3d_values():
    seg = BackprojectedSegment([0, 0, 1], [1, 0, 1])
    assert np.isclose(distance_3d([0.5, 1, 1], seg), 1.0)
    assert np.isclose(distance_3d([7.0, 0, 1], seg), 0.0)  # on the infinite line


def test_distance_3d_projection_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        b_p, b_q = rng.normal(size=3), rng.normal(size=3)
        if np.linalg.norm(b_p - b_q) < 0.1:
            continue
        seg = BackprojectedSegment(b_p, b_q)
        x = rng.normal(size=3)
        axis = (b_q - b_p) / np.linalg.norm(b_q - b_p)
        foot = b_p + ((x - b_p) @ axis) * axis
        assert np.isclose(distance_3d(x, seg), np.linalg.norm(x - foot), atol=1e-12)


def test_endpoint_distance():
    assert endpoint_distance([1, 1, 1], [1, 1, 3]) == 2.0
    assert endpoint_distance([1, 1, 1], [1, 1, 1]) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b, c = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        assert endpoint_distance(a, c) <= endpoint_distance(a, b) + endpoint_distance(b, c) + 1e-12


def test_associate_endpoints():
    seg = BackprojectedSegment([0, 0, 1], [0, 0, 2])
    assert associate_endpoints(seg, [0, 0, 0.9], [0, 0, 2.1]) is EndpointPairing.DIRECT
    assert associate_endpoints(seg, [0, 0, 2.1], [0, 0, 0.9]) is EndpointPairing.SWAPPED
    # exact symmetry ties break to DIRECT
    assert associate_endpoints(seg, [0, 0, 1.5], [0, 0, 1.5]) is EndpointPairing.DIRECT


def test_backprojection_distance_basics():
    obs = LineObservation([300, 240], [340, 240], depth_p=2.0, depth_q=2.0)
    seg = BackprojectedSegment.from_observation(obs, K)
    pose = Se3Pose.identity()
    lm = LineLandmark(seg.b_p, seg.b_q)
    res = backprojection_distance(obs, pose, K, lm, 0.5, EndpointPairing.DIRECT)
    assert np.allclose(res, 0, atol=1e-12)

    # displaced along the backprojected line: d3D = 0, dP = displacement
    axis = (seg.b_q - seg.b_p) / np.linalg.norm(seg.b_q - seg.b_p)
    lm2 = LineLandmark(seg.b_p + 0.05 * axis, seg.b_q)
    res = backprojection_distance(obs, pose, K, lm2, 1.0, EndpointPairing.DIRECT)
    assert np.isclose(res[0], 0.05, atol=1e-9)
    # mu = 0 keeps only the perpendicular part
    res = backprojection_distance(obs, pose, K, lm2, 0.0, EndpointPairing.DIRECT)
    assert np.isclose(res[0], 0.0, atol=1e-12)

    mono = LineObservation([300, 240], [340, 240])
    with pytest.raises(DegenerateGeometryError):
        backprojection_distance(mono, pose, K, lm, 0.5, EndpointPairing.DIRECT)


def test_distance_2d_variance_matches_numeric_propagation():
    rng = np.random.default_rng(3)
    for _ in range(100):
        obs = random_stereo_obs(rng)
        pose = random_pose(rng, 0.2)
        x_w = pose.inverse().transform(np.append(rng.uniform(-1, 1, 2), rng.uniform(1, 4)))
        sigma = rng.uniform(0.5, 2.0)
        var = distance_2d_variance(obs, pose, K, x_w, sigma)

        def f(pq):
            params = line_params_from_endpoints(pq[:2], pq[2:])
            return distance_2d(params, pose, K, x_w)

        j = fd_vector(f, np.concatenate([obs.p, obs.q]))
        numeric = sigma * sigma * float(j @ j)
        assert abs(var - numeric) / numeric < 1e-6
        assert var > 0


def test_distance_2d_variance_scales_with_sigma():
    rng = np.random.default_rng(4)
    obs = random_stereo_obs(rng)
    pose = Se3Pose.identity()
    x_w = np.array([0.2, -0.1, 2.0])
    v1 = distance_2d_variance(obs, pose, K, x_w, 1.0)
    v2 = distance_2d_variance(obs, pose, K, x_w, 2.0)
    assert np.isclose(v2, 4.0 * v1)


def test_normal_covariance_translation_invariant():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p, q = rng.uniform(0, 500, 2), rng.uniform(0, 500, 2)
        if np.linalg.norm(p - q) < 10:
            continue
        shift = rng.uniform(-50, 50, 2)
        a = normal_covariance(p, q, 1.0)
        b = normal_covariance(p + shift, q + shift, 1.0)
        assert np.allclose(a, b, atol=1e-12)
        assert offset_variance(p, q, 1.0) > 0


def test_backprojected_point_covariance_principal_point():
    sigma_li, sigma_d = 0.8, 0.01
    depth = 2.0
    cov = backprojected_point_covariance([K.cx, K.cy], depth, K, sigma_li, sigma_d)
    expected = np.diag(
        [
            depth**2 * sigma_li**2 / K.fx**2,
            depth**2 * sigma_li**2 / K.fy**2,
            sigma_d**2,
        ]
    )
    assert np.allclose(cov, expected, atol=1e-15)


def test_backprojected_point_covariance_assembly_oracle():
    rng = np.random.default_rng(6)
    from pointline.geometry import backproject

    for _ in range(100):
        pixel = rng.uniform(0, 640, 2)
        depth = rng.uniform(0.3, 6)
        sigma_li, sigma_d = rng.uniform(0.3, 2), rng.uniform(0.001, 0.05)
        cov = backprojected_point_covariance(pixel, depth, K, sigma_li, sigma_d)
        j = fd_vector(
            lambda x: backproject(K, x[:2], x[2]), np.array([pixel[0], pixel[1], depth])
        )
        numeric = j @ np.diag([sigma_li**2, sigma_li**2, sigma_d**2]) @ j.T
        assert rel_err(cov, numeric) < 1e-6
        np.linalg.cholesky(cov + 1e-18 * np.eye(3))


def test_backprojected_point_covariance_rank_two_when_axial_noise_zero():
    cov = backprojected_point_covariance([100, 100], 2.0, K, 1.0, 0.0)
    eigs = np.linalg.eigvalsh(cov)
    assert eigs[0] < 1e-15 and eigs[1] > 0


def test_backprojection_distance_covariance_numeric_oracle():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 60:
        obs = random_stereo_obs(rng)
        pose = random_pose(rng, 0.2)
        seg = BackprojectedSegment.from_observation(obs, K)
        lm = LineLandmark(
            pose.inverse().transform(seg.b_p + rng.normal(size=3) * 0.2),
            pose.inverse().transform(seg.b_q + rng.normal(size=3) * 0.2),
        )
        mu = 0.5
        assoc = associate_endpoints(seg, pose.transform(lm.p), pose.transform(lm.q))
        sigma_li = 0.8
        cov = backprojection_distance_covariance(obs, pose, K, lm, mu, assoc, sigma_li, DEPTH)
        assert cov[0, 1] == 0.0 and cov[1, 0] == 0.0

        cov_p = backprojected_point_covariance(
            obs.p, obs.depth_p, K, sigma_li, sigma_z(DEPTH, obs.depth_p)
        )
        cov_q = backprojected_point_covariance(
            obs.q, obs.depth_q, K, sigma_li, sigma_z(DEPTH, obs.depth_q)
        )
        big = np.zeros((6, 6))
        big[:3, :3] = cov_p
        big[3:, 3:] = cov_q
        b0 = np.concatenate([seg.b_p, seg.b_q])
        for row, x_w in enumerate([lm.p, lm.q]):
            x_c = pose.transform(x_w)
            direct = assoc is EndpointPairing.DIRECT
            takes_bp = direct if row == 0 else not direct

            def f(b6):
                s = BackprojectedSegment(b6[:3], b6[3:])
                paired = b6[:3] if takes_bp else b6[3:]
                return distance_3d(x_c, s) + mu * np.linalg.norm(x_c - paired)

            j = fd_vector(f, b0, step=1e-7)
            numeric = float(j @ big @ j)
            assert abs(cov[row, row] - numeric) / numeric < 1e-5
        checked += 1


def test_backprojection_distance_covariance_mu_zero_reduction():
    rng = np.random.default_rng(8)
    obs = random_stereo_obs(rng)
    pose = Se3Pose.identity()
    seg = BackprojectedSegment.from_observation(obs, K)
    lm = LineLandmark(seg.b_p + [0.3, 0.2, 0.1], seg.b_q + [0.1, -0.2, 0.3])
    cov_mu0 = backprojection_distance_covariance(
        obs, pose, K, lm, 0.0, EndpointPairing.DIRECT, 0.8, DEPTH
    )
    # mu = 0 reduces to propagating the perpendicular distance alone
    from pointline.lines import _distance_3d_rows

    cov_p = backprojected_point_covariance(
        obs.p, obs.depth_p, K, 0.8, sigma_z(DEPTH, obs.depth_p)
    )
    cov_q = backprojected_point_covariance(
        obs.q, obs.depth_q, K, 0.8, sigma_z(DEPTH, obs.depth_q)
    )
    for row, x_w in enumerate((lm.p, lm.q)):
        row_bp, row_bq = _distance_3d_rows(pose.transform(x_w), seg)
        expected = row_bp @ cov_p @ row_bp + row_bq @ cov_q @ row_bq
        assert np.isclose(cov_mu0[row, row], expected, rtol=1e-12)
    assert np.all(np.diag(cov_mu0) > 0)


def test_backprojection_distance_covariance_degenerate_when_consistent():
    # landmark exactly on the backprojection: both derivative factors sit at
    # their singular loci and the propagated variance vanishes
    obs = LineObservation([300, 240], [340, 240], depth_p=2.0, depth_q=2.0)
    seg = BackprojectedSegment.from_observation(obs, K)
    lm = LineLandmark(seg.b_p, seg.b_q)
    with pytest.raises(DegenerateGeometryError):
        backprojection_distance_covariance(
            obs, Se3Pose.identity(), K, lm, 0.5, EndpointPairing.DIRECT, 0.8, DEPTH
        )


def test_distance_2d_jacobian_camera_frame_row():
    # n = (0, -1), point on the optical axis at z=1: row w.r.t. the
    # camera-frame point is (0, -fy, 0); with an identity pose the landmark
    # jacobian equals that row
    k = CameraIntrinsics(100.0, 100.0, 0.0, 0.0)
    line = line_params_from_endpoints([0, 0], [1, 0])
    _, j_point = distance_2d_jacobians(line, Se3Pose.identity(), k, [0, 0, 1.0])
    assert np.allclose(j_point, [0, -100, 0])


def test_endpoint_distance_jacobian_unit_direction():
    b = np.array([0.1, -0.2, 2.0])
    pose = random_pose(np.random.default_rng(9), 0.3)
    x_w = pose.inverse().transform(b + [0, 0, 1.0])
    _, j_point = endpoint_distance_jacobians(b, pose, x_w)
    assert np.allclose(j_point, np.array([0, 0, 1.0]) @ pose.rotation, atol=1e-12)


def test_line_jacobians_match_finite_differences():
    rng = np.random.default_rng(10)
    mu = 0.5
    for _ in range(100):
        obs = random_stereo_obs(rng)
        pose = random_pose(rng, 0.2)
        seg = BackprojectedSegment.from_observation(obs, K)
        x_w = pose.inverse().transform(seg.b_p + rng.normal(size=3) * 0.3)
        x_c = pose.transform(x_w)
        if x_c[2] < 0.5 or np.linalg.norm(np.cross(x_c - seg.b_p, x_c - seg.b_q)) < 1e-4:
            continue
        params = obs.line_params()

        jp, jx = distance_2d_jacobians(params, pose, K, x_w)
        assert rel_err(jp, fd_pose(lambda T: distance_2d(params, T, K, x_w), pose)) < 1e-5
        assert rel_err(jx, fd_vector(lambda X: distance_2d(params, pose, K, X), x_w)) < 1e-5

        jp, jx = distance_3d_jacobians(seg, pose, x_w)
        assert rel_err(jp, fd_pose(lambda T: distance_3d(T.transform(x_w), seg), pose)) < 1e-5
        assert rel_err(jx, fd_vector(lambda X: distance_3d(pose.transform(X), seg), x_w)) < 1e-5

        jp, jx = endpoint_distance_jacobians(seg.b_p, pose, x_w)
        f = lambda T: endpoint_distance(T.transform(x_w), seg.b_p)
        assert rel_err(jp, fd_pose(f, pose)) < 1e-5
        assert rel_err(jx, fd_vector(lambda X: endpoint_distance(pose.transform(X), seg.b_p), x_w)) < 1e-5

        jp, jx = backprojection_distance_jacobians(seg, seg.b_p, pose, x_w, mu)
        f = lambda T: distance_3d(T.transform(x_w), seg) + mu * endpoint_distance(
            T.transform(x_w), seg.b_p
        )
        assert rel_err(jp, fd_pose(f, pose)) < 1e-5


def test_jacobian_singular_loci():
    obs = LineObservation([300, 240], [340, 240], depth_p=2.0, depth_q=2.0)
    seg = BackprojectedSegment.from_observation(obs, K)
    pose = Se3Pose.identity()
    on_line = seg.b_p  # on the backprojected line and at the endpoint
    with pytest.raises(SingularJacobianError):
        distance_3d_jacobians(seg, pose, on_line)
    with pytest.raises(SingularJacobianError):
        endpoint_distance_jacobians(seg.b_p, pose, on_line)
    jp, jx = distance_3d_jacobians(seg, pose, on_line, on_singular="zero")
    assert np.all(jp == 0) and np.all(jx == 0)


def test_gauge_null_space_property():
    # at a zero-noise configuration the 2D term is first-order blind to
    # sliding an endpoint along the 3D line, while the endpoint distance
    # changes at unit rate
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 50:
        pose = random_pose(rng, 0.2)
        p_w = pose.inverse().transform(np.append(rng.uniform(-1, 1, 2), rng.uniform(1.5, 3)))
        q_w = pose.inverse().transform(np.append(rng.uniform(-1, 1, 2), rng.uniform(1.5, 3)))
        if np.linalg.norm(p_w - q_w) < 0.3:
            continue
        p_c, q_c = pose.transform(p_w), pose.transform(q_w)
        p_px, q_px = project(K, p_c), project(K, q_c)
        if np.linalg.norm(p_px - q_px) < 30:
            continue
        params = line_params_from_endpoints(p_px, q_px)
        direction = (q_w - p_w) / np.linalg.norm(q_w - p_w)
        _, j2 = distance_2d_jacobians(params, pose, K, p_w)
        assert abs(j2 @ direction) < 1e-9 * max(np.abs(j2).max(), 1.0)
        # displaced backprojection along the line: dP changes at unit rate
        dir_c = pose.rotation @ direction
        b_displaced = p_c - 0.2 * dir_c
        _, jp_dp = endpoint_distance_jacobians(b_displaced, pose, p_w)
        assert abs(jp_dp @ direction - 1.0) < 1e-9
        checked += 1


def test_observation_validation():
    with pytest.raises(DegenerateGeometryError):
        LineObservation([0, 0], [1, 0])  # below the 5 px default
    obs = LineObservation([0, 0], [1, 0], min_length=0.5)
    assert not obs.is_stereo
    with pytest.raises(DegenerateGeometryError):
        LineLandmark([1, 1, 1], [1, 1, 1])
    with pytest.raises(DegenerateGeometryError):
        BackprojectedSegment([1, 1, 1], [1, 1, 1])
