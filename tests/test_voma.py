from collections import defaultdict

import numpy as np
import pytest

from pointline.errors import MapperQueueFullError, PointlineError
from pointline.geometry import CameraIntrinsics, Se3Pose, se3_exp
from pointline.voma import (
    ArchivedKeyframe,
    DepthImage,
    OctreeMap,
    PointCloud,
    VolumetricMapper,
    backproject_depth_image,
    estimate_normals,
    export_csv,
    export_ply,
    extract_global_cloud,
    integrate_cloud,
    maps_equal,
    rebuild_on_adjustment,
)

K = CameraIntrinsics(60.0, 60.0, 32.0, 24.0)


def test_backproject_constant_depth_contains_principal_ray():
    img = DepthImage(np.full((48, 64), 2.0))
    cloud = backproject_depth_image(img, K, with_normals=False)
    assert len(cloud) == 48 * 64
    assert np.any(np.all(np.isclose(cloud.points, [0, 0, 2.0]), axis=1))


def test_backproject_skips_missing_and_counts():
    rng = np.random.default_rng(0)
    depths = np.full((40, 50), 3.0)
    dropout = rng.random(depths.shape) < 0.3
    depths[dropout] = np.nan
    cloud = backproject_depth_image(DepthImage(depths), K, with_normals=False)
    assert len(cloud) == int(np.isfinite(depths).sum())
    empty = backproject_depth_image(DepthImage(np.full((8, 8), np.nan)), K)
    assert len(empty) == 0


def test_normals_fronto_parallel_plane():
    img = DepthImage(np.full((20, 30), 2.0))
    normals = estimate_normals(img, K)
    inner = normals[1:-1, 1:-1]
    assert np.allclose(inner, [0, 0, -1], atol=1e-9)
    assert np.all(np.isnan(normals[0])) and np.all(np.isnan(normals[:, 0]))


def test_normals_slanted_plane_analytic():
    n = np.array([0.35, -0.1, -0.93])
    n /= np.linalg.norm(n)
    c = -1.5
    u, v = np.meshgrid(np.arange(30.0), np.arange(20.0))
    denom = n[0] * (u - K.cx) / K.fx + n[1] * (v - K.cy) / K.fy + n[2]
    img = DepthImage(c / denom)
    normals = estimate_normals(img, K)
    inner = normals[1:-1, 1:-1].reshape(-1, 3)
    angles = np.degrees(np.arccos(np.clip(inner @ n, -1, 1)))
    assert angles.max() < 0.5


def test_normals_isolated_pixel_missing():
    depths = np.full((9, 9), np.nan)
    depths[4, 4] = 2.0
    normals = estimate_normals(DepthImage(depths), K)
    assert np.all(np.isnan(normals[4, 4]))


def test_two_points_one_cell_centroid():
    tree = OctreeMap(0.01, max_extent=1.0)
    cloud = PointCloud(np.array([[0.001, 0, 0], [0.009, 0, 0]]))
    report = integrate_cloud(tree, cloud, Se3Pose.identity())
    assert report == {"new_cells": 1, "updated_cells": 0}
    cells = tree.cells()
    assert len(cells) == 1
    index, cell = cells[0]
    assert index == (0, 0, 0)
    assert np.allclose(cell.position_sum / cell.count, [0.005, 0, 0])


def test_double_integration_keeps_centroids():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.5, 0.5, size=(500, 3))
    tree = OctreeMap(0.05, max_extent=2.0)
    integrate_cloud(tree, PointCloud(pts), Se3Pose.identity())
    first = {tuple(i): c.position_sum / c.count for i, c in tree.cells()}
    integrate_cloud(tree, PointCloud(pts), Se3Pose.identity())
    for index, cell in tree.cells():
        assert cell.count % 2 == 0
        assert np.allclose(cell.position_sum / cell.count, first[tuple(index)], atol=1e-12)


def test_group_by_oracle_random_cloud():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(4000, 3))
    res = 0.07
    tree = OctreeMap(res, max_extent=4.0)
    integrate_cloud(tree, PointCloud(pts), Se3Pose.identity())
    groups = defaultdict(list)
    for p in pts:
        groups[tuple(np.floor(p / res).astype(int))].append(p)
    cells = {tuple(i): c for i, c in tree.cells()}
    assert set(cells) == set(groups)
    assert len(cells) <= len(pts)
    for key, members in groups.items():
        assert np.allclose(
            cells[key].position_sum / cells[key].count, np.mean(members, axis=0), atol=1e-12
        )


def test_half_open_boundary_convention():
    tree = OctreeMap(0.1, max_extent=1.0)
    cloud = PointCloud(np.array([[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]]))
    integrate_cloud(tree, cloud, Se3Pose.identity())
    indices = {tuple(i) for i, _ in tree.cells()}
    assert (1, 0, 0) in indices  # 0.1 belongs to [0.1, 0.2)
    assert (-1, 0, 0) in indices  # -0.1 belongs to [-0.1, 0.0)


def test_centroids_inside_their_cells():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(2000, 3))
    res = 0.13
    tree = OctreeMap(res, max_extent=8.0)
    integrate_cloud(tree, PointCloud(pts), Se3Pose.identity())
    for index, cell in tree.cells():
        centroid = cell.position_sum / cell.count
        lo = np.array(index) * res
        assert np.all(centroid >= lo - 1e-12) and np.all(centroid < lo + res + 1e-12)


def test_integration_order_independence():
    rng = np.random.default_rng(4)
    clouds = [PointCloud(rng.uniform(-1, 1, size=(300, 3))) for _ in range(5)]
    poses = [se3_exp(rng.normal(size=6) * 0.1) for _ in range(5)]

    def build(order):
        tree = OctreeMap(0.05, max_extent=4.0)
        for i in order:
            integrate_cloud(tree, clouds[i], poses[i])
        return tree

    a = build([0, 1, 2, 3, 4])
    b = build([4, 2, 0, 3, 1])
    assert maps_equal(a, b, tol=1e-12)


def test_extraction_identity_and_purity():
    tree = OctreeMap(0.02, max_extent=1.0)
    point = np.array([0.123, -0.321, 0.044])
    normal = np.array([0.0, 0.0, -1.0])
    cloud = PointCloud(point[None, :], colors=np.array([[10, 20, 30]]), normals=normal[None, :])
    integrate_cloud(tree, cloud, Se3Pose.identity())
    key_before = tree.content_key()
    out = extract_global_cloud(tree)
    assert tree.content_key() == key_before
    assert np.allclose(out.points[0], point, atol=1e-15)
    assert np.array_equal(out.colors[0], [10, 20, 30])
    assert np.allclose(out.normals[0], normal)
    empty = extract_global_cloud(OctreeMap(0.02, max_extent=1.0))
    assert len(empty) == 0


def test_color_mean_rounds_half_up():
    tree = OctreeMap(0.1, max_extent=1.0)
    cloud = PointCloud(
        np.array([[0.01, 0, 0], [0.02, 0, 0]]), colors=np.array([[10, 0, 0], [11, 0, 0]])
    )
    integrate_cloud(tree, cloud, Se3Pose.identity())
    out = extract_global_cloud(tree)
    assert out.colors[0, 0] == 11  # mean 10.5 rounds half-up


def test_rebuild_no_change_is_identical():
    rng = np.random.default_rng(5)
    tree = OctreeMap(0.05, max_extent=4.0)
    archive = []
    for kf_id in range(4):
        cloud = PointCloud(rng.uniform(-1, 1, size=(200, 3)))
        pose = se3_exp(rng.normal(size=6) * 0.1)
        integrate_cloud(tree, cloud, pose)
        archive.append(ArchivedKeyframe(kf_id, cloud, pose))
    rebuilt = rebuild_on_adjustment(tree, archive)
    assert maps_equal(tree, rebuilt, tol=0.0)


def test_rebuild_missing_cloud_rejected():
    tree = OctreeMap(0.05, max_extent=4.0)
    with pytest.raises(PointlineError):
        rebuild_on_adjustment(tree, [ArchivedKeyframe(0, None, Se3Pose.identity())])


def test_rebuild_equals_fresh_after_rigid_motion():
    rng = np.random.default_rng(6)
    clouds = [PointCloud(rng.uniform(-1, 1, size=(250, 3))) for _ in range(3)]
    poses = [se3_exp(rng.normal(size=6) * 0.1) for _ in range(3)]
    tree = OctreeMap(0.05, max_extent=8.0)
    archive = []
    for i, (cloud, pose) in enumerate(zip(clouds, poses)):
        integrate_cloud(tree, cloud, pose)
        archive.append(ArchivedKeyframe(i, cloud, pose))
    shift = se3_exp(np.array([0.05, -0.02, 0.08, 0.3, 0.2, -0.4]))
    new_poses = [pose.compose(shift) for pose in poses]
    for entry, pose in zip(archive, new_poses):
        entry.pose = pose
    rebuilt = rebuild_on_adjustment(tree, archive)
    fresh = OctreeMap(0.05, max_extent=8.0)
    for cloud, pose in zip(clouds, new_poses):
        integrate_cloud(fresh, cloud, pose)
    assert maps_equal(rebuilt, fresh, tol=1e-12)


def test_single_keyframe_voxel_shift():
    # translating the camera by exactly one voxel along +x (in world terms)
    # shifts every occupied cell index by one
    res = 0.05
    rng = np.random.default_rng(7)
    # grid-snapped points so the shift cannot cross cell boundaries unevenly
    base = rng.integers(-10, 10, size=(200, 3)) * res + res / 2.0
    cloud = PointCloud(base)
    tree = OctreeMap(res, max_extent=4.0)
    integrate_cloud(tree, cloud, Se3Pose.identity())
    shifted_pose = Se3Pose(np.eye(3), np.array([-res, 0.0, 0.0]))  # world +x shift
    tree2 = OctreeMap(res, max_extent=4.0)
    integrate_cloud(tree2, cloud, shifted_pose)
    idx1 = sorted(tuple(i) for i, _ in tree.cells())
    idx2 = sorted(tuple(i) for i, _ in tree2.cells())
    assert [(i + 1, j, k) for i, j, k in idx1] == idx2


def test_mapper_fifo_batching():
    rng = np.random.default_rng(8)
    clouds = [PointCloud(rng.uniform(-1, 1, size=(100, 3))) for _ in range(7)]
    mapper = VolumetricMapper(OctreeMap(0.05, max_extent=4.0), batch_size=3)
    for i, cloud in enumerate(clouds):
        mapper.submit(i, cloud, Se3Pose.identity())
    reports = mapper.process_batches()
    assert len(reports) == 6  # two full batches of three
    assert mapper.pending() == 1
    reports += mapper.process_batches(drain=True)
    assert len(reports) == 7
    assert [e.keyframe_id for e in mapper.archive] == list(range(7))


def test_batch_size_does_not_change_result():
    rng = np.random.default_rng(9)
    clouds = [PointCloud(rng.uniform(-1, 1, size=(150, 3))) for _ in range(6)]
    poses = [se3_exp(rng.normal(size=6) * 0.05) for _ in range(6)]

    def run(batch):
        mapper = VolumetricMapper(OctreeMap(0.05, max_extent=4.0), batch_size=batch)
        for i, (c, p) in enumerate(zip(clouds, poses)):
            mapper.submit(i, c, p)
        mapper.process_batches(drain=True)
        return mapper.octree

    assert maps_equal(run(1), run(5), tol=0.0)


def test_point_outside_root_rejected():
    tree = OctreeMap(0.1, max_extent=1.0)
    with pytest.raises(PointlineError):
        integrate_cloud(tree, PointCloud(np.array([[50.0, 0, 0]])), Se3Pose.identity())


def test_export_formats():
    tree = OctreeMap(0.1, max_extent=1.0)
    cloud_in = PointCloud(
        np.array([[0.05, 0.15, 0.25]]),
        colors=np.array([[1, 2, 3]]),
        normals=np.array([[0.0, 0.0, -1.0]]),
    )
    integrate_cloud(tree, cloud_in, Se3Pose.identity())
    cloud = extract_global_cloud(tree)
    ply = export_ply(cloud)
    head = ply.splitlines()
    assert head[0] == "ply" and "element vertex 1" in ply and "end_header" in ply
    body = ply.splitlines()[-1].split()
    assert len(body) == 9
    csv = export_csv(cloud)
    lines = csv.strip().splitlines()
    assert lines[0] == "x,y,z,r,g,b,nx,ny,nz"
    assert len(lines) == 2
    assert lines[1].split(",")[3:6] == ["1", "2", "3"]


def test_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 3)), colors=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((1, 3)), normals=np.array([[1.0, 1.0, 0.0]]))
    with pytest.raises(ValueError):
        DepthImage(np.array([[-1.0]]))
    with pytest.raises(ValueError):
        OctreeMap(0.0)


def _cloud_at_cells(indices, res):
    return PointCloud((np.array(indices, dtype=float) + 0.5) * res)


def test_cells_in_lexicographic_index_order():
    res = 0.1
    indices = [(-2, 5, 0), (1, -3, 2), (-2, -1, 7), (0, 0, 0), (1, -3, -4), (-1, 2, -2), (-10, -10, -10)]
    tree = OctreeMap(res, max_extent=2.0)
    integrate_cloud(tree, _cloud_at_cells(indices, res), Se3Pose.identity())
    assert [index for index, _ in tree.cells()] == sorted(indices)
    assert tree.n_cells == len(indices)


def test_cell_view_writes_reach_the_map():
    rng = np.random.default_rng(10)
    cloud = PointCloud(rng.uniform(-1, 1, size=(300, 3)))

    def build():
        tree = OctreeMap(0.1, max_extent=2.0)
        integrate_cloud(tree, cloud, Se3Pose.identity())
        return tree

    a, b = build(), build()
    key = b.content_key()
    index, cell = b.cells()[b.n_cells // 2]
    cell.count += 1
    assert not maps_equal(a, b, tol=0.0)
    assert b.content_key() != key
    cell.count -= 1
    assert maps_equal(a, b, tol=0.0) and b.content_key() == key
    # a view follows its cell when later integration inserts rows before it
    before = cell.position_sum.copy()
    integrate_cloud(b, PointCloud(np.array([[-1.9, -1.9, -1.9]])), Se3Pose.identity())
    assert np.array_equal(cell.position_sum, before)
    cell.position_sum = before + 1.0
    assert np.array_equal(dict(b.cells())[index].position_sum, before + 1.0)


def test_maps_equal_scales_tolerance_per_cell():
    res = 1.0
    points = np.array([[0.01, 0.02, 0.03], [1000.5, 0.5, 0.5]])
    a = OctreeMap(res, max_extent=2048.0)
    b = OctreeMap(res, max_extent=2048.0)
    for tree in (a, b):
        integrate_cloud(tree, PointCloud(points), Se3Pose.identity())
    tol = 1e-9
    small = b.cells()[0][1]
    assert small.position_sum.max() < 1.0
    small.position_sum = small.position_sum + 2 * tol  # within tol * 1000, the large cell's scale
    assert not maps_equal(a, b, tol=tol)
    small.position_sum = small.position_sum - 2 * tol + 0.5 * tol
    assert maps_equal(a, b, tol=tol)


def test_cell_key_bits_bounded():
    with pytest.raises(ValueError):
        OctreeMap(1e-6, max_extent=64.0)
    tree = OctreeMap(64.0 / 2**20, max_extent=64.0)  # 21 bits per axis, the most a key holds
    corner = np.array([[-64.0, -64.0, -64.0], [64.0 - 1e-9, 64.0 - 1e-9, 64.0 - 1e-9]])
    integrate_cloud(tree, PointCloud(corner), Se3Pose.identity())
    assert [index for index, _ in tree.cells()] == [(-(2**20),) * 3, (2**20 - 1,) * 3]


def test_mapper_full_queue_raises_instead_of_blocking():
    rng = np.random.default_rng(11)
    clouds = [PointCloud(rng.uniform(-1, 1, size=(50, 3))) for _ in range(3)]
    mapper = VolumetricMapper(OctreeMap(0.05, max_extent=4.0), queue_capacity=2)
    mapper.submit(0, clouds[0], Se3Pose.identity())
    mapper.submit(1, clouds[1], Se3Pose.identity())
    with pytest.raises(MapperQueueFullError):
        mapper.submit(2, clouds[2], Se3Pose.identity())
    assert mapper.pending() == 2 and mapper.archive == []
    assert len(mapper.process_batches(drain=True)) == 2
    assert [e.keyframe_id for e in mapper.archive] == [0, 1]
    expected = OctreeMap(0.05, max_extent=4.0)
    for cloud in clouds[:2]:
        integrate_cloud(expected, cloud, Se3Pose.identity())
    assert maps_equal(mapper.octree, expected, tol=0.0)
    mapper.submit(2, clouds[2], Se3Pose.identity())
    assert mapper.pending() == 1
    with pytest.raises(ValueError):
        VolumetricMapper(OctreeMap(0.05, max_extent=4.0), queue_capacity=0)


def _reference_rows(cloud, sep):
    colors = cloud.colors if cloud.colors is not None else np.zeros((len(cloud), 3), int)
    normals = cloud.normals if cloud.normals is not None else np.zeros((len(cloud), 3))
    return [
        sep.join([f"{v:.9g}" for v in p] + [str(int(c)) for c in col] + [f"{v:.9g}" for v in n])
        for p, col, n in zip(cloud.points, colors, normals)
    ]


def test_export_bytes_match_per_value_formatting():
    points = np.array([[-0.0, 1e-300, 1e12], [0.1, -2.5e-7, 123456789.123], [np.nan, np.inf, -1e-5]])
    colors = np.array([[0, 128, 255], [1, 2, 3], [9, 9, 9]], dtype=np.uint8)
    normals = np.array([[-0.0, 0.0, -1.0], [0.6, -0.8, 0.0], [np.nan] * 3])
    clouds = [
        PointCloud(points),
        PointCloud(points, colors=colors),
        PointCloud(points, normals=normals),
        PointCloud(points, colors=colors, normals=normals),
        PointCloud(np.zeros((0, 3))),
    ]
    for cloud in clouds:
        ply = export_ply(cloud)
        head = ply[: ply.index("end_header\n") + len("end_header\n")]
        assert ply == head + "".join(row + "\n" for row in _reference_rows(cloud, " "))
        assert export_csv(cloud) == "x,y,z,r,g,b,nx,ny,nz\n" + "".join(
            row + "\n" for row in _reference_rows(cloud, ",")
        )
    assert "-0 1e-300 1e+12 0 128 255 -0 0 -1\n" in export_ply(clouds[3])
