"""Shows that every benchmark check passes on true outputs and fails on a
deliberately corrupted copy of them.

    python3 bench/check_selftest.py

Runs a small BA scene and a small voma round (a few seconds) and exits 1 if
a check accepts a corrupted output or rejects a true one.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import run  # pins BLAS to one thread before numpy loads

run.import_library()

import numpy as np  # noqa: E402
from pointline import ba  # noqa: E402
from pointline.geometry import Se3Pose, so3_exp  # noqa: E402
from pointline.harness import HarnessConfig, experiments, metrics, scene  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from host import Clock  # noqa: E402

SMALL = dict(keyframes=8, points=60, lines=12, max_iters=8)


def expect(label: str, problems: list[str], should_fail: bool) -> bool:
    ok = bool(problems) == should_fail
    verdict = "ok" if ok else "WRONG"
    print(f"{verdict:5s} {'corrupted' if should_fail else 'true':9s} {label}: {problems[:1] or 'passes'}")
    return ok


def ba_cases() -> list[bool]:
    cfg = HarnessConfig(seed=3, **SMALL)
    truth, smap = scene.generate_scene(cfg)
    problem = ba.assemble_problem(smap, experiments.ba_config(cfg))
    schedule = experiments.lm_schedule(cfg)
    values, report = ba.optimize(problem, schedule)
    exp = metrics.evaluate_solution(truth, smap, values, report, "ba")
    check = lambda v=values, r=report, e=exp: checks.check_ba_solution(truth, smap, v, r, e)
    results = [expect("BA solution", check(), False)]

    moved = copy.deepcopy(values)
    for pid in moved.points:
        moved.points[pid] = moved.points[pid] + 0.05
    results.append(expect("points moved 5 cm (reprojection)", check(v=moved), True))

    gain = lambda v=values: checks.check_accuracy_gain([(truth, smap, v)])
    results.append(expect("ATE and line RMSE gain", gain(), False))
    init_poses, _, init_lines = checks.initial_values(smap)
    stale = dataclasses.replace(values, poses=dict(init_poses))
    results.append(expect("initial poses returned (ATE)", gain(stale), True))
    stale = dataclasses.replace(values, lines=dict(init_lines))
    results.append(expect("initial lines returned (line RMSE)", gain(stale), True))

    skewed = dataclasses.replace(exp, pose_translation_rmse=exp.pose_translation_rmse * 1.01)
    results.append(expect("library ATE off by 1%", check(e=skewed), True))

    rising = copy.deepcopy(report)
    accepted = [row for row in rising.rows if row.accepted]
    accepted[-1].cost = rising.initial_cost * 2
    results.append(expect("an accepted cost rises", check(r=rising), True))
    worse = copy.deepcopy(report)
    worse.final_cost = float("nan")
    results.append(expect("final cost NaN", check(r=worse), True))

    schur, dense = workloads.schur_and_dense_steps(workloads.Scene(cfg, truth, smap))
    results.append(expect("Schur step", checks.check_schur_step(schur, dense), False))
    results.append(expect("Schur step off by 1e-7", checks.check_schur_step(schur * (1 + 1e-7), dense), True))
    return results


def voma_cases() -> list[bool]:
    cfg = HarnessConfig(
        seed=6, voma_image_width=40, voma_image_height=30, voma_fx=38.0, voma_fy=38.0, **SMALL
    )
    wl = workloads.VomaWorkload()
    inp = wl.setup(0, 0, Clock(), cfg)
    rnd = wl.round(inp)
    out = rnd.voma
    values = rnd.solves[0][1]
    octree = out["map"]
    # The round's BA goes through the same checks as ba_cases; on this scene
    # its line RMSE ends above the start (20.2 mm against 20.0 mm), a fault
    # of the BA that VomaWorkload.check reports. The map checks alone here:
    results = [expect("voma map", (
        checks.check_flags(out["flags"])
        + checks.check_group_by(octree, out["clouds"], values.poses)
        + checks.check_normals(out["clouds"], inp["renders"], inp["sc"].truth.poses)
        + checks.check_exports(out["ply"], out["csv"], octree.n_cells)
    ), False)]

    results.append(expect(
        "one integrity flag false",
        checks.check_flags(dict(out["flags"], rebuild_equals_fresh=False)), True,
    ))
    index, cell = octree.cells()[len(octree.cells()) // 2]
    cell.count += 1
    results.append(expect("one cell count +1", checks.check_group_by(octree, out["clouds"], values.poses), True))
    cell.count -= 1
    cell.position_sum = cell.position_sum + 1e-5
    results.append(expect(
        "one cell sum moved 10 um", checks.check_group_by(octree, out["clouds"], values.poses), True
    ))
    cell.position_sum = cell.position_sum - 1e-5
    results.append(expect(
        "restored map", checks.check_group_by(octree, out["clouds"], values.poses), False
    ))

    tilt = so3_exp(np.array([np.deg2rad(1.0), 0.0, 0.0]))
    tilted = []
    for kf_id, cloud in out["clouds"]:
        bad = copy.copy(cloud)
        bad.normals = cloud.normals @ tilt.T
        tilted.append((kf_id, bad))
    results.append(expect(
        "normals tilted 1 deg", checks.check_normals(tilted, inp["renders"], inp["sc"].truth.poses), True
    ))

    n = octree.n_cells
    ply_short = out["ply"].rsplit("\n", 2)[0] + "\n"
    csv_short = out["csv"].rsplit("\n", 2)[0] + "\n"
    results.append(expect("PLY missing a row", checks.check_exports(ply_short, out["csv"], n), True))
    results.append(expect("CSV missing a row", checks.check_exports(out["ply"], csv_short, n), True))

    shifted = dict(values.poses)
    first = next(iter(shifted))
    shifted[first] = Se3Pose(shifted[first].rotation, shifted[first].translation + 0.01)
    results.append(expect(
        "group-by under other poses", checks.check_group_by(octree, out["clouds"], shifted), True
    ))
    return results


def main() -> int:
    results = ba_cases() + voma_cases()
    print(f"{sum(results)}/{len(results)} cases as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
