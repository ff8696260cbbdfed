"""The benchmark's workloads: inputs from a seed, one timed round, its checks.

Every call into the library goes through a module attribute (``ba.optimize``,
``voma.integrate_cloud``, ...) so that a traced round sees the wrappers that
``spans.Tracer.installed`` puts there.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from pointline import ba, voma
from pointline.errors import PointlineError
from pointline.geometry import CameraIntrinsics
from pointline.harness import HarnessConfig, experiments, metrics, scene

import checks
from host import Clock

# 60 keyframes / 2,000 points / 150 lines: 110k terms, 7.2k parameters, a
# 417 MB dense H. The LM budget is capped at 3 steps: the first is accepted
# and, on the seeds measured, the next nine are all rejected, so a larger cap
# lengthens a solve without changing its result. Three scenes a run keep the
# median accuracy steady (one scene's ATE spreads ~20 % between seeds), and
# one round of them is as long as a run can afford.
LARGE_SCENE = dict(keyframes=60, points=2000, lines=150, max_iters=3)
# Warm-up instance: runs every code path of a round in well under a second.
TINY_SCENE = dict(
    keyframes=6, points=60, lines=12, max_iters=3,
    voma_image_width=16, voma_image_height=12, voma_fx=15.0, voma_fy=15.0,
)


@dataclass
class Round:
    """What one timed round did; the workload's checks read it afterwards.

    ``clock`` times each step of the round by name. Steps named ``fuse.*``
    are fresh-map builds of ``fused_keyframes`` keyframes in all, steps named
    ``rebuild.*`` are map rebuilds.
    """

    attempted: int
    failed: int = 0
    clock: Clock = field(default_factory=Clock)
    solves: list = field(default_factory=list)  # (scene, values, report, experiment)
    fused_keyframes: int = 0
    voma: dict | None = None  # map outputs of a voma round


@dataclass
class Scene:
    cfg: HarnessConfig
    truth: object
    smap: object


def _solve(sc: Scene, rnd: Round, prefix: str):
    config = experiments.ba_config(sc.cfg)
    problem = rnd.clock.step(f"{prefix}.assemble", ba.assemble_problem, sc.smap, config)
    return rnd.clock.step(f"{prefix}.optimize", ba.optimize, problem, experiments.lm_schedule(sc.cfg))


def schur_and_dense_steps(sc: Scene):
    """The first damped LM step at the initial state, by each linear solver."""
    problem = ba.assemble_problem(sc.smap, experiments.ba_config(sc.cfg))
    schedule = experiments.lm_schedule(sc.cfg)
    return tuple(
        ba.lm_step(problem, schedule.lambda0, problem.initial_state,
                   dataclasses.replace(schedule, linear_solver=solver))[0]
        for solver in ("schur", "dense")
    )


# -- volumetric helpers shared by the voma round and the map probe --------------


def voma_intrinsics(cfg: HarnessConfig) -> CameraIntrinsics:
    return CameraIntrinsics(
        cfg.voma_fx, cfg.voma_fy, cfg.voma_image_width / 2.0, cfg.voma_image_height / 2.0
    )


def render_keyframes(cfg: HarnessConfig, truth, kf_ids) -> dict:
    """Room depth image, wall normals and wall ids per keyframe at its true pose."""
    intr = voma_intrinsics(cfg)
    return {
        kf_id: experiments.render_room_depth(
            truth.poses[kf_id], cfg.room_size, intr, cfg.voma_image_width, cfg.voma_image_height
        )
        for kf_id in kf_ids
    }


def _fuse(cfg: HarnessConfig, clouds, poses, batch: int):
    mapper = voma.VolumetricMapper(
        voma.OctreeMap(cfg.voma_resolution, max_extent=cfg.room_size), batch_size=batch
    )
    for kf_id, cloud in clouds:
        mapper.submit(kf_id, cloud, poses[kf_id])
    mapper.process_batches(drain=True)
    return mapper


def fresh_map(rnd: Round, name: str, cfg: HarnessConfig, clouds, poses, batch: int):
    """Fuse every cloud through the mapper FIFO into a new map, as step fuse.<name>."""
    rnd.fused_keyframes += len(clouds)
    return rnd.clock.step(f"fuse.{name}", _fuse, cfg, clouds, poses, batch)


# -- bundle adjustment ---------------------------------------------------------------


class BaWorkload:
    """Closed loop of full BA solves: assemble, optimize, evaluate per scene.

    Round ``r`` of run seed ``seed`` solves scenes of seeds
    ``1000 * seed + scenes * r + i``: every round of a run draws new scenes,
    so the run's accuracy medians are taken over all of them, and no two run
    seeds share a scene. An operation is one solve; it fails when the
    library raises.
    """

    def __init__(self, scenes: int, rounds: int, schur_check: bool, **overrides):
        self.scenes = scenes
        self.rounds = rounds
        self.schur_check = schur_check
        self.overrides = overrides

    def setup(self, seed: int, index: int, clock: Clock) -> list[Scene]:
        """The scenes of round ``index``."""
        first = 1000 * seed + self.scenes * index
        cfgs = [HarnessConfig(seed=first + i, **self.overrides) for i in range(self.scenes)]
        return [Scene(cfg, *clock.step("scene", scene.generate_scene, cfg)) for cfg in cfgs]

    def warmup(self):
        cfg = HarnessConfig(**TINY_SCENE)
        self.round([Scene(cfg, *scene.generate_scene(cfg))])

    def round(self, scenes: list[Scene]) -> Round:
        rnd = Round(attempted=len(scenes))
        for i, sc in enumerate(scenes):
            try:
                values, report = _solve(sc, rnd, f"scene{i}")
                experiment = rnd.clock.step(
                    f"scene{i}.evaluate",
                    metrics.evaluate_solution, sc.truth, sc.smap, values, report, "ba",
                )
            except PointlineError:
                rnd.failed += 1
                continue
            rnd.solves.append((sc, values, report, experiment))
        return rnd

    def check(self, scenes: list[Scene], rnd: Round) -> list[str]:
        problems = []
        for sc, values, report, experiment in rnd.solves:
            problems += [
                f"seed {sc.cfg.seed}: {p}"
                for p in checks.check_ba_solution(sc.truth, sc.smap, values, report, experiment)
            ]
        return problems

    def run_checks(self, seed: int) -> list[str]:
        """Once per run, on the CLI default scene (seed 0, the same in every
        run): one damped Schur step against the dense solve. On about 5 % of
        scene seeds the damped system is near-singular and the two solves
        part by ~1e-9 relative, a fault of the program (CHANGES.md), so a
        check on a seed-drawn scene would fail only on some run seeds."""
        if not self.schur_check:
            return []
        cfg = HarnessConfig(**self.overrides)
        sc = Scene(cfg, *scene.generate_scene(cfg))
        return [f"seed {cfg.seed}: {p}" for p in checks.check_schur_step(*schur_and_dense_steps(sc))]

    def probe_setup(self) -> dict:
        """Inputs of the map probe: voma_default's map, i.e. the CLI default
        scene's (seed 0) room depth clouds at its initial and at its
        BA-adjusted poses. They do not depend on the run seed, so the probe
        does the same work in every run."""
        cfg = HarnessConfig()
        sc = Scene(cfg, *scene.generate_scene(cfg))
        kf_ids = sorted(sc.truth.poses)
        intr = voma_intrinsics(cfg)
        renders = render_keyframes(cfg, sc.truth, kf_ids)
        problem = ba.assemble_problem(sc.smap, experiments.ba_config(cfg))
        values, _ = ba.optimize(problem, experiments.lm_schedule(cfg))
        return dict(
            cfg=cfg,
            clouds=[(k, voma.backproject_depth_image(renders[k][0], intr)) for k in kf_ids],
            initial={k: sc.smap.keyframes[k].pose for k in kf_ids},
            adjusted=values.poses,
        )

    def map_probe(self, inp: dict) -> Round:
        """Fuse the probe's clouds into a fresh map and rebuild it under
        unchanged and under BA-adjusted poses, as voma_default does. The run
        calls this after each timed round, so the voxel map stays out of
        run_s here."""
        cfg = inp["cfg"]
        probe = Round(attempted=0)
        mapper = fresh_map(probe, "initial", cfg, inp["clouds"], inp["initial"], cfg.voma_batch)
        probe.clock.step("rebuild.identity", voma.rebuild_on_adjustment, mapper.octree, mapper.archive)
        probe.clock.step("rebuild.adjusted", mapper.rebuild, inp["adjusted"])
        return probe


# -- volumetric pipeline -----------------------------------------------------------


class VomaWorkload:
    """The steps of ``pointline voma`` at the default config, in its order.

    The scene is the CLI's default (seed 0): the room renders and the orbit
    are seed-free by construction, and a fixed BA scene keeps the pipeline's
    one solve, and so ate_mm and line_rmse_mm here, the same in every run.
    The run seed draws the order in which the keyframes reach the mapper.
    An operation is one keyframe through a fresh-map build (3 builds x 20) or
    one integrity comparison (3); a round that raises fails all of them.
    """

    checks_per_round = 3
    rounds = 2

    def setup(self, seed: int, index: int, clock: Clock, cfg: HarnessConfig | None = None) -> dict:
        """The same inputs for every round ``index``, so rounds repeat."""
        cfg = cfg or HarnessConfig()
        truth, smap = clock.step("scene", scene.generate_scene, cfg)
        renders = clock.step("render", render_keyframes, cfg, truth, sorted(truth.poses))
        order = [int(k) for k in np.random.default_rng(seed).permutation(sorted(truth.poses))]
        return dict(sc=Scene(cfg, truth, smap), renders=renders, order=order)

    def warmup(self):
        self.round(self.setup(0, 0, Clock(), HarnessConfig(**TINY_SCENE)))

    def round(self, inp: dict) -> Round:
        sc = inp["sc"]
        cfg = sc.cfg
        rnd = Round(attempted=3 * len(inp["order"]) + self.checks_per_round)
        try:
            intr = voma_intrinsics(cfg)
            clouds = rnd.clock.step("backproject", lambda: [
                (k, voma.backproject_depth_image(inp["renders"][k][0], intr)) for k in inp["order"]
            ])
            initial = {k: sc.smap.keyframes[k].pose for k in sc.smap.keyframes}
            mapper = fresh_map(rnd, "initial", cfg, clouds, initial, cfg.voma_batch)
            batched = fresh_map(rnd, "batched", cfg, clouds, initial, 5)
            batch_independent = rnd.clock.step(
                "compare.batched", voma.maps_equal, mapper.octree, batched.octree, tol=0.0
            )
            del batched
            unchanged = rnd.clock.step(
                "rebuild.identity", voma.rebuild_on_adjustment, mapper.octree, mapper.archive
            )
            identity_no_change = rnd.clock.step(
                "compare.identity", voma.maps_equal, mapper.octree, unchanged, tol=0.0
            )
            del unchanged
            values, report = _solve(sc, rnd, "ba")
            rebuilt = rnd.clock.step("rebuild.adjusted", mapper.rebuild, values.poses)
            fresh = fresh_map(rnd, "adjusted", cfg, clouds, values.poses, 1)
            equals_fresh = rnd.clock.step(
                "compare.rebuilt", voma.maps_equal, rebuilt, fresh.octree, tol=1e-12
            )
            del fresh
            cloud = rnd.clock.step("extract", voma.extract_global_cloud, rebuilt)
            ply = rnd.clock.step("export.ply", voma.export_ply, cloud)
            csv = rnd.clock.step("export.csv", voma.export_csv, cloud)
        except PointlineError:
            rnd.failed = rnd.attempted
            return rnd
        rnd.solves.append((sc, values, report, None))
        rnd.voma = dict(
            clouds=clouds, map=rebuilt, ply=ply, csv=csv,
            flags=dict(
                batch_independent=batch_independent,
                rebuild_identity_no_change=identity_no_change,
                rebuild_equals_fresh=equals_fresh,
            ),
        )
        return rnd

    def check(self, inp: dict, rnd: Round) -> list[str]:
        if rnd.voma is None:
            return []
        out = rnd.voma
        sc, values, report, _ = rnd.solves[0]
        # `pointline voma` does not evaluate its BA; the benchmark does, untimed
        experiment = metrics.evaluate_solution(sc.truth, sc.smap, values, report, "voma")
        rnd.solves[0] = (sc, values, report, experiment)
        return (
            checks.check_ba_solution(sc.truth, sc.smap, values, report, experiment)
            + checks.check_flags(out["flags"])
            + checks.check_group_by(out["map"], out["clouds"], values.poses)
            + checks.check_normals(out["clouds"], inp["renders"], sc.truth.poses)
            + checks.check_exports(out["ply"], out["csv"], out["map"].n_cells)
        )

    def run_checks(self, seed: int) -> list[str]:
        return []


WORKLOADS = {
    "ba_default": BaWorkload(scenes=6, rounds=2, schur_check=True),
    "ba_large": BaWorkload(scenes=3, rounds=1, schur_check=False, **LARGE_SCENE),
    "voma_default": VomaWorkload(),
}
