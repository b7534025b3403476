"""Closed-loop UAV mission simulation (paper §5.1, Figures 16–19).

Each cycle runs the full pipeline of Figure 3 — sense, update the mapping
system, plan, move — with the mapping system swappable.  Compute latency
is *measured* (wall-clock of this Python implementation) and scaled by a
fixed calibration factor standing in for the TX2 (DESIGN.md §1): relative
comparisons between mapping systems are the meaningful output, matching
how the paper reports speedups rather than absolute times.

The measured response latency feeds the Krishnan safe-velocity bound, so
a faster mapping system lets the simulated UAV fly faster and finish the
mission sooner — the causal chain of §6.1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.baselines.interface import MappingSystem
from repro.core.octocache import OctoCacheMap
from repro.datasets.sensor_model import SensorModel
from repro.uav.environments import Environment
from repro.uav.planner import GreedyPlanner
from repro.uav.vehicle import UAVModel, ASCTEC_PELICAN
from repro.uav.velocity import max_safe_velocity

__all__ = ["MissionConfig", "MissionResult", "run_mission", "make_mission_sensor"]


def make_mission_sensor(sensing_range: float, resolution: float) -> SensorModel:
    """Depth sensor matched to the mapping scale.

    Ray density is chosen so neighbouring rays are ≈1 voxel apart at full
    range — hit voxels form a gap-free surface the planner can trust —
    bounded so pure-Python ray tracing keeps mission runs tractable.
    """
    h_fov = np.deg2rad(90.0)
    v_fov = np.deg2rad(55.0)
    h_rays = int(h_fov * sensing_range / resolution)
    v_rays = int(v_fov * sensing_range / resolution)
    return SensorModel(
        horizontal_fov=h_fov,
        vertical_fov=v_fov,
        horizontal_rays=min(96, max(16, h_rays)),
        vertical_rays=min(44, max(10, v_rays)),
        max_range=sensing_range,
        noise_sigma=0.0,
        emit_misses=True,
    )


@dataclass
class MissionConfig:
    """Parameters of one closed-loop mission run.

    Attributes:
        environment: the navigation task.
        uav: vehicle model.
        sensing_range: sensor range; defaults to the environment baseline.
        resolution: mapping resolution; defaults to the environment
            baseline.
        latency_scale: measured-Python-seconds → simulated-embedded-seconds
            calibration (DESIGN.md §1's TX2 substitution).  The default of
            10 compensates for the simulated sensor being ~500 rays per
            frame where a real depth camera delivers ~300k points: C++ on
            a TX2 processing the real frame sits roughly an order of
            magnitude *above* CPython processing the light frame.  The
            value places compute latency in the regime where it limits
            flight velocity, as on the paper's testbed; only *relative*
            comparisons between mapping systems are reported.
        goal_tolerance: distance at which the goal counts as reached.
        max_cycles: hard cycle budget before the run is declared timed out.
        max_sim_time: simulated-seconds budget.
        model_octree_offload: project the paper's two-thread design (§4.4)
            for OctoCache pipelines: per cycle, the octree update of the
            *previous* batch runs on a second core, overlapping this
            cycle's ray tracing and eviction, so thread-1 busy time is
            ``max(T_rt + T_insert + T_evict, T_octree_prev)``.  CPython's
            GIL prevents measuring this with real threads (DESIGN.md §1);
            the projection composes *measured* serial stage times with the
            paper's own schedule.  Ignored for cache-less pipelines.
    """

    environment: Environment
    uav: UAVModel = ASCTEC_PELICAN
    sensing_range: Optional[float] = None
    resolution: Optional[float] = None
    latency_scale: float = 10.0
    goal_tolerance: float = 1.5
    max_cycles: int = 600
    max_sim_time: float = 600.0
    model_octree_offload: bool = False

    def __post_init__(self) -> None:
        if self.latency_scale <= 0:
            raise ValueError(f"latency_scale must be positive, got {self.latency_scale}")
        if self.sensing_range is None:
            self.sensing_range = self.environment.sensing_range
        if self.resolution is None:
            self.resolution = self.environment.resolution


@dataclass
class MissionResult:
    """Outcome and metrics of one mission run.

    Attributes:
        success: goal reached within the budgets without a collision.
        crashed: ground-truth collision occurred.
        completion_time: simulated mission time (the paper's headline
            UAV metric).
        distance_travelled: path length flown.
        mean_velocity: average commanded velocity over moving cycles.
        mean_response_latency: scaled per-cycle perception+planning
            response latency (feeds the velocity bound).
        mean_cycle_compute: scaled per-cycle total critical-thread compute
            (the paper's "end-to-end runtime").
        cycles: control cycles executed.
        map_queries: occupancy queries the planner issued.
        energy_joules: rotor energy spent over the mission.  The paper
            notes 95% of UAV energy goes to the rotors for the whole
            flight duration, so energy ≈ hover power × mission time —
            mission *time* savings translate directly into battery
            savings (§5.1, metric 3).
    """

    success: bool = False
    crashed: bool = False
    completion_time: float = 0.0
    distance_travelled: float = 0.0
    mean_velocity: float = 0.0
    mean_response_latency: float = 0.0
    mean_cycle_compute: float = 0.0
    cycles: int = 0
    map_queries: int = 0
    velocities: List[float] = field(default_factory=list)
    crash_position: Optional[Tuple[float, float, float]] = None
    energy_joules: float = 0.0


def _collides(environment: Environment, start: np.ndarray, end: np.ndarray) -> bool:
    """Ground-truth sweep test along the motion segment."""
    length = float(np.linalg.norm(end - start))
    samples = max(2, int(length / 0.1) + 1)
    for alpha in np.linspace(0.0, 1.0, samples):
        point = start + alpha * (end - start)
        if environment.scene.is_inside_obstacle(tuple(point)):
            return True
    return False


def run_mission(
    config: MissionConfig,
    mapping_factory: Callable[[float], MappingSystem],
    planner: Optional[GreedyPlanner] = None,
) -> MissionResult:
    """Fly one mission with the mapping system built by ``mapping_factory``.

    Args:
        config: mission parameters.
        mapping_factory: called with the mapping resolution; must return a
            fresh :class:`MappingSystem` (this is how benchmarks swap
            OctoMap / OctoCache / -RT variants).
        planner: optional pre-configured planner (a fresh
            :class:`GreedyPlanner` by default).

    Returns:
        the :class:`MissionResult`; ``completion_time`` is meaningful only
        when ``success`` is true.
    """
    env = config.environment
    mapping = mapping_factory(config.resolution)
    if mapping.max_range == float("inf"):
        # The mission sensor emits miss rays just past the sensing range;
        # the pipeline must truncate them into free-space observations.
        mapping.max_range = config.sensing_range
    planner = planner or GreedyPlanner()
    sensor = make_mission_sensor(config.sensing_range, config.resolution)

    position = np.asarray(env.start, dtype=np.float64)
    goal = np.asarray(env.goal, dtype=np.float64)
    result = MissionResult()
    response_latencies: List[float] = []
    cycle_computes: List[float] = []
    sim_time = 0.0
    pending_octree_seconds = 0.0  # modeled thread-2 backlog (§4.4)
    to_goal = goal - position
    scan_yaw = math.atan2(to_goal[1], to_goal[0])
    half_fov = sensor.horizontal_fov / 2.0

    while result.cycles < config.max_cycles and sim_time < config.max_sim_time:
        result.cycles += 1
        to_goal = goal - position
        distance = float(np.linalg.norm(to_goal))
        if distance <= config.goal_tolerance:
            result.success = True
            break

        # Perception: scan along the current heading and update the map
        # (measured).  The sensor looks where the vehicle flies; planning
        # stays inside the scanned cone.
        cloud = sensor.scan(env.scene, tuple(position), scan_yaw)
        record = mapping.insert_point_cloud(cloud)

        # Planning: query the map along candidate headings (measured),
        # fanning around the goal bearing clamped into the scanned FOV.
        goal_yaw = math.atan2(to_goal[1], to_goal[0])
        delta = (goal_yaw - scan_yaw + math.pi) % (2.0 * math.pi) - math.pi
        margin = 0.15
        base_yaw = scan_yaw + max(
            -half_fov + margin, min(half_fov - margin, delta)
        )
        plan_start = time.perf_counter()
        plan = planner.plan_step(
            mapping,
            tuple(position),
            tuple(goal),
            lookahead=config.sensing_range,
            base_yaw=base_yaw,
        )
        plan_seconds = time.perf_counter() - plan_start

        response = (
            mapping.record_response_seconds(record) + plan_seconds
        ) * config.latency_scale
        busy_stages = mapping.record_busy_seconds(record)
        if config.model_octree_offload and isinstance(mapping, OctoCacheMap):
            thread1 = (
                record.ray_tracing
                + record.cache_insertion
                + record.cache_eviction
                + record.enqueue
            )
            busy_stages = max(thread1, pending_octree_seconds)
            pending_octree_seconds = record.octree_update
        busy = (busy_stages + plan_seconds) * config.latency_scale
        response_latencies.append(response)
        cycle_computes.append(busy)

        # Control: fly the chosen heading at the safe velocity.
        cycle_period = max(config.uav.frame_period, busy)
        sim_time += cycle_period
        if plan is None:
            # Hover and rotate the sensor to look for a way out.
            scan_yaw += math.radians(60.0)
            result.velocities.append(0.0)
            continue
        direction = plan.direction
        if abs(direction[0]) > 1e-9 or abs(direction[1]) > 1e-9:
            scan_yaw = math.atan2(direction[1], direction[0])
        # The velocity bound uses the *verified* free distance: the UAV
        # must be able to stop inside space the map actually observed
        # free, which near obstacles is shorter than the sensing range.
        visible = min(config.sensing_range, max(plan.reach, 1e-6))
        velocity = max_safe_velocity(config.uav, visible, response)
        # Travel is additionally bounded by the collision-checked segment:
        # a slow compute cycle must not carry the vehicle beyond what the
        # planner verified.
        step_length = min(velocity * cycle_period, 0.6 * plan.reach, distance)
        step = direction * step_length
        new_position = position + step
        if _collides(env, position, new_position):
            result.crashed = True
            result.crash_position = tuple(new_position)
            break
        result.distance_travelled += float(np.linalg.norm(step))
        result.velocities.append(velocity)
        position = new_position

    mapping.finalize()
    result.completion_time = sim_time
    result.energy_joules = config.uav.hover_power_w * sim_time
    result.map_queries = planner.queries_issued
    moving = [v for v in result.velocities if v > 0.0]
    result.mean_velocity = float(np.mean(moving)) if moving else 0.0
    result.mean_response_latency = (
        float(np.mean(response_latencies)) if response_latencies else 0.0
    )
    result.mean_cycle_compute = (
        float(np.mean(cycle_computes)) if cycle_computes else 0.0
    )
    return result
