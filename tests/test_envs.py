import hashlib
import struct

import numpy as np
import pytest

from fema import envs, memory
from fema.envs import cliff_corridor as cliff
from fema.envs import grid_hazard as grid
from fema.envs import tilt_pole as pole
from fema.errors import ConfigError, ShapeError


def cliff_oracle(state, action, noise):
    """Straightforward scalar re-implementation of the corridor dynamics."""
    x, y, vx, vy = (float(v) for v in state)
    ax = 8.0 * float(action[0])
    ay = 8.0 * float(action[1])
    return [
        x + 0.05 * vx,
        y + 0.05 * vy,
        vx + 0.05 * (ax - 1.0 * vx),
        vy + 0.05 * (ay - 1.0 * vy) + noise,
    ]


def pole_oracle(state, torque):
    import math

    theta, omega = (float(v) for v in state)
    alpha = 9.8 / 1.0 * math.sin(theta) + torque / (1.0 * 1.0 ** 2) - 0.1 * omega
    return [theta + 0.02 * omega, omega + 0.02 * alpha]


def grid_best_return(start, steps_left, memo=None):
    """Exhaustive finite-horizon search over all snapped move sequences."""
    if memo is None:
        memo = {}
    key = (start, steps_left)
    if key in memo:
        return memo[key]
    if steps_left == 0:
        memo[key] = 0.0
        return 0.0
    best = -np.inf
    for dx, dy in [(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)]:
        nx = min(max(start[0] + dx, 0), 4)
        ny = min(max(start[1] + dy, 0), 4)
        cell = (nx, ny)
        if cell in grid.HAZARDS:
            total = -1.0
        elif cell == grid.GOAL:
            total = 1.0
        else:
            total = -0.05 + grid_best_return(cell, steps_left - 1, memo)
        best = max(best, total)
    memo[key] = best
    return best


class TestCliffCorridor:
    def test_centered_rest_is_safe_forever(self):
        env = envs.CliffCorridor(np.random.default_rng(0), noise_std=0.0)
        env.reset()
        for t in range(cliff.MAX_STEPS):
            res = env.step(np.zeros(2))
            assert res.state[1] == 0.0
        assert res.end == memory.END_TIME_LIMIT

    def test_max_lateral_hazard_step_matches_rollout(self):
        # Independent loop to find when |y| crosses the edge.
        state = [0.0, 0.0, 0.0, 0.0]
        steps = 0
        while abs(state[1]) < cliff.EDGE_Y:
            state = cliff_oracle(state, [0.0, 1.0], 0.0)
            steps += 1
        env = envs.CliffCorridor(np.random.default_rng(0), noise_std=0.0)
        env.reset()
        for t in range(1, steps + 1):
            res = env.step(np.array([0.0, 1.0]))
        assert res.end == memory.END_HAZARD
        assert t == steps

    def test_forward_only_return_matches_rollout(self):
        want = 0.0
        state = [0.0, 0.0, 0.0, 0.0]
        for _ in range(cliff.MAX_STEPS):
            state = cliff_oracle(state, [1.0, 0.0], 0.0)
            want += state[2] - 0.01 * 1.0
        env = envs.CliffCorridor(np.random.default_rng(0), noise_std=0.0)
        env.reset()
        got = 0.0
        for _ in range(cliff.MAX_STEPS):
            res = env.step(np.array([1.0, 0.0]))
            got += res.reward
        assert res.end == memory.END_TIME_LIMIT
        assert abs(got - want) < 1e-12

    def test_random_steps_match_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            state = rng.normal(size=4)
            action = rng.uniform(-1, 1, size=2)
            noise = rng.normal() * 0.1
            got = cliff.dynamics(state, action, noise)
            np.testing.assert_allclose(got, cliff_oracle(state, action, noise),
                                       rtol=0, atol=1e-12)

    def test_seeded_determinism(self):
        def roll(seed):
            env = envs.CliffCorridor(np.random.default_rng(seed))
            env.reset()
            arng = np.random.default_rng(99)
            return [env.step(arng.uniform(-1, 1, 2)).state for _ in range(50)]

        for a, b in zip(roll(3), roll(3)):
            np.testing.assert_array_equal(a, b)

    def test_random_policy_fails_fast(self):
        # The disturbance is calibrated so an aimless policy walks off
        # the edge quickly; episode-length median stays in the tens.
        lengths = []
        for seed in range(40):
            env = envs.CliffCorridor(np.random.default_rng([11, seed]))
            env.reset()
            arng = np.random.default_rng([12, seed])
            for t in range(1, cliff.MAX_STEPS + 1):
                res = env.step(arng.uniform(-1, 1, 2))
                if res.end != memory.END_NONE:
                    break
            assert res.end == memory.END_HAZARD
            lengths.append(t)
        assert 10 <= np.median(lengths) <= 60

    def test_zero_policy_still_fails(self):
        # Without corrective action the lateral disturbance alone kills;
        # hazard termination cannot be starved out by doing nothing.
        ends = []
        for seed in range(20):
            env = envs.CliffCorridor(np.random.default_rng([13, seed]))
            env.reset()
            for t in range(cliff.MAX_STEPS):
                res = env.step(np.zeros(2))
                if res.end != memory.END_NONE:
                    break
            ends.append(res.end)
        assert ends.count(memory.END_HAZARD) >= 18

    def test_out_of_bounds_action_clipped_and_flagged(self):
        env = envs.CliffCorridor(np.random.default_rng(0), noise_std=0.0)
        env.reset()
        res = env.step(np.array([5.0, 0.0]))
        env2 = envs.CliffCorridor(np.random.default_rng(0), noise_std=0.0)
        env2.reset()
        res2 = env2.step(np.array([1.0, 0.0]))
        np.testing.assert_array_equal(res.state, res2.state)


class TestTiltPole:
    def test_equilibrium_preserved(self):
        env = envs.TiltPole(np.random.default_rng(0))
        env.state = np.zeros(2)
        env.t = 0
        for _ in range(pole.MAX_STEPS):
            res = env.step(np.zeros(1))
            np.testing.assert_array_equal(res.state, np.zeros(2))
        assert res.end == memory.END_TIME_LIMIT

    def test_upright_reward_is_one(self):
        assert pole.reward_of(np.array([0.0, 3.0])) == 1.0

    def test_free_fall_hazard_step_matches_oracle(self):
        state = [0.1, 0.0]
        steps = 0
        while abs(state[0]) < pole.THETA_FAIL:
            state = pole_oracle(state, 0.0)
            steps += 1
        env = envs.TiltPole(np.random.default_rng(0))
        env.state = np.array([0.1, 0.0])
        env.t = 0
        for t in range(1, steps + 1):
            res = env.step(np.zeros(1))
        assert res.end == memory.END_HAZARD
        assert t == steps

    def test_random_steps_match_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            state = rng.normal(size=2)
            torque = rng.uniform(-4, 4)
            got = pole.dynamics(state, torque)
            np.testing.assert_allclose(got, pole_oracle(state, torque),
                                       rtol=0, atol=1e-12)

    def test_reset_within_tilt_band(self):
        env = envs.TiltPole(np.random.default_rng(7))
        s = env.reset()
        assert np.all(np.abs(s) <= pole.RESET_TILT)


class TestGridHazard:
    def test_snap_rules(self):
        assert grid.snap([0.9, 0.1]) == (1, 0)
        assert grid.snap([-0.2, 0.1]) == (-1, 0)   # tie on |.|? no: .2 > .1
        assert grid.snap([0.3, 0.3]) == (1, 0)     # exact tie goes to x
        assert grid.snap([0.1, -0.9]) == (0, -1)
        assert grid.snap([0.0, 0.0]) == (0, 0)

    def test_hazard_entry(self):
        env = envs.GridHazard()
        env.reset()
        env.step([0.0, 1.0])   # (0,1)
        res = env.step([1.0, 0.0])  # (1,1) is a hazard
        assert res.end == memory.END_HAZARD
        assert res.reward == -1.0

    def test_goal_entry(self):
        env = envs.GridHazard()
        env.reset()
        path = [[1, 0]] * 4 + [[0, 1]] * 4
        for mv in path[:-1]:
            res = env.step(mv)
            assert res.end == memory.END_NONE
        res = env.step(path[-1])
        assert res.end == memory.END_TIME_LIMIT
        assert res.reward == 1.0

    def test_wall_clamp(self):
        env = envs.GridHazard()
        env.reset()
        res = env.step([-1.0, 0.0])
        np.testing.assert_array_equal(res.state, [0.0, 0.0])

    def test_time_limit(self):
        env = envs.GridHazard()
        env.reset()
        for t in range(grid.MAX_STEPS):
            res = env.step([0.0, 0.0])
        assert res.end == memory.END_TIME_LIMIT

    def test_optimal_value_matches_exhaustive_search(self):
        best = grid_best_return(grid.START, grid.MAX_STEPS)
        assert abs(best - 0.65) < 1e-12
        # A scripted right-then-up run achieves the enumerated optimum.
        env = envs.GridHazard()
        env.reset()
        total = 0.0
        for mv in [[1, 0]] * 4 + [[0, 1]] * 4:
            res = env.step(mv)
            total += res.reward
        assert res.end == memory.END_TIME_LIMIT
        assert abs(total - best) < 1e-12


class TestBitIdentity:
    # sha256 of 2,000 steps per env, taken from the numpy-scalar
    # implementation: the Python-float steps must give the same bytes. The
    # oracle tests above compare at 1e-12 and would miss a last-bit drift,
    # such as a0*a0 + a1*a1 in place of the cliff's np.dot control cost.
    PINS = {
        "cliff_corridor": "5da418f7abab0a539df9cd4f4c742984ed6b6230de7e3435bf8dc101dc061c44",
        "grid_hazard": "3dfc51fdd411ed6f65cd3407038499ba69f301eea099592395a4d1333c3c5bf9",
        "tilt_pole": "293223bfde483bf14af01b9c1a288f7cb7491cd919569af4f4146fbb9ccf8af0",
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_rollout_bytes_pinned(self, name):
        """Seeded actions up to 1.5x the bounds (every fifth one rounded to
        a multiple of half the bound, to hit the bounds, zeros and the grid's
        ties exactly); each step hashes its state bytes, reward and end tag,
        and each reset its state."""
        env = envs.make(name, np.random.default_rng([21, 1]))
        arng = np.random.default_rng([21, 2])
        hi = np.asarray(env.spec.action_high)
        h = hashlib.sha256(env.reset().tobytes())
        for i in range(2000):
            a = arng.uniform(-1.5, 1.5, env.spec.d_a)
            if i % 5 == 0:
                a = np.round(2.0 * a) / 2.0
            res = env.step(a * hi)
            assert res.state.dtype == np.float64 and type(res.reward) is float
            h.update(res.state.tobytes() + struct.pack("<d", res.reward)
                     + res.end.encode())
            if res.end != memory.END_NONE:
                h.update(env.reset().tobytes())
        assert h.hexdigest() == self.PINS[name]

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_wrong_width_action_refused(self, name):
        env = envs.make(name, np.random.default_rng(0))
        env.reset()
        for width in (env.spec.d_a - 1, env.spec.d_a + 1):
            with pytest.raises(ShapeError, match="action shape"):
                env.step(np.zeros(width))


class ScriptedAgent:
    """Drives with rng-independent constant action; records what it saw."""

    def __init__(self, action):
        self.action = np.asarray(action, dtype=np.float64)
        self.seen = []

    def act_train(self, s, rng, worker):
        return self.action

    def observe(self, tr, worker, step):
        self.seen.append((worker, step, tr))


class RandomAgent:
    def act_train(self, s, rng, worker):
        return rng.uniform(-1, 1, size=2)

    def observe(self, tr, worker, step):
        pass


class CallLog(RandomAgent):
    """A RandomAgent that logs every act_train and observe call."""

    def __init__(self):
        self.calls = []

    def act_train(self, s, rng, worker):
        a = super().act_train(s, rng, worker)
        self.calls.append(("act_train", worker, s.tobytes(), a.tobytes()))
        return a

    def observe(self, tr, worker, step):
        self.calls.append(("observe", worker, step, tr.s.tobytes(),
                           tr.a.tobytes(), tr.r, tr.s_next.tobytes(), tr.end))


def step_by_step(runner, steps):
    """The records of `steps` single `runner.step()` calls."""
    records = []
    for _ in range(steps):
        rec = runner.step()
        if rec is not None:
            assert rec.end_step == runner.step_count
            records.append(rec)
    return records


DRIVES = {"run": lambda runner, steps: runner.run(steps), "step": step_by_step}


class TestRunner:
    def test_single_worker_matches_sequential(self):
        agent_a = ScriptedAgent([0.0, 0.3])
        envs.VecRunner([envs.CliffCorridor(np.random.default_rng(1))], agent_a,
                       [np.random.default_rng(2)]).run(60)
        env = envs.CliffCorridor(np.random.default_rng(1))
        s = env.reset()
        seq = []
        for t in range(60):
            res = env.step(np.array([0.0, 0.3]))
            seq.append(res.state)
            s = env.reset() if res.end != memory.END_NONE else res.state
        for (_, _, tr), want in zip(agent_a.seen, seq):
            np.testing.assert_array_equal(tr.s_next, want)

    def test_step_budget_exact(self):
        agent = RandomAgent()
        workers = [envs.CliffCorridor(np.random.default_rng([7, w])) for w in range(4)]
        rngs = [np.random.default_rng([8, w]) for w in range(4)]
        runner = envs.VecRunner(workers, agent, rngs)
        records = runner.run(250)
        assert runner.step_count == 250
        finished = sum(r.length for r in records)
        partial = sum(runner.ep_length)
        assert finished + partial == 250

    def test_worker_isolation(self):
        # Worker w in a pool sees the same trajectory as a solo run
        # driven by the same two streams.
        agent = RandomAgent()
        pool = [envs.CliffCorridor(np.random.default_rng([3, w])) for w in range(3)]
        rngs = [np.random.default_rng([4, w]) for w in range(3)]
        pool_records = envs.VecRunner(pool, agent, rngs).run(300)
        solo_records = envs.VecRunner(
            [envs.CliffCorridor(np.random.default_rng([3, 1]))],
            RandomAgent(), [np.random.default_rng([4, 1])],
        ).run(100)
        w1 = [(r.return_, r.length, r.end) for r in pool_records if r.worker == 1]
        solo = [(r.return_, r.length, r.end) for r in solo_records]
        assert w1 == solo[: len(w1)]

    def test_mixed_specs_rejected(self):
        with pytest.raises(ConfigError):
            envs.VecRunner(
                [envs.CliffCorridor(np.random.default_rng(0)),
                 envs.TiltPole(np.random.default_rng(1))],
                RandomAgent(), [np.random.default_rng(0), np.random.default_rng(1)],
            )

    def test_runner_continues_episodes_across_calls(self):
        for drive in DRIVES.values():
            agent = ScriptedAgent([0.0, 0.0])
            env = envs.CliffCorridor(np.random.default_rng(5), noise_std=0.0)
            runner = envs.VecRunner([env], agent, [np.random.default_rng(6)])
            assert drive(runner, 150) == []
            records = drive(runner, 300)
            assert len(records) == 1
            assert records[0].length == 400
            assert records[0].end == memory.END_TIME_LIMIT

    @pytest.mark.parametrize("workers", [1, 3])
    def test_step_matches_run(self, workers):
        """Single `step()` calls give the records, the step count and the
        act_train/observe calls of `run` on the same pool."""
        got = {}
        for drive in sorted(DRIVES):
            agent = CallLog()
            runner = envs.VecRunner(
                [envs.CliffCorridor(np.random.default_rng([9, w]))
                 for w in range(workers)],
                agent, [np.random.default_rng([10, w]) for w in range(workers)])
            records = DRIVES[drive](runner, 170) + DRIVES[drive](runner, 230)
            got[drive] = (records, runner.step_count, agent.calls)
        assert got["step"][0]
        assert got["step"] == got["run"]
