import numpy as np
import pytest

from implab.trajectory import PiecewiseTrajectory, Segment


def interp_by_mode(seg, t):
    """One np.interp per mode."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((t.size, seg.states.shape[1]))
    for j in range(seg.states.shape[1]):
        out[:, j] = np.interp(t, seg.t, seg.states[:, j])
    return out


def eval_by_scan(traj, t):
    """Linear scan for the segment whose span (start, end] holds t."""
    for seg in traj.segments:
        if seg.t[0] < t <= seg.t[-1]:
            return interp_by_mode(seg, t)[0]
    seg = traj.segments[0] if t <= traj.segments[0].t[0] else traj.segments[-1]
    return interp_by_mode(seg, t)[0]


def jumping_trajectory(rng, n_modes=5):
    """Segments on uneven nodes, joined at cuts where the state jumps."""
    cuts = np.array([-1.0, 0.3, 0.31, 2.0, 4.5])
    segments = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        inner = np.sort(rng.uniform(a, b, rng.integers(0, 12)))
        t = np.concatenate(([a], inner, [b]))
        segments.append(Segment(t=t, states=rng.standard_normal((t.size, n_modes))))
    return PiecewiseTrajectory(segments=segments), cuts


def probe_times(traj, cuts):
    t_all, _ = traj.all_nodes()
    mids = 0.5 * (t_all[1:] + t_all[:-1])
    outside = [cuts[0] - 1.0, cuts[0] - 1e-300, cuts[-1] + 1e-9, cuts[-1] + 3.0]
    return np.concatenate([t_all, cuts, mids, outside])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_segment_interp_matches_np_interp(seed):
    rng = np.random.default_rng(seed)
    traj, cuts = jumping_trajectory(rng)
    times = probe_times(traj, cuts)
    for seg in traj.segments:
        assert np.array_equal(seg.interp(times), interp_by_mode(seg, times))
        for t in (seg.t[0], seg.t[-1], 0.5 * (seg.t[0] + seg.t[1])):
            assert np.array_equal(seg.interp(t), interp_by_mode(seg, t))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eval_matches_segment_scan(seed):
    rng = np.random.default_rng(seed)
    traj, cuts = jumping_trajectory(rng)
    times = rng.permutation(probe_times(traj, cuts))
    want = np.stack([eval_by_scan(traj, t) for t in times])
    assert np.array_equal(traj.eval_many(times), want)
    for t in times:
        assert np.array_equal(traj.eval(t), eval_by_scan(traj, t))
    assert traj.eval_many(float(times[0])).shape == (1, 5)


def test_eval_at_cut_is_pre_jump():
    rng = np.random.default_rng(3)
    traj, cuts = jumping_trajectory(rng)
    pre = traj.eval_many(cuts[1:-1])
    for k, seg in enumerate(traj.segments[:-1]):
        assert np.array_equal(pre[k], seg.states[-1])
        assert not np.array_equal(pre[k], traj.segments[k + 1].states[0])
    assert np.array_equal(traj.eval(cuts[0]), traj.segments[0].states[0])
