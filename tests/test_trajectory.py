import numpy as np
import pytest

from implab.trajectory import PiecewiseTrajectory, Segment

from oracles import SegmentedTrajectory, interp_by_mode, pieces


def jumping_trajectory(rng, n_modes=5):
    """Segments on uneven nodes, joined at cuts where the state jumps."""
    cuts = np.array([-1.0, 0.3, 0.31, 2.0, 4.5])
    segments = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        inner = np.sort(rng.uniform(a, b, rng.integers(0, 12)))
        t = np.concatenate(([a], inner, [b]))
        segments.append(Segment(t=t, states=rng.standard_normal((t.size, n_modes))))
    return SegmentedTrajectory(segments), cuts


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
    segmented, cuts = jumping_trajectory(rng)
    traj = segmented.table()
    times = rng.permutation(probe_times(segmented, cuts))
    want = np.stack([segmented.eval(t) for t in times])
    assert np.array_equal(traj.eval_many(times), want)
    for t in times:
        assert np.array_equal(traj.eval(t), segmented.eval(t))
    assert traj.eval_many(float(times[0])).shape == (1, 5)


def test_eval_at_cut_is_pre_jump():
    rng = np.random.default_rng(3)
    segmented, cuts = jumping_trajectory(rng)
    traj = segmented.table()
    pre = traj.eval_many(cuts[1:-1])
    for k, seg in enumerate(segmented.segments[:-1]):
        assert np.array_equal(pre[k], seg.states[-1])
        assert not np.array_equal(pre[k], segmented.segments[k + 1].states[0])
    assert np.array_equal(traj.eval(cuts[0]), segmented.segments[0].states[0])


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_node_table_matches_segment_rule(seed):
    """eval_many on the node table, bit for bit the per-segment rule."""
    rng = np.random.default_rng(seed)
    segmented, cuts = jumping_trajectory(rng)
    traj = segmented.table()
    t_all, _ = segmented.all_nodes()
    samples = {
        "random": rng.uniform(cuts[0], cuts[-1], 200),
        "nodes": t_all,
        "cuts": cuts[1:-1],
        "before": np.array([cuts[0] - 5.0, cuts[0] - 1e-12, cuts[0]]),
        "after": np.array([cuts[-1], cuts[-1] + 1e-12, cuts[-1] + 5.0]),
    }
    for name, times in samples.items():
        assert np.array_equal(traj.eval_many(times), segmented.eval_many(times)), name
    assert np.array_equal(traj.eval_many(cuts[1:-1]),
                          np.stack([seg.states[-1] for seg in segmented.segments[:-1]]))
    # the table cuts back into the same segments
    for got, seg in zip(pieces(traj), segmented.segments, strict=True):
        assert np.array_equal(got.t, seg.t) and np.array_equal(got.states, seg.states)


def test_repeated_time_gives_pre_jump_row():
    # one np.interp per mode, the rule analyze-ap used before, is
    # right-continuous there and gives the post-jump row
    t = np.array([0.0, 0.5, 1.0, 1.0, 1.5, 2.0])
    states = np.arange(12.0).reshape(6, 2)
    states[3] += 100.0
    nodes = Segment(t=t, states=states)
    traj = PiecewiseTrajectory(nodes=nodes)
    assert np.array_equal(traj.eval(1.0), states[2])
    assert np.array_equal(nodes.interp([1.0, 1.0]), states[[2, 2]])
    assert np.array_equal(interp_by_mode(nodes, 1.0)[0], states[3])
    # just after the cut the post-jump piece holds
    right = traj.eval(1.0 + 1e-9)
    assert np.allclose(right, states[3], atol=1e-7)
    assert (traj.t_start, traj.t_end) == (0.0, 2.0)
