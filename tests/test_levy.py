import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsde.core import Control, make_time_grid
from mvsde.errors import GridMismatchError, InvalidArgumentError, InvalidControlError
from mvsde.levy import (
    IntensityMeasure,
    propose_step,
    sample_controlled_prm,
    sample_prm,
    sample_step,
    thin_step,
    time_order,
)


def two_cell():
    return IntensityMeasure(
        atoms=np.array([[1.0], [-0.5]]), masses=np.array([2.0, 1.0])
    )


def test_intensity_validation():
    m = two_cell()
    assert m.n_cells == 2
    assert m.mark_dim == 1
    assert m.masses.sum() == pytest.approx(3.0)
    with pytest.raises(InvalidArgumentError):
        IntensityMeasure(atoms=np.array([[1.0]]), masses=np.array([0.0]))
    with pytest.raises(InvalidArgumentError):
        IntensityMeasure(atoms=np.array([[1.0], [2.0]]), masses=np.array([1.0]))


def test_plain_stream_layout_and_counts():
    grid = make_time_grid(1.0, 50)
    m = two_cell()
    rng = np.random.default_rng(11)
    js = sample_prm(grid, m, rate_scale=100.0, n_streams=4, rng=rng)
    # sorted by (step, rank, stream); in-cell times live inside their cell
    order = np.lexsort((js.stream, js.rank, js.step))
    np.testing.assert_array_equal(order, np.arange(js.n_jumps))
    assert np.all(js.time >= grid.nodes[js.step]) and np.all(
        js.time < grid.nodes[js.step + 1] + 1e-15
    )
    # step_offsets slices agree with the step array
    for k in (0, 17, 49):
        sl = slice(js.step_offsets[k], js.step_offsets[k + 1])
        assert np.all(js.step[sl] == k)
    # mean total count = rate_scale * |nu| * T per stream
    total = js.n_jumps / 4
    assert abs(total - 300.0) < 4 * np.sqrt(300.0)


def test_step_sampler_cells_are_independent_of_time_and_rank():
    # one step of length 1 at rate 2 on |nu| = 3: about 6 proposals per stream.
    # Each jump's cell has law m_j / |nu| whatever its rank, and its in-step
    # time is uniform whatever its cell.
    m = two_cell()
    n = 20_000
    stream, time, cell, rank, n_proposed = sample_step(
        m, 2.0, 0.0, 1.0, np.ones(2), 1.0, n, np.random.default_rng(8)
    )
    assert stream.size == n_proposed
    share = m.masses / m.masses.sum()
    for sel in (rank == 0, rank >= 1):
        counts = np.bincount(cell[sel], minlength=2)
        np.testing.assert_allclose(counts / sel.sum(), share, atol=0.02)
    for j in range(2):
        assert time[cell == j].mean() == pytest.approx(0.5, abs=0.02)
    # engine order (stream, time), and every stream's first jump is its earliest
    np.testing.assert_array_equal(np.lexsort((time, stream)), np.arange(stream.size))
    first = np.full(n, np.inf)
    np.minimum.at(first, stream, time)
    np.testing.assert_array_equal(time[rank == 0], first[stream[rank == 0]])


def _rank_by_sorting(proposal, psi_k, n_streams):
    """Reference ranking by three argsorts (time, then (stream, position),
    then (rank, stream)); returns (stream, time, cell, rank) by (rank, stream)."""
    stream, time, cell, u_hi = proposal
    keep = u_hi < psi_k[cell]
    stream, time, cell = stream[keep], time[keep], cell[keep]
    by_time = np.argsort(time)
    idx = np.arange(stream.size)
    order = by_time[np.argsort(stream[by_time] * stream.size + idx)]
    stream, time, cell = stream[order], time[order], cell[order]
    first = np.ones(stream.size, dtype=bool)
    np.not_equal(stream[1:], stream[:-1], out=first[1:])
    rank = idx - np.maximum.accumulate(np.where(first, idx, 0))
    order = np.argsort(rank * n_streams + stream)
    return stream[order], time[order], cell[order], rank[order]


def test_sort_free_ranks_match_the_sorting_reference():
    # dense two-cell proposals (about 18 per stream at hi = 2) on 2^8 + 1
    # streams; the reference sees them shuffled, so it cannot lean on the
    # (stream, time) order that time_order hands to thin_step, while
    # sample_step draws the same proposals from the same generator state
    m = two_cell()
    n_streams = 257
    rng = np.random.default_rng(21)
    proposal = time_order(propose_step(m, 3.0, 0.25, 2.0, 2.0, n_streams, rng), n_streams)
    perm = rng.permutation(proposal[0].size)
    shuffled = tuple(a[perm] for a in proposal)
    for psi_k in ([1.0, 1.0], [0.5, 2.0], [2.0, 2.0], [0.1, 1.3], [2.0, 0.0]):
        psi_k = np.array(psi_k)
        rng = np.random.default_rng(21)
        got = sample_step(m, 3.0, 0.25, 2.0, psi_k, 2.0, n_streams, rng)[:4]
        by_rank = np.lexsort((got[0], got[3]))
        want = _rank_by_sorting(shuffled, psi_k, n_streams)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a[by_rank], b)
        assert got[3].max() >= 5


def test_proposals_come_in_draw_order():
    # cells ascending as drawn; time_order permutes the same proposals into
    # (stream, time) order
    m = two_cell()
    stream, time, cell, u_hi, u = propose_step(m, 2.0, 0.0, 1.0, 2.0, 50, np.random.default_rng(6))
    assert np.all(np.diff(cell) >= 0) and 0 < np.count_nonzero(cell) < cell.size
    ordered = time_order((stream, time, cell, u_hi, u), 50)
    order = np.lexsort((time, stream))
    for a, b in zip(ordered, (stream, time, cell, u_hi)):
        np.testing.assert_array_equal(a, b[order])


def test_shared_proposals_thin_monotonically():
    # one proposal set at hi = 2: every jump kept at psi = 1 is kept at psi = 2,
    # and with one psi row the split sampler, time-ordered, makes exactly
    # sample_step's draws
    m = two_cell()
    proposal = time_order(
        propose_step(m, 2.0, 0.0, 1.0, 2.0, 500, np.random.default_rng(4)), 500
    )
    low = thin_step(proposal, np.ones(2))
    high = thin_step(proposal, np.full(2, 2.0))
    assert high[0].size == proposal[0].size > 1.5 * low[0].size
    low_set = set(zip(low[0].tolist(), low[1].tolist()))
    assert low_set <= set(zip(high[0].tolist(), high[1].tolist()))
    solo = sample_step(m, 2.0, 0.0, 1.0, np.ones(2), 2.0, 500, np.random.default_rng(4))
    for a, b in zip(solo[:3], low):
        np.testing.assert_array_equal(a, b)
    assert solo[4] == proposal[0].size


def test_stream_totals_are_poisson():
    grid = make_time_grid(1.0, 20)
    m = two_cell()
    n = 4000
    js = sample_prm(grid, m, 10.0, n, np.random.default_rng(5))
    totals = np.bincount(js.stream, minlength=n)
    mean = 10.0 * m.masses.sum() * 1.0
    assert abs(totals.mean() - mean) < 4 * np.sqrt(mean / n)
    assert totals.var() / totals.mean() == pytest.approx(1.0, abs=0.1)


def test_ranks_are_time_order_within_stream_step():
    grid = make_time_grid(1.0, 10)
    js = sample_prm(grid, two_cell(), 50.0, 3, np.random.default_rng(0))
    for s in range(3):
        for k in range(10):
            sel = (js.stream == s) & (js.step == k)
            times, ranks = js.time[sel], js.rank[sel]
            assert np.array_equal(np.argsort(ranks), np.argsort(times, kind="stable"))
            assert sorted(ranks) == list(range(sel.sum()))


def test_null_control_is_bit_identical_to_plain():
    grid = make_time_grid(1.0, 30)
    m = two_cell()
    ctl = Control(grid, np.zeros((30, 1)), np.ones((30, 2)))
    a = sample_prm(grid, m, 40.0, 5, np.random.default_rng(42))
    b = sample_controlled_prm(grid, m, 40.0, ctl, 5, np.random.default_rng(42))
    for name in ("stream", "step", "time", "cell", "rank", "step_offsets"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.n_proposed == b.n_proposed


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), lo=st.floats(0.1, 0.9))
def test_thinning_coupling_is_monotone(seed, lo):
    """Thinning one proposal set with a larger psi keeps a superset of jumps."""
    grid = make_time_grid(1.0, 12)
    m = two_cell()
    hi = 2.0
    rng = np.random.default_rng(seed)
    small = rng.uniform(lo, hi, size=(12, 2))
    big = np.minimum(small * rng.uniform(1.0, 1.5, size=(12, 2)), hi)
    draws = np.random.default_rng(seed)
    for t0, dt, psi_small, psi_big in zip(grid.nodes, grid.dt, small, big):
        proposal = propose_step(m, 20.0, t0, dt, hi, 2, draws)
        kept_small = set(zip(*(a.tolist() for a in thin_step(proposal, psi_small)[:3])))
        kept_big = set(zip(*(a.tolist() for a in thin_step(proposal, psi_big)[:3])))
        assert kept_small <= kept_big


def test_tilt_changes_acceptance_rate():
    grid = make_time_grid(1.0, 40)
    m = two_cell()
    half = Control(grid, np.zeros((40, 1)), np.full((40, 2), 0.5))
    js = sample_controlled_prm(grid, m, 200.0, half, 4, np.random.default_rng(3))
    expect = 0.5 * 200.0 * 3.0  # psi * rate * total mass, per stream
    assert abs(js.n_jumps / 4 - expect) < 5 * np.sqrt(expect)


def test_controlled_sampler_validates_inputs():
    grid = make_time_grid(1.0, 10)
    other = make_time_grid(1.0, 20)
    m = two_cell()
    ctl = Control(other, np.zeros((20, 1)), np.ones((20, 2)))
    with pytest.raises(GridMismatchError):
        sample_controlled_prm(grid, m, 1.0, ctl, 1, np.random.default_rng(0))
    narrow = Control(grid, np.zeros((10, 1)), np.ones((10, 1)))
    with pytest.raises(InvalidControlError):
        sample_controlled_prm(grid, m, 1.0, narrow, 1, np.random.default_rng(0))
