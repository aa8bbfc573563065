import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from swagppm import blas, swag
from swagppm.params import Layout, LayoutError, ParameterVector

from conftest import BAD_DIMS, frozen_frame


def vec(layout, *values):
    return ParameterVector(np.array(values, dtype=float), layout)


@pytest.fixture
def p1():
    return Layout([("w", (1,))])


def test_absorb_hand_fixture(p1):
    m = swag.SwagMoments(p1, k_max=2)
    m.absorb(vec(p1, 1.0)).absorb(vec(p1, 3.0))
    assert m.mean[0] == 2.0
    assert m.sq_mean[0] == 5.0
    assert m.sigma_diag()[0] == 1.0
    # deviation columns use the running mean: 1-1=0, then 3-2=1
    assert [c[0] for c in m.dev_columns] == [0.0, 1.0]


def test_absorb_constant_stream(p1):
    m = swag.SwagMoments(p1, k_max=5)
    for _ in range(4):
        m.absorb(vec(p1, 2.5))
    assert m.sigma_diag()[0] == 0.0
    assert all(c[0] == 0.0 for c in m.dev_columns)


def test_column_eviction(p1):
    m = swag.SwagMoments(p1, k_max=2)
    for v in (1.0, 2.0, 6.0):
        m.absorb(vec(p1, v))
    assert m.k == 2
    # retained columns correspond to t = 2, 3
    assert m.dev_columns[0][0] == pytest.approx(2.0 - 1.5)
    assert m.dev_columns[1][0] == pytest.approx(6.0 - 3.0)


def test_absorb_layout_mismatch(p1):
    m = swag.SwagMoments(p1)
    other = Layout([("w", (2,))])
    with pytest.raises(LayoutError):
        m.absorb(ParameterVector(np.zeros(2), other))
    with pytest.raises(LayoutError):
        m.absorb(np.zeros(2))


def test_running_mean_exactness():
    rng = np.random.default_rng(3)
    layout = Layout([("w", (7,))])
    snaps = rng.normal(0, 10, (25, 7))
    m = swag.SwagMoments(layout, k_max=25)
    for s in snaps:
        m.absorb(ParameterVector(s, layout))
    np.testing.assert_allclose(m.mean, snaps.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(m.sq_mean, (snaps ** 2).mean(axis=0),
                               rtol=1e-12)


class _FixedNormals:
    """Stands in for the draw generator: every draw gets the normals z1
    (length p) and z2 (length k), which a draw takes in that order, each
    through standard_normal's out."""

    def __init__(self, z1, z2):
        self.normals = itertools.cycle([z1, z2])

    def standard_normal(self, out):
        out[:] = next(self.normals)
        return out


def _draw_with(monkeypatch, m, z1, z2):
    """The draw m.draws makes from the normals z1 and z2."""
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _FixedNormals(z1, z2))
    (draw,) = m.draws(1, seed=0)
    return draw.copy()


def test_covariance_apply_mean_recovery(p1, monkeypatch):
    m = swag.SwagMoments(p1, k_max=2)
    m.absorb(vec(p1, 1.0)).absorb(vec(p1, 3.0))
    out = _draw_with(monkeypatch, m, [0.0], [0.0, 0.0])
    assert out[0] == 2.0


def test_covariance_apply_hand_fixture(p1, monkeypatch):
    m = swag.SwagMoments(p1, k_max=2)
    m.absorb(vec(p1, 1.0)).absorb(vec(p1, 3.0))
    out = _draw_with(monkeypatch, m, [1.0], [0.0, 1.0])
    assert out[0] == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-12)


def monte_carlo_moments(p=4, T=6, draws=4000):
    rng = np.random.default_rng(8)
    layout = Layout([("w", (p,))])
    m = swag.SwagMoments(layout, k_max=T)
    for _ in range(T):
        m.absorb(ParameterVector(rng.normal(0, 1, p), layout))
    return m, rng


def test_covariance_monte_carlo_oracle():
    m, _ = monte_carlo_moments()
    k = m.k
    outs = np.stack([d.copy() for d in m.draws(20_000, seed=8)])
    D = np.stack(m.dev_columns, axis=1)
    target = 0.5 * (np.diag(m.sigma_diag()) + D @ D.T / (k - 1))
    sample_cov = np.cov(outs.T)
    assert np.max(np.abs(sample_cov - target)) < 0.05


def test_quadratic_form_psd():
    m, rng = monte_carlo_moments()
    D = np.stack(m.dev_columns, axis=1)
    cov = 0.5 * (np.diag(m.sigma_diag()) + D @ D.T / (m.k - 1))
    for _ in range(100):
        z = rng.normal(0, 1, m.layout.size)
        assert z @ cov @ z >= -1e-10


def test_sample_point_mass(p1):
    m = swag.SwagMoments(p1, k_max=3)
    for _ in range(3):
        m.absorb(vec(p1, 4.0))
    (draw,) = m.sample(1, seed=0)
    assert draw.values[0] == 4.0


def test_sample_count_and_determinism():
    m, _ = monte_carlo_moments()
    draws = m.sample(500, seed=17)
    assert len(draws) == 500
    again = m.sample(500, seed=17)
    np.testing.assert_array_equal(draws[123].values, again[123].values)


def test_sample_empirical_mean_clt():
    m, _ = monte_carlo_moments()
    draws = np.stack([d.values for d in m.sample(10_000, seed=2)])
    D = np.stack(m.dev_columns, axis=1)
    cov = 0.5 * (np.diag(m.sigma_diag()) + D @ D.T / (m.k - 1))
    se = np.sqrt(np.diag(cov) / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - m.mean) < 4 * se + 1e-12)


def test_moments_round_trip(tmp_path):
    m, _ = monte_carlo_moments()
    path = tmp_path / "moments.bin"
    swag.save_moments(path, m)
    loaded = swag.load_moments(path)
    np.testing.assert_array_equal(loaded.mean, m.mean)
    np.testing.assert_array_equal(loaded.sq_mean, m.sq_mean)
    assert loaded.count == m.count and loaded.k == m.k
    for a, b in zip(loaded.dev_columns, m.dev_columns):
        np.testing.assert_array_equal(a, b)
    (d1,) = m.sample(1, seed=5)
    (d2,) = loaded.sample(1, seed=5)
    np.testing.assert_array_equal(d1.values, d2.values)


@pytest.mark.parametrize("absorbed", [5, 11])
def test_sample_matches_list_formula(absorbed):
    # Reference: the deviation columns kept as a list, oldest evicted, and
    # each draw built from the re-stacked columns. 5 absorbs leave k < k_max;
    # 11 evict four columns and leave k == k_max.
    rng = np.random.default_rng(21)
    layout = Layout([("w", (300,))])
    m = swag.SwagMoments(layout, k_max=7)
    mean, sq_mean, cols = np.zeros(300), np.zeros(300), []
    for t in range(1, absorbed + 1):
        theta = rng.normal(0, 1, 300)
        m.absorb(ParameterVector(theta, layout))
        mean += (theta - mean) / t
        sq_mean += (theta ** 2 - sq_mean) / t
        cols = (cols + [theta - mean])[-7:]
    k = len(cols)
    assert m.k == k
    draws = m.sample(6, seed=4)
    ref_rng = np.random.default_rng(4)
    for draw in draws:
        z1 = ref_rng.standard_normal(300)
        z2 = ref_rng.standard_normal(k)
        want = (mean + np.sqrt(np.maximum(sq_mean - mean ** 2, 0.0) / 2.0) * z1
                + np.stack(cols, axis=1) @ z2 / np.sqrt(2.0 * (k - 1)))
        np.testing.assert_array_equal(draw.values, want)


def test_clamped_entries_counted_once():
    layout = Layout([("w", (3,))])
    m = swag.SwagMoments(layout, k_max=3)
    m.mean = np.array([1.0, 2.0, 3.0])
    m.sq_mean = np.array([0.5, 4.0, 10.0])  # 1 - 0.5 < 0 only for w[0]
    m.count = 1
    assert m.clamped_entries == 1
    for _ in range(3):
        m.sigma_diag()
        m.sample(2, seed=0)
    assert m.clamped_entries == 1


def _sample_loop(m, count, seed):
    # Reference: sample() as a list built draw by draw through the
    # covariance formula, with sigma_diag recomputed for every draw.
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        z1 = rng.standard_normal(m.layout.size)
        z2 = rng.standard_normal(m.k) if m.k >= 2 else np.zeros(m.k)
        out = m.mean + np.sqrt(m.sigma_diag() / 2.0) * z1
        if np.any(z2 != 0):
            out = out + (m.dev_columns.T @ z2) / np.sqrt(2.0 * (m.k - 1))
        draws.append(out)
    return draws


@pytest.mark.parametrize("absorbed", [1, 2, 4, 11])
def test_draws_match_per_draw_loop(absorbed):
    # k_max = 7: 1 absorb leaves k < 2, 2 and 4 leave 2 <= k < k_max, and
    # 11 evict four columns and leave k == k_max.
    m = _absorbed(300, 7, absorbed, 21)
    assert m.k == min(absorbed, 7)
    want = _sample_loop(m, 9, seed=4)
    for got in ([d.copy() for d in m.draws(9, seed=4)],
                [d.values for d in m.sample(9, seed=4)]):
        assert len(got) == 9
        for draw, values in zip(got, want):
            np.testing.assert_array_equal(draw, values)


@pytest.mark.parametrize("k", [2, 7, 20])
def test_normals_drawn_into_a_buffer_have_the_bits_of_a_new_array(k):
    # a draw takes z2 into a k-buffer; the stream and its bits are those of
    # standard_normal(k)
    buffer = np.empty(k)
    a, b = np.random.default_rng(k), np.random.default_rng(k)
    for _ in range(3):
        a.standard_normal(out=buffer)
        assert (buffer == b.standard_normal(k)).all()


def test_draws_compute_sigma_diag_once():
    m = _absorbed(20, 4, 6, 3)
    calls = []
    sigma_diag = m.sigma_diag
    m.sigma_diag = lambda: calls.append(1) or sigma_diag()
    draws = m.draws(50, seed=1)
    assert len(calls) == 1
    assert len(list(draws)) == 50 and len(calls) == 1
    m.sample(30, seed=1)
    assert len(calls) == 2


def test_draws_check_arguments_before_the_first_draw(p1):
    m = swag.SwagMoments(p1, k_max=2)
    with pytest.raises(swag.SwagError):
        m.draws(3, seed=0)  # no snapshots yet; nothing iterated
    m.absorb(vec(p1, 1.0))
    for count in (0, -1):
        with pytest.raises(swag.SwagError):
            m.draws(count, seed=0)


def _absorbed(p, k_max, absorbs, seed):
    layout = Layout([("w", (p,))])
    m = swag.SwagMoments(layout, k_max=k_max)
    rng = np.random.default_rng(seed)
    for _ in range(absorbs):
        m.absorb(ParameterVector(rng.normal(0, 1, p), layout))
    return m


@settings(max_examples=25, deadline=None)
@given(p=st.integers(1, 6), k_max=st.integers(1, 5),
       absorbs=st.integers(0, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_moments_round_trip_property(tmp_path_factory, p, k_max, absorbs,
                                     seed):
    m = _absorbed(p, k_max, absorbs, seed)
    path = tmp_path_factory.mktemp("moments") / "m.bin"
    swag.save_moments(path, m)
    loaded = swag.load_moments(path)
    assert (loaded.count, loaded.k, loaded.k_max) == (m.count, m.k, m.k_max)
    np.testing.assert_array_equal(loaded.mean, m.mean)
    np.testing.assert_array_equal(loaded.sq_mean, m.sq_mean)
    np.testing.assert_array_equal(loaded.dev_columns, m.dev_columns)


@settings(max_examples=10, deadline=None)
@given(p=st.integers(1, 4), k_max=st.integers(1, 3),
       absorbs=st.integers(0, 5))
def test_moments_truncation_raises_swag_error(tmp_path_factory, p, k_max,
                                              absorbs):
    path = tmp_path_factory.mktemp("moments") / "m.bin"
    swag.save_moments(path, _absorbed(p, k_max, absorbs, 0))
    blob = path.read_bytes()
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        with pytest.raises(swag.SwagError):
            swag.load_moments(path)


@settings(max_examples=40, deadline=None)
@given(length=st.one_of(st.integers(0, 400), st.integers(0, 2 ** 64 - 1)))
def test_moments_header_length_field_raises_swag_error(tmp_path_factory,
                                                      length):
    path = tmp_path_factory.mktemp("moments") / "m.bin"
    swag.save_moments(path, _absorbed(3, 2, 3, 0))
    blob = path.read_bytes()
    assume(length != struct.unpack("<Q", blob[8:16])[0])
    path.write_bytes(blob[:8] + struct.pack("<Q", length) + blob[16:])
    with pytest.raises(swag.SwagError):
        swag.load_moments(path)


def _moments_head(m):
    return {"layout": m.layout.to_json(), "count": m.count, "k_max": m.k_max,
            "k": m.k}


def _frozen_moments_payload(m):
    # Reference: save_moments' payload as it was, the deviation columns
    # written from the (p, k) buffer in Fortran order
    return (m.mean.astype("<f8").tobytes()
            + m.sq_mean.astype("<f8").tobytes()
            + m._dev[:, :m.k].astype("<f8").tobytes(order="F"))


@settings(max_examples=15, deadline=None)
@given(p=st.integers(1, 5), k_max=st.integers(1, 4),
       absorbs=st.integers(0, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_moments_bytes_match_frozen_writer(tmp_path_factory, p, k_max,
                                           absorbs, seed):
    m = _absorbed(p, k_max, absorbs, seed)
    path = tmp_path_factory.mktemp("moments") / "m.bin"
    swag.save_moments(path, m)
    assert path.read_bytes() == frozen_frame(
        b"SWPPMSW1", _moments_head(m), _frozen_moments_payload(m))


_MISSING = object()
# A header field swapped for a value that is missing, not an int, or out of
# range for the file's count=3, k=2, k_max=2.
_BAD_FIELDS = st.one_of(
    st.tuples(st.sampled_from(["count", "k", "k_max"]),
              st.one_of(st.just(_MISSING), st.none(), st.booleans(),
                        st.floats(), st.text(max_size=3),
                        st.lists(st.integers(0, 3), max_size=1))),
    st.tuples(st.just("count"), st.integers(max_value=-1)),
    st.tuples(st.just("k"), st.one_of(st.integers(max_value=-1),
                                      st.integers(3, 50))),
    st.tuples(st.just("k_max"), st.integers(-3, 1)))


@settings(max_examples=80, deadline=None)
@given(field=_BAD_FIELDS)
def test_moments_bad_header_field_raises_swag_error(tmp_path_factory, field):
    m = _absorbed(3, 2, 3, 0)
    head = _moments_head(m)
    key, value = field
    if value is _MISSING:
        del head[key]
    else:
        head[key] = value
    path = tmp_path_factory.mktemp("moments") / "m.bin"
    path.write_bytes(frozen_frame(b"SWPPMSW1", head,
                                  _frozen_moments_payload(m)))
    with pytest.raises(swag.SwagError):
        swag.load_moments(path)


@settings(max_examples=40, deadline=None)
@given(bad=BAD_DIMS, values=st.integers(0, 12))
def test_moments_bad_dimension_raises_swag_error(tmp_path_factory, bad,
                                                 values):
    head = {"layout": [["w", [2, bad]]], "count": 1, "k_max": 2, "k": 1}
    path = tmp_path_factory.mktemp("moments") / "m.bin"
    path.write_bytes(frozen_frame(b"SWPPMSW1", head, bytes(8 * values)))
    with pytest.raises(swag.SwagError):
        swag.load_moments(path)


def test_moments_with_a_repeated_tensor_raise_swag_error(tmp_path):
    # mean, sq_mean and one deviation column over a 2-value layout
    head = {"layout": [["w", [1]], ["w", [1]]], "count": 1, "k_max": 2,
            "k": 1}
    path = tmp_path / "m.bin"
    path.write_bytes(frozen_frame(b"SWPPMSW1", head, bytes(8 * 6)))
    with pytest.raises(swag.SwagError, match="tensor 'w' repeats"):
        swag.load_moments(path)


@settings(max_examples=30, deadline=None)
@given(extra=st.binary(min_size=1, max_size=16))
def test_moments_trailing_bytes_raise_swag_error(tmp_path_factory, extra):
    path = tmp_path_factory.mktemp("moments") / "m.bin"
    swag.save_moments(path, _absorbed(3, 2, 3, 0))
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(swag.SwagError):
        swag.load_moments(path)


def test_drawn_view_cannot_be_written(p1):
    m = swag.SwagMoments(p1, k_max=2)
    m.absorb(vec(p1, 1.0)).absorb(vec(p1, 3.0))
    for draw in m.draws(2, seed=0):
        assert not draw.flags.writeable
        with pytest.raises(ValueError):
            draw[0] = 0.0


@pytest.mark.parametrize("z1", [np.inf, -np.inf, np.nan])
def test_non_finite_draw_raises_swag_error(p1, monkeypatch, z1):
    m = swag.SwagMoments(p1, k_max=2)
    m.absorb(vec(p1, 1.0)).absorb(vec(p1, 3.0))
    with pytest.raises(swag.SwagError, match="draw 0"):
        _draw_with(monkeypatch, m, [z1], [0.0, 0.0])


def count_vectors_built(monkeypatch):
    """A list that gains an entry for every ParameterVector built from now."""
    built = []
    init = ParameterVector.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ParameterVector, "__init__", counting_init)
    return built


def test_draws_build_no_parameter_vector(monkeypatch):
    m = _absorbed(30, 4, 6, 5)
    built = count_vectors_built(monkeypatch)
    assert sum(1 for _ in m.draws(25, seed=2)) == 25
    assert built == []
    m.sample(3, seed=2)
    assert len(built) == 3


def test_moments_with_a_huge_k_max_load_and_save_the_same_bytes(tmp_path):
    # k_max = 2**40 deviation columns of one value would take 8 TiB; only
    # the k = 0 columns the file holds are allocated
    path = tmp_path / "m.bin"
    head = {"layout": [["w", [1]]], "count": 1, "k": 0, "k_max": 2 ** 40}
    blob = frozen_frame(b"SWPPMSW1", head,
                        np.array([2.0, 5.0]).astype("<f8").tobytes())
    path.write_bytes(blob)
    m = swag.load_moments(path)
    assert (m.count, m.k, m.k_max) == (1, 0, 2 ** 40)
    assert m.dev_columns.shape == (0, 1)
    swag.save_moments(tmp_path / "again.bin", m)
    assert (tmp_path / "again.bin").read_bytes() == blob


@pytest.mark.parametrize("before, after", [(2, 1), (3, 4)])
def test_absorbing_after_a_load_continues_the_saved_moments(tmp_path, before,
                                                           after):
    # k_max = 4: a load holds only the k columns saved, and the next absorb
    # allocates the rest; 3 + 4 absorbs evict past k_max
    m = _absorbed(6, 4, before, 8)
    swag.save_moments(tmp_path / "m.bin", m)
    loaded = swag.load_moments(tmp_path / "m.bin")
    more = np.random.default_rng(9).normal(0, 1, (after, 6))
    m.absorb(*more)
    loaded.absorb(*more)
    assert (loaded.count, loaded.k) == (m.count, m.k)
    for name in ("mean", "sq_mean", "dev_columns"):
        assert (getattr(loaded, name) == getattr(m, name)).all()


@settings(max_examples=30, deadline=None)
@given(p=st.integers(1, 5), k_max=st.integers(1, 4),
       cuts=st.lists(st.integers(0, 4), max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_absorbing_in_one_call_equals_one_at_a_time(p, k_max, cuts, seed):
    # the snapshots go in as len(cuts) calls of cuts[i] each, eviction
    # included once more than k_max are absorbed
    layout = Layout([("w", (p,))])
    rng = np.random.default_rng(seed)
    snaps = [ParameterVector(rng.normal(0, 1, p), layout)
             for _ in range(sum(cuts))]
    one = swag.SwagMoments(layout, k_max=k_max)
    for theta in snaps:
        one.absorb(theta.values)  # as flat arrays, as trainer.train passes
    grouped = swag.SwagMoments(layout, k_max=k_max)
    start = 0
    for size in cuts:
        grouped.absorb(*snaps[start:start + size])
        start += size
    assert (grouped.count, grouped.k) == (one.count, one.k)
    # allocated once, at k_max columns, by the first absorb of a snapshot
    assert grouped._dev.shape == one._dev.shape == (
        p, k_max if one.count else 0)
    for name in ("mean", "sq_mean", "dev_columns"):
        assert (getattr(grouped, name) == getattr(one, name)).all()
    if one.count:
        for a, b in zip(grouped.draws(3, seed), one.sample(3, seed)):
            assert (a == b.values).all()


def test_absorb_checks_every_layout_before_absorbing_any(p1):
    m = swag.SwagMoments(p1, k_max=3)
    with pytest.raises(LayoutError):
        m.absorb(vec(p1, 1.0), ParameterVector(np.zeros(2),
                                               Layout([("w", (2,))])))
    assert (m.count, m.k) == (0, 0)


@pytest.mark.parametrize("rows, k, want", [
    (66228, 20, [(0, 23036), (23036, 33114), (33114, 56150),
                 (56150, 66228)]),
    (23039, 20, [(0, 23039)]),  # 23039 * 20 < GEMV_THREADED
    (23040, 20, [(0, 11520), (11520, 23040)]),
    (100000, 7, [(0, 50000), (50000, 100000)]),
    (99999, 7, [(0, 50000), (50000, 99999)]),
    (240006, 6, [(0, 76796), (76796, 120003), (120003, 196799),
                 (196799, 240006)]),
])
def test_gemv_parts_follow_openblas_partition(rows, k, want):
    # OpenBLAS's two-thread halves, whatever the thread count, each cut
    # into chunks of 4 * floor((GEMV_THREADED / k - 1) / 4) rows
    assert swag._gemv_parts(rows, k) == want


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 2 * 10 ** 6), k=st.integers(2, 64))
def test_gemv_parts_tile_the_halves_in_chunks_below_the_threshold(rows, k):
    # in order and without a gap, each part below GEMV_THREADED, and above
    # it none crosses the half boundary and each starts a multiple of 4
    # rows from its half's start, as OpenBLAS's kernel groups the rows
    parts = swag._gemv_parts(rows, k)
    assert [a for a, _ in parts] == [0] + [b for _, b in parts[:-1]]
    assert parts[-1][1] == rows
    assert all(a < b and (b - a) * k < swag.GEMV_THREADED for a, b in parts)
    half = -(-rows // 2)
    if rows * k < swag.GEMV_THREADED:
        assert parts == [(0, rows)]
    else:
        for a, b in parts:
            assert b <= half or a >= half
            assert (a if a < half else a - half) % 4 == 0


def _split_gemv_draws(m, count, seed, split):
    """Reference: the draws' arithmetic with the low-rank term as one
    np.matmul for the rows before split and one for the rest."""
    rng = np.random.default_rng(seed)
    scale = np.sqrt(m.sigma_diag() / 2.0)
    dev = m._dev[:, :m.k]
    for _ in range(count):
        z = rng.standard_normal(m.layout.size) * scale + m.mean
        z2 = rng.standard_normal(m.k)
        low_rank = np.concatenate([np.matmul(dev[:split], z2),
                                   np.matmul(dev[split:], z2)])
        z += low_rank / np.sqrt(2.0 * (m.k - 1))
        yield z


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_draws_take_the_two_thread_bits_at_each_thread_count(
        monkeypatch, set_blas_threads, threads):
    # p * k on both sides of GEMV_THREADED, halves on both sides of it, odd
    # p, and k below and at k_max; made with no one-thread window (opening
    # one raises here), the draws have the bits of the two halves (the first
    # ceil(p / 2) rows and the rest once p * k >= 460800) taken at one
    # thread, which at two threads are the bits of the whole gemv
    def window():
        raise AssertionError("a draw opened a BLAS thread window")

    moved = 0
    for p, k in ((23039, 20), (23041, 20), (40980, 20), (65828, 7),
                 (65829, 7), (66228, 7), (66228, 20), (99999, 20)):
        m = _absorbed(p, 20, k, p)
        assert m.k == k
        half = -(-p // 2) if p * k >= 460800 else p
        set_blas_threads(1)
        want = list(_split_gemv_draws(m, 2, 1, half))
        moved += any((o != w).any()
                     for o, w in zip(_split_gemv_draws(m, 2, 1, p), want))
        set_blas_threads(threads)
        assert blas.threads() == threads
        with monkeypatch.context() as patch:
            patch.setattr(blas, "one_thread", window)
            got = [d.copy() for d in m.draws(2, seed=1)]
        assert blas.threads() == threads
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        if threads == 2:
            for whole, w in zip(_split_gemv_draws(m, 2, 1, p), want):
                assert whole.tobytes() == w.tobytes()
    assert moved  # the partition is what keeps the bits
