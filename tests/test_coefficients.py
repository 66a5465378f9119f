import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coordgeo as cg
from coordgeo.coefficients import (ParticleDescriptor, check_loose_bounds,
                                   check_upper_bound, d_e, descriptor,
                                   distances, e_many, e_one)

from published import TABLE
from references import distances_loop


def _desc(k, m):
    # synthetic descriptor with m singleton classes
    return ParticleDescriptor(k=k, f=np.ones(m))


@pytest.fixture(scope="module")
def descs(catalog, discretizer):
    return {c: descriptor(catalog.get(c), discretizer) for c in catalog.codes}


def test_e_one_published_anchors(descs):
    assert abs(e_one(descs["TET"]) - 2.585) <= 0.0005
    assert abs(e_one(descs["FCC"]) - 4.044) <= 0.0005
    assert abs(e_one(descs["ICO"]) - 4.459) <= 0.0005


@pytest.mark.parametrize("code", list(TABLE))
def test_e_one_published_all(descs, code):
    assert abs(e_one(descs[code]) - TABLE[code][2]) <= 0.0005


def test_e_one_rejects_low_k():
    with pytest.raises(ValueError):
        _desc(1, 1)


@pytest.mark.parametrize("k, f, why", [
    (4, [0, 0, 0], "at least one angle class"),
    (3, [1, 2, 1], "more distinct angles than bond pairs"),
])
def test_descriptor_rejects_bad_angle_count(k, f, why):
    with pytest.raises(ValueError, match=why):
        ParticleDescriptor(k=k, f=f)
    # m = k(k-1)/2, every bond pair its own angle, is allowed
    assert ParticleDescriptor(k=k, f=[1] * (k * (k - 1) // 2)).m == k * (k - 1) // 2


def test_descriptor_equality_is_by_value():
    d = ParticleDescriptor(k=4, f=[1, 1, 0])
    assert d.f.dtype == np.int64
    assert d == ParticleDescriptor(k=4, f=np.array([1.0, 1.0, 0.0]))
    assert d != ParticleDescriptor(k=5, f=[1, 1, 0])
    assert d != ParticleDescriptor(k=4, f=[1, 0, 1])
    assert d != ParticleDescriptor(k=4, f=[1, 1, 0, 0])
    assert d != (4, [1, 1, 0])


def test_e_many_single_recovers_e_one(descs):
    for d in descs.values():
        assert e_many([d]) == pytest.approx(e_one(d), abs=1e-12)


def test_e_many_identical_pair(descs):
    d = descs["FCC"]
    assert e_many([d, d]) == pytest.approx(e_one(d), abs=1e-12)


def test_e_many_fcc_hcp(descs):
    # union of the two angle-class sets holds 6 classes
    got = e_many([descs["FCC"], descs["HCP"]])
    assert got == pytest.approx(math.log2(11.0), abs=1e-12)


def test_e_many_empty():
    with pytest.raises(ValueError):
        e_many([])


def test_upper_bound_fcc_hcp(descs):
    holds, equal = check_upper_bound([descs["FCC"], descs["HCP"]])
    assert holds and not equal


def test_upper_bound_equality_case(descs):
    holds, equal = check_upper_bound([descs["FCC"], descs["FCC"]])
    assert holds and equal


def test_upper_bound_all_pairs(descs):
    codes = list(descs)
    for a, b in itertools.combinations(codes, 2):
        holds, equal = check_upper_bound([descs[a], descs[b]])
        assert holds, (a, b)
        assert not equal, (a, b)


def test_loose_bounds_fcc_hcp(descs):
    pair = [descs["FCC"], descs["HCP"]]
    assert check_loose_bounds(pair)
    val = e_many(pair)
    assert math.log2(132.0 / 20.0) - 1e-12 <= val <= math.log2(132.0 / 8.0) + 1e-12


def test_loose_bounds_single(descs):
    for d in descs.values():
        assert check_loose_bounds([d])


def test_loose_bounds_all_triples(descs):
    codes = list(descs)
    for a, b, c in itertools.combinations(codes, 3):
        assert check_loose_bounds([descs[a], descs[b], descs[c]]), (a, b, c)


def test_d_e_self_is_zero(descs):
    for d in descs.values():
        assert d_e(d, d) == pytest.approx(0.0, abs=1e-12)


def test_d_e_fcc_hcp(descs):
    assert d_e(descs["FCC"], descs["HCP"]) == pytest.approx(math.log2(1.5), abs=1e-12)


def test_d_e_symmetric(descs):
    codes = list(descs)
    for a, b in itertools.combinations(codes, 2):
        assert d_e(descs[a], descs[b]) == pytest.approx(d_e(descs[b], descs[a]),
                                                        abs=1e-12)


def test_d_e_raw_mode_zero_diagonal(descs):
    for d in descs.values():
        assert d_e(d, d, union_mode="raw") == pytest.approx(0.0, abs=1e-12)


def test_raw_union_counts_classes(descs):
    # raw mode counts the classes hit, not the distinct angles in them
    for d in descs.values():
        want = math.log2(d.k * d.k - d.k) - math.log2(2.0 * np.count_nonzero(d.f))
        assert e_many([d], union_mode="raw") == pytest.approx(want, abs=1e-12)
    assert e_many([descs["SDS"]], union_mode="raw") > e_one(descs["SDS"])


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=40))
@settings(max_examples=200, deadline=None)
def test_e_one_monotonicity(k, m):
    m = min(m, k * (k - 1) // 2)
    e = e_one(_desc(k, m))
    if m + 1 <= k * (k - 1) // 2:
        assert e_one(_desc(k, m + 1)) < e  # more distinct angles, less order
    if (k + 1) * k // 2 >= m:
        assert e_one(_desc(k + 1, m)) > e  # more bonds, more order


@given(seed=st.integers(0, 2 ** 32 - 1), na=st.integers(1, 6),
       nb=st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_distances_match_scalar_d_e(seed, na, nb):
    """Random (k, f) with 1 <= f.sum() <= k(k-1)/2, some rows repeated."""
    rng = np.random.default_rng(seed)
    k = rng.integers(2, 15, size=na + nb)
    f = np.array([rng.multinomial(rng.integers(1, ki * (ki - 1) // 2 + 1),
                                  np.full(8, 0.125)) for ki in k])
    dup = rng.integers(0, na + nb, size=2)
    k[dup[0]], f[dup[0]] = k[dup[1]], f[dup[1]]
    descs = [ParticleDescriptor(k=int(ki), f=fi)
             for ki, fi in zip(k, f)]
    got = distances(k[:na], f[:na], k[na:], f[na:])
    assert got.shape == (na, nb)
    for i in range(na):
        for j in range(nb):
            assert got[i, j] == pytest.approx(d_e(descs[i], descs[na + j]),
                                              abs=1e-12)
    full = distances(k, f, k, f)
    assert np.array_equal(full, full.T)
    assert np.all(np.diag(full) == 0.0)
    # zero exactly on identical descriptors, positive elsewhere
    same = (k[:, None] == k) & (f[:, None, :] == f).all(axis=2)
    assert np.all(full[same] == 0.0)
    assert np.all(full[~same] > 0.0)


@given(seed=st.integers(0, 2 ** 32 - 1), na=st.integers(0, 40),
       nb=st.integers(0, 30), classes=st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_distances_union_equals_maximum_loop(seed, na, nb, classes):
    """The union by indicator products gives the distances of np.maximum
    against one row at a time, bit for bit, with counts 0 to 6 on both
    sides (the catalog's reach only 2 at the published epsilon)."""
    rng = np.random.default_rng(seed)
    fa = rng.integers(0, 7, size=(na, classes))
    fb = rng.integers(0, 7, size=(nb, classes))
    fa[fa.sum(axis=1) == 0, 0] = 1
    fb[fb.sum(axis=1) == 0, 0] = 1
    ka = rng.integers(2, 30, size=na) + fa.sum(axis=1)
    kb = rng.integers(2, 30, size=nb) + fb.sum(axis=1)
    got = distances(ka, fa, kb, fb)
    assert got.shape == (na, nb)
    if na and nb:
        assert got.tobytes() == distances_loop(ka, fa, kb, fb).tobytes()


def test_distance_matrix_equals_maximum_loop(catalog):
    """Every catalog distance matrix of a few discretizers, bit for bit."""
    for epsilon in (0.1, 1.0, 2.85):
        disc = cg.derive_discretizer(cg.collect_pool(catalog), epsilon=epsilon)
        k, f = cg.descriptor_arrays(catalog.geometries, disc)
        d = cg.distance_matrix(catalog, disc).d
        assert d.tobytes() == distances_loop(k, f, k, f).tobytes()


_PERM_CACHE = {}


def _perm_descs():
    if "d" not in _PERM_CACHE:
        catalog = cg.build_catalog()
        disc = cg.derive_discretizer(cg.collect_pool(catalog))
        _PERM_CACHE["d"] = {c: descriptor(catalog.get(c), disc)
                            for c in ("FCC", "HCP", "BCC", "ICO", "TET")}
    return _PERM_CACHE["d"]


@given(st.permutations(["FCC", "HCP", "BCC", "ICO", "TET"]))
@settings(max_examples=30, deadline=None)
def test_e_many_permutation_invariant(order):
    descs = _perm_descs()
    base = e_many([descs[c] for c in sorted(order)])
    assert e_many([descs[c] for c in order]) == pytest.approx(base, abs=1e-12)
