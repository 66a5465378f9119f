import pytest

import coordgeo as cg


@pytest.fixture(scope="session")
def catalog():
    return cg.build_catalog()


@pytest.fixture(scope="session")
def discretizer(catalog):
    return cg.derive_discretizer(cg.collect_pool(catalog), epsilon=2.85)


@pytest.fixture(scope="session")
def analyze(catalog, discretizer):
    """analyze_frame(frame, nl) against the catalog under the published
    discretizer, its descriptor arrays built once, as per-particle columns
    (e, k, m, labels, distances) read from its per-descriptor table."""
    descriptors = cg.descriptor_arrays(catalog.geometries, discretizer)

    def run(frame, nl):
        r = cg.analyze_frame(frame, nl, catalog.codes, descriptors,
                             discretizer)
        labels = [r.names[i] for i in r.label[r.row].tolist()]
        return r.e[r.row], r.k[r.row], r.m[r.row], labels, r.d_e[r.row]

    return run


@pytest.fixture(scope="session")
def dmatrix(catalog, discretizer):
    return cg.distance_matrix(catalog, discretizer)


@pytest.fixture(scope="session")
def embedding(dmatrix):
    return cg.mds(dmatrix, dims=8, seed=0, restarts=20)
