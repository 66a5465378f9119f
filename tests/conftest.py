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
    discretizer, its descriptor arrays built once."""
    descriptors = cg.descriptor_arrays(catalog.geometries, discretizer)
    return lambda frame, nl: cg.analyze_frame(frame, nl, catalog.codes,
                                              descriptors, discretizer)


@pytest.fixture(scope="session")
def dmatrix(catalog, discretizer):
    return cg.distance_matrix(catalog, discretizer)


@pytest.fixture(scope="session")
def embedding(dmatrix):
    return cg.mds(dmatrix, dims=8, seed=0, restarts=20)
