import numpy as np
import pytest

from momtraj import grid_1d, grid_2d


@pytest.fixture
def grid512():
    return grid_1d(512, 40.0)


@pytest.fixture
def grid_wide():
    return grid_1d(512, 80.0)


@pytest.fixture
def grid2d():
    return grid_2d(128, 40.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _plain_csv(header, rows):
    """CSV text joined cell by cell: a float cell as `repr` writes it, any other cell as `str`."""
    return "".join(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n"
                   for row in [header, *rows])


@pytest.fixture
def plain_csv():
    """The reference CSV writer that the artifact writers must match byte for byte."""
    return _plain_csv
