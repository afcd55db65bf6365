import pathlib
import sys

import pytest
from hypothesis import settings

# reproducible property tests: same examples every run
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")

sys.path.insert(0, str(pathlib.Path(__file__).parent))

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def aon_fixture():
    from loopforge.aon import parse_aon

    return parse_aon((DATA / "sample_aon.txt").read_text())


@pytest.fixture(scope="session")
def aon_fixture_loop():
    from loopforge.fileio import parse_loop

    return parse_loop((DATA / "sample_aon_loop.txt").read_text())


@pytest.fixture(scope="session")
def ww_fixture():
    from loopforge.waterwalk import parse_ww

    return parse_ww((DATA / "sample_ww.txt").read_text())


@pytest.fixture(scope="session")
def ww_fixture_loop():
    from loopforge.fileio import parse_loop

    return parse_loop((DATA / "sample_ww_loop.txt").read_text())


@pytest.fixture(scope="session")
def aon_certificate():
    """The canonical-orientation gadget certificate (a few seconds to build)."""
    from loopforge.reduction import certify_gadget

    return certify_gadget("aon")


@pytest.fixture(scope="session")
def ring_2x1000():
    """The 2x1000 grid graph that is only its perimeter: one 2000-vertex
    Hamiltonian cycle, far deeper than the interpreter's recursion limit."""
    from loopforge.model import grid_graph

    cols = 1000
    edges = [((x, y), (x + 1, y)) for x in range(cols - 1) for y in (0, 1)]
    edges += [((0, 0), (0, 1)), ((cols - 1, 0), (cols - 1, 1))]
    return grid_graph(cols, 2, edges)
