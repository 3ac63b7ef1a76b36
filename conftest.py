"""Options shared by ``tests/`` and ``benchmarks/``.

``--update-goldens`` rewrites the fixtures under ``tests/goldens/`` from
the current outputs instead of comparing against them; the heavy goldens
are read by the ``perf`` benches, so both directories need the flag.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens", action="store_true", default=False,
        help="rewrite tests/goldens/*.json from the current outputs "
             "instead of comparing against them")


@pytest.fixture(scope="session")
def update_goldens(request) -> bool:
    return bool(request.config.getoption("--update-goldens"))
