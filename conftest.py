"""Repository-level pytest configuration.

Ensures the ``src`` layout is importable even when the package has not been
installed (useful on minimal offline environments); when ``repro`` is already
installed the editable install takes precedence and this is a no-op.

It also isolates the default artifact-cache root for every collected test —
``tests/`` and ``benchmarks/`` alike.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


@pytest.fixture(scope="session", autouse=True)
def isolated_cache_root(tmp_path_factory):
    """Point the default cache root (``$REPRO_CACHE_DIR``) at a temp dir.

    Without it, anything that falls back to the default root — services
    built without ``cache_dir`` — would write under
    ``~/.cache/repro-cassandra``.  Tests that set the variable themselves
    via ``monkeypatch`` restore this value afterwards.
    """
    from repro.pipeline.artifacts import CACHE_DIR_ENV

    root = tmp_path_factory.mktemp("repro-cache-root")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_DIR_ENV, str(root))
        yield root
