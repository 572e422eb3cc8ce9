import subprocess
import sys

import dampedwave


def test_every_public_name_resolves():
    missing = [name for name in dampedwave.__all__ if not hasattr(dampedwave, name)]
    assert missing == []
    assert len(set(dampedwave.__all__)) == len(dampedwave.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from dampedwave import *", namespace)
    assert set(dampedwave.__all__) <= set(namespace)


def test_import_loads_no_thread_pool_or_logging():
    # the job thread comes from concurrent.futures, which pulls in
    # logging; it is imported at the first threaded JobThread, not here
    code = (
        "import sys, dampedwave; "
        "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"
