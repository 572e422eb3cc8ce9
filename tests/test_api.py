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
    # the run loop's worker thread comes from threading, which numpy
    # already loads; concurrent.futures would pull in logging
    code = (
        "import sys, dampedwave; "
        "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"
