"""Environment for child interpreters that must import this sulvalab."""

import os
from pathlib import Path

import sulvalab

# The directory that holds the sulvalab this process imported: ``src`` in a
# checkout, ``site-packages`` for an installed copy.
PACKAGE_ROOT = Path(sulvalab.__file__).resolve().parent.parent


def child_env() -> dict:
    """The environment with PACKAGE_ROOT first on an absolute PYTHONPATH.

    Children may run from another directory, where a relative entry such as
    ``PYTHONPATH=src`` would point at nothing.
    """
    env = os.environ.copy()
    paths = [str(PACKAGE_ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env
