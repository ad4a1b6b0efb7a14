"""Subprocesses started by the tests (``python -m msd.cli``) import the
same msd as the tests, with or without PYTHONPATH set by the caller."""

import os
from pathlib import Path

import msd

_SRC = str(Path(msd.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
