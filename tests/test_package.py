"""Tests for the package surface."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import f1bench


def test_every_exported_name_resolves():
    # a stale ``__all__`` entry breaks ``from module import *``
    modules = pkgutil.iter_modules(f1bench.__path__)
    for name in ["f1bench"] + [f"f1bench.{info.name}" for info in modules]:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        assert [n for n in exported if not hasattr(module, n)] == [], name
        exec(f"from {name} import *", {})


def test_runtime_imports_stay_numpy_only():
    # scipy and mpmath are installed for the tests only; the package and
    # a full command must load neither
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, f1bench\n"
            "from f1bench import cli\n"
            "cli.main(['calibrate'])\n"
            "print(sorted({name.partition('.')[0] for name in sys.modules}"
            " & {'scipy', 'mpmath'}))\n")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
