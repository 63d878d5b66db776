import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polymer_lab
from polymer_lab import walk

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SCRIPT_NAME = "polymer-lab"


@pytest.fixture(scope="session")
def kernel1() -> walk.TransitionKernel:
    return walk.build_kernel(1, 128)


@pytest.fixture(scope="session")
def kernel2() -> walk.TransitionKernel:
    return walk.build_kernel(2, 64)


def _declared_entry_point(name: str) -> tuple[str, str]:
    """(module, function) of console script `name` in [project.scripts].

    A regex rather than tomllib, which Python 3.10 does not ship.
    """
    section = re.search(
        r"^\[project\.scripts\][ \t]*\n(.*?)(?=^\[|\Z)", PYPROJECT.read_text(), re.M | re.S
    )
    entry = section and re.search(
        rf"^[ \t]*\"?{re.escape(name)}\"?[ \t]*=[ \t]*[\"']([\w.]+):(\w+)[\"']",
        section.group(1),
        re.M,
    )
    if not entry:
        pytest.fail(
            f"no `{name} = \"module:function\"` entry under [project.scripts] in {PYPROJECT}"
        )
    return entry.group(1), entry.group(2)


@pytest.fixture(scope="session")
def package_env() -> dict:
    """The environment for a fresh interpreter that imports this `polymer_lab`.

    The directory holding the imported package goes first on PYTHONPATH,
    which is the source tree in a checkout and site-packages in an install.
    """
    package_root = str(Path(polymer_lab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture(scope="session")
def polymer_lab_cli(package_env):
    """Run the declared `polymer-lab` console script in a fresh interpreter.

    Calls the [project.scripts] target the way the installed wrapper does,
    with package_env, so the tests need no install.  `extra_env` sets
    further environment variables for one run.
    """
    module, function = _declared_entry_point(SCRIPT_NAME)
    code = f"import sys; from {module} import {function}; sys.exit({function}())"

    def run(*args: str, extra_env: dict | None = None) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", code, *args],
            capture_output=True,
            text=True,
            env={**package_env, **(extra_env or {})},
        )

    return run
