"""Suite-wide fixtures."""

import pytest

from driftsketch import cli
from driftsketch.core import ConfigError, DataError


def _strict(handler):
    """`handler`, failing the test on an exception that `cli.main` would
    report as ``internal-error``; `pytest.fail` is not an `Exception`, so
    `main` lets it through."""
    def run(args):
        try:
            return handler(args)
        except (ConfigError, DataError, OSError):
            raise
        except Exception as exc:
            pytest.fail(f"{handler.__name__} raised {exc!r}")
    return run


@pytest.fixture(scope="session", autouse=True)
def _internal_errors_fail():
    """A test that runs a command in process fails on a fault of the program,
    so a data error it expects (exit 3, as an internal error is) cannot hide
    one. Session-scoped, so Hypothesis tests take it too."""
    with pytest.MonkeyPatch.context() as patch:
        for name, handler in cli._COMMANDS.items():
            patch.setitem(cli._COMMANDS, name, _strict(handler))
        yield
