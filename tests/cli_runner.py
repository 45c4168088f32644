"""Run `chowkit` in process and capture what it wrote.

invoke(args) calls chowkit.cli.main with stdout and stderr redirected and
returns the exit code, the stdout bytes, the stderr text, both streams
interleaved in the order they were written (``output``), and the exception
that ended the run: the SystemExit of a nonzero exit, any other exception
(exit code 1), or None.
"""

import io
import sys
from collections import namedtuple

from chowkit.cli import main

Result = namedtuple("Result", "exit_code stdout_bytes stderr output exception")


class _Copied(io.BytesIO):
    """A byte stream whose writes are also appended to a shared one."""

    def __init__(self, shared):
        super().__init__()
        self.shared = shared

    def write(self, data):
        self.shared.write(data)
        return super().write(data)


def invoke(args) -> Result:
    mixed = io.BytesIO()
    out, err = _Copied(mixed), _Copied(mixed)
    # The text streams close their buffers when collected: keep them until the end.
    streams = [io.TextIOWrapper(buffer, encoding="utf-8", write_through=True)
               for buffer in (out, err)]
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = streams
    exit_code, exception = 0, None
    try:
        main(list(args))
    except SystemExit as stop:
        exit_code = 0 if stop.code is None else stop.code
        exception = stop if exit_code else None
    except Exception as error:
        exit_code, exception = 1, error
    finally:
        sys.stdout, sys.stderr = saved
    return Result(exit_code, out.getvalue(), err.getvalue().decode(),
                  mixed.getvalue().decode(), exception)
