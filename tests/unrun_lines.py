"""List the lines of src/trisectrix that the tier-1 suite never runs.

    python tests/unrun_lines.py [pytest arguments]

Runs the suite in this process under a ``sys.settrace`` line tracer that
records frames of ``src/trisectrix`` only, then prints each executable
line no test ran (``path:line: source``) and their total.  The exit
status is pytest's.

Subprocesses are traced too.  This file is copied into a temporary user
site directory as ``sitecustomize.py``; the directory is put first on
PYTHONPATH and named by PYTHONUSERBASE, and the copy, imported at every
interpreter's start, traces that interpreter and writes its lines to a
file at exit.  A test that replaces PYTHONPATH (the CLI subprocesses of
test_cli and test_acceptance) is still reached through the user site.
An interpreter started with ``-S`` (test_records' import-footprint
checks, which only import the package), or with the user site off, is
not traced.

The instruction-count tests skip under the tracer, and the suite takes
about twice as long.  The file name keeps pytest from collecting it.
"""

import os
import sys


def _trace(package: str) -> set:
    """Start recording the (path, line) pairs run in files under ``package``, a real path ending in a separator."""
    hits = set()
    paths = {}  # co_filename -> its real path, or None outside the package

    def line(frame, event, arg):
        if event == "line":
            hits.add((paths[frame.f_code.co_filename], frame.f_lineno))
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        path = paths.get(name, False)
        if path is False:
            real = os.path.realpath(name)
            path = paths[name] = real if real.startswith(package) else None
        return None if path is None else line

    sys.settrace(call)
    return hits


def _executable(path: str) -> set:
    """The lines of the file at ``path`` a line tracer can see run.

    These are the lines of every code object in it past its prologue
    (the instructions up to RESUME, which carry the ``def`` line and
    raise no line event).
    """
    import dis
    import types

    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        body = next((i.offset + 2 for i in dis.get_instructions(code) if i.opname == "RESUME"), 0)
        lines |= {n for _, end, n in code.co_lines() if n is not None and end > body}
    return lines


def main(args: list[str]) -> int:
    import shutil
    import sysconfig
    import tempfile

    import pytest

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    package = os.path.realpath(os.path.join(root, "src", "trisectrix")) + os.sep
    with tempfile.TemporaryDirectory() as tmp:
        site_dir = sysconfig.get_path("purelib", f"{os.name}_user", vars={"userbase": tmp})
        os.makedirs(site_dir)
        shutil.copy(__file__, os.path.join(site_dir, "sitecustomize.py"))
        out_dir = os.path.join(tmp, "lines")
        os.mkdir(out_dir)
        os.environ.update(
            PYTHONPATH=os.pathsep.join(filter(None, [site_dir, os.environ.get("PYTHONPATH")])),
            PYTHONUSERBASE=tmp,
            UNRUN_LINES_OUT=out_dir,
            UNRUN_LINES_PACKAGE=package,
        )
        hits = _trace(package)
        try:
            status = pytest.main(["-q", "--continue-on-collection-errors", *args])
        finally:
            sys.settrace(None)
        for name in os.listdir(out_dir):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                for record in fh:
                    path, _, number = record.rstrip("\n").rpartition(":")
                    hits.add((path, int(number)))

    executable = unrun = 0
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        lines = _executable(path)
        executable += len(lines)
        for number in sorted(lines):
            if (path, number) not in hits:
                unrun += 1
                print(f"{os.path.relpath(path, root)}:{number}: {source[number - 1].strip()}")
    print(f"{unrun} of {executable} executable lines in src/trisectrix never ran")
    return int(status)


def _dump(hits: set, out_dir: str) -> None:
    with open(os.path.join(out_dir, f"{os.getpid()}.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{path}:{number}\n" for path, number in hits)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
elif __name__ == "sitecustomize" and "UNRUN_LINES_OUT" in os.environ:
    import atexit

    atexit.register(_dump, _trace(os.environ["UNRUN_LINES_PACKAGE"]), os.environ["UNRUN_LINES_OUT"])
