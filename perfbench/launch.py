"""Run one defectlab CLI invocation in this process, as the console script does.

Usage: python3 launch.py SRC_DIR MARK_FD TRACE_BASE -- CLI_ARGS...

Imports `defectlab.cli` from SRC_DIR and writes to the file descriptor
MARK_FD two lines: when the import finished (clock reading and the
import's own duration), and, once `cli.main(CLI_ARGS)` has returned, the
peak resident set of this process in KiB. It then exits with the CLI's
code. The peak is read from VmHWM because the ru_maxrss that wait4
reports for a child also counts the resident set of the parent that
spawned it. With TRACE_BASE other than "-", the tracer of `tracer.py` is
installed after the import and its spans are written to
TRACE_BASE.spans / TRACE_BASE.json when the CLI returns.
"""
import os
import sys
import time


def main() -> int:
    src_dir, mark_fd, trace_base, sep = sys.argv[1:5]
    if sep != "--":
        raise SystemExit("usage: launch.py SRC_DIR MARK_FD TRACE_BASE -- ARGS...")
    argv = sys.argv[5:]
    sys.path.insert(0, src_dir)
    started = time.monotonic()
    from defectlab import cli
    imported = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src_dir) + os.sep):
        raise SystemExit(f"defectlab imported from {cli.__file__}, not from {src_dir}")
    mark = int(mark_fd)
    os.write(mark, f"{imported!r} {imported - started!r}\n".encode())
    spans = None
    if trace_base != "-":
        import tracer

        spans = tracer.Tracer()
        spans.install()
    try:
        return cli.main(argv)
    finally:
        if spans is not None:
            spans.dump(trace_base, imported - started)
        with open("/proc/self/status") as status:
            peak_kib = status.read().split("VmHWM:")[1].split()[0]
        os.write(mark, f"{peak_kib}\n".encode())
        os.close(mark)


if __name__ == "__main__":
    sys.exit(main())
