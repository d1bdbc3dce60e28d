"""Run one localglmnet command in-process with every public function traced.

    python3 perfbench/traced_cli.py SPANS_FILE SRC_DIR -- <localglmnet arguments>

Imports ``localglmnet.cli`` from SRC_DIR (timing the import), installs the
wrappers of ``tracing``, calls ``localglmnet.cli.main(argv)``, writes the
spans to SPANS_FILE and exits with the command's exit code. SPANS_FILE
holds two JSON lines: the measurements, then the spans. The tracer's own
steps (installing the wrappers, serializing the spans) are timed, so that
the caller can tell them apart from the command's time.
"""

import json
import sys
import time

import tracing


def main():
    spans_path, src, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE SRC_DIR -- <arguments>")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import localglmnet.cli
    import_s = time.perf_counter() - start
    start = time.perf_counter()
    tracer = tracing.Tracer()
    aliases = tracing.install(tracer)
    install_s = time.perf_counter() - start
    code = localglmnet.cli.main(argv)
    start = time.perf_counter()
    spans = json.dumps(tracer.spans)
    dump_s = time.perf_counter() - start
    meta = {"import_s": import_s, "install_s": install_s, "dump_s": dump_s,
            "aliases": aliases, "module_file": localglmnet.cli.__file__}
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta) + "\n" + spans + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
