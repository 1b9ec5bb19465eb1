"""One qequil CLI run in a fresh interpreter, timed from the inside.

    python3 perfbench/child.py --result R.json [--trace] [--probe] -- <qequil argv>

Times the import of ``qequil.cli`` (numpy and scipy included) as set-up, then
the call into ``qequil.cli.main(argv)`` until it returns with its artifacts
written, and reads this process's peak RSS. With ``--trace`` the per-layer
wrappers are installed after the import and removed after the call. With
``--probe`` it only imports and records the environment. The measurements
go to the result file as JSON; the exit code is the CLI's.

Only the standard library is imported before the set-up clock starts.
"""
import json
import os
import resource
import sys
import time


def _blas_threads(numpy):
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import ctypes
    from pathlib import Path
    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_bytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(numpy),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_bytes / 2 ** 20, 1),
    }


def main(argv) -> int:
    split = argv.index("--")
    opts, cli_argv = argv[:split], argv[split + 1:]
    result_path = opts[opts.index("--result") + 1]
    traced = "--trace" in opts

    t0 = time.perf_counter()
    import qequil.cli
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if "--probe" in opts:
        result["env"] = environment()
        rc = 0
    else:
        out_dir = cli_argv[cli_argv.index("--out") + 1]
        if traced:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import tracer as tracing
            tr = tracing.Tracer()
            patches = tracing.install(tr)
        t1 = time.perf_counter()
        try:
            rc = qequil.cli.main(cli_argv)
        finally:
            wall_s = time.perf_counter() - t1
            if traced:
                tracing.uninstall(patches)
        result["wall_s"] = wall_s
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            artifact_bytes = sum(os.path.getsize(os.path.join(out_dir, f))
                                 for f in os.listdir(out_dir))
            result["layers"] = tr.layer_metrics(wall_s, artifact_bytes)
            result["patched"] = len(patches)
            result["leftover_wrappers"] = tracing.leftover_wrappers()
    result["rc"] = rc
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
