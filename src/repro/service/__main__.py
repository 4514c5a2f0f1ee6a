"""CLI for the detection daemon.

``python -m repro.service serve`` runs a daemon in the foreground
(SIGTERM triggers a graceful drain before exit);
``detect``/``stats``/``health``/``ping``/``drain``/``shutdown`` are
thin clients for a running daemon. ``detect`` takes either a benchmark
workload name (compiled through the standard pipeline) or ``--file``
with module IR text, round-trips the report through the wire format and
prints the per-category totals a local run would print.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading

from .core import ServiceConfig
from .daemon import DEFAULT_PORT, DetectionDaemon, ServiceClient


def _add_endpoint(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Resident multi-tenant idiom-detection daemon")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a daemon in the foreground")
    _add_endpoint(serve)
    serve.add_argument("--workers", type=int, default=1,
                       help="detection thread pool size per batch")
    serve.add_argument("--ordering",
                       choices=["forest", "plan", "dynamic"],
                       default="forest", help="solve configuration")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="keep the artifact store on disk, across "
                            "restarts (default: in memory)")
    serve.add_argument("--budget-mb", type=float, default=None,
                       metavar="MB",
                       help="artifact store byte budget, in memory or on "
                            "disk; entries are evicted past it (default: "
                            "64 MB in memory, no cap on disk)")
    serve.add_argument("--eviction", choices=["lru", "generational"],
                       default="lru", help="store eviction policy")
    serve.add_argument("--window-ms", type=float, default=2.0,
                       help="micro-batch collection window (default 2ms)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="requests per micro-batch (default 32)")
    serve.add_argument("--dispatchers", type=int, default=2,
                       help="concurrent batch executors (default 2)")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-function solve deadline")
    serve.add_argument("--max-retries", type=int, default=2)
    serve.add_argument("--max-pending", type=int, default=1024,
                       help="admission-control cap on queued requests "
                            "(default 1024); excess load is shed with a "
                            "typed retryable error")
    serve.add_argument("--tenant-quota", type=int, default=None,
                       metavar="N",
                       help="per-tenant pending-queue cap (default: "
                            "max-pending/4)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="how long SIGTERM waits for in-flight work "
                            "before exiting (default 30s)")
    serve.add_argument("--profile", default=None, metavar="PATH",
                       help="calibration profile JSON used to cost "
                            "joint placement ('plan') batches "
                            "(default: static constants)")

    detect = sub.add_parser("detect",
                            help="submit one module to a running daemon")
    _add_endpoint(detect)
    detect.add_argument("workload", nargs="?",
                        help="benchmark workload name to compile+submit")
    detect.add_argument("--file", default=None, metavar="PATH",
                        help="module IR text to submit instead of a "
                             "workload ('-' for stdin)")
    detect.add_argument("--tenant", default="cli")
    detect.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="end-to-end request deadline, enforced at "
                             "admission and inside the solver")
    detect.add_argument("--json", action="store_true",
                        help="print the raw wire response")

    drain = sub.add_parser(
        "drain", help="stop the daemon admitting; wait for in-flight")
    _add_endpoint(drain)
    drain.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="max wait for the queue to empty")

    for name, text in (("stats", "print a running daemon's counters"),
                       ("health", "print lifecycle state + queue depths"),
                       ("ping", "check a daemon is up"),
                       ("shutdown", "stop a running daemon")):
        command = sub.add_parser(name, help=text)
        _add_endpoint(command)
    return parser


def _serve(args) -> int:
    profile = None
    if args.profile is not None:
        from ..platform.calibrate import read_profile_json

        profile = read_profile_json(args.profile, strict=True)
    config = ServiceConfig(
        workers=args.workers, ordering=args.ordering,
        cache_dir=args.cache_dir,
        budget_bytes=None if args.budget_mb is None
        else int(args.budget_mb * 1024 * 1024),
        eviction=args.eviction,
        batch_window_s=args.window_ms / 1e3,
        max_batch=args.max_batch, dispatchers=args.dispatchers,
        deadline_s=args.deadline, max_retries=args.max_retries,
        max_pending=args.max_pending, tenant_quota=args.tenant_quota,
        profile=profile)
    daemon = DetectionDaemon(args.host, args.port, config=config)
    host, port = daemon.address

    def _graceful(_signum, _frame):
        # Drain in a helper thread (a signal handler must not block),
        # then stop the serve loop; the finally-close below finishes up.
        def drain_and_stop():
            daemon.drain(args.drain_timeout)
            daemon.shutdown()

        threading.Thread(target=drain_and_stop, daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    print(f"repro detection daemon on {host}:{port} "
          f"(warmup {daemon.service.warmup_s:.2f}s, "
          f"workers={config.workers}, "
          f"window={config.batch_window_s * 1e3:.1f}ms, "
          f"max_pending={config.max_pending})",
          flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.close()
    return 0


def _module_text(args) -> str:
    if args.file is not None:
        if args.file == "-":
            return sys.stdin.read()
        with open(args.file, "r", encoding="utf-8") as fh:
            return fh.read()
    if not args.workload:
        raise SystemExit("detect needs a workload name or --file")
    from ..ir.printer import print_module
    from ..experiments.suites import compile_suite

    [(_, module)] = compile_suite([args.workload])
    return print_module(module)


def _detect(args) -> int:
    from ..ir.parser import parse_module

    text = _module_text(args)
    with ServiceClient(args.host, args.port) as client:
        response = client.detect(text, tenant=args.tenant,
                                 deadline_s=args.deadline)
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0
    from .wire import decode_report

    report = decode_report(response["report"], parse_module(text))
    print(f"{report.module_name}: {report.total()} match(es) "
          f"in {response['latency_s'] * 1e3:.1f}ms")
    for category, count in sorted(report.by_category().items()):
        print(f"  {category:24s} {count}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    if args.command == "detect":
        return _detect(args)
    with ServiceClient(args.host, args.port) as client:
        if args.command == "ping":
            print("pong" if client.ping() else "no answer")
        elif args.command == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
        elif args.command == "health":
            print(json.dumps(client.health(), indent=2, sort_keys=True))
        elif args.command == "drain":
            print(json.dumps(client.drain(args.timeout), indent=2,
                             sort_keys=True))
        elif args.command == "shutdown":
            client.shutdown()
            print("daemon shutting down")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
