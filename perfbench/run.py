"""The repository's benchmark: one paper-shaped tuning workload per run.

    python3 perfbench/run.py --workload cold_tune --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/README.md``): ``cold_tune``, ``warm_retune``,
``served_churn``.  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics; with ``--trace 1`` the run
first repeats half the window untraced, then replays the same sessions
with every layer's public entry points wrapped, and reports per-layer
metrics.  Outputs are checked against ``expected.json`` (offline) or an
offline re-run (served); failures are counted, never hidden.
"""

import time

PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    HERE,
    ROOT,
    child_env,
    describe,
    fingerprint,
    metric,
    percentile,
    refused_environment,
    use_checkout_sources,
    use_tmpdir,
)
from speed import NOMINAL_S, SpeedMeter  # noqa: E402

WORKLOADS = ("cold_tune", "warm_retune", "served_churn")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


def _ms(values, q):
    return percentile(values, q) * 1e3


def end_to_end(*, setup_s, sessions, session_s, busy_s, requests, ask_s, tell_s,
               create_s, peak_rss_mb, normalized, success_rate) -> dict:
    """The end-to-end metrics from timings already at nominal speed."""
    return {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "sessions_per_s": metric(sessions / busy_s, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "session_s_p50": metric(statistics.median(session_s), "s"),
        "normalized_best_mean": metric(normalized, "ratio"),
        "requests_per_s": metric(requests / busy_s, "1/s"),
        "ask_ms_p50": metric(_ms(ask_s, 0.5), "ms"),
        "ask_ms_p95": metric(_ms(ask_s, 0.95), "ms"),
        "tell_ms_p50": metric(_ms(tell_s, 0.5), "ms"),
        "tell_ms_p95": metric(_ms(tell_s, 0.95), "ms"),
        "create_ms_p50": metric(_ms(create_s, 0.5), "ms"),
        "success_rate": metric(success_rate, "ratio"),
    }


def _since_start() -> float:
    return time.perf_counter() - PROCESS_STARTED


# -- offline ------------------------------------------------------------------


def probe_setup(workload: str, seed: int, work: Path) -> None:
    """Child-process set-up sample: imports, kernel build, set-up work."""
    import offline

    use_tmpdir(work / "tmp")
    offline.set_up(workload, seed, work)
    print(json.dumps({"setup_s": _since_start()}))


def offline_setup_probe(workload: str, seed: int, work: Path) -> float:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--probe-setup",
        "--workload", workload, "--seed", str(seed), "--work", str(work),
    ]
    work.mkdir(parents=True)
    done = subprocess.run(
        cmd, capture_output=True, text=True, timeout=170,
        env=child_env(work / "tmp"), check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_offline(args, work: Path) -> dict:
    import offline
    from tracer import layer_metrics

    use_tmpdir(work / "tmp")
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    items, copies = offline.set_up(args.workload, args.seed, work)
    setup = [_since_start()]
    meter = SpeedMeter()
    for _ in range(3):
        meter.sample()
    phases = offline.PhaseClock()
    out = {"info": {}}
    if not args.trace:
        deadline = time.perf_counter() + args.seconds
        records = offline.timed_sessions(
            items, copies, deadline=deadline, phases=phases, between=meter.sample
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        untraced, traced, totals, shares = offline.traced_replay(
            items, copies, seconds=args.seconds / 2
        )
        records = untraced + traced
        from repro.ml import _native

        out["per_layer"] = layer_metrics(
            totals, native=_native.available(), extra=shares
        )

    failed = offline.check(records, expected)
    normalized, same = offline.normalized_mean(records, expected)
    for i in range(1, SETUP_SAMPLES):
        setup.append(
            offline_setup_probe(args.workload, args.seed, work / f"probe{i}")
        )
        meter.sample()
    walls = [w for _i, w, _s in records]
    out.update(correct=failed == 0 and same, attempted=len(records), failed=failed)
    out["info"]["samples"] = {
        "session_s": describe(walls),
        "setup_s": setup,
        "ask_s": describe(phases.ask_s),
        "tell_s": describe(phases.tell_s),
        "create_s": describe(phases.create_s),
        "speed_factor": meter.factor(),
        "speed_samples": len(meter.samples),
    }
    if not args.trace:
        # Each session at the speed measured just before and after it.
        refs = meter.samples[2 : 3 + len(records)]
        local = [(a + b) / 2 / NOMINAL_S for a, b in zip(refs, refs[1:])]

        def scaled(values):
            return [v / f for v, f in zip(values, local)]

        session_s = scaled(walls)
        out["end_to_end"] = end_to_end(
            setup_s=[s / meter.factor() for s in setup],
            sessions=len(records),
            session_s=session_s,
            busy_s=sum(session_s),
            requests=phases.requests,
            ask_s=scaled(phases.ask_s),
            tell_s=scaled(phases.tell_s),
            create_s=scaled(phases.create_s),
            peak_rss_mb=peak_rss_mb,
            normalized=normalized,
            success_rate=1 - failed / len(records),
        )
    return out


# -- served -------------------------------------------------------------------


def run_served(args, work: Path) -> dict:
    import served
    from tracer import layer_metrics, overhead_share

    # Served set-up is the daemon's start and warm-up session; the
    # client's own imports come first so all set-up samples time the same.
    import repro.serve.client  # noqa: F401

    meter = SpeedMeter()
    daemons = []
    try:
        daemon, first_setup = served.start_daemon(work, "main", traced=False)
        daemons.append(daemon)
        setup = [first_setup]
        for _ in range(3):
            meter.sample()
        window = args.seconds if not args.trace else args.seconds / 2
        before = served.cache_counts(daemon.port)
        # Sampled beside the busy daemon: on two cores the kernel then
        # sees the machine as the daemon does.
        meter.start_background()
        try:
            loop = served.ClosedLoop(
                daemon.port,
                served.plan(args.seed),
                deadline=time.perf_counter() + window,
            ).run()
        finally:
            meter.stop()
        after = served.cache_counts(daemon.port)
        daemon.stop()
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        )
        loops = [loop]
        out = {"info": {}}
        if args.trace:
            replay_daemon, _ = served.start_daemon(work, "traced", traced=True)
            daemons.append(replay_daemon)
            before = served.cache_counts(replay_daemon.port)
            replay = served.ClosedLoop(
                replay_daemon.port, served.plan(args.seed), limit=loop.issued
            ).run()
            after = served.cache_counts(replay_daemon.port)
            totals = replay_daemon.stop()
            loops.append(replay)
            client_s = sum(sum(v) for v in replay.latency_s.values())
            manager_s = sum(
                totals.get(f"serve.{op}", {"total_s": 0.0})["total_s"]
                for op in ("create", "ask", "tell")
            )
            active_s = sum(replay.thread_s)
            from repro.ml import _native

            out["per_layer"] = layer_metrics(
                totals,
                native=_native.available(),
                extra={
                    **served.hit_ratios(before, after),
                    "serve.http.wait_ms_mean": (
                        (client_s - manager_s) / replay.requests * 1e3
                    ),
                    # Client threads either wait on a request (served by
                    # the serve layer and below, or by HTTP) or run the
                    # client loop's own work, which no layer owns.
                    "trace.unattributed_share": (active_s - client_s) / active_s,
                    "trace.overhead_share": overhead_share(
                        replay.wall_s, loop.wall_s
                    ),
                },
            )
        for i in range(1, SETUP_SAMPLES):
            probe, seconds = served.start_daemon(work, f"probe{i}", traced=False)
            daemons.append(probe)
            probe.stop()
            setup.append(seconds)
            meter.sample()
    except BaseException:
        for d in daemons:
            d.kill()
        raise

    checked = mismatched = 0
    for each in loops:
        c, m = served.check_sessions(each.completed)
        checked += c
        mismatched += m
    request_failures = sum(each.failed for each in loops)
    attempted = sum(each.requests + each.failed for each in loops) + checked
    failed = request_failures + mismatched
    normalized = served.normalized_values(loop.completed)
    lat = loop.latency_s
    out.update(
        correct=failed == 0 and bool(loop.completed),
        attempted=attempted,
        failed=failed,
    )
    session_s = [c["session_s"] for c in loop.completed]
    out["info"]["samples"] = {
        "session_s": describe(session_s),
        "setup_s": setup,
        **{f"{op}_s": describe(v) for op, v in lat.items()},
        "checked_sessions": checked,
        "speed_factor": meter.factor(),
        "speed_samples": len(meter.samples),
    }
    if not args.trace:
        factor = meter.factor()

        def scaled(values):
            return [v / factor for v in values]

        out["end_to_end"] = end_to_end(
            setup_s=scaled(setup),
            sessions=len(loop.completed),
            session_s=scaled(session_s),
            busy_s=loop.wall_s / factor,
            requests=loop.requests,
            ask_s=scaled(lat["ask"]),
            tell_s=scaled(lat["tell"]),
            create_s=scaled(lat["create"]),
            peak_rss_mb=peak_rss_mb,
            normalized=sum(normalized) / len(normalized),
            success_rate=1 - failed / attempted,
        )
    return out


# -- entry point ----------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    refused = refused_environment()
    if refused:
        print(
            "perfbench: refusing to run off the default path; unset "
            + ", ".join(refused),
            file=sys.stderr,
        )
        return 3
    use_checkout_sources()
    if args.probe_setup:
        probe_setup(args.workload, args.seed, Path(args.work))
        return 0
    scratch = ROOT / ".perfbench-work"
    work = scratch / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.workload == "served_churn":
            use_tmpdir(work / "tmp")
            out = run_served(args, work)
        else:
            out = run_offline(args, work)
        out["info"]["fingerprint"] = fingerprint()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    metrics = out["per_layer"] if args.trace else out["end_to_end"]
    print("perfbench: " + json.dumps(out["info"], sort_keys=True))
    print(
        json.dumps(
            {
                "correct": out["correct"],
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
