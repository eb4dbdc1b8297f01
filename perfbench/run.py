"""Benchmark entry point.

    python3 perfbench/run.py --workload btc-2019 --seed 2019 --seconds 10 --trace 0 \\
        --cores 4 --shuffle-partitions 64 --driver-heap 4g

Builds the program from source (see build.py), then runs one JVM with one
in-process Spark driver, `local[k]`. The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and the metrics that
BENCHMARK.json lists for the mode (end-to-end with --trace 0, per-layer with
--trace 1). Everything the run writes stays under `.bench_build/`.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

# A run that takes longer than this is stopped and reported as failed.
RUN_LIMIT_S = 170

# Module options that Spark's own launcher passes to a Java 17 driver.
JAVA_MODULE_OPTIONS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    *(f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in [
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]),
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=2019, help="workload seed passed to the chain generator")
    p.add_argument("--seconds", type=float, required=True, help="how long to run measured passes")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--cores", type=int, default=4, help="k in local[k]; capped at the CPU count")
    p.add_argument("--shuffle-partitions", type=int, default=64)
    p.add_argument("--driver-heap", default="4g", help="JVM -Xmx of the driver")
    return p.parse_args()


def main() -> int:
    args = parse_args()
    spec = json.loads((build.ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"perfbench: unknown workload {args.workload}")
    classes = build.build()
    cores = max(1, min(args.cores, os.cpu_count() or 1))

    work = build.OUT / "work"
    tmp = build.OUT / "tmp"
    for d in (work, tmp):
        d.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ,
               SPARK_MASTER=f"local[{cores}]",
               SPARK_SHUFFLE_PARTITIONS=str(args.shuffle_partitions),
               SPARK_LOCAL_DIRS=str(tmp))
    cmd = [build.java(), f"-Xmx{args.driver_heap}", "-XX:-UsePerfData", *JAVA_MODULE_OPTIONS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={Path(__file__).resolve().parent / 'log4j2.properties'}",
           "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
           f"-Dspark.sql.warehouse.dir={work / 'spark-warehouse'}",
           "-cp", os.pathsep.join([str(classes), str(build.spark_home() / "jars" / "*")]),
           "perfbench.Bench",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cores", str(cores), "--root", str(build.ROOT)]
    print(f"perfbench: local[{cores}], {args.shuffle_partitions} shuffle partitions, "
          f"driver heap {args.driver_heap}", file=sys.stderr)

    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # On SIGTERM, unwind through the `finally` below so the JVM is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_LIMIT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        sys.exit(f"perfbench: benchmark JVM exited with code {proc.returncode}")

    result = json.loads(lines[-1])
    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        sys.exit(f"perfbench: metrics not measured: {', '.join(missing)}")
    result["metrics"] = {n: result["metrics"][n] for n in wanted}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
