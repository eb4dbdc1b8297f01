"""Build file of the benchmark: compiles the program's Scala sources together
with the benchmark's own into `.bench_build/classes` under the checkout.

The Scala compiler and every library come from the Spark distribution at
$SPARK_HOME (its jars/ holds scala-compiler). A build is skipped when the
sources are byte-identical to the last successful one.

    python3 perfbench/build.py          # from the checkout root
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build"
CLASSES = OUT / "classes"
STAMP = OUT / "classes.sha256"
# The program (main sources plus the job entry points) and the benchmark.
SOURCE_DIRS = ["src/main/scala", "jobs", "perfbench/src"]


def spark_home() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        sys.exit("perfbench: set SPARK_HOME to a Spark 4 distribution (its jars/ is the classpath)")
    return Path(home)


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = str(Path(home) / "bin" / "java") if home else shutil.which("java")
    if not exe or not Path(exe).exists():
        sys.exit("perfbench: no java found (set JAVA_HOME or put java on PATH)")
    return exe


def sources() -> list:
    missing = [d for d in SOURCE_DIRS if not (ROOT / d).is_dir()]
    if missing:
        sys.exit(f"perfbench: program sources not found: {', '.join(missing)}")
    return sorted(p for d in SOURCE_DIRS for p in (ROOT / d).rglob("*.scala"))


def build() -> Path:
    """Compile if needed; return the directory of compiled classes."""
    files = sources()
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    stamp = digest.hexdigest()
    if CLASSES.is_dir() and STAMP.is_file() and STAMP.read_text() == stamp:
        return CLASSES
    shutil.rmtree(CLASSES, ignore_errors=True)
    CLASSES.mkdir(parents=True)
    cmd = [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", str(spark_home() / "jars" / "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", str(CLASSES)] + [str(f) for f in files]
    print(f"perfbench: compiling {len(files)} Scala files", file=sys.stderr)
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        shutil.rmtree(CLASSES, ignore_errors=True)
        sys.exit("perfbench: compilation failed")
    STAMP.write_text(stamp)
    return CLASSES


if __name__ == "__main__":
    print(build())
