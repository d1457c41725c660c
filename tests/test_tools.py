"""The repository's tools: the certificate dump and the option count."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


def test_dump_certificates_repeats_byte_for_byte():
    first, second = (run_tool("tools/dump_certificates.py", "--src", "src", "smoke:1")
                     for _ in range(2))
    assert first.returncode == 0 and second.returncode == 0, first.stderr + second.stderr
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert len(lines) == 2   # smoke makes two inputs a run seed
    for line in lines:
        certificate, verify = json.loads(line)
        assert certificate["case"] == "one" and isinstance(verify, dict)


def test_count_options_ends_with_its_total():
    proc = run_tool("tools/count_options.py", "--src", "src")
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "total" and int(last[1]) > 0
