"""The repository's tools: the certificate dump, the option count and the
traffic coverage."""
import json
import re
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
    # a ratchet: a new option changes this bound in view of its reviewer
    assert int(last[1]) <= 48


def test_traffic_coverage_lists_the_functions_no_input_ran():
    proc = run_tool("tools/traffic_coverage.py", "--src", "src", "smoke:1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"total \d+ lines in \d+ functions", lines[-1])
    names = set()
    for line in lines[:-1]:
        found = re.fullmatch(r"(\w+\.py):\d+ ([\w.]+) \(\d+ lines\)", line)
        assert found, line
        names.add(found[2])
    assert not names & {"run_test", "fit_sections", "mfin_distance"}
    assert "fit_kplanes" in names   # the k-planes baseline is no part of the test
