#!/usr/bin/env python3
"""Validates bench reports (BENCH_*.json) written by bench/report.cc.

The checker is generic: it knows the report envelope and the gate record,
not any particular bench. For each file it checks the envelope ("bench",
"schema_version" 2, "hardware_threads", "gates") and re-evaluates every
recorded gate {name, value, op, bound, min_cores, enforced, pass}:

  - names are unique and op is one of >=, >, <=, <, ==;
  - enforced == (hardware_threads >= min_cores);
  - pass == (value and bound are finite numbers and `value op bound`);
  - an enforced gate has a value (null records a non-finite measurement)
    and passes.

A file fails on a malformed or inconsistent record and on every failing
enforced gate, one line each; the exit status is 1 if any file fails.
Stdlib only, so CI and tools/run_bench.sh can run it anywhere.

Usage: check_bench_schema.py REPORT.json [REPORT.json ...]
"""

import json
import math
import operator
import sys

SCHEMA_VERSION = 2
ENVELOPE_KEYS = ("bench", "schema_version", "hardware_threads", "gates")
GATE_KEYS = ("name", "value", "op", "bound", "min_cores", "enforced", "pass")
OPS = {
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
    "==": operator.eq,
}


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def is_count(x):
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def holds(gate):
    value, bound = gate["value"], gate["bound"]
    if not (is_number(value) and is_number(bound)):
        return False
    if not (math.isfinite(value) and math.isfinite(bound)):
        return False
    return OPS[gate["op"]](value, bound)


def check_gate(gate, threads, errors, failures):
    missing = [key for key in GATE_KEYS if key not in gate]
    if missing:
        errors.append(f"gate {gate.get('name')!r} missing keys: {missing}")
        return
    where = f"gate {gate['name']!r}"
    if gate["op"] not in OPS:
        errors.append(f"{where}: unknown op {gate['op']!r}")
        return
    for key in ("value", "bound"):
        if gate[key] is not None and not is_number(gate[key]):
            errors.append(f"{where}: {key} must be a number or null")
            return
    if not is_count(gate["min_cores"]):
        errors.append(f"{where}: min_cores must be a non-negative integer")
        return
    if not (isinstance(gate["enforced"], bool)
            and isinstance(gate["pass"], bool)):
        errors.append(f"{where}: enforced and pass must be booleans")
        return
    if gate["enforced"] != (threads >= gate["min_cores"]):
        errors.append(
            f"{where}: enforced is {gate['enforced']} but hardware_threads "
            f"{threads} vs min_cores {gate['min_cores']} says otherwise")
    verdict = holds(gate)
    if gate["pass"] != verdict:
        errors.append(
            f"{where}: recorded pass {gate['pass']} but {gate['value']} "
            f"{gate['op']} {gate['bound']} is {verdict}")
    if gate["enforced"]:
        if gate["value"] is None:
            errors.append(f"{where}: enforced gate has a null value")
        elif not verdict:
            failures.append(
                f"gate {gate['name']} failed: {gate['value']} {gate['op']} "
                f"{gate['bound']}")


def check_doc(doc, errors, failures):
    if not isinstance(doc, dict):
        errors.append("a report must be a JSON object")
        return
    missing = [key for key in ENVELOPE_KEYS if key not in doc]
    if missing:
        errors.append(f"missing envelope keys: {missing}")
        return
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        errors.append("bench must be a non-empty string")
    if doc["schema_version"] != SCHEMA_VERSION:
        errors.append(f"schema_version must be {SCHEMA_VERSION}, got "
                      f"{doc['schema_version']!r}")
    threads = doc["hardware_threads"]
    if not is_count(threads) or threads == 0:
        errors.append("hardware_threads must be a positive integer")
        return
    gates = doc["gates"]
    if not isinstance(gates, list) or not gates:
        errors.append("gates must be a non-empty list")
        return
    names = set()
    for i, gate in enumerate(gates):
        if not isinstance(gate, dict):
            errors.append(f"gates[{i}] must be an object")
            continue
        name = gate.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"gates[{i}].name must be a non-empty string")
            continue
        if name in names:
            errors.append(f"duplicate gate name {name!r}")
        names.add(name)
        check_gate(gate, threads, errors, failures)


def reject_constant(name):
    raise ValueError(f"non-JSON number {name}")


def check_file(path):
    """Returns the malformed records and failing gates of one report."""
    errors, failures = [], []
    try:
        with open(path) as f:
            doc = json.load(f, parse_constant=reject_constant)
    except (OSError, ValueError) as e:
        return [str(e)]
    check_doc(doc, errors, failures)
    return errors + failures


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        problems = check_file(path)
        print(f"{path}: {'FAIL' if problems else 'ok'}")
        for line in problems:
            print(f"  - {line}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
