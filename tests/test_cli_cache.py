import hashlib
import json
import os
import resource
import struct
import subprocess
import sys
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from qforms import cache, characters, cli, forms, sievelab, stats
from qforms.arith import classify_discriminant, fundamental_discriminants
from qforms.characters import WTable, build_w_table
from qforms.cli import (
    MAX_Q,
    MAX_TABLE_N,
    MAX_THREADS,
    MAX_TRIALS,
    MAX_X,
    MAX_X2NY2_N,
    UsageError,
    main,
)
from qforms.forms import QuadForm, class_group

from oracles import LS_BASELINE


# ---------------------------------------------------------------------------
# cache layer


def test_cache_roundtrip(tmp_path):
    q = classify_discriminant(-47)
    group = class_group(q)
    table = build_w_table(group, 200)
    path = cache.cache_path(tmp_path, q)
    cache.save_entry(path, group, table)
    loaded, loaded_table = cache.load_entry(path)
    assert loaded.classes == group.classes
    assert loaded.orders == group.orders
    assert loaded.cyclic_decomposition == group.cyclic_decomposition
    assert np.array_equal(loaded.composition, group.composition)
    assert np.array_equal(loaded_table.w, table.w)
    assert loaded_table.N == 200


def test_cache_rejects_corruption(tmp_path):
    q = classify_discriminant(-23)
    group = class_group(q)
    path = cache.cache_path(tmp_path, q)
    cache.save_entry(path, group, build_w_table(group, 50))
    blob = path.read_bytes()
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(cache.CacheError):
        cache.load_entry(path)
    path.write_bytes(blob[:20])
    with pytest.raises(cache.CacheError):
        cache.load_entry(path)


def _reseal(body):
    """body with a valid CRC-32 appended, so the checks behind it run."""
    return bytes(body) + zlib.crc32(bytes(body)).to_bytes(4, "little")


# corruption -> the error it must raise: a flipped bit is caught by the
# checksum; the other blobs are resealed, so the structural check runs
CORRUPTIONS = {
    "forms bit": "checksum",
    "w-table bit": "checksum",
    "trailing bytes": "length",
    "unknown width code": "width code",
    "truncated": "length",
    "cut in the forms": "truncated",
    "negative N": "implausible",
    "form not reduced": "not the classes",
    "form of another discriminant": "not the classes",
    "subgroup": "not the classes",
    "principal not first": "not the classes",
    "inverse pair swapped": "not the classes",
    "class repeated": "not the classes",
}

# q = -39 has the classes (1, 1, 10), (2, 1, 5), (2, -1, 5), (3, 3, 4);
# {(1, 1, 10), (3, 3, 4)} is a subgroup, so its blob is self-consistent
REORDERED = {
    "subgroup": [0, 3],
    "principal not first": [1, 0, 2, 3],
    "inverse pair swapped": [0, 2, 1, 3],
    "class repeated": [0, 1, 1, 3],
}


def _save_reordered(path, group, table, order):
    """A checksum-valid blob of group's classes and w rows taken in `order`."""
    q = group.q
    sub = forms.FormClassGroup(q, tuple(group.classes[i] for i in order))
    cache.save_entry(path, sub, WTable(q, table.N, table.w[order]))


@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
def test_corrupt_blob_is_rejected_and_rebuilt(tmp_path, corruption):
    q = classify_discriminant(-39)  # h = 4
    group = class_group(q)
    table = build_w_table(group, 200)
    path = cache.cache_path(tmp_path, q)
    cache.save_entry(path, group, table)
    blob = bytearray(path.read_bytes())
    body = blob[:-4]
    forms_at = cache._HEADER.size
    table_at = forms_at + 8 * 3 * group.h
    n_limit, code = cache._TABLE.unpack_from(blob, table_at)
    assert (n_limit, code) == (200, 1)
    w_at = table_at + cache._TABLE.size
    if corruption == "forms bit":
        blob[forms_at + 8 * (3 * 1 + 1)] ^= 1  # b of classes[1]
    elif corruption == "w-table bit":
        blob[w_at + code * (201 + 97)] ^= 1  # w[1, 97]
    elif corruption == "trailing bytes":
        blob = _reseal(body + bytes(8))
    elif corruption == "unknown width code":
        body[table_at + 8 : table_at + 12] = (3).to_bytes(4, "little")
        blob = _reseal(body)
    elif corruption == "truncated":
        blob = _reseal(body[:-201])  # the last row of w is missing
    elif corruption == "cut in the forms":
        blob = _reseal(body[: table_at - 8])
    elif corruption == "negative N":
        body[table_at : table_at + 8] = (-1).to_bytes(8, "little", signed=True)
        blob = _reseal(body[:w_at])
    elif corruption in REORDERED:
        _save_reordered(path, group, table, REORDERED[corruption])
        blob = path.read_bytes()
    else:
        assert group.classes[1] == QuadForm(2, 1, 5)
        # (5, 1, 2) has discriminant -39 but is not reduced; (2, 1, 6) is
        # reduced, of discriminant -47
        bad = (5, 1, 2) if corruption == "form not reduced" else (2, 1, 6)
        body[forms_at + 8 * 3 : forms_at + 8 * 6] = np.array(bad, "<i8").tobytes()
        blob = _reseal(body)
    path.write_bytes(bytes(blob))
    with pytest.raises(cache.CacheError, match=CORRUPTIONS[corruption]):
        cache.load_entry(path)
    warnings = []
    loaded, loaded_table = cache.load_or_build(q, tmp_path, n_limit=200, warn=warnings.append)
    assert len(warnings) == 1 and "rebuilt" in warnings[0]
    assert np.array_equal(loaded.composition, group.composition)
    assert np.array_equal(loaded_table.w, table.w)


@pytest.mark.parametrize("top, code", [(255, 1), (256, 2), (65535, 2), (65536, 4), (2**32 - 1, 4)])
def test_weights_are_stored_in_the_narrowest_width(tmp_path, top, code):
    q = classify_discriminant(-23)
    w = np.arange(3 * 41, dtype=np.int64).reshape(3, 41) % 7
    w[2, 40] = top
    path = cache.cache_path(tmp_path, q)
    cache.save_entry(path, class_group(q), WTable(q, 40, w))
    blob = path.read_bytes()
    table_at = cache._HEADER.size + 8 * 3 * 3
    assert cache._TABLE.unpack_from(blob, table_at) == (40, code)
    assert len(blob) == table_at + cache._TABLE.size + code * 3 * 41 + 4
    _, loaded = cache.load_entry(path)
    assert loaded.w.dtype == np.int64 and np.array_equal(loaded.w, w)


@pytest.mark.parametrize("bad", [-1, 2**32])
def test_weights_out_of_range_are_refused(tmp_path, bad):
    q = classify_discriminant(-23)
    w = np.zeros((3, 11), dtype=np.int64)
    w[1, 5] = bad
    path = cache.cache_path(tmp_path, q)
    with pytest.raises(ValueError, match="2\\^32"):
        cache.save_entry(path, class_group(q), WTable(q, 10, w))
    assert list(tmp_path.iterdir()) == []


def test_round_trip_derives_the_structure_of_a_fresh_group(tmp_path, monkeypatch):
    groups = [class_group(q) for q in fundamental_discriminants(1000)]
    assert len(groups) == 254
    tables = {g.q.q: build_w_table(g, 30) for g in groups}
    # neither saving nor loading composes a form: the structure is derived
    # only when a caller asks for it
    def refuse(*_args):
        raise AssertionError("compose_forms called")

    with monkeypatch.context() as m:
        m.setattr(forms, "compose_forms", refuse)
        loaded = []
        for g in groups:
            path = cache.cache_path(tmp_path, g.q)
            cache.save_entry(path, g, tables[g.q.q])
            loaded.append(cache.load_entry(path))
    for g, (got, table) in zip(groups, loaded):
        assert got.q.q == g.q.q and got.classes == g.classes
        assert np.array_equal(table.w, tables[g.q.q].w)
        assert np.array_equal(got.composition, g.composition)
        assert got.orders == g.orders
        assert got.cyclic_decomposition == g.cyclic_decomposition
        assert np.array_equal(got.coords, g.coords)
        assert got.e == g.e


def test_load_or_build_rebuilds_on_version_bump(tmp_path, monkeypatch):
    q = classify_discriminant(-23)
    group = class_group(q)
    path = cache.cache_path(tmp_path, q)
    cache.save_entry(path, group, build_w_table(group, 50))
    # bump the version byte in the header: entry must be rebuilt, not trusted
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    warnings = []
    group, table = cache.load_or_build(q, tmp_path, n_limit=50, warn=warnings.append)
    assert group.h == 3 and table.N == 50
    assert warnings and "rebuilt" in warnings[0]


def test_concurrent_saves_of_one_blob(tmp_path):
    q = classify_discriminant(-47)
    group = class_group(q)
    table = build_w_table(group, 2000)
    path = cache.cache_path(tmp_path, q)
    writers = 4  # more than the cores, with frequent thread switches
    barrier = threading.Barrier(writers)

    def save():
        barrier.wait(timeout=60)
        for _ in range(10):
            cache.save_entry(path, group, table)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=writers) as pool:
            for fut in [pool.submit(save) for _ in range(writers)]:
                fut.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    loaded, loaded_table = cache.load_entry(path)
    assert loaded.classes == group.classes
    assert np.array_equal(loaded_table.w, table.w)
    assert not list(tmp_path.glob("*.tmp"))


def test_failed_save_leaves_no_temp_file(tmp_path, monkeypatch):
    q = classify_discriminant(-23)
    path = cache.cache_path(tmp_path, q)

    def refuse(*_args):
        raise OSError("disk full")

    group = class_group(q)
    table = build_w_table(group, 50)
    monkeypatch.setattr(cache.os, "replace", refuse)
    with pytest.raises(OSError):
        cache.save_entry(path, group, table)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "command",
    [
        (),
        ("classgroup",),
        ("scan-bv",),
        ("scan-bdh",),
        ("least-prime",),
        ("x2ny2",),
        ("sieve-ratio",),
        ("check-identities",),
        ("tabulate",),
    ],
    ids=lambda command: command[0] if command else "qforms",
)
def test_help_goes_to_stdout(capsys, command):
    code, out, err = run_cli(capsys, *command, "-h")
    assert code == 0 and err == ""
    assert out.startswith(" ".join(("usage: qforms", *command))), out


def test_classgroup_text(capsys):
    code, out, _ = run_cli(capsys, "classgroup", "-q", "-23")
    assert code == 0
    assert "h = 3" in out and "(2, 1, 3)" in out and "C3" in out


def test_classgroup_json(capsys):
    code, out, _ = run_cli(capsys, "classgroup", "-q", "-23", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["h"] == 3
    assert payload["cyclic_orders"] == [3]
    assert {tuple(c[k] for k in "abc") for c in payload["classes"]} == {
        (1, 1, 6),
        (2, 1, 3),
        (2, -1, 3),
    }
    assert [c["e"] for c in payload["classes"]] == [2, 1, 1]


def test_classgroup_rejects_non_fundamental(capsys):
    code, _, err = run_cli(capsys, "classgroup", "-q", "-12")
    assert code == 1
    assert err.startswith("error:")


def test_scan_bv_empty(capsys):
    code, out, _ = run_cli(capsys, "scan-bv", "-Q", "2", "-X", "1000")
    assert code == 0
    assert out.strip() == "q,h,e_max,value,exceptional"


def test_scan_bv_json_deterministic(capsys):
    code, out1, _ = run_cli(
        capsys, "scan-bv", "-Q", "30", "-X", "2000", "--format", "json"
    )
    assert code == 0
    code, out2, _ = run_cli(
        capsys, "scan-bv", "-Q", "30", "-X", "2000", "--format", "json", "--threads", "3"
    )
    assert code == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["meta"]["statistic"] == "bv"
    assert all(not row["exceptional"] for row in payload["rows"])


# sha256 of the stdout of `qforms <command> -Q 200 -X 1000001 --format json`,
# trailing newline included: canonical JSON must not move by a byte when the
# lattice kernel or the scan's threading changes
SCAN_GOLDEN = {
    "scan-bv": "4c19ad9bfba21f4be8c0cefb29eff1ae9b8609e2eabac1838283035f1dcf6a10",
    "scan-bdh": "2c3a151a5a7b963417b557b0dbe4fe9fe171c2a0e169c3258a10e21a0d48253b",
}


@pytest.mark.parametrize("command", sorted(SCAN_GOLDEN))
@pytest.mark.parametrize("threads", ["1", "2"])
def test_scan_golden_output(capsys, command, threads):
    code, out, _ = run_cli(
        capsys, command, "-Q", "200", "-X", "1000001", "--format", "json",
        "--threads", threads,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_GOLDEN[command]


# sha256 of the stdout of `qforms sieve-ratio -Q 300 -N 10000 --trials 100
# --seed 5 --coeffs <source>`: the class sums are exact integers, so the bytes do not
# depend on the BLAS kernel or its thread count
SIEVE_RATIO_GOLDEN = {
    "rademacher": "118fd41bac847181421f42b09231bbf172a1ebfe2280cb96a56de6323b6ea79f",
    "ones": "e11cac7adda399475c7d38b40f6daf29c3d297701c2e94f58435df30dca46fb6",
}


@pytest.mark.parametrize("source", sorted(SIEVE_RATIO_GOLDEN))
@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_sieve_ratio_golden_output(source, blas_threads):
    # BLAS reads its thread count at import, hence a fresh process
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    argv = ["sieve-ratio", "-Q", "300", "-N", "10000", "--trials", "100", "--seed", "5"]
    proc = subprocess.run(
        [sys.executable, "-m", "qforms", *argv, "--coeffs", source],
        capture_output=True, env=env, check=True, timeout=120,
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == SIEVE_RATIO_GOLDEN[source]


def test_out_of_memory_is_one_error_line():
    # both options are within their caps, but the class sums of -Q 300
    # -N 1e7 need 8.6 GiB; the address-space limit binds the child only
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    limit = 1_500_000 * 1024

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    argv = ["sieve-ratio", "-Q", "300", "-N", "10000000", "--trials", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "qforms", *argv],
        capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: memory:"), proc.stderr
    assert "Traceback" not in proc.stderr


# sha256 of the stdout of `qforms least-prime -q -999995 --format json`
# (h = 480): the search of one class per inverse pair must answer both
LEAST_PRIME_GOLDEN = {
    "-999995": "8f65430dfff66ae1476ea97e8c0e361780ba8287cbbe80ca77a00acbec51ec28",
}


@pytest.mark.parametrize("q", sorted(LEAST_PRIME_GOLDEN))
def test_least_prime_golden_output(capsys, q):
    code, out, _ = run_cli(capsys, "least-prime", "-q", q, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LEAST_PRIME_GOLDEN[q]


def test_scan_bdh_runs(capsys):
    code, out, _ = run_cli(capsys, "scan-bdh", "-Q", "20", "-X", "2000")
    assert code == 0
    assert out.splitlines()[0] == "q,h,e_max,value,exceptional"


def test_x2ny2_scan_json(capsys):
    code, out, _ = run_cli(capsys, "x2ny2", "--max-n", "100", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [row["n"] for row in payload["exceptional"]] == [5, 41, 59]


def test_x2ny2_single(capsys):
    code, out, _ = run_cli(capsys, "x2ny2", "--n", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 5, "prime": 29, "x": 3, "y_min": 2}


def test_x2ny2_requires_exactly_one_mode(capsys):
    code, _, err = run_cli(capsys, "x2ny2")
    assert code == 1 and "error: usage:" in err
    code, _, err = run_cli(capsys, "x2ny2", "--n", "5", "--max-n", "10")
    assert code == 1


def test_max_n_above_the_cap_is_refused(capsys, monkeypatch):
    # the scan holds every n up to max-n at once
    def refuse(*_args, **_kwargs):
        raise AssertionError("x^2 + n y^2 search started")

    monkeypatch.setattr(stats, "_least_primes_x2ny2", refuse)
    code, out, err = run_cli(capsys, "x2ny2", "--max-n", str(MAX_X2NY2_N + 1))
    assert code == 1 and out == ""
    assert err.startswith("error: usage:") and "exceeds cap" in err and err.count("\n") == 1


def test_trials_above_the_cap_are_refused(capsys, monkeypatch):
    # the experiment keeps one ratio per trial
    def refuse(*_args, **_kwargs):
        raise AssertionError("sieve experiment started")

    monkeypatch.setattr(sievelab, "run_sieve_experiment", refuse)
    argv = ("sieve-ratio", "-Q", "10", "-N", "100", "--trials", str(MAX_TRIALS + 1))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: usage:") and "exceeds cap" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("-Q", "2000", "-N", "20000", "--seed", "-1"),
        ("-N", "100", "-Q", "0.5"),
    ],
    ids=["negative-seed", "Q-below-1"],
)
def test_sieve_ratio_seed_and_q_below_their_floor_are_refused(capsys, monkeypatch, argv):
    # the experiment builds every w-table before the generator reads the
    # seed, and it takes int(Q)
    def refuse(*_args, **_kwargs):
        raise AssertionError("sieve experiment started")

    monkeypatch.setattr(sievelab, "run_sieve_experiment", refuse)
    code, out, err = run_cli(capsys, "sieve-ratio", *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: usage: argument {argv[-2]}:") and err.count("\n") == 1, err


def test_sieve_ratio_prints_the_recorded_baseline(capsys):
    argv = ("sieve-ratio", "-Q", "100", "-N", "10000", "--trials", "100", "--seed", "1")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["max_ratio"] == LS_BASELINE


def test_delta_n_above_n_is_refused(capsys, monkeypatch):
    argv = ("sieve-ratio", "-Q", "10", "-N", "5", "--coeffs", "delta", "--delta-n")
    code, out, _ = run_cli(capsys, *argv, "5")
    assert code == 0 and json.loads(out)["meta"]["delta_n"] == 5

    def refuse(*_args, **_kwargs):
        raise AssertionError("sieve experiment started")

    monkeypatch.setattr(sievelab, "run_sieve_experiment", refuse)
    code, out, err = run_cli(capsys, *argv, "6")
    assert code == 1 and out == ""
    assert err == "error: usage: argument --delta-n: delta-n=6 exceeds N=5\n", err


@pytest.mark.parametrize("index", ["-1", "3"])
def test_class_index_outside_the_group_is_refused(capsys, monkeypatch, index):
    def refuse(*_args, **_kwargs):
        raise AssertionError("least-prime search started")

    monkeypatch.setattr(stats, "least_primes", refuse)
    code, out, err = run_cli(capsys, "least-prime", "-q", "-23", "--class-index", index)
    assert code == 1 and out == ""
    assert err == f"error: usage: class index {index} outside 0..2\n", err


def test_least_prime_cap_exit_code(capsys):
    code, out, err = run_cli(capsys, "least-prime", "-q", "-23", "--cap", "3")
    assert code == 2
    assert "unresolved" in out or "unresolved" in err


def test_least_prime_json(capsys):
    code, out, _ = run_cli(capsys, "least-prime", "-q", "-23", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    primes = {tuple(r["form"]): r["prime"] for r in payload["results"]}
    assert primes[(1, 1, 6)] == 23
    assert primes[(2, 1, 3)] == 2


def test_sieve_ratio_byte_identical(capsys):
    args = ["sieve-ratio", "-Q", "60", "-N", "300", "--trials", "4", "--seed", "5"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["meta"]["seed"] == 5 and len(payload["ratios"]) == 4


# sha256 of the stdout of `qforms check-identities <args>`: the exact checks
# in the class group and from the genus characters print the same report as
# the character-table checks they replaced
CHECK_IDENTITIES_GOLDEN = {
    "-Q 100 --mn-limit 2000 -N 8000": (
        "79d458ad0271341e12f01d48de9a63eff4fb3f74f7d328e2e9780f001378b1e0"
    ),
    "-Q 200 --mn-limit 2500 -N 1000": (
        "7159755ea11effbc5dcaa75b0f2a2dade15bc2283b7c489daf05568b462fc044"
    ),
}


@pytest.mark.parametrize("args", sorted(CHECK_IDENTITIES_GOLDEN))
def test_check_identities_golden_output(capsys, args):
    code, out, _ = run_cli(capsys, "check-identities", *args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_IDENTITIES_GOLDEN[args]


def test_check_identities_clean(capsys):
    code, out, _ = run_cli(
        capsys, "check-identities", "-Q", "40", "--mn-limit", "100", "-N", "200"
    )
    assert code == 0
    assert "violations=0" in out


def test_internal_check_failures_exit_3(capsys, monkeypatch):
    # a composition that is no group law, one whose composite is the right
    # class but not reduced, and a lattice kernel that visits the y = 1 row
    # twice (7 half-lattice points of x^2 + xy + y^2 on 7, which u = 3 does
    # not divide): each is an identity violation, exit 3
    real = forms._half_rows
    compose = forms.compose_forms

    def y1_row_twice(abc, limit):
        return tuple(np.r_[col, col[1:2]] for col in real(abc, limit))

    def unreduced(f1, f2):
        return forms.transform_form(compose(f1, f2), ((1, 1), (0, 1)))

    for name, fault, argv in (
        ("compose_forms", lambda f1, f2: f1, ("classgroup", "-q", "-39")),
        ("compose_forms", unreduced, ("classgroup", "-q", "-23")),
        ("_half_rows", y1_row_twice, ("scan-bv", "-Q", "3", "-X", "1000")),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(forms, name, fault)
            code, _, err = run_cli(capsys, *argv)
        assert code == 3, name
        assert err.startswith("error: identity-violation:") and err.count("\n") == 1, err


def test_genus_faults_exit_3(capsys, monkeypatch):
    # a class dropped from the enumeration, and a wrong sign of d1 (p instead
    # of p* for the first odd prime): each is an identity violation, exit 3
    assert run_cli(capsys, "check-identities", "-Q", "60")[0] == 0
    triples = forms._reduced_triples
    primes = characters.prime_discriminants
    for name, module, fault in (
        ("_reduced_triples", forms, lambda d: (t for t in triples(d) if (d, t) != (52, (2, 2, 7)))),
        ("prime_discriminants", characters, lambda q: [-primes(q)[0], *primes(q)[1:]]),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, fault)
            code, _, err = run_cli(capsys, "check-identities", "-Q", "60")
        assert code == 3, name
        assert err.startswith("error: identity-violation:") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ("classgroup", "-q", "-23", "--out", "{file}/x"),
        ("tabulate", "-Q", "10", "-N", "10", "--cache", "{file}/sub"),
    ],
)
def test_os_errors_at_the_writes_exit_1(capsys, tmp_path, argv):
    # a path under a regular file cannot be written or created
    file = tmp_path / "file"
    file.write_text("")
    code, out, err = run_cli(capsys, *(a.format(file=file) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: io: cannot write --") and err.count("\n") == 1, err
    assert file.read_text() == ""


def test_scan_exits_3_when_fixed_line_primes_are_not_ramified(
    capsys, monkeypatch, swapped_fixed_line_values
):
    # with the b = a pair (a, 4c - a) for b = 0, x^2 + 13 y^2 (q = -52)
    # misses the ramified 13 and tries 51 = 3 * 17
    assert run_cli(capsys, "scan-bv", "-Q", "60", "-X", "1000")[0] == 0
    monkeypatch.setattr(stats, "_fixed_line_values", swapped_fixed_line_values)
    code, _, err = run_cli(capsys, "scan-bv", "-Q", "60", "-X", "1000")
    assert code == 3
    assert err.startswith("error: identity-violation: fixed-line primes") and err.count("\n") == 1


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "scan-bv", "-Q", "30", "-X", "-5")
    assert code == 1 and err.startswith("error: usage:")
    code, _, err = run_cli(capsys, "scan-bv", "-Q", "30", "-X", "1")
    assert code == 1
    code, _, err = run_cli(capsys, "sieve-ratio", "-Q", "10", "-N", "100", "--trials", "0")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("scan-bv", "-Q", "nan", "-X", "1000"),
        ("scan-bv", "-Q", "30", "-X", "nan"),
        ("scan-bv", "-Q", "30", "-X", "1000", "--c3", "nan"),
        ("scan-bv", "-Q", "30", "-X", "1000", "--c3", "inf"),
        ("scan-bdh", "-Q", "30", "-X", "1000", "-A", "nan"),
        ("scan-bdh", "-Q", "30", "-X", "1000", "-A", "inf"),
        ("sieve-ratio", "-Q", "30", "-N", "100", "--eps", "nan"),
        ("sieve-ratio", "-Q", "30", "-N", "100", "--eps", "inf"),
        ("check-identities", "-Q", "nan"),
        ("tabulate", "-Q", "nan", "-N", "10", "--cache", "unused"),
    ],
)
def test_non_finite_float_options_are_refused(capsys, argv):
    # --c3 nan used to pass every check and flag no row as exceptional
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: usage:") and "not finite" in err and err.count("\n") == 1


def test_tabulate_idempotent_and_transparent(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    code, _, _ = run_cli(capsys, "tabulate", "-Q", "60", "-N", "100", "--cache", cache_dir)
    assert code == 0
    stamps = {p.name: p.stat().st_mtime_ns for p in (tmp_path / "cache").iterdir()}
    code, out, _ = run_cli(capsys, "tabulate", "-Q", "60", "-N", "100", "--cache", cache_dir)
    assert code == 0 and "reused" in out
    stamps2 = {p.name: p.stat().st_mtime_ns for p in (tmp_path / "cache").iterdir()}
    assert stamps == stamps2  # second run touches no blob
    # answers with the tabulated cache as default match cold ones, byte for byte
    for q in fundamental_discriminants(60):
        argv = ["classgroup", "-q", str(q.q), "--format", "json"]
        code, cold, _ = run_cli(capsys, *argv)
        assert code == 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("QFORMS_CACHE", cache_dir)
            code, warm, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and cold == warm


def test_tabulate_writes_identical_blobs(tmp_path, capsys):
    blobs = []
    for run in ("a", "b"):
        cache_dir = tmp_path / run
        code, _, _ = run_cli(capsys, "tabulate", "-Q", "200", "-N", "300", "--cache", str(cache_dir))
        assert code == 0
        blobs.append({p.name: p.read_bytes() for p in cache_dir.iterdir()})
    assert len(blobs[0]) == len(fundamental_discriminants(200))
    assert blobs[0] == blobs[1]


def _format2_blob(group, table):
    """A blob in the previous layout: the group table, orders, decomposition
    and coords as <i4 after the forms, and w as <i8."""
    dec = group.cyclic_decomposition
    body = b"".join([
        struct.pack("<4sIqII", b"QFGC", 2, group.q.q, group.h, len(dec)),
        np.array([(f.a, f.b, f.c) for f in group.classes], "<i8").tobytes(),
        group.composition.astype("<i4").tobytes(),
        np.array(group.orders, "<i4").tobytes(),
        np.array(dec, "<i4").reshape(len(dec), 2).tobytes(),
        group.coords.astype("<i4").tobytes(),
        struct.pack("<q", table.N),
        table.w.astype("<i8").tobytes(),
    ])
    return _reseal(body)


def test_tabulate_rewrites_a_format2_blob(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    family = fundamental_discriminants(60)
    run_cli(capsys, "tabulate", "-Q", "60", "-N", "100", "--cache", str(cache_dir))
    q = classify_discriminant(-39)
    path = cache.cache_path(cache_dir, q)
    fresh = path.read_bytes()
    group = class_group(q)
    path.write_bytes(_format2_blob(group, build_w_table(group, 100)))
    with pytest.raises(cache.CacheError, match="version 2"):
        cache.load_entry(path)
    code, out, err = run_cli(capsys, "tabulate", "-Q", "60", "-N", "100", "--cache", str(cache_dir))
    assert code == 0
    assert out == f"tabulated 1 blob(s), reused {len(family) - 1}\n"
    assert len(err.splitlines()) == 1 and err.startswith("warning:") and "version 2" in err
    assert path.read_bytes() == fresh


def test_tabulate_with_larger_N_rewrites_every_blob(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    family = fundamental_discriminants(60)
    code, out, _ = run_cli(capsys, "tabulate", "-Q", "60", "-N", "100", "--cache", str(cache_dir))
    assert code == 0 and out == f"tabulated {len(family)} blob(s), reused 0\n"
    code, out, err = run_cli(capsys, "tabulate", "-Q", "60", "-N", "200", "--cache", str(cache_dir))
    assert code == 0 and err == ""
    assert out == f"tabulated {len(family)} blob(s), reused 0\n"
    for q in family:
        _, table = cache.load_entry(cache.cache_path(cache_dir, q))
        assert table.N == 200


def test_tabulate_rewrites_a_corrupt_blob(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    family = fundamental_discriminants(60)
    run_cli(capsys, "tabulate", "-Q", "60", "-N", "100", "--cache", str(cache_dir))
    q = classify_discriminant(-39)
    path = cache.cache_path(cache_dir, q)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 1
    path.write_bytes(bytes(blob))
    code, out, err = run_cli(capsys, "tabulate", "-Q", "60", "-N", "100", "--cache", str(cache_dir))
    assert code == 0
    assert out == f"tabulated 1 blob(s), reused {len(family) - 1}\n"
    assert len(err.splitlines()) == 1 and err.startswith("warning:") and "39.qfgc" in err
    # the rewritten blob is sound again and holds the cold answers
    group, table = cache.load_entry(path)
    assert np.array_equal(group.composition, class_group(q).composition)
    assert np.array_equal(table.w, build_w_table(class_group(q), 100).w)


def test_a_blob_of_another_discriminant_is_rebuilt(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    family = fundamental_discriminants(40)
    run_cli(capsys, "tabulate", "-Q", "40", "-N", "100", "--cache", str(cache_dir))
    q = classify_discriminant(-23)
    path = cache.cache_path(cache_dir, q)
    fresh = path.read_bytes()
    # a sound blob, but of q = -39 (h = 4) under the name of q = -23 (h = 3)
    path.write_bytes(cache.cache_path(cache_dir, classify_discriminant(-39)).read_bytes())
    warnings = []
    group, table = cache.load_or_build(q, cache_dir, n_limit=100, warn=warnings.append)
    assert group.q.q == -23 and group.h == 3 and table.q.q == -23
    assert np.array_equal(table.w, build_w_table(class_group(q), 100).w)
    assert len(warnings) == 1 and "23.qfgc" in warnings[0] and "q=-39" in warnings[0]
    code, out, err = run_cli(capsys, "tabulate", "-Q", "40", "-N", "100", "--cache", str(cache_dir))
    assert code == 0
    assert out == f"tabulated 1 blob(s), reused {len(family) - 1}\n"
    assert len(err.splitlines()) == 1 and err.startswith("warning:") and "23.qfgc" in err
    assert path.read_bytes() == fresh


def _blob_without_weights(group):
    """A checksum-valid blob of group's forms with N = 0 and no w, the
    layout that once held a class group alone."""
    forms_bytes = np.array([(f.a, f.b, f.c) for f in group.classes], "<i8").tobytes()
    header = cache._HEADER.pack(b"QFGC", 3, group.q.q, group.h)
    return _reseal(header + forms_bytes + cache._TABLE.pack(0, 1))


def test_blob_without_weights_is_refused_and_rewritten(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    family = fundamental_discriminants(60)
    run_cli(capsys, "tabulate", "-Q", "60", "-N", "100", "--cache", str(cache_dir))
    q = classify_discriminant(-39)
    path = cache.cache_path(cache_dir, q)
    fresh = path.read_bytes()
    path.write_bytes(_blob_without_weights(class_group(q)))
    with pytest.raises(cache.CacheError, match="implausible"):
        cache.load_entry(path)
    code, out, err = run_cli(capsys, "tabulate", "-Q", "60", "-N", "100", "--cache", str(cache_dir))
    assert code == 0
    assert out == f"tabulated 1 blob(s), reused {len(family) - 1}\n"
    assert len(err.splitlines()) == 1 and err.startswith("warning:") and "39.qfgc" in err
    assert path.read_bytes() == fresh


def test_save_entry_refuses_a_table_without_weights(tmp_path):
    q = classify_discriminant(-23)
    path = cache.cache_path(tmp_path, q)
    with pytest.raises(ValueError, match="N >= 1"):
        cache.save_entry(path, class_group(q), WTable(q, 0, np.zeros((3, 1), np.int64)))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("classgroup", "-q", "-23"),
        ("scan-bv", "-Q", "30", "-X", "2000"),
        ("scan-bdh", "-Q", "30", "-X", "2000"),
    ],
    ids=lambda argv: argv[0],
)
def test_only_tabulate_takes_a_cache(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--cache", str(tmp_path))
    assert code == 1 and out == "" and err.startswith("error: usage:")
    assert list(tmp_path.iterdir()) == []


def test_tabulate_needs_N(tmp_path, capsys):
    code, _, err = run_cli(capsys, "tabulate", "-Q", "60", "--cache", str(tmp_path / "c"))
    assert code == 1 and err.startswith("error: usage:")
    assert not (tmp_path / "c").exists()


READERS = [
    ("classgroup", "-q", "-39", "--format", "json"),
    ("classgroup", "-q", "-23"),
    ("least-prime", "-q", "-39", "--format", "json"),
    ("scan-bv", "-Q", "30", "-X", "2000"),
    ("scan-bdh", "-Q", "30", "-X", "2000", "--format", "json"),
]


@pytest.mark.parametrize("contents", ["junk", "tabulated"])
def test_commands_other_than_tabulate_never_read_the_cache(
    tmp_path, capsys, monkeypatch, contents
):
    cold = {}
    for argv in READERS:
        code, cold[argv], err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
    cache_dir = tmp_path / "cache"
    if contents == "junk":
        cache_dir.mkdir()
        for q in fundamental_discriminants(39):
            cache.cache_path(cache_dir, q).write_bytes(b"not a cache blob")
    else:
        run_cli(capsys, "tabulate", "-Q", "39", "-N", "100", "--cache", str(cache_dir))
    monkeypatch.setenv("QFORMS_CACHE", str(cache_dir))

    def refuse(*_args, **_kwargs):
        raise AssertionError("cache blob read")

    monkeypatch.setattr(cache, "load_entry", refuse)
    for argv in READERS:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and out == cold[argv], argv


@pytest.mark.parametrize("command", ["classgroup", "least-prime"])
def test_q_above_the_cap_is_refused_before_enumeration(capsys, monkeypatch, command):
    def refuse(*_args):
        raise AssertionError("reduced forms enumerated")

    monkeypatch.setattr(forms, "_reduced_triples", refuse)
    for q in (-1_000_000_000_007, -(MAX_Q + 3)):
        code, out, err = run_cli(capsys, command, "-q", str(q))
        assert code == 1 and out == "" and "exceeds cap" in err, err
    parse = cli._build_parser().parse_args
    assert parse([command, "-q", "-999995"]).q.q == -999995  # the largest |q| in the family
    with pytest.raises(UsageError, match="exceeds cap"):
        parse([command, "-q", str(-MAX_Q - 1)])


def test_threads_above_the_cap_are_refused(capsys, monkeypatch):
    # refused as the option is parsed, before the scan starts; the executor is replaced
    # so that no thread could start even if the check were missing
    def refuse(*_args, **_kwargs):
        raise AssertionError("thread pool started")

    monkeypatch.setattr(stats, "ThreadPoolExecutor", refuse)
    for command in ("scan-bv", "scan-bdh"):
        code, _, err = run_cli(
            capsys, command, "-Q", "50", "-X", "1000", "--threads", str(10**9)
        )
        assert code == 1 and "exceeds cap" in err, err
    parse = cli._build_parser().parse_args
    argv = ["scan-bv", "-Q", "50", "-X", "1000", "--threads"]
    assert parse([*argv, str(MAX_THREADS)]).threads == MAX_THREADS
    with pytest.raises(UsageError, match="exceeds cap"):
        parse([*argv, str(MAX_THREADS + 1)])


def test_n_above_the_cap_is_refused(capsys, monkeypatch):
    # refused as the option is parsed; 10^20 would reach the lattice kernel
    # as a Python int and end in a TypeError.  The least prime is above n and
    # the search stops at --cap <= MAX_X, so the cap refuses no n that resolves
    def refuse(*_args, **_kwargs):
        raise AssertionError("x^2 + n y^2 search started")

    monkeypatch.setattr(stats, "_least_primes_x2ny2", refuse)
    code, out, err = run_cli(capsys, "x2ny2", "--n", str(10**20))
    assert code == 1 and out == ""
    assert err.startswith("error: usage:") and "exceeds cap" in err and err.count("\n") == 1
    parse = cli._build_parser().parse_args
    assert parse(["x2ny2", "--n", str(MAX_X)]).n == MAX_X
    with pytest.raises(UsageError, match="exceeds cap"):
        parse(["x2ny2", "--n", str(MAX_X + 1)])


def test_mn_limit_above_the_cap_is_refused(capsys, monkeypatch):
    # the Hecke check tabulates h x (mn_limit + 1) weights: refused as the
    # option is parsed, before either identity check starts
    def refuse(*_args, **_kwargs):
        raise AssertionError("identity check started")

    monkeypatch.setattr(sievelab, "hecke_check", refuse)
    monkeypatch.setattr(sievelab, "convolution_check", refuse)
    for limit in (10**13, MAX_TABLE_N + 1):
        code, out, err = run_cli(capsys, "check-identities", "-Q", "3", "--mn-limit", str(limit))
        assert code == 1 and out == "" and "exceeds cap" in err, err
    parse = cli._build_parser().parse_args
    argv = ["check-identities", "-Q", "3", "--mn-limit"]
    assert parse([*argv, str(MAX_TABLE_N)]).mn_limit == MAX_TABLE_N
    with pytest.raises(UsageError, match="exceeds cap"):
        parse([*argv, str(MAX_TABLE_N + 1)])


# the values each numeric option refuses: below its floor, nan (float
# options only) and its cap + 1
REFUSED = {
    "-q": ("0", str(-MAX_Q - 1)),
    "-Q": ("0", "nan", str(MAX_Q + 1)),
    "-X": ("1.5", "nan", str(MAX_X + 1)),
    "--c3": ("0", "nan"),
    "-A": ("0", "nan"),
    "--eps": ("0", "nan"),
    "--delta-n": ("0",),
    "-N": ("0", str(MAX_TABLE_N + 1)),
    "--mn-limit": ("0", str(MAX_TABLE_N + 1)),
    "--cap": ("0", str(MAX_X + 1)),
    "--threads": ("0", str(MAX_THREADS + 1)),
    "--trials": ("0", str(MAX_TRIALS + 1)),
    "--max-n": ("0", str(MAX_X2NY2_N + 1)),
    "--n": ("0",),
    "--seed": ("-1",),
}
UNBOUNDED = {"--class-index"}  # any int: checked by the command
# the other options each subcommand needs; the x2ny2 modes go alone
NEEDS = {
    "classgroup": {"-q": "-23"},
    "least-prime": {"-q": "-23"},
    "scan-bv": {"-Q": "30", "-X": "1000"},
    "scan-bdh": {"-Q": "30", "-X": "1000"},
    "x2ny2": {},
    "sieve-ratio": {"-Q": "10", "-N": "100"},
    "check-identities": {"-Q": "10"},
    "tabulate": {"-Q": "10", "-N": "10"},
}


def _typed_options():
    (sub,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    return [
        (command, action.option_strings[0])
        for command, parser in sub.choices.items()
        for action in parser._actions
        if action.type is not None
    ]


def test_every_typed_option_is_listed():
    options = _typed_options()
    assert {command for command, _ in options} == set(NEEDS)
    assert {option for _, option in options} == set(REFUSED) | UNBOUNDED


@pytest.mark.parametrize(
    "command, option, value",
    [
        (command, option, value)
        for command, option in _typed_options()
        for value in REFUSED.get(option, ())
    ],
)
def test_numeric_options_refuse_values_outside_their_bounds(
    capsys, tmp_path, command, option, value
):
    given = {**NEEDS[command], option: value}
    argv = [command, *(word for pair in given.items() for word in pair)]
    if command == "tabulate":
        argv += ["--cache", str(tmp_path / "cache")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: usage: argument {option}:") and err.count("\n") == 1, err
    assert not (tmp_path / "cache").exists()


def test_env_cache_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QFORMS_CACHE", str(tmp_path / "envcache"))
    code, out, _ = run_cli(capsys, "tabulate", "-Q", "20", "-N", "10")
    assert code == 0
    assert (tmp_path / "envcache").exists()
