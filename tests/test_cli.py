"""Tests for the command line interface.

Output determinism is checked byte for byte across separate processes
with different hash seeds, and the exit code contract is pinned for
success, failed verification, invalid parameters, and blown caps.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from galela import VerificationError, cli, elation, gf, pspace


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

SELFTEST_SHA256 = "057ea3b0742add06be83912c2d83226bb1ad584fe45c82ca7ee3882818a9cd88"

# verify bruckbose --json stdout by frame r-p-h-n
BRUCKBOSE_SHA256 = {
    "3-3-2-1": "bea68691ff322dc58ecf893a609ab840f8978652f16c11a66744053296c48182",
    "2-3-4-2": "a3b589dcd11678b769c0c7dad5776254db8a23261eed013ce62feb655bbce9b6",
    "2-2-6-3": "9b9532630d7ce96f738652d8fd93c5eca161593389bb8d3ff7600bce1ace54e1",
    "4-2-2-1": "8575466967518c9c9a002ef4060d67fb9b5bb36afe3ed204862c5606b2e98511",
    "2-2-8-4": "059bdc1c30bda398cad451b795bc54d2c57dcde6dc53df4f4eb790c6633c9498",
}

# verify lemma1 --json stdout by case r-p-h, as the sweep over all of PGL printed it
LEMMA1_SHA256 = {
    "3-2-3": "b71daab94122342d36ca2005eff6a0a6b4cf6fa20e84c74dbfea9760880aa209",
    "3-3-2": "273a2f71c874072847426dc829bc3f130d794803384c9851b8798ba53f4941a6",
    "2-2-5": "fd273999689da7931c1d987352601b0b5f8c0271be3a1047795df2aa63ddd46d",
    "2-3-3": "d63bd61e50b06db4a108babc96c1e0f7ca2e239f1694bb4857acb482e603d853",
    "2-5-2": "2bd67626e41dad1b8c6a8020e0db8f4c9cc54bf38b4ac329de7256938473acce",
    "2-2-6": "62b7e0ddf6154edcfb7f398c556ee124cd9d37231fa1c692d11c720d21f57c96",
    "2-2-7": "41ab3f2730084445daba466c7d17ca0d85b89eb460e27adaeccf84e6c3dac4ed",
    "4-2-2": "4180d7c7a63bfcac1b3db74f85d7af7bc2fbfb2a98b16092135b2171e776ca07",
}


def run_cli(*args, env_extra=None, timeout=120):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "galela.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


class TestField:
    def test_table_output(self):
        r = run_cli("field", "--p", "2", "--h", "4")
        assert r.returncode == 0
        assert "x^4 + x + 1" in r.stdout
        assert "16" in r.stdout

    def test_json_output(self):
        r = run_cli("field", "--p", "2", "--h", "4", "--json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["p"] == 2
        assert payload["h"] == 4
        assert payload["order"] == 16
        assert payload["modulus"] == [1, 1, 0, 0, 1]
        assert payload["generator"] == 2

    def test_rejects_non_prime(self):
        r = run_cli("field", "--p", "4", "--h", "2")
        assert r.returncode == 2
        assert r.stderr.strip()

    def test_field_order_cap_exit_code(self):
        r = run_cli("field", "--p", "2", "--h", "30")
        assert r.returncode == 3
        assert not r.stdout
        assert "cap" in r.stderr.lower()


class TestCensus:
    def test_small_case(self):
        r = run_cli("census", "--s", "4", "--t", "2", "--q", "2", "--json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["totals"]["orbits"] == 3
        assert payload["totals"]["free_orbits"] == 2
        assert payload["totals"]["subspaces"] == 35
        assert payload["predicted"] == {"eq2": 3, "eq3": 2}
        assert sorted(o["size"] for o in payload["orbits"]) == [5, 15, 15]
        assert sum(o["is_spread"] for o in payload["orbits"]) == 1

    def test_table_mentions_predictions(self):
        r = run_cli("census", "--s", "4", "--t", "2", "--q", "2")
        assert r.returncode == 0
        assert "3" in r.stdout

    def test_deterministic_across_processes(self):
        outs = [
            run_cli(
                "census", "--s", "6", "--t", "2", "--q", "2", "--json",
                env_extra={"PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "31337")
        ]
        assert outs[0] == outs[1]

    def test_cap_exceeded_exit_code(self):
        r = run_cli("census", "--s", "6", "--t", "3", "--q", "2", "--cap", "100")
        assert r.returncode == 3
        assert not r.stdout
        assert "cap" in r.stderr.lower()

    def test_one_point_space(self, capsys):
        # PG(0,4) is one point: one orbit, u = 1, and it is a spread
        assert cli.main(["census", "--s", "1", "--t", "1", "--q", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["orbits"] == [{"representative": [[1]], "size": 1, "u": 1,
                                      "is_spread": True}]
        assert payload["predicted"] == {"eq2": 1, "eq3": 1}

    def test_benchmark_workload_matches_recorded_digest(self, capsys):
        # the census workload of perfbench/run.py, whose recorded digest
        # this only reads
        assert cli.main(["census", "--s", "8", "--t", "4", "--q", "2", "--json"]) == 0
        out = capsys.readouterr().out
        reference = json.loads(REFERENCE.read_text())
        assert hashlib.sha256(out.encode()).hexdigest() == reference["census"]["sha256"]


class TestCount:
    def test_spot_values(self):
        r = run_cli("count", "--p", "2", "--h", "4", "--m", "2", "--n", "1", "--json")
        payload = json.loads(r.stdout)
        assert payload["count"] == 3
        r = run_cli(
            "count", "--p", "2", "--h", "4", "--m", "2", "--n", "1",
            "--minimal", "--json",
        )
        assert json.loads(r.stdout)["count"] == 2

    def test_invalid_parameters_exit_code(self):
        r = run_cli("count", "--p", "2", "--h", "4", "--m", "2", "--n", "3")
        assert r.returncode == 2
        assert "divide" in r.stderr


class TestClassify:
    def test_lists_classes(self):
        r = run_cli("classify", "--p", "2", "--h", "4", "--m", "2", "--json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert len(payload["classes"]) == 3
        assert sorted(c["size"] for c in payload["classes"]) == [5, 15, 15]

    def test_cap_exceeded_exit_code(self):
        # [4 choose 2]_2 = 35 subgroups of order 4 in GF(16)
        r = run_cli("classify", "--p", "2", "--h", "4", "--m", "2", "--cap", "34")
        assert r.returncode == 3
        assert not r.stdout
        assert "35 subspaces exceed cap 34" in r.stderr

    def test_benchmark_workload_matches_recorded_digest(self, capsys):
        # the classify workload of perfbench/run.py, whose recorded digest
        # this only reads
        for m in range(1, 7):
            assert cli.main(["classify", "--p", "3", "--h", "6", "--m", str(m), "--json"]) == 0
        out = capsys.readouterr().out
        reference = json.loads(REFERENCE.read_text())
        assert hashlib.sha256(out.encode()).hexdigest() == reference["classify"]["sha256"]


class TestVerify:
    def test_correspondence(self):
        r = run_cli(
            "verify", "correspondence", "--p", "2", "--h", "4", "--m", "2",
            "--n", "2", "--json",
        )
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["bijection"] is True

    def test_correspondence_with_n_equal_to_h(self, capsys):
        # n = h: the whole field is one class and PG(0, p^h) one point
        assert cli.main(["verify", "correspondence", "--p", "3", "--h", "2", "--m", "2",
                         "--n", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [payload["classes"], payload["orbits"], payload["bijection"]] == [1, 1, True]
        assert [payload["minimal_classes"], payload["free_orbits"]] == [1, 1]

    @pytest.mark.parametrize("p,h,m,n,expected", [
        # [6 choose 4]_4 = 93,093 and [4 choose 2]_8 = 4,745 subspaces, where
        # streaming every GF(2)-subgroup would mean 1.4e10 and 2.3e11 of them
        ("2", "12", "8", "2", [69, 68]),
        ("2", "12", "6", "3", [9, 8]),
    ])
    def test_correspondence_past_the_subgroup_count(self, capsys, p, h, m, n, expected):
        assert cli.main(["verify", "correspondence", "--p", p, "--h", h, "--m", m, "--n", n,
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [payload["classes"], payload["minimal_classes"]] == expected
        assert payload["orbits"] == expected[0] and payload["free_orbits"] == expected[1]

    def test_lemma1_small(self):
        r = run_cli("verify", "lemma1", "--r", "2", "--p", "2", "--h", "2", "--json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["equivalent_pairs"] == 7
        assert payload["inequivalent_pairs"] == 3
        assert payload["group_order"] == 60

    @pytest.mark.parametrize("p,h,expected", [
        # subgroups, equivalent pairs, inequivalent pairs, |PGL(2, p^h)|
        ("3", "3", [27, 183, 195, 19656]),
        ("5", "2", [7, 22, 6, 15600]),
    ])
    def test_lemma1_odd_characteristic(self, capsys, p, h, expected):
        assert cli.main(["verify", "lemma1", "--r", "2", "--p", p, "--h", h, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [payload[k] for k in ("subgroups", "equivalent_pairs", "inequivalent_pairs",
                                     "group_order")] == expected

    def test_lemma1_workload_matches_recorded_digest(self, capsys):
        # the lemma1 workload of perfbench/run.py, whose recorded digest
        # this only reads
        assert cli.main(["verify", "lemma1", "--r", "3", "--p", "2", "--h", "2", "--json"]) == 0
        out = capsys.readouterr().out
        reference = json.loads(REFERENCE.read_text())
        assert hashlib.sha256(out.encode()).hexdigest() == reference["lemma1"]["sha256"]

    def test_star_workload_matches_recorded_digest(self, capsys):
        # the star workload of perfbench/run.py at each seed whose recorded
        # digest this only reads; every seed's 256 pairs repeat some lines
        digests = json.loads(REFERENCE.read_text())["star"]["sha256_by_seed"]
        assert sorted(digests, key=int) == [str(seed) for seed in range(10)]
        for seed, digest in digests.items():
            assert cli.main(["verify", "bruckbose", "--r", "3", "--p", "2", "--h", "4", "--n", "1",
                             "--seed", seed, "--json"]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, seed

    @pytest.mark.parametrize("frame", sorted(BRUCKBOSE_SHA256))
    def test_bruckbose_matches_pinned_digest(self, frame, capsys):
        # odd characteristic, n > 1 and r = 4 frames, each swept exhaustively;
        # 2-2-8-4 checks GF(256)'s 18 GF(16)-closed subgroups, 17 of them of order 2^4
        r, p, h, n = frame.split("-")
        assert cli.main(["verify", "bruckbose", "--r", r, "--p", p, "--h", h, "--n", n,
                         "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == BRUCKBOSE_SHA256[frame]

    def test_correspondence_cap_exceeded_exit_code(self):
        # the census of the 35 lines of PG(3,2), the GF(2)-closed order-4 subgroups of GF(16)
        r = run_cli("verify", "correspondence", "--p", "2", "--h", "4", "--m", "2", "--n", "1",
                    "--cap", "34")
        assert r.returncode == 3
        assert not r.stdout
        assert "35 subspaces exceed cap 34" in r.stderr

    @pytest.mark.parametrize("h", ["0", "-1"])
    def test_lemma1_bad_degree_exit_code(self, h):
        out = run_cli("verify", "lemma1", "--r", "3", "--p", "2", "--h", h)
        assert out.returncode == 2
        assert not out.stdout
        assert f"bad extension degree {h}" in out.stderr

    @pytest.mark.parametrize("r", ["1", "0"])
    def test_lemma1_small_r_exit_code(self, r):
        out = run_cli("verify", "lemma1", "--r", r, "--p", "2", "--h", "2")
        assert out.returncode == 2
        assert "need r >= 2" in out.stderr

    def test_lemma1_cap_exceeded_exit_code(self):
        # GF(4)'s two classes have leaders of 2 and 4 elements, so the pass
        # takes 3 * (6 + 9) + 2 * 2 * 27 = 153 steps, though it lists only 10
        # elements
        r = run_cli("verify", "lemma1", "--r", "3", "--p", "2", "--h", "2", "--cap", "9")
        assert r.returncode == 3
        assert not r.stdout
        assert "153 pass steps exceed cap 9" in r.stderr

    def test_lemma1_cap_bounds_the_elements_listed(self, capsys, monkeypatch):
        # the pass over PGL(2, 256) tries only its 255 diagonals; the cap
        # reads its 7,958,678 steps, never fewer than the 7,866,258 elements
        # its 417,198 subgroups would list, so none of them is listed
        def listed(*args, **kwargs):
            raise AssertionError("a vector was listed")

        monkeypatch.setattr(pspace, "_pivot_rows", listed)
        assert cli.main(["verify", "lemma1", "--r", "2", "--p", "2", "--h", "8"]) == 3
        assert "7958678 pass steps exceed cap 1000000" in capsys.readouterr().err

    def test_lemma1_cap_is_read_before_the_field(self, capsys, monkeypatch):
        # GF(999983) is under the field order cap, but its one class, the
        # whole field, makes (q - 1)(q + 4) + 2 * 1 * 8 steps: no table of
        # it may be built
        def built(*args, **kwargs):
            raise AssertionError("a field was built")

        monkeypatch.setattr(gf, "FieldTower", built)
        assert cli.main(["verify", "lemma1", "--r", "2", "--p", "999983", "--h", "1"]) == 3
        assert "999969000250 pass steps exceed cap 1000000" in capsys.readouterr().err
        assert (999983, 1) not in gf._CACHE

    @pytest.mark.parametrize("p,code,message", [
        ("1000000000000000003", 3, "cap exceeded: field order 1000000000000000003 exceeds cap"),
        ("1000000000000000001", 2, "invalid parameters: 1000000000000000001 is not prime"),
    ])
    def test_lemma1_huge_p_is_told_at_once(self, capsys, p, code, message):
        # trial division would need about 5 * 10^8 steps to find 10^18 + 3
        # prime; the field order cap then refuses it
        start = time.perf_counter()
        assert cli.main(["verify", "lemma1", "--r", "2", "--p", p, "--h", "1"]) == code
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("p,h,r,message", [
        ("1000000", "1", "2", "1000000 is not prime"),
        ("2", "0", "2", "bad extension degree 0"),
        ("2", "-1", "2", "bad extension degree -1"),
        ("2", "2", "1", "need r >= 2, got 1"),
    ])
    def test_lemma1_parameters_are_read_before_the_field(self, capsys, monkeypatch,
                                                         p, h, r, message):
        def built(*args, **kwargs):
            raise AssertionError("a field was built")

        monkeypatch.setattr(gf, "FieldTower", built)
        assert cli.main(["verify", "lemma1", "--r", r, "--p", p, "--h", h]) == 2
        assert f"invalid parameters: {message}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("r,p,h,steps", [
        # one class per order, so (q - 1)(65521 + 4) + 2 * 1 * 8
        ("2", "65521", "1", 4293198016),
        # (q - 1)(701 + 701^2 + 4) + 2 * 2 * 8, with 983,503 elements listed
        ("2", "701", "2", 241820888432),
        # (2 - 1)(2 + 10^10) + 2 * 1 * 10^15: r x r matrices are never built
        ("100000", "2", "1", 2000010000000002),
    ])
    def test_lemma1_cap_bounds_the_pass_steps(self, capsys, monkeypatch, r, p, h, steps):
        # few elements are listed, but the pass would make q - 1 products
        # per element of each class's leader, the m = h leader being the
        # whole field, and conjugator r^3 per matmul; both are refused
        # before conjugator runs
        def forbidden(*args, **kwargs):
            raise AssertionError("conjugator called")

        monkeypatch.setattr(elation, "conjugator", forbidden)
        assert cli.main(["verify", "lemma1", "--r", r, "--p", p, "--h", h]) == 3
        assert f"{steps} pass steps exceed cap 1000000" in capsys.readouterr().err

    @pytest.mark.parametrize("case,cap", [("3-2-3", "20000000"), ("3-3-2", "50000000")])
    def test_lemma1_flag_sweep_matches_pinned_digest(self, capsys, case, cap):
        # a cap above the elements listed changes nothing; the passes, over 7
        # and 8 diagonals, take about 0.01 s of process time on a
        # 2-core Xeon VM, so the 1 s bound leaves a wide margin for slow runs
        r, p, h = case.split("-")
        start = time.process_time()
        assert cli.main(["verify", "lemma1", "--r", r, "--p", p, "--h", h, "--cap", cap,
                         "--json"]) == 0
        seconds = time.process_time() - start
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == LEMMA1_SHA256[case]
        assert seconds < 1.0

    @pytest.mark.parametrize("case", ["2-2-5", "2-3-3", "2-5-2", "2-2-6", "2-2-7",
                                      "3-2-3", "3-3-2", "4-2-2"])
    def test_lemma1_large_classes_match_pinned_digest(self, capsys, case):
        # scalar classes of up to 127 members, each walked once from its
        # leader; |PGL(3, 8)|, |PGL(3, 9)| and |PGL(4, 4)| need no raised
        # cap, which reads the 50, 21 and 10 elements they list
        r, p, h = case.split("-")
        assert cli.main(["verify", "lemma1", "--r", r, "--p", p, "--h", h, "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == LEMMA1_SHA256[case]

    def test_lemma1_text_names_the_flag_stabilizer(self, capsys):
        assert cli.main(["verify", "lemma1", "--r", "3", "--p", "2", "--h", "2"]) == 0
        assert capsys.readouterr().out == (
            "subgroups 4, equivalent pairs 7 conjugated, inequivalent pairs 3 swept over "
            "the 3 diagonal projectivities diag(1, ..., 1, d) (of 60480 in PGL)\nok\n")

    def test_bruckbose(self):
        r = run_cli(
            "verify", "bruckbose", "--r", "2", "--p", "3", "--h", "2", "--n", "1",
            "--json",
        )
        assert r.returncode == 0
        assert json.loads(r.stdout)["ok"] is True

    def test_bruckbose_cap_exceeded_exit_code(self):
        r = run_cli("verify", "bruckbose", "--r", "2", "--p", "3", "--h", "2", "--n", "1",
                    "--cap", "1")
        assert r.returncode == 3
        assert not r.stdout
        assert "cap" in r.stderr.lower()

    def test_bruckbose_inadmissible_order_exit_code(self):
        r = run_cli("verify", "bruckbose", "--r", "2", "--p", "2", "--h", "4", "--n", "2",
                    "--m", "3")
        assert r.returncode == 2
        assert not r.stdout
        assert "order exponent 3 is not admissible for n = 2" in r.stderr

    @pytest.mark.parametrize("args,listed", [
        # theta(12, 4) = 5,592,405 points, whose list is never built
        (["--r", "12", "--p", "2", "--h", "2", "--cap", "1000"], "5592405 points"),
        # 21 points of PG(2,4) pass, but an exhaustive run lists their 210 pairs
        (["--r", "3", "--p", "2", "--h", "2", "--cap", "200", "--exhaustive"],
         "210 point pairs"),
    ], ids=["points", "exhaustive-pairs"])
    def test_bruckbose_point_list_cap_exit_code(self, args, listed):
        r = run_cli("verify", "bruckbose", "--n", "1", *args, timeout=30)
        assert r.returncode == 3
        assert not r.stdout
        assert f"{listed} exceed cap" in r.stderr

    def test_failed_verification_exit_code(self, monkeypatch, capsys):
        # force a counterexample to pin the exit code and output channel
        def boom(*a, **k):
            raise VerificationError("forced failure", {"witness": [1, 2, 3]})

        monkeypatch.setattr(cli.elation, "verify_correspondence", boom)
        code = cli.main(
            ["verify", "correspondence", "--p", "2", "--h", "4", "--m", "2", "--n", "1"]
        )
        assert code == 1
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["error"] == "verification failure"
        assert payload["message"] == "forced failure"
        assert payload["details"] == {"witness": [1, 2, 3]}

    def test_census_walk_of_the_wrong_length_exit_code(self, monkeypatch, capsys):
        # a 14-cycle on the low bits that fixes bit 14 walks the points of
        # PG(3,2) in orbits of 14 and 1, and 14 does not divide theta(4,2) = 15:
        # a failed check (exit 1), not invalid parameters (exit 2)
        real = cli.singer.rotate
        monkeypatch.setattr(cli.singer, "rotate",
                            lambda bits, theta: bits if bits >> 14 else real(bits, 14))
        code = cli.main(["census", "--s", "4", "--t", "1", "--q", "2", "--json"])
        assert code == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": "verification failure",
            "message": "orbit size fits no divisor of gcd(t, s)",
            "details": {"case": [4, 1, 2], "size": 14}}

    @pytest.mark.parametrize("argv,code", [
        # GF(2^21) is over the field order cap, and PG(20,2) has 2,097,151 points
        (["classify", "--p", "2", "--h", "21", "--m", "1"], 3),
        (["census", "--s", "21", "--t", "1", "--q", "2", "--cap", "10000000"], 3),
        (["verify", "correspondence", "--p", "2", "--h", "21", "--m", "1", "--n", "1",
          "--cap", "10000000"], 3),
        # GF(256)'s pass at r = 3 takes 7,960,257 steps, over the default
        # cap of 10^6, and r = 1 has no elations
        (["verify", "lemma1", "--r", "3", "--p", "2", "--h", "8"], 3),
        (["verify", "lemma1", "--r", "1", "--p", "2", "--h", "8"], 2),
        # r = 10^5 would need 10^10-entry matrices
        (["verify", "lemma1", "--r", "100000", "--p", "2", "--h", "1"], 3),
    ], ids=["classify", "census", "correspondence", "lemma1-cap", "lemma1-r", "lemma1-huge-r"])
    def test_admission_runs_before_any_work(self, argv, code, monkeypatch):
        # no vector may be listed, no class returned and no conjugator
        # matrix built before the caps and the parameters are checked;
        # classify itself calls equivalence_classes, whose own checks must
        # stop it first
        def listed(*args, **kwargs):
            raise AssertionError("a vector was listed")

        def conjugator(*args, **kwargs):
            raise AssertionError("a conjugator was built")

        real = elation.equivalence_classes

        def classes(*args, **kwargs):
            real(*args, **kwargs)
            raise AssertionError("a class was enumerated")

        monkeypatch.setattr(pspace, "_pivot_rows", listed)
        monkeypatch.setattr(pspace, "enumerate_points", listed)
        monkeypatch.setattr(elation, "equivalence_classes", classes)
        monkeypatch.setattr(elation, "conjugator", conjugator)
        assert cli.main(argv) == code


class TestParser:
    def test_missing_subcommand(self):
        r = run_cli()
        assert r.returncode == 2

    def test_unknown_subcommand(self):
        r = run_cli("frobnicate")
        assert r.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["field", "--p", "2", "--h", "2"],
        ["census", "--s", "4", "--t", "2", "--q", "2"],
        ["count", "--p", "2", "--h", "4", "--m", "2"],
        ["classify", "--p", "2", "--h", "4", "--m", "2"],
        ["verify", "correspondence", "--p", "2", "--h", "4", "--m", "2", "--n", "1"],
        ["verify", "lemma1", "--r", "2", "--p", "2", "--h", "2"],
        ["verify", "bruckbose", "--r", "2", "--p", "3", "--h", "2", "--n", "1"],
    ])
    def test_negative_cap_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv + ["--cap", "-1"])
        assert exc.value.code == 2
        assert "cap" in capsys.readouterr().err

    def test_no_abbreviations(self):
        r = run_cli("census", "--s", "4", "--t", "2", "--q", "2", "--jso")
        assert r.returncode == 2


class TestSelftest:
    def test_runs_clean(self):
        r = run_cli("selftest", timeout=300)
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["ok"] is True

    def test_canonical_digest_in_process(self, capsys):
        # the canonical stdout is pinned byte for byte; run in the test
        # process, it must not depend on caches earlier tests have filled
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == SELFTEST_SHA256
