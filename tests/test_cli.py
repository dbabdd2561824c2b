import json

import numpy as np
import pytest

from ssbmf import ParameterError
from ssbmf.cli import main
from ssbmf.instance import GramMatrix

W_CYCLE = {"m": 4, "r": 4, "k": 2, "rows": [[0, 1], [1, 2], [2, 3], [0, 3]]}
G_CYCLE = {"m": 4, "hex_rows": ["b", "7", "e", "d"]}  # Boolean Gram of W_CYCLE


def test_gen_gram_attack_roundtrip(tmp_path, capsys):
    w_path = tmp_path / "w.json"
    g_path = tmp_path / "g.json"
    rep_path = tmp_path / "report.json"
    assert main(["gen", "--m", "3905", "--r", "8", "--k", "2",
                 "--seed", "3", "--out", str(w_path)]) == 0
    assert main(["gram", "--in", str(w_path), "--out", str(g_path)]) == 0
    assert main(["attack", "--gram", str(g_path), "--r", "8", "--k", "2",
                 "--anchors", "40", "--seed", "3",
                 "--out", str(rep_path)]) == 0
    report = json.loads(rep_path.read_text())
    assert report["success"] is True and report["residual"] == 0
    assert "seconds" not in report  # timings go to stdout only
    stdout = capsys.readouterr().out
    assert "seconds" in stdout


def test_attack_failure_exit_code(tmp_path):
    g_path = tmp_path / "bad.json"
    m = 64
    hex_rows = [format((1 << m) - 1, "016x")] * m
    g_path.write_text(json.dumps({"m": m, "hex_rows": hex_rows}))
    code = main(["attack", "--gram", str(g_path), "--r", "8", "--k", "2",
                 "--anchors", str(m)])
    assert code == 3


def test_attack_on_more_anchors_than_memory_holds_exits_2(tmp_path, capsys, monkeypatch):
    # --anchors m asks for an m^3 int16 block; one beyond physical memory
    # (here 1 MiB) is an input error, raised before the block is allocated.
    import os
    w, g = tmp_path / "w.json", tmp_path / "g.json"
    assert main(["gen", "--m", "300", "--r", "8", "--k", "2", "--out", str(w)]) == 0
    assert main(["gram", "--in", str(w), "--out", str(g)]) == 0
    sysconf = os.sysconf
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
    monkeypatch.setattr(os, "sysconf", lambda name: memory.get(name) or sysconf(name))
    capsys.readouterr()
    assert main(["attack", "--gram", str(g), "--r", "8", "--k", "2", "--anchors", "300"]) == 2
    assert capsys.readouterr().err.startswith("error: n0=300 anchors need an n0^3 int16 tensor block")


def test_parameter_error_exit_code(tmp_path):
    assert main(["gen", "--k", "9", "--r", "4", "--m", "3",
                 "--out", str(tmp_path / "w.json")]) == 2
    assert main(["gram", "--in", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "g.json")]) == 2
    assert main(["definitely-not-a-command"]) == 2


def test_outputs_byte_identical(tmp_path):
    files = {}
    for tag in ("a", "b"):
        w = tmp_path / f"w_{tag}.json"
        g = tmp_path / f"g_{tag}.json"
        main(["gen", "--m", "50", "--r", "10", "--k", "2", "--seed", "9",
              "--out", str(w)])
        main(["gram", "--in", str(w), "--out", str(g)])
        files[tag] = (w.read_bytes(), g.read_bytes())
    assert files["a"] == files["b"]


def test_csp_subcommand(tmp_path, capsys):
    w = tmp_path / "w.json"
    g = tmp_path / "g.json"
    main(["gen", "--m", "4", "--r", "4", "--k", "2", "--seed", "1",
          "--out", str(w)])
    main(["gram", "--in", str(w), "--out", str(g)])
    assert main(["csp", "--gram", str(g), "--r", "4", "--k", "2",
                 "--mode", "bool", "--solver", "exact"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gap"] == 0 and out["off_diagonal_l0"] == 0


def test_csp_local_solver_and_budget_failure(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(json.dumps(G_CYCLE))
    csp = ["csp", "--gram", str(g), "--r", "4", "--k", "2"]
    assert main(csp + ["--solver", "local"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"edges": 6, "gap": 0, "off_diagonal_l0": 0, "value": 6}
    # 6^4 assignments exceed a budget of 1: a failure (exit 3), not a usage error.
    assert main(csp + ["--budget", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("failure: ")


def test_recover_failure_exit_code(tmp_path, capsys):
    m = 64  # an all-ones Gram matrix: the tensor bootstrap finds entries outside {0..k}
    hex_rows = [format((1 << m) - 1, "016x")] * m
    (tmp_path / "g.json").write_text(json.dumps({"m": m, "hex_rows": hex_rows}))
    (tmp_path / "z.csv").write_text("1,2\n" * m)
    assert main(["recover", "--gram", str(tmp_path / "g.json"), "--synthetic",
                 str(tmp_path / "z.csv"), "--r", "8", "--k", "2"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["success"] is False and "outside valid range" in out["failure"]


def test_gram_integer_feeds_csp_int_mode(tmp_path, capsys):
    w, g = tmp_path / "w.json", tmp_path / "g.json"
    w.write_text(json.dumps(W_CYCLE))
    assert main(["gram", "--in", str(w), "--out", str(g)]) == 0
    assert "counts" not in json.loads(g.read_text())
    assert main(["gram", "--in", str(w), "--arithmetic", "integer", "--out", str(g)]) == 0
    obj = json.loads(g.read_text())
    assert obj["counts"] == [[2, 1, 0, 1], [1, 2, 1, 0], [0, 1, 2, 1], [1, 0, 1, 2]]
    csp = ["csp", "--gram", str(g), "--r", "4", "--k", "2", "--mode", "int",
           "--solver", "exact"]
    assert main(csp) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gap"] == 0 and out["off_diagonal_l0"] == 0
    good = obj["counts"]
    malformed = [
        [[2, 1, 0, 1], [2, 2, 1, 0], [0, 1, 2, 1], [1, 0, 1, 2]],   # asymmetric
        [[-2, 1, 0, 1]] + good[1:],                                 # negative
        [[0, 1, 0, 1]] + good[1:],                                  # zero where the bit is 1
        [[2, 1, 1, 1], [1, 2, 1, 0], [1, 1, 2, 1], [1, 0, 1, 2]],   # positive where it is 0
        [[2.5, 1, 0, 1]] + good[1:],                                # not integers
        [[2, 1, 0, True]] + good[1:],                               # a bool
        good[:3],                                                   # 3 x 4
        [[2, 1, 0]] + good[1:],                                     # ragged
        "22",
    ]
    bits = GramMatrix.from_json(obj).bits
    for counts in malformed:
        g.write_text(json.dumps({**obj, "counts": counts}))
        assert main(csp) == 2, counts
        with pytest.raises(ParameterError):  # built directly, not only read from a file
            GramMatrix(m=4, bits=bits, counts=counts)
    g.write_text(json.dumps({**obj, "counts": None}))  # null is not an absent counts
    assert main(csp) == 2


@pytest.mark.parametrize("files,argv", [
    ({"w.json": {**W_CYCLE, "rows": [[0, 1.5], [1, 2], [2, 3], [0, 3]]}}, ["gram", "--in", "w.json"]),
    ({"w.json": {**W_CYCLE, "rows": [[0, True], [1, 2], [2, 3], [0, 3]]}}, ["gram", "--in", "w.json"]),
    ({"w.json": {**W_CYCLE, "rows": [[0], [1, 2], [2, 3], [0, 3]]}}, ["gram", "--in", "w.json"]),
    ({"w.json": {**W_CYCLE, "m": 4.0}}, ["gram", "--in", "w.json"]),
    ({"w.json": [W_CYCLE]}, ["gram", "--in", "w.json"]),
    ({"g.json": ["3", "3"]}, ["attack", "--gram", "g.json", "--r", "4", "--k", "2"]),
    ({}, ["probe", "rank"]),
    ({"g.json": G_CYCLE, "z.csv": "1,2\n1,2\n1,2\n"},
     ["recover", "--gram", "g.json", "--synthetic", "z.csv", "--r", "4", "--k", "2"]),
    ({"g.json": G_CYCLE, "z.csv": "nan,2\n1,2\n1,2\n1,2\n"},
     ["recover", "--gram", "g.json", "--synthetic", "z.csv", "--r", "4", "--k", "2"]),
    ({"w.json": {**W_CYCLE, "m": 5}}, ["gram", "--in", "w.json"]),
    ({"w.json": {**W_CYCLE, "m": 5}}, ["probe", "rank", "--in", "w.json"]),
    ({}, ["probe", "anticoncentration", "--r", "10", "--k", "0"]),
    ({}, ["probe", "anticoncentration", "--r", "3", "--k", "4"]),
    ({}, ["probe", "krawtchouk", "--r", "0", "--k", "0"]),
    ({"g.json": G_CYCLE}, ["csp", "--gram", "g.json", "--r", "4", "--k", "9"]),
    ({"g.json": G_CYCLE}, ["csp", "--gram", "g.json", "--r", "4", "--k", "2", "--solver", "local",
                           "--restarts", "0"]),
    ({}, ["bench", "--r", "3", "--k", "5"]),
], ids=["float-entry", "bool-entry", "short-row", "float-m", "W-not-object",
        "M-not-object", "probe-rank-without-in", "Z-rows-not-m", "Z-not-finite",
        "W-rows-not-m", "probe-rank-W-rows-not-m", "anticoncentration-k-0",
        "anticoncentration-k-above-r", "krawtchouk-r-0", "csp-k-above-r",
        "csp-local-restarts-0", "bench-k-above-r"])
def test_input_errors_exit_2(files, argv, tmp_path, capsys):
    for name, content in files.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    if argv[0] == "gram":
        argv += ["--out", str(tmp_path / "out.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if "--restarts" in argv:
        assert "need restarts >= 1 and iters >= 0" in err
    elif argv[0] in ("csp", "bench"):  # the shape the user gave, not a derived m
        r, k = argv[argv.index("--r") + 1], argv[argv.index("--k") + 1]
        assert f"r={r} k={k}" in err and "m=" not in err


def test_probe_subcommands(tmp_path, capsys):
    w = tmp_path / "w.json"
    main(["gen", "--m", "40", "--r", "10", "--k", "3", "--seed", "2",
          "--out", str(w)])
    assert main(["probe", "rank", "--in", str(w)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "rank_f2" in out and "rank_real" in out
    assert main(["probe", "krawtchouk", "--r", "32", "--k", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert main(["probe", "singularity", "--m", "8", "--r", "4", "--k", "1",
                 "--trials", "20"]) == 0
    assert main(["probe", "anticoncentration", "--r", "10", "--k", "3",
                 "--trials", "500"]) == 0


def test_probes_accept_negative_seeds(capsys):
    assert main(["probe", "anticoncentration", "--r", "10", "--k", "3", "--seed", "-1"]) == 0
    assert "max_atom" in json.loads(capsys.readouterr().out)
    assert main(["probe", "singularity", "--m", "8", "--r", "4", "--k", "1",
                 "--trials", "20", "--seed", "-1"]) == 0


def test_anticoncentration_names_a_modulus_that_is_not_decimal(capsys):
    # "²" is a digit to str.isdigit but not a base-10 numeral to int().
    assert main(["probe", "anticoncentration", "--r", "10", "--k", "3", "--q", "²"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: q must be 'real' or an integer >= 2, got '²'\n"


def test_singularity_even_k_is_never_full_over_f2(capsys):
    # Even k puts the all-ones vector in the F2 kernel, so every rational rank
    # comes through the modular fallback.
    assert main(["probe", "singularity", "--m", "160", "--r", "40", "--k", "4",
                 "--trials", "30", "--seed", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["f2_frequency"] == 0
    assert out["real_frequency"] >= 0.95


@pytest.mark.parametrize("argv, flag", [
    (["probe", "rank", "--in", "w.json", "--seed", "1"], "--seed 1"),
    (["probe", "krawtchouk", "--r", "32", "--k", "5", "--m", "3"], "--m 3"),
    (["probe", "krawtchouk", "--r", "32", "--k", "5", "--trials", "1"], "--trials 1"),
    (["probe", "krawtchouk", "--r", "32", "--k", "5", "--primes", "7"], "--primes 7"),
    (["probe", "singularity", "--q", "7"], "--q 7"),
    (["probe", "anticoncentration", "--in", "w.json"], "--in"),
], ids=["rank-seed", "krawtchouk-m", "krawtchouk-trials", "krawtchouk-primes",
        "singularity-q", "anticoncentration-in"])
def test_probe_kinds_take_only_the_flags_they_read(argv, flag, tmp_path, capsys):
    (tmp_path / "w.json").write_text(json.dumps(W_CYCLE))
    argv = [str(tmp_path / a) if a == "w.json" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {flag}" in captured.err


def test_recover_subcommand(tmp_path, capsys):
    rng = np.random.Generator(np.random.Philox(key=5))
    from ssbmf import Dataset, gen_instahide
    from ssbmf.instance import save_json
    X = rng.normal(size=(8, 2)) * 0.05
    X[1, 0] = 1.0
    X[5, 1] = 1.0
    syn, M = gen_instahide(Dataset(X=X), m=3905, k=2, seed=6)
    g = tmp_path / "g.json"
    z = tmp_path / "z.csv"
    out = tmp_path / "xhat.csv"
    save_json(M.to_json(), g)
    np.savetxt(z, syn.Z, delimiter=",")
    code = main(["recover", "--gram", str(g), "--synthetic", str(z),
                 "--r", "8", "--k", "2", "--anchors", "40", "--seed", "6",
                 "--out", str(out)])
    assert code == 0
    X_hat = np.loadtxt(out, delimiter=",")
    assert X_hat.shape == (8, 2)
    assert np.max(X_hat[:, 0]) > 0.5


def test_bench_subcommand(capsys):
    assert main(["bench", "--m", "200", "--r", "10", "--k", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "suggested_m" in out
    # One default recovery on the bench instance, timed stage by stage.
    assert type(out["recover_success"]) is bool
    assert "recover_bootstrap_seconds" in out
    assert main(["bench", "--m", "3905", "--r", "8", "--k", "2", "--seed", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["recover_success"] is True
    for stage in ("bootstrap", "decompose", "round", "extend", "verify"):
        assert out[f"recover_{stage}_seconds"] >= 0
    assert out["recover_fallback_rows"] >= 0
    assert out["recover_eigen_gap"] > 0


def test_bench_prints_the_decode_passes_and_files_stay_free_of_them(tmp_path, capsys):
    # The anchor pass leaves rows undecided here; the further passes decode
    # them all, so none reaches the least squares.
    assert main(["bench", "--m", "20000", "--r", "40", "--k", "5", "--seed", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["recover_success"] is True
    assert out["recover_fallback_rows"] > 0 and out["recover_undecided_rows"] == 0
    assert out["recover_decode_passes"] >= 2
    w_path, g_path, rep_path = tmp_path / "w.json", tmp_path / "g.json", tmp_path / "r.json"
    assert main(["gen", "--m", "3905", "--r", "8", "--k", "2", "--seed", "3",
                 "--out", str(w_path)]) == 0
    assert main(["gram", "--in", str(w_path), "--out", str(g_path)]) == 0
    assert main(["attack", "--gram", str(g_path), "--r", "8", "--k", "2", "--anchors", "40",
                 "--seed", "3", "--out", str(rep_path)]) == 0
    assert set(json.loads(rep_path.read_text())) == {"success", "residual", "retries"}


def test_bench_prints_the_recovery_report_with_its_failure(capsys):
    # Far below the sample size the bootstrap fails; bench still exits 0 and
    # prints the whole report, so the failure says why.
    assert main(["bench", "--m", "300", "--r", "100", "--k", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"suggested_m", "gen_seconds", "gram_seconds", "verify_seconds",
                        "recover_success", "recover_residual", "recover_retries",
                        "recover_seconds", "recover_failure", "recover_bootstrap_seconds"}
    assert out["recover_success"] is False and out["recover_residual"] == -1
    assert out["recover_failure"].startswith("tensor entry ")


def test_singularity_prints_every_key_of_the_experiment(capsys):
    assert main(["probe", "singularity", "--m", "8", "--r", "4", "--k", "1",
                 "--trials", "20"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"m", "r", "k", "trials",
                        *(f"{rank}_{key}" for rank in ("f2", "real")
                          for key in ("frequency", "ci_low", "ci_high"))}
    assert (out["m"], out["r"], out["k"], out["trials"]) == (8, 4, 1, 20)
    for rank in ("f2", "real"):
        assert out[f"{rank}_ci_low"] <= out[f"{rank}_frequency"] <= out[f"{rank}_ci_high"]


def test_bench_with_m_below_r_names_m(capsys):
    assert main(["bench", "--m", "10", "--r", "16", "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert "m=10" in captured.err and "anchor count" not in captured.err


def test_bench_defaults_to_the_suggested_sample_size(capsys):
    assert main(["bench"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["suggested_m"] == 6151
    assert out["recover_success"] is True
    assert out["recover_fallback_rows"] >= 0


@pytest.mark.parametrize("argv", [
    ["probe", "rank", "--in", "w.json", "--primes", "4"],
    ["probe", "rank", "--in", "w.json", "--primes", "6"],
    ["probe", "rank", "--in", "w.json", "--primes", "1"],
    ["probe", "rank", "--in", "w.json", "--primes", "-5"],
    ["probe", "rank", "--in", "w.json", "--primes", "0"],
    ["probe", "rank", "--in", "w.json", "--primes", "3", "3037000507"],
    ["probe", "anticoncentration", "--q", "0"],
    ["probe", "anticoncentration", "--q", "1"],
    ["probe", "anticoncentration", "--q=-3"],
], ids=["rank-4", "rank-6", "rank-1", "rank-minus-5", "rank-0", "rank-above-bound",
        "q-0", "q-1", "q-minus-3"])
def test_probe_moduli_exit_2(argv, tmp_path, capsys):
    (tmp_path / "w.json").write_text(json.dumps(W_CYCLE))
    argv = [str(tmp_path / a) if a == "w.json" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_recover_rejects_non_positive_c_heavy(tmp_path, capsys):
    # --c-heavy is retired, and so are recover_dataset's c_heavy and the heavy
    # mask it set.
    (tmp_path / "g.json").write_text(json.dumps(G_CYCLE))
    (tmp_path / "z.csv").write_text("1,2\n1,2\n1,2\n1,2\n")
    assert main(["recover", "--gram", str(tmp_path / "g.json"), "--synthetic",
                 str(tmp_path / "z.csv"), "--r", "4", "--k", "2", "--c-heavy", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --c-heavy 0" in captured.err


@pytest.mark.parametrize("fmt, stdout, file", [
    ("json", '{"first_violation": null, "k": 5, "ok": true, "r": 32}\n',
     '{\n "first_violation": null,\n "k": 5,\n "ok": true,\n "r": 32\n}\n'),
    ("csv", "first_violation,\r\nk,5\r\nok,True\r\nr,32\r\n",
     "first_violation,\r\nk,5\r\nok,True\r\nr,32\r\n"),
    ("pretty", "first_violation: None\nk: 5\nok: True\nr: 32\n",
     "first_violation: None\nk: 5\nok: True\nr: 32\n"),
], ids=["json", "csv", "pretty"])
def test_report_format_applies_to_stdout_and_files(fmt, stdout, file, tmp_path, capsys):
    argv = ["probe", "krawtchouk", "--r", "32", "--k", "5", "--report", fmt]
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == file.encode()
