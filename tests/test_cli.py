import argparse
import json
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from cdpa import (
    CdpaConfig,
    NumericalError,
    ObservedMatrix,
    RankProfile,
    SimulationConfig,
    bootstrap_ci,
    estimate_cdpa,
    generate_setup,
    read_matrix_binary,
    write_matrix_binary,
)
import cdpa.denoise
from cdpa.cli import _perm_argument, build_parser, main
from cdpa._linalg import random_orthonormal

from helpers import exact_signal_pair, held_worker, meet_the_worker, record_linalg, serial_map
from test_reference_panel import ATOL, RTOL


@pytest.fixture()
def bench_files(tmp_path):
    cfg = SimulationConfig(
        setup=1, theta_deg=15.0, p1=60, n=150, noise_var=0.5, seed=42
    )
    y1, y2, truth = generate_setup(cfg)
    p1 = tmp_path / "y1.cdpm"
    p2 = tmp_path / "y2.cdpm"
    write_matrix_binary(p1, y1.values)
    write_matrix_binary(p2, y2.values)
    return str(p1), str(p2), truth


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------- ranks


def test_ranks_identical_files(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 4)) @ rng.standard_normal((4, 200))
    x += 0.05 * rng.standard_normal(x.shape)
    path = tmp_path / "y.cdpm"
    write_matrix_binary(path, x)
    code, out, _ = _run(capsys, ["ranks", str(path), str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["r1"] == payload["r2"] == 4
    assert payload["screen"] is True
    assert payload["r12"] == payload["r1"]


def test_ranks_pure_noise_screen_false(tmp_path, capsys):
    rng = np.random.default_rng(1)
    a = tmp_path / "a.cdpm"
    b = tmp_path / "b.cdpm"
    write_matrix_binary(a, rng.standard_normal((60, 200)))
    write_matrix_binary(b, rng.standard_normal((70, 200)))
    code, out, _ = _run(capsys, ["ranks", str(a), str(b)])
    assert code == 0
    payload = json.loads(out)
    assert payload["r12"] == 0
    assert payload["screen"] is False


@pytest.mark.parametrize("center", [[], ["--no-center"]])
def test_ranks_of_a_one_row_input(tmp_path, capsys, center):
    path = tmp_path / "one.csv"
    np.savetxt(path, np.random.default_rng(2).standard_normal((1, 50)), delimiter=",")
    code, out, err = _run(capsys, ["ranks", str(path), str(path)] + center)
    assert code == 0, err
    assert json.loads(out) == {"r1": 0, "r2": 0, "r12": 0, "screen": False}


def test_decompose_rank_above_the_row_count_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(3)
    paths = [tmp_path / f"y{p}.cdpm" for p in (3, 30)]
    for path, p in zip(paths, (3, 30)):
        write_matrix_binary(path, rng.standard_normal((p, 50)))
    argv = ["decompose", *map(str, paths), "--ranks", "5,5,5", "--out", str(tmp_path / "out")]
    code, _, err = _run(capsys, argv)
    assert code == 2 and "rank 5 outside [0, 3]" in err
    assert not (tmp_path / "out").exists()


def test_ranks_benchmark_files(tmp_path, capsys, monkeypatch):
    cfg = SimulationConfig(
        setup=1, theta_deg=15.0, p1=300, n=300, noise_var=1.0, seed=11
    )
    y1, y2, _ = generate_setup(cfg)
    p1 = tmp_path / "y1.cdpm"
    p2 = tmp_path / "y2.cdpm"
    write_matrix_binary(p1, y1.values)
    write_matrix_binary(p2, y2.values)
    shapes = record_linalg(monkeypatch)
    code, out, _ = _run(capsys, ["ranks", str(p1), str(p2), "--no-center"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["r1"], payload["r2"], payload["r12"]) == (5, 5, 5)
    # per dataset, one Gram matrix; one tridiagonal reduction, whose values
    # alone ED reads; one certified filtered iteration for the top 5 pairs,
    # which denoising and MDL read; no dense eigensolver above the order
    # 2 (5 + 3) of the iteration's start, no SVD fallback
    assert shapes["gram"] == [(300, 300), (300, 300)]
    assert shapes["reduce"] == [(300, 300), (300, 300)]
    assert shapes["spectrum"] == [(300, 300), (300, 300)]
    assert shapes["iterate"] == [((300, 300), 5), ((300, 300), 5)]
    assert shapes["top"] == []
    assert shapes["eigh"] and all(max(s) <= 16 for s in shapes["eigh"])
    assert [s for s in shapes["svd"] if min(s) > 10] == []


# ------------------------------------------------------------- decompose


def test_decompose_writes_outputs_and_manifest(bench_files, tmp_path, capsys):
    p1, p2, _ = bench_files
    out_dir = tmp_path / "run"
    code, out, _ = _run(
        capsys,
        [
            "decompose", p1, p2,
            "--ranks", "5,5,5",
            "--no-center",
            "--seed", "7",
            "--out", str(out_dir),
        ],
    )
    assert code == 0
    text = (out_dir / "manifest.json").read_text()
    assert out == text + "\n"  # one encoding, written to both
    manifest = json.loads(text)
    for name in manifest["artifacts"].values():
        assert (out_dir / name).exists()
    assert manifest["ranks"] == [5, 5, 5]
    assert manifest["permutation"]["method"] == "identity"
    assert manifest["sign"] in (1, -1)
    assert 0.0 < manifest["explained_variance"] <= 1.5
    assert 0.0 < manifest["delta_theta"] <= 1.0


def test_decompose_identical_files_full_commonality(tmp_path, capsys):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 120))
    path = tmp_path / "y.cdpm"
    write_matrix_binary(path, x)
    out_dir = tmp_path / "same"
    code, out, _ = _run(
        capsys,
        ["decompose", str(path), str(path), "--ranks", "5,5,5", "--no-center",
         "--out", str(out_dir)],
    )
    assert code == 0
    manifest = json.loads(out)
    assert abs(manifest["explained_variance"] - 1.0) < 1e-6


def test_decompose_deterministic_manifest(bench_files, tmp_path, capsys):
    p1, p2, _ = bench_files
    manifests = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, out, _ = _run(
            capsys,
            ["decompose", p1, p2, "--ranks", "5,5,5", "--no-center",
             "--seed", "3", "--out", str(out_dir)],
        )
        assert code == 0
        text = (out_dir / "manifest.json").read_text()
        data = json.loads(text)
        data.pop("timings")
        manifests.append(json.dumps(data, sort_keys=True))
    assert manifests[0] == manifests[1]


def test_decompose_sign_auto_positive_association(bench_files, tmp_path, capsys):
    p1, p2, _ = bench_files
    code, out, _ = _run(
        capsys,
        ["decompose", p1, p2, "--ranks", "5,5,5", "--no-center", "--sign", "auto",
         "--out", str(tmp_path / "signed")],
    )
    assert code == 0
    assert json.loads(out)["sign"] == 1


def test_decompose_provided_permutation(bench_files, tmp_path, capsys):
    p1, p2, _ = bench_files
    perm_file = tmp_path / "perm.json"
    perm_file.write_text(json.dumps(list(np.random.default_rng(3).permutation(60).tolist())))
    code, out, _ = _run(
        capsys,
        ["decompose", p1, p2, "--ranks", "5,5,5", "--no-center",
         "--perm", str(perm_file), "--out", str(tmp_path / "perm_run")],
    )
    assert code == 0
    manifest = json.loads(out)
    assert manifest["permutation"]["method"] == "provided"
    assert sorted(manifest["permutation"]["indices"]) == list(range(60))
    assert manifest["permutation"]["iterations"] == 0
    assert manifest["permutation"]["converged"] is True


def test_decompose_requires_rank_mode(bench_files, tmp_path, capsys):
    p1, p2, _ = bench_files
    code, _, err = _run(
        capsys, ["decompose", p1, p2, "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert "ranks" in err


def test_decompose_dimension_mismatch_is_input_error(tmp_path, capsys):
    rng = np.random.default_rng(4)
    a = tmp_path / "a.cdpm"
    b = tmp_path / "b.cdpm"
    write_matrix_binary(a, rng.standard_normal((20, 50)))
    write_matrix_binary(b, rng.standard_normal((20, 60)))
    code, _, err = _run(
        capsys,
        ["decompose", str(a), str(b), "--ranks", "2,2,1", "--out", str(tmp_path / "x")],
    )
    assert code == 2
    assert "sample counts" in err


def test_failed_run_removes_only_the_out_it_created(tmp_path, capsys, monkeypatch):
    import cdpa.cli

    rng = np.random.default_rng(4)
    a = tmp_path / "a.cdpm"
    b = tmp_path / "b.cdpm"
    write_matrix_binary(a, rng.standard_normal((20, 50)))
    write_matrix_binary(b, rng.standard_normal((20, 60)))
    kept = tmp_path / "kept"
    kept.mkdir()
    for out in (tmp_path / "new" / "nested", kept):
        code, stdout, err = _run(
            capsys, ["decompose", str(a), str(b), "--ranks", "2,2,1", "--out", str(out)]
        )
        assert code == 2 and "sample counts" in err and stdout == ""
    assert not (tmp_path / "new").exists()
    assert kept.is_dir() and not any(kept.iterdir())

    def failing(cell):
        raise NumericalError("cell failed")

    monkeypatch.setattr(cdpa.cli, "run_replications", failing)
    code, _, err = _run(
        capsys, ["simulate", "--setup", "1", "--theta", "15", "--p1", "30", "--n", "60",
                 "--reps", "1", "--out", str(tmp_path / "sim")],
    )
    assert code == 3 and "cell failed" in err
    assert not (tmp_path / "sim").exists()


def test_decompose_numerical_failure_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(5)
    a = tmp_path / "a.cdpm"
    write_matrix_binary(a, rng.standard_normal((5, 5)))
    code, _, err = _run(
        capsys,
        ["decompose", str(a), str(a), "--ranks", "3,3,2", "--no-center",
         "--out", str(tmp_path / "x")],
    )
    assert code == 3
    assert "numerical failure" in err


def test_eigh_failure_is_a_numerical_error(bench_files, tmp_path, capsys, monkeypatch):
    def failing(name):
        real = getattr(scipy.linalg.lapack, name)

        def run(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, 1)  # LAPACK's info > 0: no convergence

        return run

    # the values-only read of rank selection and the top-r read of a rank
    for name in ("dsterf", "dstein"):
        monkeypatch.setattr(scipy.linalg.lapack, name, failing(name))
    p1, p2, _ = bench_files
    y1, y2 = (ObservedMatrix(read_matrix_binary(p)) for p in (p1, p2))
    for config in (CdpaConfig(), CdpaConfig(ranks=RankProfile(5, 5, 5))):
        with pytest.raises(NumericalError, match="did not converge"):
            estimate_cdpa(y1, y2, config)
    for ranks in (["--auto-ranks"], ["--ranks", "5,5,5"]):
        code, _, err = _run(capsys, ["decompose", p1, p2, *ranks, "--out", str(tmp_path / "x")])
        assert code == 3
        assert "numerical failure" in err


@pytest.mark.parametrize("kernel", ["eigh", "qr"])
def test_filtered_top_failure_is_a_numerical_error(tmp_path, capsys, monkeypatch, kernel):
    # at m = 160 >= 18 (5 + 3) fixed ranks take the filtered iteration; a
    # failed Ritz eigensolve or QR there is a numerical failure: exit 3
    y1, y2, _ = generate_setup(SimulationConfig(setup=1, theta_deg=30.0, p1=160, n=160, seed=8))
    paths = [str(tmp_path / f"y{k}.cdpm") for k in (1, 2)]
    for path, y in zip(paths, (y1, y2)):
        write_matrix_binary(path, y.values)

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("injected failure")

    monkeypatch.setattr(np.linalg, kernel, failing)
    with pytest.raises(NumericalError, match="injected failure"):
        estimate_cdpa(y1, y2, CdpaConfig(ranks=RankProfile(5, 5, 5)))
    code, _, err = _run(capsys, ["decompose", *paths, "--ranks", "5,5,5", "--out", str(tmp_path / "x")])
    assert code == 3
    assert "numerical failure" in err


def _paired_files(tmp_path, p1, p2, n=101, seed=6):
    """Two noisy rank-3 datasets with planted shared structure, written to files."""
    rng = np.random.default_rng(seed)
    x1, x2, _ = exact_signal_pair(rng, p1, p2, [9.0, 6.0, 4.0], [0.9, 0.7, 0.5], n)
    paths = []
    for k, x in enumerate((x1, x2), start=1):
        paths.append(tmp_path / f"y{k}.cdpm")
        write_matrix_binary(paths[-1], x + 0.05 * rng.standard_normal(x.shape))
    return [str(p) for p in paths]


def _outputs(out_dir):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return manifest, {
        name: read_matrix_binary(out_dir / file) for name, file in manifest["artifacts"].items()
    }


@pytest.mark.parametrize("shape", [(40, 55), (55, 40)])
@pytest.mark.parametrize("perm, ranks", [("dspfp", "3,3,3"), ("file", "3,3,2"), ("dspfp", "3,3,0")])
def test_decompose_written_files_are_additive_and_match_the_library(
    tmp_path, capsys, shape, perm, ranks
):
    paths = _paired_files(tmp_path, *shape)
    pmax = max(shape)
    if perm == "file":
        perm = str(tmp_path / "perm.json")
        Path(perm).write_text(json.dumps(np.random.default_rng(7).permutation(pmax).tolist()))
    out_dir = tmp_path / "run"
    code, _, _ = _run(
        capsys,
        ["decompose", *paths, "--ranks", ranks, "--perm", perm, "--sign", "minus",
         "--out", str(out_dir)],
    )
    assert code == 0
    manifest, files = _outputs(out_dir)
    plan = np.array(manifest["permutation"]["indices"])
    assert manifest["sign"] == (1 if ranks.endswith(",0") else -1)
    for k, rows in ((1, np.arange(pmax)), (2, plan)):
        d = np.zeros((pmax, files[f"source_d_{k}"].shape[1]))
        d[: files[f"source_d_{k}"].shape[0]] = files[f"source_d_{k}"]
        assert np.array_equal(files[f"delta_{k}"], files[f"h_{k}"] + d[rows])
    # the same fit in the library, read through the dense properties
    r1, r2, r12 = (int(r) for r in ranks.split(","))
    fit = estimate_cdpa(
        *(ObservedMatrix(read_matrix_binary(p)) for p in paths),
        CdpaConfig(ranks=RankProfile(r1, r2, r12), perm=_perm_argument(perm), sign="minus"),
    )
    pat = fit.patterns
    want = {"c": pat.c}
    for k in range(2):
        want.update({
            f"c_scaled_{k + 1}": pat.c_scaled[k],
            f"delta_{k + 1}": pat.delta[k],
            f"h_{k + 1}": pat.h[k],
            f"source_c_{k + 1}": fit.patterns.sources[k].c,
            f"source_d_{k + 1}": fit.patterns.sources[k].d,
        })
    assert files.keys() == want.keys()
    for name, m in want.items():
        assert files[name].shape == m.shape, name
        fro = np.linalg.norm(m)
        assert np.max(np.abs(files[name] - m), initial=0.0) <= RTOL * fro + ATOL, name


def test_decompose_writes_each_output_without_forming_it(tmp_path, capsys, monkeypatch):
    import cdpa.cli

    paths = _paired_files(tmp_path, 300, 200, n=400)
    write = cdpa.cli.write_matrices
    lock, started, calls = threading.Lock(), [], []

    def measured(files, n, columns):
        with lock:  # the two groups' writes overlap: measure from the first
            if not started:
                tracemalloc.reset_peak()
                started.append(tracemalloc.get_traced_memory()[0])
        write(files, n, columns)
        with lock:
            calls.append((tracemalloc.get_traced_memory()[1] - started[0], len(files), n))

    monkeypatch.setattr(cdpa.cli, "write_matrices", measured)
    tracemalloc.start()
    try:
        code, _, _ = _run(
            capsys, ["decompose", *paths, "--ranks", "3,3,3", "--perm", "dspfp",
                     "--out", str(tmp_path / "run")],
        )
    finally:
        tracemalloc.stop()
    assert code == 0 and len(calls) == 2
    # two passes write the eleven files, dataset 1's five and dataset 2's
    # six, below half of one 300 x 400 output between them
    assert sorted(files for _, files, _ in calls) == [5, 6] and {n for *_, n in calls} == {400}
    peak = max(peak for peak, _, _ in calls)
    assert peak < 8 * 300 * 400 / 2, peak


@pytest.mark.parametrize("ranks", [["--auto-ranks"], ["--ranks", "3,3,3", "--perm", "dspfp"]])
def test_decompose_writes_the_same_bytes_however_the_work_is_shared(tmp_path, capsys, monkeypatch, ranks):
    # rank selection and the two groups of output files run on the caller
    # and the shared worker: with both taking part, with the worker held so
    # that the caller runs every item, and serially, the eleven files and
    # the manifest but its timings are the same bytes
    import cdpa.cli

    paths = _paired_files(tmp_path, 300, 200, n=400)

    def decompose(name):
        code, out, err = _run(capsys, ["decompose", *paths, *ranks, "--out", str(tmp_path / name)])
        assert code == 0, err
        manifest = json.loads(out)
        del manifest["timings"]
        files = {f: (tmp_path / name / f).read_bytes() for f in manifest["artifacts"].values()}
        return json.dumps(manifest, sort_keys=True), files

    with held_worker():
        held = decompose("held")
    met = [meet_the_worker(monkeypatch, cdpa.cli, "write_matrices")]
    if "--auto-ranks" in ranks:
        met.append(meet_the_worker(monkeypatch, cdpa.denoise, "ed_select_rank"))
    shared = decompose("shared")
    assert all(len(threads) == 2 for threads in met)
    monkeypatch.undo()
    serial_map(monkeypatch)
    serial = decompose("serial")
    assert len(serial[1]) == 11
    assert held == serial and shared == serial


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_decompose_out_that_cannot_be_a_directory_is_input_error(bench_files, tmp_path, capsys, out):
    p1, p2, _ = bench_files
    (tmp_path / "file").write_text("")
    code, _, err = _run(
        capsys, ["decompose", p1, p2, "--ranks", "5,5,5", "--out", str(tmp_path / out)]
    )
    assert code == 2 and "error: --out" in err


def test_unusable_out_fails_before_any_fit(bench_files, tmp_path, capsys, monkeypatch):
    import cdpa.cli

    def no_fit(*args, **kwargs):
        raise AssertionError("fit ran before --out was checked")

    monkeypatch.setattr(cdpa.cli, "estimate_cdpa", no_fit)
    monkeypatch.setattr(cdpa.cli, "run_replications", no_fit)
    p1, p2, _ = bench_files
    blocked = tmp_path / "file"
    blocked.write_text("")
    runs = [
        ["decompose", p1, p2, "--ranks", "5,5,5", "--out", str(blocked)],
        ["simulate", "--setup", "1", "--theta", "15", "--p1", "30", "--n", "60",
         "--reps", "1", "--out", str(blocked / "sim")],
    ]
    for argv in runs:
        code, out, err = _run(capsys, argv)
        assert code == 2 and "error: --out" in err and out == "", err


def test_decompose_manifest_write_failure_is_input_error(bench_files, tmp_path, capsys):
    p1, p2, _ = bench_files
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    code, stdout, err = _run(capsys, ["decompose", p1, p2, "--ranks", "5,5,5", "--out", str(out)])
    assert code == 2 and stdout == ""
    assert f"error: {out / 'manifest.json'}: cannot write" in err, err


@pytest.mark.parametrize(
    "blocker",
    [
        "directory",
        pytest.param(
            "full device",
            marks=pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full"),
        ),
    ],
)
def test_decompose_write_failure_closes_files_and_writes_no_manifest(
    bench_files, tmp_path, capsys, monkeypatch, blocker
):
    import cdpa.matrixio

    opened = []

    def tracked(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "w" in mode:
            opened.append(fh)
        return fh

    monkeypatch.setattr(cdpa.matrixio, "open", tracked, raising=False)
    p1, p2, _ = bench_files
    out = tmp_path / "out"
    out.mkdir()
    # h_1 is dataset 1's fourth output, so the failure comes part-way
    # through its group; dataset 2's group of six is written whole
    if blocker == "directory":
        (out / "h_1.cdpm").mkdir()
    else:
        (out / "h_1.cdpm").symlink_to("/dev/full")
    code, stdout, err = _run(capsys, ["decompose", p1, p2, "--ranks", "5,5,5", "--out", str(out)])
    assert code == 2 and "error: cannot write" in err and stdout == ""
    assert not (out / "manifest.json").exists()
    assert len(opened) == (3 + 6 if blocker == "directory" else 11)
    assert all(fh.closed for fh in opened)


def test_unreadable_inputs_are_input_errors(tmp_path, capsys):
    rng = np.random.default_rng(0)
    good = tmp_path / "y.cdpm"
    write_matrix_binary(good, rng.standard_normal((20, 30)))
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"\xff\xfe\x00\n" * 10)  # neither a binary matrix nor UTF-8
    for bad, message in ((tmp_path, f"{tmp_path}: cannot read"), (junk, f"{junk}:2: no numeric values")):
        code, _, err = _run(capsys, ["ranks", str(bad), str(good)])
        assert code == 2 and message in err, err


def test_missing_input_file_exit_code(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        ["ranks", str(tmp_path / "missing1.csv"), str(tmp_path / "missing2.csv")],
    )
    assert code == 2


# ---------------------------------------------------------------- oracle


def test_oracle_values(capsys):
    code, out, _ = _run(capsys, ["oracle", "--theta", "0,15,30,45,60,75"])
    assert code == 0
    values = json.loads(out)["explained_variance"]
    want = [0.890, 0.479, 0.213, 0.126, 0.092, 0.088]
    for theta, value in zip(("0", "15", "30", "45", "60", "75"), want):
        assert abs(values[theta] - value) < 2e-3


def test_oracle_out_of_sweep_warns(capsys):
    code, out, err = _run(capsys, ["oracle", "--theta", "90"])
    assert code == 0
    assert "outside the standard sweep" in err
    assert "90" in json.loads(out)["explained_variance"]


# ----------------------------------------------------------------- match


def test_match_planted_channels(tmp_path, capsys):
    rng = np.random.default_rng(6)
    q = random_orthonormal(rng, 8, 3) * np.array([3.0, 2.0, 1.0])
    scramble = rng.permutation(8)
    b1 = tmp_path / "b1.cdpm"
    b2 = tmp_path / "b2.cdpm"
    write_matrix_binary(b1, q)
    write_matrix_binary(b2, q[scramble])
    out_file = tmp_path / "perm.json"
    code, out, _ = _run(
        capsys, ["match", str(b1), str(b2), "--method", "dspfp", "--out", str(out_file)]
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["objective"] - 3.0) < 1e-8
    assert payload["converged"] is True
    assert payload["iterations"] >= 3
    saved = json.loads(out_file.read_text())
    assert sorted(saved) == list(range(8))

    code2, out2, _ = _run(capsys, ["match", str(b1), str(b2), "--method", "exhaustive"])
    assert code2 == 0
    assert abs(json.loads(out2)["objective"] - 3.0) < 1e-10

    code3, out3, err3 = _run(capsys, ["match", str(b1), str(b2), "--out", str(tmp_path)])
    assert code3 == 2 and out3 == "" and f"error: {tmp_path}: cannot write" in err3, err3


def test_match_rejects_directory_out_before_aligning(tmp_path, capsys, monkeypatch):
    import cdpa.cli

    def no_match(*args, **kwargs):
        raise AssertionError("alignment ran before --out was checked")

    monkeypatch.setattr(cdpa.cli, "dspfp_match", no_match)
    q = random_orthonormal(np.random.default_rng(6), 8, 3)
    for name in ("b1.cdpm", "b2.cdpm"):
        write_matrix_binary(tmp_path / name, q)
    argv = ["match", str(tmp_path / "b1.cdpm"), str(tmp_path / "b2.cdpm"), "--out", str(tmp_path)]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == "" and f"error: {tmp_path}: cannot write" in err, err


@pytest.mark.parametrize("parent", ["nodir", "b1.cdpm"])
def test_match_rejects_out_without_parent_directory_before_aligning(tmp_path, capsys, monkeypatch, parent):
    import cdpa.cli

    def no_match(*args, **kwargs):
        raise AssertionError("alignment ran before --out was checked")

    monkeypatch.setattr(cdpa.cli, "dspfp_match", no_match)
    q = random_orthonormal(np.random.default_rng(6), 8, 3)
    for name in ("b1.cdpm", "b2.cdpm"):
        write_matrix_binary(tmp_path / name, q)
    plan = tmp_path / parent / "plan.json"
    argv = ["match", str(tmp_path / "b1.cdpm"), str(tmp_path / "b2.cdpm"), "--out", str(plan)]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == "" and f"error: {plan}: cannot write" in err, err
    assert not (tmp_path / "nodir").exists()


# -------------------------------------------------------------- simulate


def test_simulate_single_replication_sweep(tmp_path, capsys):
    code, out, _ = _run(
        capsys,
        [
            "simulate", "--setup", "1", "--theta", "15,45", "--p1", "40",
            "--noise", "0.5", "--n", "80", "--reps", "1",
            "--out", str(tmp_path / "sim"),
        ],
    )
    assert code == 0
    payload = json.loads(out)
    oracles = {c["theta_deg"]: c["oracle_explained"] for c in payload["cells"]}
    assert abs(oracles[15.0] - 0.479) < 2e-3
    assert abs(oracles[45.0] - 0.126) < 2e-3
    assert all(c["replications"] == 1 for c in payload["cells"])
    assert (tmp_path / "sim" / "replications.csv").exists()
    assert (tmp_path / "sim" / "aggregate.json").exists()


@pytest.mark.parametrize("blocked", ["replications.csv", "aggregate.json"])
def test_simulate_write_failure_is_input_error(tmp_path, capsys, blocked):
    out = tmp_path / "sim"
    (out / blocked).mkdir(parents=True)
    argv = ["simulate", "--setup", "1", "--theta", "15", "--p1", "30", "--n", "60",
            "--reps", "1", "--out", str(out)]
    code, stdout, err = _run(capsys, argv)
    assert code == 2 and stdout == ""
    assert f"error: {out / blocked}: cannot write" in err, err


def test_simulate_setup2_autoset_p2(tmp_path, capsys):
    code, out, _ = _run(
        capsys,
        [
            "simulate", "--setup", "2", "--theta", "30", "--p1", "50",
            "--noise", "1.0", "--n", "60", "--reps", "1",
            "--out", str(tmp_path / "sim2"),
        ],
    )
    assert code == 0
    assert json.loads(out)["cells"][0]["p2"] == 900


def test_simulate_deterministic(tmp_path, capsys):
    # byte-identical outputs on one worker and on two concurrent ones
    argv = [
        "simulate", "--setup", "1", "--theta", "15,60", "--p1", "30",
        "--noise", "0.5", "--n", "60", "--reps", "3", "--seed", "5",
    ]
    _, out_a, _ = _run(capsys, argv + ["--threads", "1", "--out", str(tmp_path / "a")])
    _, out_b, _ = _run(capsys, argv + ["--threads", "2", "--out", str(tmp_path / "b")])
    assert out_a == out_b
    for name in ("aggregate.json", "replications.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize(
    "bad",
    [
        ["--p1", "30.9"],
        ["--p1", "nan"],
        ["--p1", "inf"],
        ["--theta", ""],
        ["--noise", ","],
        ["--n", "-1"],
        ["--n", "1"],
        ["--noise", "nan"],
        ["--noise", "1,inf"],
    ],
)
def test_simulate_bad_grid_writes_nothing(tmp_path, capsys, bad):
    argv = ["simulate", "--setup", "1", "--theta", "15", "--p1", "30", "--n", "60",
            "--reps", "1", "--out", str(tmp_path / "sim")]
    code, out, err = _run(capsys, argv + bad)
    assert code == 2 and "error:" in err
    assert out == ""
    assert not (tmp_path / "sim").exists()


def test_oracle_empty_grid_rejected(capsys):
    code, out, err = _run(capsys, ["oracle", "--theta", ""])
    assert code == 2 and "error:" in err
    assert out == ""


# -------------------------------------------------------------- bootstrap


def test_bootstrap_command(bench_files, capsys):
    p1, p2, _ = bench_files
    code, out, _ = _run(
        capsys,
        [
            "bootstrap", p1, p2, "--ranks", "5,5,5", "--replicates", "100",
            "--seed", "1", "--no-center",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] <= payload["upper"]
    assert payload["replicates"] == 100


def test_cli_bootstrap_intervals_equal_the_library(tmp_path, capsys):
    # rows with large offsets: each replicate must be centred again, as
    # the library's replicates are
    cfg = SimulationConfig(setup=1, theta_deg=30.0, p1=60, n=80, seed=3)
    rng = np.random.default_rng(3)
    paths = []
    for k, y in enumerate(generate_setup(cfg)[:2], start=1):
        paths.append(str(tmp_path / f"y{k}.cdpm"))
        write_matrix_binary(paths[-1], y.values + 5.0 * rng.standard_normal((y.p, 1)))
    y1, y2 = (ObservedMatrix(read_matrix_binary(p)) for p in paths)
    fit = estimate_cdpa(y1, y2, CdpaConfig(ranks=RankProfile(5, 5, 5), sign="plus"))
    want = bootstrap_ci(y1, y2, fit, replicates=200, seed=1)
    runs = [
        ["decompose", *paths, "--ranks", "5,5,5", "--sign", "plus", "--bootstrap", "200",
         "--seed", "1", "--out", str(tmp_path / "dec")],
        ["bootstrap", *paths, "--ranks", "5,5,5", "--replicates", "200", "--seed", "1"],
    ]
    for argv in runs:
        code, out, _ = _run(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        got = payload.get("confidence_interval", payload)
        assert (got["point"], got["lower"], got["upper"]) == (want.point, want.lower, want.upper)


@pytest.mark.parametrize("bad", [["--bootstrap", "50"], ["--bootstrap", "100", "--level", "1.5"]])
def test_decompose_bad_bootstrap_writes_nothing(bench_files, tmp_path, capsys, bad):
    p1, p2, _ = bench_files
    out = tmp_path / "out"
    code, _, err = _run(
        capsys, ["decompose", p1, p2, "--ranks", "5,5,5", "--out", str(out), *bad]
    )
    assert code == 2
    assert "error:" in err
    assert not out.exists()  # no .cdpm file and no manifest


@pytest.mark.parametrize("bad", [["--replicates", "50"], ["--level", "1.5"], ["--seed", "-1"]])
def test_bootstrap_checks_settings_before_fit(bench_files, capsys, monkeypatch, bad):
    import cdpa.cli

    def no_fit(*args, **kwargs):
        raise AssertionError("fit ran before the bootstrap settings were checked")

    monkeypatch.setattr(cdpa.cli, "estimate_cdpa", no_fit)
    p1, p2, _ = bench_files
    code, out, err = _run(capsys, ["bootstrap", p1, p2, "--ranks", "5,5,5", *bad])
    assert code == 2 and out == "" and "error:" in err, err


# ------------------------------------------------------------------ misc


def test_threads_env_default(monkeypatch, capsys):
    from cdpa import BadConfig
    from cdpa.cli import _default_threads

    monkeypatch.setenv("CDPA_THREADS", "3")
    assert _default_threads() == 3
    for bad in ("0", "-4", "two"):
        monkeypatch.setenv("CDPA_THREADS", bad)
        with pytest.raises(BadConfig):
            _default_threads()
        code, _, err = _run(capsys, ["oracle", "--theta", "15"])
        assert code == 2 and "CDPA_THREADS" in err
    monkeypatch.delenv("CDPA_THREADS")
    assert _default_threads() == 1


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_rejected(bench_files, tmp_path, capsys, threads):
    p1, p2, _ = bench_files
    runs = [
        ["simulate", "--setup", "1", "--theta", "15", "--p1", "30", "--n", "60",
         "--reps", "1", "--out", str(tmp_path / "sim")],
        ["bootstrap", p1, p2, "--ranks", "5,5,5", "--replicates", "100"],
        ["decompose", p1, p2, "--ranks", "5,5,5", "--out", str(tmp_path / "dec")],
    ]
    for argv in runs:
        code, out, err = _run(capsys, argv + ["--threads", threads])
        assert code == 2 and "--threads must be at least 1" in err
        assert out == ""
    assert not (tmp_path / "sim").exists() and not (tmp_path / "dec").exists()


# Each subcommand's options as the parser declared them before the shared
# options moved into parent parsers: option strings (the dest for a
# positional), default, and whether the option is required.
PARSER_TABLE = {
    "ranks": [(("--no-center",), False, False), (("y1",), None, True), (("y2",), None, True)],
    "decompose": [
        (("--auto-ranks",), False, False), (("--bootstrap",), 0, False),
        (("--level",), 0.95, False), (("--no-center",), False, False),
        (("--out",), None, True), (("--perm",), "identity", False), (("--ranks",), None, False),
        (("--seed",), 0, False), (("--sign",), "auto", False), (("--threads",), 1, False),
        (("y1",), None, True), (("y2",), None, True),
    ],
    "simulate": [
        (("--n",), 300, False), (("--noise",), "1.0", False), (("--out",), None, True),
        (("--p1",), None, True), (("--reps",), 100, False), (("--seed",), 0, False),
        (("--setup",), None, True), (("--structure-seed",), 0, False),
        (("--theta",), None, True), (("--threads",), 1, False),
    ],
    "oracle": [(("--theta",), None, True)],
    "match": [
        (("--method",), "dspfp", False), (("--out",), None, False),
        (("b1",), None, True), (("b2",), None, True),
    ],
    "bootstrap": [
        (("--level",), 0.95, False), (("--no-center",), False, False),
        (("--perm",), "identity", False), (("--ranks",), None, True),
        (("--replicates",), 1000, False), (("--seed",), 0, False), (("--threads",), 1, False),
        (("y1",), None, True), (("y2",), None, True),
    ],
}


def test_parser_options_match_the_declared_table(monkeypatch):
    monkeypatch.delenv("CDPA_THREADS", raising=False)
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert sorted(sub.choices) == sorted(PARSER_TABLE)
    for name, parser in sub.choices.items():
        got = sorted(
            (tuple(a.option_strings) or (a.dest,), a.default, a.required)
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        )
        assert got == PARSER_TABLE[name], name
