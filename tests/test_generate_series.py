"""scripts/generate_series.py: per-width text ledgers, resume and assembly,
and the compiled kernel it runs when a C compiler is found."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sawenum import ckernel, engine
from sawenum.flm import RunPlan, assemble, enumerate_series
from sawenum.modseries import read_series, write_series

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "generate_series.py"

_spec = importlib.util.spec_from_file_location("generate_series", SCRIPT)
generate_series = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate_series)

NO_COMPILER = {"CC": "sawenum-no-such-compiler"}


def generate(wmax, out, cache, env=None, *extra):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--wmax", str(wmax), "-o", str(out),
         "--cache", str(cache), *extra],
        capture_output=True, text=True, env={**os.environ, **(env or {})},
    )


@pytest.mark.parametrize("env,kernel", [
    (None, "c" if ckernel.available() else "python"),
    (NO_COMPILER, "python"),
])
def test_series_matches_enumerate_and_ledgers_are_checked(tmp_path, env, kernel):
    cache = tmp_path / "ledgers"
    out = tmp_path / "w3.series"
    run = generate(3, out, cache, env)
    assert run.returncode == 0, run.stderr
    want = enumerate_series(RunPlan(w_max=3)).to_exact()
    got = read_series(out)
    assert got.values == want.values
    assert got.metadata == want.metadata

    ledger = cache / "wmax3_w2.ledger"
    stats = json.loads(Path(f"{ledger}.stats.json").read_text())
    assert stats["kernel"] == kernel
    text = ledger.read_text()
    assert "# algorithm-version: 1\n# width: 2\n# l_max: 5\n# n_max: 7\n" in text

    # a resumed run reads every width from the cache
    run = generate(3, out, cache, env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.count("cached") == 4
    assert read_series(out).values == want.values

    # a ledger of another run (same width, other wmax) is refused
    (cache / "wmax4_w2.ledger").write_text(text)
    run = generate(4, tmp_path / "w4.series", cache, env)
    assert run.returncode == 1
    assert "do not match" in run.stderr
    assert not (tmp_path / "w4.series").exists()

    # so is an edited count: the first body line's, plus one
    lines = text.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    column, degree, count = lines[first].rstrip("\n").split("\t")
    lines[first] = f"{column}\t{degree}\t{int(count) + 1}\n"
    tampered = "".join(lines)
    assert tampered != text
    ledger.write_text(tampered)
    run = generate(3, out, cache, env)
    assert run.returncode == 1
    assert "sha256" in run.stderr


def test_a_ledger_of_residues_is_refused(tmp_path):
    # ledgers once held each count modulo the moduli of a "moduli" header
    wmax, width = 3, 2
    moduli = (2**62, 2**62 - 1)
    header = {**generate_series.ledger_header(wmax, width),
              "moduli": ",".join(map(str, moduli))}
    ledger = engine.sweep(width, *RunPlan(wmax).sweep_size(width))
    body = "".join(f"{c}\t{d}\t{v % moduli[0]},{v % moduli[1]}\n"
                   for c, col in enumerate(ledger)
                   for d, v in enumerate(col) if v)
    head = "".join(f"# {k}: {v}\n" for k, v in header.items())
    digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    (tmp_path / "wmax3_w2.ledger").write_text(
        f"{head}# sha256: {digest}\n{body}")
    out = tmp_path / "w3.series"
    run = generate(wmax, out, tmp_path)
    assert run.returncode == 1
    assert "do not match" in run.stderr
    assert "delete the file" in run.stderr
    assert not out.exists()


@pytest.mark.parametrize("wmax,width", [(3, 5), (3, -1), (-1, None)])
def test_a_width_outside_the_run_is_refused(tmp_path, wmax, width):
    cache = tmp_path / "ledgers"
    out = tmp_path / "s.series"
    extra = [] if width is None else ["--width", str(width)]
    run = generate(wmax, out, cache, None, *extra)
    assert run.returncode == 2
    assert "error: " in run.stderr
    assert "Traceback" not in run.stderr
    assert not cache.exists()
    assert not out.exists()


def test_committed_ledgers_assemble_to_the_committed_series(tmp_path):
    # every committed ledger, widths 8-21 included, is read back and the
    # assembly writes the committed series byte for byte
    wmax = 21
    ledgers = [generate_series.read_ledger(
        ROOT / "data" / "ledgers" / f"wmax{wmax}_w{w}.ledger",
        generate_series.ledger_header(wmax, w)) for w in range(wmax + 1)]
    out = tmp_path / "n43.series"
    write_series(assemble(ledgers, RunPlan(wmax)), out)
    assert (out.read_bytes()
            == (ROOT / "data" / "saw_counts_n43.series").read_bytes())


@pytest.mark.skipif(not ckernel.available(),
                    reason="no C compiler to build the kernel")
@pytest.mark.parametrize("width", range(8))
def test_committed_ledgers_are_reproduced(tmp_path, width):
    # the committed wmax-21 ledgers are what this code writes: the widths
    # that take under a second are swept again and compared byte for byte
    run = generate(21, tmp_path / "n43.series", tmp_path, None,
                   "--width", str(width))
    assert run.returncode == 0, run.stderr
    name = f"wmax21_w{width}.ledger"
    assert ((tmp_path / name).read_bytes()
            == (ROOT / "data" / "ledgers" / name).read_bytes())


@pytest.mark.skipif(not ckernel.available(),
                    reason="no C compiler to build the kernel")
def test_kernels_write_identical_ledgers(tmp_path):
    wmax, width = 5, 4
    l_max, n_max = RunPlan(wmax).sweep_size(width)
    header = generate_series.ledger_header(wmax, width)
    python_rows = engine.sweep(width, l_max, n_max)
    c_rows, _ = ckernel.sweep(width, l_max, n_max)
    generate_series.write_ledger(tmp_path / "python.ledger", header, python_rows)
    generate_series.write_ledger(tmp_path / "c.ledger", header, c_rows)
    assert ((tmp_path / "python.ledger").read_bytes()
            == (tmp_path / "c.ledger").read_bytes())
    # and a ledger reads back as the exact counts it was written from
    assert generate_series.read_ledger(tmp_path / "c.ledger",
                                       header) == python_rows


@pytest.mark.skipif(not ckernel.available(),
                    reason="no C compiler to build the kernel")
class TestCompiledKernel:
    @pytest.mark.parametrize("wmax", [4, 7])
    def test_matches_engine_for_every_width(self, wmax):
        for width in range(wmax + 1):
            l_max, n_max = RunPlan(wmax).sweep_size(width)
            want = engine.sweep(width, l_max, n_max)
            got, _ = ckernel.sweep(width, l_max, n_max)
            assert got == want

    @pytest.mark.parametrize("width,length,n_max", [(2, 6, 22), (3, 5, 20)])
    def test_matches_engine_without_pruning(self, width, length, n_max):
        want = engine.sweep(width, length, n_max, prune=False)
        got, _ = ckernel.sweep(width, length, n_max, prune=False)
        assert got == want

    @pytest.mark.parametrize("width,l_max,n_max,state_rows", [
        (5, 10, 15, 6710), (3, 40, 123, 11658)])
    def test_states_that_outgrow_their_block_are_moved(self, width, l_max,
                                                       n_max, state_rows):
        # both sweeps move states to wider blocks; 3x40 once needed three
        # sweeps at doubling fixed windows
        rows, stats = ckernel.sweep(width, l_max, n_max)
        assert stats["regrows"] > 0
        assert stats["state_rows"] == state_rows
        assert rows == engine.sweep(width, l_max, n_max)

    @pytest.mark.parametrize("width,l_max,n_max,prune", [
        (0, 4, 9, True), (1, 3, 14, False), (2, 5, 11, True),
        (2, 4, 20, False), (3, 3, 9, True), (3, 6, 25, True),
        (4, 5, 13, False), (5, 6, 17, True),
        # widths 8 and 9 of enumerate --wmax 9: sparse keys in many slots
        (8, 11, 19, True), (9, 10, 19, True)])
    def test_matches_engine_on_small_sweeps(self, width, l_max, n_max, prune):
        want = engine.sweep(width, l_max, n_max, prune=prune)
        got, _ = ckernel.sweep(width, l_max, n_max, prune)
        assert got == want

    @pytest.mark.parametrize("width,l_max,n_max,prune", [
        # the sweeps of enumerate --wmax 9, box 6x10 and an unpruned sweep
        *((width, 19 - width, 19, True) for width in range(10)),
        (6, 10, 36, True), (5, 8, 20, False)])
    def test_engine_carries_the_kernels_states(self, monkeypatch, width,
                                               l_max, n_max, prune):
        # the states entering each of the engine's kink moves add up to the
        # kernel's state_rows, and the most of them to its peak_states
        kink_update = engine.kink_update
        live = []

        def counted(states, *args):
            live.append(len(states))
            return kink_update(states, *args)

        monkeypatch.setattr(engine, "kink_update", counted)
        engine.sweep(width, l_max, n_max, prune)
        _, stats = ckernel.sweep(width, l_max, n_max, prune)
        assert (sum(live), max(live)) == (stats["state_rows"],
                                          stats["peak_states"])

    def test_work_done_on_a_box_is_pinned(self):
        # box --width 6 --length 10: a kernel that visits, keeps, moves or
        # merges a different number of states fails here
        _, stats = ckernel.sweep(6, 10, 36)
        assert (stats["peak_states"], stats["state_rows"], stats["regrows"],
                stats["merged"]) == (2748, 127187, 11657, 7400)
        assert stats["wide_rows"] == 0
        assert stats["peak_bytes"] == 838168

    @pytest.mark.parametrize("width,pinned", [
        # (peak_states, state_rows, peak_bytes, regrows, merged, wide_rows)
        (0, (1, 20, 4264, 0, 0, 0)),
        (1, (8, 185, 5192, 26, 19, 0)),
        (2, (33, 886, 9464, 77, 86, 0)),
        (3, (104, 2930, 21272, 228, 261, 0)),
        (4, (295, 8283, 53176, 590, 642, 0)),
        (5, (630, 18970, 96680, 937, 1269, 0)),
        (6, (743, 28980, 102056, 942, 1668, 0)),
        (7, (556, 27983, 80320, 607, 1272, 0)),
        (8, (403, 16383, 44696, 228, 494, 0)),
        (9, (101, 3321, 14344, 0, 75, 0))])
    def test_work_done_on_enumerate_wmax9_is_pinned(self, width, pinned):
        # the sweeps of enumerate --wmax 9; their state_rows sum to 107,941
        # and their merged to 5,786
        _, stats = ckernel.sweep(width, 19 - width, 19)
        assert tuple(stats[k] for k in (
            "peak_states", "state_rows", "peak_bytes", "regrows", "merged",
            "wide_rows")) == pinned

    @pytest.mark.parametrize("width,l_max,n_max", [
        (3, 30, 100), (2, 72, 216), (1, 100, 300), (2, 60, 200),
        (4, 20, 90), (5, 15, 80),
        # only the sweep's last row passes 2**64
        (1, 65, 196)])
    def test_counts_past_64_bits_are_widened(self, width, l_max, n_max):
        # unpruned sweeps whose counts pass 2**64 but not 2**128
        got, stats = ckernel.sweep(width, l_max, n_max, prune=False)
        assert stats["wide_rows"] > 0
        assert got == engine.sweep(width, l_max, n_max, prune=False)

    def test_the_row_that_widens_counts_once(self):
        # the row in which a sum first passes 2**64 goes on from that sum
        # with 128-bit counts, so it credits its completions and moves
        # states to wider blocks once: the work counts and the peak bytes
        # are those of one sweep of each row
        _, stats = ckernel.sweep(3, 30, 100, prune=False)
        assert (stats["peak_states"], stats["state_rows"], stats["regrows"],
                stats["merged"], stats["wide_rows"]) == (104, 8838, 1506,
                                                         741, 25)
        assert stats["peak_bytes"] == 190784

    def test_counts_are_exact_up_to_128_bits(self):
        # the largest count of this unpruned sweep has 126 bits
        got, _ = ckernel.sweep(2, 72, 216, prune=False)
        assert max(max(col) for col in got).bit_length() == 126
        assert got == engine.sweep(2, 72, 216, prune=False)

    @pytest.mark.parametrize("width,l_max,n_max,prune", [
        # the ledger reaches 130 bits
        (2, 74, 222, False), (2, 74, 222, True),
        # only the states' sums carry: the ledger's largest count has 128
        # bits and is never summed past them
        (3, 50, 153, False),
        # only the ledger's sums carry, to 129 bits
        (1, 129, 383, True)])
    def test_a_count_past_128_bits_raises(self, width, l_max, n_max, prune):
        with pytest.raises(OverflowError, match="128 bits"):
            ckernel.sweep(width, l_max, n_max, prune)

    def test_bad_arguments_raise(self):
        with pytest.raises(engine.EngineFault, match="bad arguments"):
            ckernel.sweep(40, 5, 10)
