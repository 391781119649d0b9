"""Tests for the command-line interface."""

import pytest

from repro.align import Sequence, write_fasta
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_align_defaults(self):
        args = build_parser().parse_args(["align", "a.fa", "b.fa"])
        assert args.method == "fastlsa"
        assert args.matrix == "dna"
        assert args.gap_open == -10

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_quiet_flag_parsed(self):
        args = build_parser().parse_args(["--quiet", "align", "a.fa", "b.fa"])
        assert args.quiet is True
        args = build_parser().parse_args(["align", "a.fa", "b.fa"])
        assert args.quiet is False

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.tcp is None
        assert args.workers == 4
        assert args.memory_cells == 4_000_000
        assert args.cache_size == 1024
        assert args.queue_depth == 256


class TestDemo:
    def test_demo_reproduces_82(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "82" in out
        assert "TLDKLLK-D" in out or "T-D-VLKAD" in out


class TestPlan:
    def test_plan_output(self, capsys):
        assert main(["plan", "10000", "10000", "500000"]) == 0
        out = capsys.readouterr().out
        assert "fastlsa" in out
        assert "ops ratio" in out

    def test_plan_full_matrix(self, capsys):
        assert main(["plan", "100", "100", "1000000"]) == 0
        assert "full-matrix" in capsys.readouterr().out

    def test_plan_infeasible_is_clean_error(self, capsys):
        assert main(["plan", "1000000", "1000000", "1000"]) == 2
        assert "error:" in capsys.readouterr().err


class TestAlign:
    @pytest.fixture
    def fasta_files(self, tmp_path):
        fa = tmp_path / "a.fasta"
        fb = tmp_path / "b.fasta"
        write_fasta(fa, [Sequence("ACGTACGTAC", name="a")])
        write_fasta(fb, [Sequence("ACGTTCGTAC", name="b")])
        return str(fa), str(fb)

    def test_align_fastlsa(self, fasta_files, capsys):
        fa, fb = fasta_files
        assert main(["align", fa, fb, "--gap-open", "-6"]) == 0
        out = capsys.readouterr().out
        assert "score=" in out

    def test_align_methods_agree(self, fasta_files, capsys):
        fa, fb = fasta_files
        scores = []
        for method in ("fastlsa", "needleman-wunsch", "hirschberg"):
            main(["align", fa, fb, "--method", method, "--gap-open", "-6"])
            out = capsys.readouterr().out
            scores.append(out.split("score=")[1].split()[0])
        assert len(set(scores)) == 1

    def test_align_stats_flag(self, fasta_files, capsys):
        fa, fb = fasta_files
        assert main(["align", fa, fb, "--stats"]) == 0
        assert "cells_computed=" in capsys.readouterr().out

    def test_align_affine(self, fasta_files, capsys):
        fa, fb = fasta_files
        assert main(["align", fa, fb, "--gap-extend", "-1", "--gap-open", "-8"]) == 0

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["align", str(tmp_path / "x.fa"), str(tmp_path / "y.fa")]) == 2
        assert "error:" in capsys.readouterr().err


class TestQuiet:
    @pytest.fixture
    def fasta_files(self, tmp_path):
        fa = tmp_path / "a.fasta"
        fb = tmp_path / "b.fasta"
        write_fasta(fa, [Sequence("ACGTACGTAC", name="a")])
        write_fasta(fb, [Sequence("ACGTTCGTAC", name="b")])
        return str(fa), str(fb)

    def test_quiet_drops_info_lines(self, fasta_files, capsys):
        fa, fb = fasta_files
        assert main(["--quiet", "align", fa, fb, "--mode", "local",
                     "--gap-open", "-6", "--stats"]) == 0
        out = capsys.readouterr().out
        assert not any(line.startswith("#") for line in out.splitlines())

    def test_default_keeps_info_lines(self, fasta_files, capsys):
        fa, fb = fasta_files
        assert main(["align", fa, fb, "--mode", "local", "--gap-open", "-6"]) == 0
        assert "# local score=" in capsys.readouterr().out

    def test_bad_serve_tcp_spec_exits_2(self, capsys):
        assert main(["serve", "--tcp", "nonsense"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSpeedup:
    def test_speedup_table(self, capsys):
        assert main(["speedup", "200", "--procs", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "efficiency" in out


class TestMemorySizes:
    def test_plan_accepts_human_sizes(self, capsys):
        assert main(["plan", "10000", "10000", "64M"]) == 0
        human = capsys.readouterr().out
        # 64M bytes = 64 * 1024**2 / 8 = 8,388,608 DP cells.
        assert main(["plan", "10000", "10000", "8388608"]) == 0
        assert human == capsys.readouterr().out

    def test_plan_bare_cells_still_work(self, capsys):
        assert main(["plan", "10000", "10000", "500000"]) == 0
        assert "fastlsa" in capsys.readouterr().out

    @pytest.mark.parametrize("budget", ["0", "-5", "0M"])
    def test_plan_rejects_non_positive(self, budget, capsys):
        assert main(["plan", "100", "100", budget]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "positive" in err

    def test_plan_rejects_garbage(self, capsys):
        assert main(["plan", "100", "100", "lots"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_memory_flag_parses(self):
        args = build_parser().parse_args(["serve", "--memory", "2G"])
        assert args.memory == "2G"
        from repro.core.planner import parse_memory

        assert parse_memory(args.memory) == 2 * 1024**3 // 8


class TestTrace:
    @pytest.fixture
    def fasta_files(self, tmp_path):
        fa = tmp_path / "a.fasta"
        fb = tmp_path / "b.fasta"
        write_fasta(fa, [Sequence("ACGTACGTAC" * 20, name="a")])
        write_fasta(fb, [Sequence("ACGTTCGTAC" * 20, name="b")])
        return str(fa), str(fb)

    def test_trace_writes_chrome_trace(self, fasta_files, tmp_path, capsys):
        import json

        fa, fb = fasta_files
        out = tmp_path / "trace.json"
        rows = tmp_path / "rows.json"
        assert main(["trace", fa, fb, "--gap-open", "-6", "--k", "3",
                     "--base-cells", "512", "--out", str(out),
                     "--rows", str(rows)]) == 0
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert any(e["name"] == "fastlsa.align" for e in events)
        assert all(e["ph"] == "X" for e in events)
        flat = json.loads(rows.read_text())
        assert any(r["name"] == "fastlsa.fillcache" for r in flat)

        printed = capsys.readouterr().out
        assert "cells_filled=" in printed and "ops_ratio=" in printed

    def test_trace_parallel(self, fasta_files, tmp_path, capsys):
        import json

        fa, fb = fasta_files
        out = tmp_path / "ptrace.json"
        assert main(["trace", fa, fb, "--gap-open", "-6", "--k", "3",
                     "--base-cells", "512", "--parallel", "2",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert any(e["name"] == "wavefront.tile" for e in doc["traceEvents"])


class TestProfile:
    @pytest.fixture
    def fasta_files(self, tmp_path):
        fa = tmp_path / "a.fasta"
        fb = tmp_path / "b.fasta"
        write_fasta(fa, [Sequence("ACGTACGTAC" * 10, name="a")])
        write_fasta(fb, [Sequence("ACGTTCGTAC" * 10, name="b")])
        return str(fa), str(fb)

    def test_profile_align_prints_phase_table(self, fasta_files, capsys):
        fa, fb = fasta_files
        assert main(["--profile", "align", fa, fb, "--gap-open", "-6"]) == 0
        captured = capsys.readouterr()
        assert "score=" in captured.out
        assert "fastlsa.align" in captured.err
        assert "total_s" in captured.err

    def test_profile_counter_matches_stats(self, fasta_files, capsys):
        fa, fb = fasta_files
        assert main(["--profile", "align", fa, fb, "--gap-open", "-6",
                     "--stats"]) == 0
        captured = capsys.readouterr()
        cells = captured.out.split("cells_computed=")[1].split()[0]
        assert f"cells_filled={cells}" in captured.err

    def test_no_profile_no_table(self, fasta_files, capsys):
        fa, fb = fasta_files
        assert main(["align", fa, fb, "--gap-open", "-6"]) == 0
        assert "fastlsa.align" not in capsys.readouterr().err


class TestIndexSearch:
    @pytest.fixture
    def corpus_files(self, tmp_path):
        corpus = tmp_path / "corpus.fasta"
        query = tmp_path / "query.fasta"
        write_fasta(corpus, [
            Sequence("ACGTACGTACGTACGTACGT", name="self"),
            Sequence("ACGTACGAACGTACGAACGA", name="near"),
            Sequence("TTTTGGGGTTTT", name="far"),
        ])
        write_fasta(query, [Sequence("ACGTACGTACGTACGTACGT", name="q")])
        return str(corpus), str(query), str(tmp_path / "corpus.flsa")

    def test_parser_defaults(self):
        args = build_parser().parse_args(["search", "c.flsa", "q.fa"])
        assert args.top_k == 5 and args.min_score == 1
        assert args.gap_open == -6 and args.backend is None
        args = build_parser().parse_args(["index", "c.fa", "-o", "c.flsa"])
        assert args.matrix == "dna" and args.alphabet is None
        args = build_parser().parse_args(["chaos"])
        assert args.scenario == "service" and args.corpus == 40

    def test_index_then_search(self, corpus_files, capsys):
        corpus, query, idx = corpus_files
        assert main(["index", corpus, "-o", idx]) == 0
        out = capsys.readouterr().out
        assert "indexed 3 sequences" in out and "fingerprint" in out

        assert main(["search", idx, query, "--top-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "self" in out and "near" in out and "far" not in out
        assert "100" in out  # the exact 20-residue self-hit score

    def test_search_alignments_flag(self, corpus_files, capsys):
        corpus, query, idx = corpus_files
        main(["index", corpus, "-o", idx])
        capsys.readouterr()
        assert main(["search", idx, query, "--top-k", "1", "--alignments"]) == 0
        out = capsys.readouterr().out
        assert "ACGTACGTACGTACGTACGT" in out  # gapped rows printed

    def test_search_no_hits(self, corpus_files, capsys):
        corpus, query, idx = corpus_files
        main(["index", corpus, "-o", idx])
        capsys.readouterr()
        assert main(["search", idx, query, "--min-score", "999999"]) == 0
        assert "no hits" in capsys.readouterr().out

    def test_search_missing_index_exits_2(self, corpus_files, capsys):
        _, query, _ = corpus_files
        assert main(["search", "does-not-exist.flsa", query]) == 2
        assert "error:" in capsys.readouterr().err


class TestKernels:
    """``fastlsa kernels`` reports the fixed lane width and the best-local
    variant per tier, not calibrated lane curves."""

    def test_json_reports_lanes_and_variant(self, capsys):
        import json

        from repro.kernels import batchdp, registry

        assert main(["kernels", "--json"]) == 0
        batch = json.loads(capsys.readouterr().out)["batch"]
        assert set(batch["tiers"]) == set(registry.available_tiers())
        for tier, entry in batch["tiers"].items():
            assert entry["lanes"] == batchdp.BATCH_LANES
            want = ("numpy",) if tier == "numpy" else ("avx2", "default")
            assert entry["variant"]["isa"] in want
            assert entry["variant"]["elem"] in ("int32", "int64")
            assert "calibrated_cells_per_s" not in json.dumps(entry)
            assert "auto_lanes" not in json.dumps(entry)

    def test_text_reports_lanes_and_variant(self, capsys):
        from repro.kernels import registry

        main(["kernels"])
        out = capsys.readouterr().out
        for tier in registry.available_tiers():
            line = next(ln for ln in out.splitlines()
                        if ln.strip().startswith(tier) and "lanes=" in ln)
            assert "lanes=32 variant elem=" in line and "isa=" in line
        assert "auto_lanes" not in out and "calibrate" not in out


class TestChaosSearchScenario:
    def test_index_rot_fails_typed(self, capsys):
        assert main(["chaos", "index-rot", "--scenario", "search",
                     "--jobs", "2", "--corpus", "10", "--length", "50"]) == 0
        out = capsys.readouterr().out
        assert "failed:CorruptIndexError" in out

    def test_flaky_search_retries_to_exact_topk(self, capsys):
        assert main(["chaos", "flaky-search", "--scenario", "search",
                     "--jobs", "2", "--corpus", "10", "--length", "50"]) == 0
        out = capsys.readouterr().out
        assert "yes" in out and "NO" not in out
