import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "movielens"])

    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.scheduler == "mp-rec"
        assert args.sla_ms == 10.0

    def reject(self, capsys, flag, value, *extra):
        with pytest.raises(SystemExit) as exc:
            main(["serve", flag, value, *extra])
        assert exc.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err

    def test_serve_qps_must_be_positive(self, capsys):
        self.reject(capsys, "--qps", "0")
        self.reject(capsys, "--qps", "-5")
        self.reject(capsys, "--qps", "nan")

    def test_serve_sla_must_be_positive(self, capsys):
        # A zero SLA would divide by zero in the controllers' pressure.
        self.reject(capsys, "--sla-ms", "0", "--switching")
        self.reject(capsys, "--sla-ms", "-1")

    def test_serve_queries_must_be_non_negative(self, capsys):
        self.reject(capsys, "--queries", "-5")
        assert build_parser().parse_args(
            ["serve", "--queries", "0"]
        ).queries == 0

    def test_serve_batch_timeout_must_be_non_negative(self, capsys):
        self.reject(capsys, "--batch-timeout-ms", "-1")
        assert build_parser().parse_args(
            ["serve", "--batch-timeout-ms", "0"]
        ).batch_timeout_ms == 0.0

    def test_serve_drill_time_and_cooldowns_must_be_non_negative(
        self, capsys
    ):
        # NaN and negative values stop at parse time, not in a
        # constructor's traceback; inf stays legal and means "never".
        for flag in ("--fail-at", "--switch-cooldown", "--scale-cooldown"):
            self.reject(capsys, flag, "nan")
            self.reject(capsys, flag, "-1")
            dest = flag[2:].replace("-", "_")
            args = build_parser().parse_args(["serve", flag, "inf"])
            assert getattr(args, dest) == float("inf")


class TestCommands:
    def test_train(self, capsys):
        code = main([
            "train", "--dataset", "kaggle-mini", "--representation", "hybrid",
            "--steps", "5", "--batch-size", "32",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hybrid" in out and "auc" in out

    def test_train_ttrec(self, capsys):
        code = main([
            "train", "--dataset", "kaggle-mini", "--representation", "ttrec",
            "--steps", "3", "--batch-size", "16",
        ])
        assert code == 0
        assert "ttrec" in capsys.readouterr().out

    def test_plan_hw2(self, capsys):
        code = main(["plan", "--dataset", "kaggle", "--hw", "hw2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cpu-broadwell" in out and "gpu-v100" in out
        assert "table-d4" in out  # the downsized-table decision

    def test_serve_static(self, capsys):
        code = main([
            "serve", "--dataset", "kaggle", "--scheduler", "table-cpu",
            "--queries", "100",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "correct predictions/s" in out
        assert "TABLE(CPU)" in out

    def test_serve_cluster(self, capsys):
        code = main([
            "serve", "--dataset", "kaggle", "--queries", "200", "--qps",
            "20000", "--nodes", "2", "--router", "locality",
            "--replication", "2", "--max-batch", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 nodes, locality router" in out
        assert "per-node served" in out

    def test_serve_cluster_failover(self, capsys):
        code = main([
            "serve", "--dataset", "kaggle", "--queries", "200", "--qps",
            "20000", "--nodes", "4", "--replication", "2",
            "--fail-at", "0.002", "--fail-node", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "failed nodes" in out and "[1]" in out

    def test_serve_rejects_cluster_flags_without_nodes(self, capsys):
        code = main(["serve", "--fail-at", "0.5", "--queries", "10"])
        assert code == 2
        assert "--nodes" in capsys.readouterr().err
        code = main(["serve", "--router", "locality", "--queries", "10"])
        assert code == 2
        assert "--router" in capsys.readouterr().err

    def test_serve_cluster_rejects_bad_flag_combos(self, capsys):
        code = main([
            "serve", "--nodes", "2", "--replication", "3", "--queries", "10",
        ])
        assert code == 2
        assert "--replication" in capsys.readouterr().err
        code = main([
            "serve", "--nodes", "2", "--fail-at", "0.1", "--fail-node", "2",
            "--queries", "10",
        ])
        assert code == 2
        assert "--fail-node" in capsys.readouterr().err
        # --fail-node alone would silently skip the drill: reject it.
        code = main([
            "serve", "--nodes", "2", "--fail-node", "1", "--queries", "10",
        ])
        assert code == 2
        assert "--fail-at" in capsys.readouterr().err
        code = main(["serve", "--fail-node", "1", "--queries", "10"])
        assert code == 2
        assert "--nodes" in capsys.readouterr().err

    def test_serve_autoscale(self, capsys):
        code = main([
            "serve", "--dataset", "kaggle", "--queries", "400", "--qps",
            "30000", "--autoscale", "--nodes", "4", "--min-nodes", "2",
            "--replication", "2", "--max-batch", "8",
            "--batch-timeout-ms", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "elastic cluster        : 2..4 nodes" in out
        assert "node-seconds" in out

    def test_serve_autoscale_flag_hygiene(self, capsys):
        # Autoscale-only flags must not be silently eaten without --autoscale.
        code = main(["serve", "--min-nodes", "2", "--queries", "10"])
        assert code == 2
        assert "--autoscale" in capsys.readouterr().err
        code = main(["serve", "--max-nodes", "4", "--queries", "10"])
        assert code == 2
        assert "--autoscale" in capsys.readouterr().err
        code = main(["serve", "--scale-cooldown", "100", "--queries", "10"])
        assert code == 2
        assert "--autoscale" in capsys.readouterr().err
        # --autoscale on a 1-node "fleet" is rejected.
        code = main(["serve", "--autoscale", "--queries", "10"])
        assert code == 2
        assert "--nodes" in capsys.readouterr().err
        # A floor above the ceiling is rejected.
        code = main([
            "serve", "--autoscale", "--nodes", "4", "--min-nodes", "5",
            "--queries", "10",
        ])
        assert code == 2
        assert "--min-nodes" in capsys.readouterr().err
        # Conflicting ceilings are rejected.
        code = main([
            "serve", "--autoscale", "--nodes", "4", "--max-nodes", "8",
            "--queries", "10",
        ])
        assert code == 2
        assert "--max-nodes" in capsys.readouterr().err
        # Elasticity and the failure drill cannot be combined.
        code = main([
            "serve", "--autoscale", "--nodes", "4", "--fail-at", "0.1",
            "--queries", "10",
        ])
        assert code == 2
        assert "--fail-at" in capsys.readouterr().err
        # Replication chains must fit the smallest epoch.
        code = main([
            "serve", "--autoscale", "--nodes", "4", "--min-nodes", "2",
            "--replication", "3", "--queries", "10",
        ])
        assert code == 2
        assert "--replication" in capsys.readouterr().err
        # Switching fleets stay out of scope.
        code = main([
            "serve", "--switching", "--autoscale", "--max-nodes", "4",
            "--queries", "10",
        ])
        assert code == 2
        assert "single-node" in capsys.readouterr().err

    def test_serve_autopilot(self, capsys):
        code = main([
            "serve", "--dataset", "kaggle", "--queries", "400", "--qps",
            "30000", "--autopilot", "--nodes", "4", "--min-nodes", "2",
            "--replication", "2", "--max-batch", "8",
            "--batch-timeout-ms", "1", "--trace-decisions", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "autopilot fleet        : 2..4 nodes" in out
        assert "control decisions" in out and "node-seconds" in out

    def test_serve_autopilot_flag_hygiene(self, capsys):
        # The autopilot subsumes the stand-alone controllers.
        code = main([
            "serve", "--autopilot", "--switching", "--nodes", "2",
            "--queries", "10",
        ])
        assert code == 2
        assert "subsumes --switching" in capsys.readouterr().err
        code = main([
            "serve", "--autopilot", "--autoscale", "--nodes", "2",
            "--queries", "10",
        ])
        assert code == 2
        assert "subsumes --autoscale" in capsys.readouterr().err
        # It builds its own switching deployment; a forced scheduler
        # contradicts that.
        code = main([
            "serve", "--autopilot", "--nodes", "2", "--scheduler",
            "table-cpu", "--queries", "10",
        ])
        assert code == 2
        assert "--autopilot" in capsys.readouterr().err
        # Per-mechanism cooldowns tune the stand-alone controllers, not
        # the shared one.
        code = main([
            "serve", "--autopilot", "--nodes", "2", "--switch-cooldown",
            "100", "--queries", "10",
        ])
        assert code == 2
        assert "cooldown" in capsys.readouterr().err
        # The trace length is meaningless without a decision trace, even
        # when it equals the default.
        for n in ("4", "8"):
            code = main(["serve", "--trace-decisions", n, "--queries", "10"])
            assert code == 2
            assert "--trace-decisions requires --autopilot" in (
                capsys.readouterr().err
            )
        # A negative length would slice the trace from its end.
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--autopilot", "--nodes", "2",
                  "--trace-decisions", "-1"])
        assert exc.value.code == 2
        assert "argument --trace-decisions" in capsys.readouterr().err
        # A 1-node "fleet" and the failure drill are rejected like
        # --autoscale.
        code = main(["serve", "--autopilot", "--queries", "10"])
        assert code == 2
        assert "--nodes" in capsys.readouterr().err
        code = main([
            "serve", "--autopilot", "--nodes", "4", "--fail-at", "0.1",
            "--queries", "10",
        ])
        assert code == 2
        assert "--fail-at" in capsys.readouterr().err

    def test_serve_cluster_cache(self, capsys):
        code = main([
            "serve", "--dataset", "kaggle", "--queries", "200", "--qps",
            "20000", "--nodes", "4", "--router", "cache-affinity",
            "--cache-mb", "8", "--max-batch", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cache-affinity router" in out
        assert "cache hit rate" in out and "cache fill bytes" in out

    def test_serve_cache_flag_hygiene(self, capsys):
        # A non-positive budget is meaningless, not "off".
        code = main([
            "serve", "--nodes", "2", "--cache-mb", "0", "--queries", "10",
        ])
        assert code == 2
        assert "--cache-mb must be positive" in capsys.readouterr().err
        code = main([
            "serve", "--nodes", "2", "--cache-mb", "-4", "--queries", "10",
        ])
        assert code == 2
        assert "--cache-mb must be positive" in capsys.readouterr().err
        # The tier is cluster-only: cache flags without --nodes > 1.
        code = main(["serve", "--cache-mb", "8", "--queries", "10"])
        assert code == 2
        assert "--nodes" in capsys.readouterr().err
        # A policy with no cache to govern.
        code = main([
            "serve", "--nodes", "2", "--cache-policy", "lru",
            "--queries", "10",
        ])
        assert code == 2
        assert "--cache-policy" in capsys.readouterr().err
        # The cache-aware router needs the tier it scores by...
        code = main([
            "serve", "--nodes", "2", "--router", "cache-affinity",
            "--queries", "10",
        ])
        assert code == 2
        assert "--cache-mb" in capsys.readouterr().err
        # ...and a fleet: cache-affinity + cache on one node is rejected.
        code = main([
            "serve", "--router", "cache-affinity", "--cache-mb", "8",
            "--queries", "10",
        ])
        assert code == 2
        assert "--nodes" in capsys.readouterr().err
        # Cache flags on the single-node switching mode are rejected.
        code = main([
            "serve", "--switching", "--cache-mb", "8", "--queries", "10",
        ])
        assert code == 2
        assert "single-node" in capsys.readouterr().err

    def test_serve_cache_with_failover_and_replication_edges(self, capsys):
        # The tier composes with the failure drill when replication holds
        # a surviving replica for every group...
        code = main([
            "serve", "--dataset", "kaggle", "--queries", "200", "--qps",
            "20000", "--nodes", "4", "--replication", "2",
            "--cache-mb", "8", "--fail-at", "0.002", "--fail-node", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "failed nodes" in out and "cache hit rate" in out
        # ...replication bounds are still enforced with cache flags set...
        code = main([
            "serve", "--nodes", "2", "--cache-mb", "8", "--replication",
            "3", "--queries", "10",
        ])
        assert code == 2
        assert "--replication" in capsys.readouterr().err
        # ...and so is the fail-node range check.
        code = main([
            "serve", "--nodes", "2", "--cache-mb", "8", "--fail-at", "0.1",
            "--fail-node", "5", "--queries", "10",
        ])
        assert code == 2
        assert "--fail-node" in capsys.readouterr().err

    def test_serve_autoscale_with_cache(self, capsys):
        code = main([
            "serve", "--dataset", "kaggle", "--queries", "400", "--qps",
            "30000", "--autoscale", "--nodes", "4", "--min-nodes", "2",
            "--replication", "2", "--cache-mb", "8", "--max-batch", "8",
            "--batch-timeout-ms", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "elastic cluster        : 2..4 nodes" in out
        assert "cache hit rate" in out

    def test_serve_switching(self, capsys):
        code = main([
            "serve", "--dataset", "kaggle", "--queries", "300", "--qps",
            "2000", "--switching", "--max-batch", "16",
            "--batch-timeout-ms", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "runtime representation switching" in out
        assert "switches" in out

    def test_serve_switching_flag_hygiene(self, capsys):
        # --switch-cooldown without --switching must not be silently eaten.
        code = main(["serve", "--switch-cooldown", "100", "--queries", "10"])
        assert code == 2
        assert "--switching" in capsys.readouterr().err
        # Switching is single-node; the cluster API handles fleets.
        code = main([
            "serve", "--switching", "--nodes", "2", "--queries", "10",
        ])
        assert code == 2
        assert "single-node" in capsys.readouterr().err
        # --switching builds its own deployment; a named scheduler clashes.
        code = main([
            "serve", "--switching", "--scheduler", "table-cpu",
            "--queries", "10",
        ])
        assert code == 2
        assert "--scheduler" in capsys.readouterr().err

    def test_serve_fastpath(self, capsys):
        code = main([
            "serve", "--fastpath", "--queries", "200", "--max-batch", "8",
            "--batch-timeout-ms", "1", "--shed-policy", "deadline-aware",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fast (array path)" in out
        assert "correct predictions/s" in out

    def test_serve_fastpath_matches_event_engine_output(self, capsys):
        flags = [
            "serve", "--queries", "300", "--qps", "5000", "--max-batch",
            "8", "--batch-timeout-ms", "2", "--shed-policy", "drop-late",
        ]
        assert main(flags) == 0
        event_out = capsys.readouterr().out
        assert main(flags + ["--fastpath"]) == 0
        fast_out = capsys.readouterr().out
        # Identical records => identical report, modulo the engine line.
        strip = lambda s: [  # noqa: E731
            line for line in s.splitlines() if not line.startswith("engine")
        ]
        assert strip(fast_out) == strip(event_out)

    def test_serve_fastpath_flag_hygiene(self, capsys):
        # The fast path is single-node and event-free: every mode that
        # injects events between batches must be rejected, not ignored.
        for flags, needle in [
            (["--nodes", "2"], "--nodes > 1"),
            (["--switching"], "--switching"),
            (["--autoscale", "--max-nodes", "2"], "--autoscale"),
            (["--autopilot", "--max-nodes", "2"], "--autopilot"),
        ]:
            code = main(["serve", "--fastpath", "--queries", "10"] + flags)
            assert code == 2
            err = capsys.readouterr().err
            assert needle in err and "--fastpath" in err

    def test_characterize(self, capsys):
        code = main(["characterize", "--dataset", "kaggle", "--batch", "256"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cpu-broadwell" in out and "hybrid" in out

    def test_generate_data(self, tmp_path, capsys):
        out_file = tmp_path / "synth.tsv"
        code = main([
            "generate-data", "--out", str(out_file), "--rows", "50",
            "--dataset", "kaggle-mini",
        ])
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert len(lines) == 50
        assert len(lines[0].split("\t")) == 1 + 13 + 26
