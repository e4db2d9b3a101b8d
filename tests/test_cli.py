"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_area_command(capsys):
    assert main(["area", "--variant", "tiny", "--outstanding", "32"]) == 0
    out = capsys.readouterr().out
    assert "2616.0" in out  # paper anchor for Tc @ 32
    assert "tiny TMU, 32 outstanding" in out


def test_area_with_prescaler(capsys):
    assert main(["area", "--variant", "full", "--outstanding", "16", "--step", "32"]) == 0
    out = capsys.readouterr().out
    assert "prescaler" in out
    assert "sticky" in out


def test_inject_command_success(capsys):
    code = main(["inject", "--variant", "full", "--stage", "aw_stage_error"])
    assert code == 0
    out = capsys.readouterr().out
    assert "AWVLD_AWRDY" in out
    assert "True" in out


def test_inject_tiny_variant(capsys):
    code = main(["inject", "--variant", "tiny", "--stage", "wlast_bvalid_error"])
    assert code == 0
    out = capsys.readouterr().out
    assert "AWVALID_BRESP" in out


def test_inject_rejects_unknown_stage():
    with pytest.raises(SystemExit):
        main(["inject", "--stage", "nonsense"])


def test_rejects_unknown_variant():
    with pytest.raises(SystemExit):
        main(["area", "--variant", "medium"])


def test_fig7_command(capsys):
    assert main(["fig7"]) == 0
    out = capsys.readouterr().out
    assert "Tc+Pre" in out and "Fc+Pre" in out
    assert "1330.0" in out and "6787.0" in out


def test_fig8_command(capsys):
    assert main(["fig8", "--variant", "tiny", "--budget", "64"]) == 0
    out = capsys.readouterr().out
    assert "worst_detect_latency" in out


def test_table2_command(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "This work: Full-Counter" in out
    assert "Xilinx AXI Timeout" in out


def test_inject_multi_stage_sweep(capsys):
    code = main(
        ["inject", "--variant", "full",
         "--stage", "aw_stage_error", "--stage", "wlast_bvalid_error",
         "--workers", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2 injections on full" in out
    assert "aw_stage_error" in out and "wlast_bvalid_error" in out


def test_campaign_command_sharded(capsys, tmp_path):
    args = [
        "campaign", "--kind", "ip", "--variant", "full",
        "--stage", "aw_stage_error", "--stage", "wlast_bvalid_error",
        "--beats", "4", "--workers", "2",
        "--store", str(tmp_path / "store"),
        "--json", str(tmp_path / "campaign.json"),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "2 runs | 2 detected | 2 recovered" in out
    assert "ip-000000-full-aw_stage_error-s0" in out
    assert (tmp_path / "campaign.json").exists()
    # Second invocation is served from the store, byte-identically.
    assert main(args[:-2]) == 0
    assert "2 runs | 2 detected | 2 recovered" in capsys.readouterr().out


def test_campaign_system_kind(capsys):
    code = main(
        ["campaign", "--kind", "system", "--variant", "full",
         "--stage", "aw_stage_error", "--beats", "16"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "system-000000-full-aw_stage_error-s0" in out


def test_fig11_workers_flag_matches_serial(capsys):
    assert main(["fig11"]) == 0
    serial = capsys.readouterr().out
    assert main(["fig11", "--workers", "2"]) == 0
    assert capsys.readouterr().out == serial


def test_batch_lanes_with_worker_pool_is_a_usage_error(capsys):
    for argv in (
        ["fig11", "--seeds", "2", "--batch-lanes", "4", "--workers", "2"],
        ["campaign", "--kind", "ip", "--beats", "4", "--seeds", "2",
         "--batch-lanes", "4", "--workers", "2"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert "\n" not in err
        assert "--batch-lanes needs one worker, got 2" in err


def test_batch_lanes_with_repro_workers_env_is_a_usage_error(
    capsys, monkeypatch
):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert main(["fig11", "--seeds", "2", "--batch-lanes", "4"]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    assert "--batch-lanes needs one worker, got 2" in err
    assert "REPRO_WORKERS" in err
    # An explicit --workers 1 overrides the environment.
    assert main(["fig11", "--seeds", "2", "--batch-lanes", "4",
                 "--workers", "1"]) == 0


def test_campaign_resume_flags(capsys, tmp_path):
    """Resuming is re-running with the same --store: a second campaign
    against a complete store executes nothing and prints the same table."""
    import json

    base = [
        "campaign", "--kind", "ip", "--variant", "full",
        "--stage", "aw_stage_error", "--beats", "4",
        "--store", str(tmp_path / "store"),
    ]
    telemetry = str(tmp_path / "telemetry.json")
    assert main(base) == 0
    first = capsys.readouterr().out
    assert main(base + ["--telemetry", telemetry]) == 0
    assert capsys.readouterr().out == first
    with open(telemetry) as stream:
        counters = json.load(stream)["metrics"]["counters"]
    assert counters.get("campaign.runs_executed", 0) == 0
    assert counters["store.frontier_runs"] == 0
    assert counters["store.reused_runs"] == 1


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


# ----------------------------------------------------------------------
# Telemetry surfaces: --trace, --telemetry, report, --log-level
# ----------------------------------------------------------------------
def test_inject_trace_writes_perfetto_json(tmp_path, capsys):
    import json

    trace = tmp_path / "trace.json"
    code = main(["inject", "--stage", "wlast_bvalid_error",
                 "--trace", str(trace)])
    assert code == 0
    assert f"wrote {trace}" in capsys.readouterr().err
    data = json.loads(trace.read_text())
    assert {"traceEvents", "displayTimeUnit", "otherData"} <= set(data)
    names = {e["name"] for e in data["traceEvents"]}
    assert "leap" in names  # the stall fast-forward is on the timeline


def test_inject_trace_does_not_change_results(capsys, tmp_path):
    assert main(["inject", "--stage", "wlast_bvalid_error"]) == 0
    untraced = capsys.readouterr().out
    trace = tmp_path / "trace.json"
    assert main(["inject", "--stage", "wlast_bvalid_error",
                 "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == untraced


def test_campaign_telemetry_and_report(tmp_path, capsys):
    telemetry = tmp_path / "telemetry.json"
    assert main(["campaign", "--kind", "ip", "--variant", "full",
                 "--stage", "aw_stage_error", "--beats", "4",
                 "--telemetry", str(telemetry)]) == 0
    capsys.readouterr()
    assert telemetry.exists()
    assert main(["report", "--telemetry", str(telemetry)]) == 0
    out = capsys.readouterr().out
    assert "campaign.runs" in out
    assert "campaign.shard_seconds" in out
    assert "counters" in out and "histograms" in out


def test_campaign_telemetry_does_not_change_export(tmp_path, capsys):
    base = ["campaign", "--kind", "ip", "--variant", "full",
            "--stage", "aw_stage_error", "--beats", "4"]
    plain = tmp_path / "plain.json"
    tele = tmp_path / "tele.json"
    assert main(base + ["--json", str(plain)]) == 0
    assert main(base + ["--json", str(tele),
                        "--telemetry", str(tmp_path / "t.json")]) == 0
    assert plain.read_text() == tele.read_text()


def test_report_rejects_non_telemetry_file(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"not": "telemetry"}')
    assert main(["report", "--telemetry", str(bogus)]) == 2
    assert "error:" in capsys.readouterr().err


def test_log_level_flag_configures_repro_logger(capsys):
    import logging

    logger = logging.getLogger("repro")
    saved = (list(logger.handlers), logger.level, logger.propagate)
    try:
        assert main(["--log-level", "debug", "area", "--variant", "tiny"]) == 0
        assert logger.level == logging.DEBUG
        assert len(logger.handlers) == 1
        assert logger.propagate is False
    finally:
        logger.handlers = saved[0]
        logger.setLevel(saved[1])
        logger.propagate = saved[2]


def test_log_json_flag_emits_json_lines(capsys):
    import json
    import logging

    logger = logging.getLogger("repro")
    saved = (list(logger.handlers), logger.level, logger.propagate)
    try:
        assert main(["--log-level", "info", "--log-json",
                     "area", "--variant", "tiny"]) == 0
        logging.getLogger("repro.test").info("hello")
        line = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(line)["message"] == "hello"
    finally:
        logger.handlers = saved[0]
        logger.setLevel(saved[1])
        logger.propagate = saved[2]


# ----------------------------------------------------------------------
# Result store: --store, repro store stats / migrate
# ----------------------------------------------------------------------
CAMPAIGN_BASE = [
    "campaign", "--kind", "ip", "--variant", "full",
    "--stage", "aw_stage_error", "--stage", "wlast_bvalid_error",
    "--beats", "4",
]


def test_campaign_store_superset_reuses(capsys, tmp_path):
    import json

    store = str(tmp_path / "store")
    telemetry = str(tmp_path / "telemetry.json")
    assert main(CAMPAIGN_BASE + ["--seeds", "1", "--store", store]) == 0
    capsys.readouterr()
    assert main(CAMPAIGN_BASE + ["--seeds", "2", "--store", store,
                                 "--telemetry", telemetry]) == 0
    capsys.readouterr()
    with open(telemetry) as stream:
        counters = json.load(stream)["metrics"]["counters"]
    # One extra seed per stage: 2 frontier runs, 2 reused.
    assert counters["store.frontier_runs"] == 2
    assert counters["campaign.runs_executed"] == 2
    assert counters["store.reused_runs"] == 2


def test_campaign_store_json_matches_storeless(capsys, tmp_path):
    with_store = str(tmp_path / "with_store.json")
    without = str(tmp_path / "without.json")
    assert main(CAMPAIGN_BASE + ["--store", str(tmp_path / "store"),
                                 "--json", with_store]) == 0
    assert main(CAMPAIGN_BASE + ["--json", without]) == 0
    capsys.readouterr()
    with open(with_store) as left, open(without) as right:
        assert left.read() == right.read()


def test_store_stats_command(capsys, tmp_path):
    import json

    store = str(tmp_path / "store")
    assert main(CAMPAIGN_BASE + ["--store", store]) == 0
    capsys.readouterr()
    assert main(["store", "stats", store]) == 0
    out = capsys.readouterr().out
    assert "warm_rows" in out and "2" in out
    assert main(["store", "stats", store, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["warm_rows"] == 2
