"""Exit codes and output of ``python -m repro.staticcheck``."""

import os

import repro
from repro.staticcheck import main

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "bad_components.py"
)
REPRO_ROOT = os.path.dirname(repro.__file__)


def test_findings_exit_nonzero(capsys):
    code = main([FIXTURE])
    captured = capsys.readouterr()
    assert code == 1
    assert "KC001" in captured.out
    assert "KC002" in captured.out
    assert "finding(s)" in captured.err


def test_clean_tree_exits_zero(capsys):
    code = main([REPRO_ROOT])
    captured = capsys.readouterr()
    assert code == 0
    assert "no findings" in captured.err


def test_rule_selection(capsys):
    code = main([FIXTURE, "--rules", "DT002"])
    captured = capsys.readouterr()
    assert code == 1
    assert "DT002" in captured.out
    assert "KC001" not in captured.out


def test_unknown_rule_is_a_usage_error(capsys):
    code = main([FIXTURE, "--rules", "KC999"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown rule" in captured.err


def test_missing_path_is_a_usage_error(capsys):
    code = main(["definitely/not/a/path.py"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_no_suppressions_reveals_the_justified_finding(capsys):
    main([FIXTURE])
    baseline = capsys.readouterr().out.count("KC001")
    main([FIXTURE, "--no-suppressions"])
    unsuppressed = capsys.readouterr().out.count("KC001")
    assert unsuppressed == baseline + 1


def test_list_rules(capsys):
    code = main(["--list-rules"])
    captured = capsys.readouterr()
    assert code == 0
    for rule_id in (
        "KC001",
        "KC002",
        "KC003",
        "DT001",
        "DT002",
        "ER001",
        "SC001",
        "SC004",
        "OP001",
        "OP004",
    ):
        assert rule_id in captured.out


def test_default_paths_cover_the_data_plane_modules():
    """The default audit cannot be escaped by new sim/ files, and in a
    source checkout the examples ride along."""
    from repro.staticcheck.cli import _default_paths, iter_source_files

    files = iter_source_files(_default_paths())
    for needle in (
        os.path.join("sim", "compiled.py"),
        os.path.join("sim", "kernel.py"),
        os.path.join("sim", "stats.py"),
        os.path.join("staticcheck", "optable.py"),
    ):
        assert any(name.endswith(needle) for name in files), needle
    repo_root = os.path.dirname(os.path.dirname(REPRO_ROOT))
    if os.path.isdir(os.path.join(repo_root, "examples")):
        marker = os.sep + "examples" + os.sep
        assert any(marker in name for name in files)


def test_default_audit_is_clean(capsys):
    """src/repro *and* the examples pass with zero suppressions of the
    new NP/OP/RS rule families."""
    code = main([])
    captured = capsys.readouterr()
    assert code == 0
    assert "no findings" in captured.err


def test_module_invocation_runs():
    import subprocess
    import sys

    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(REPRO_ROOT))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "repro.staticcheck", REPRO_ROOT],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stdout + result.stderr