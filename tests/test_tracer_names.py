"""The traced benchmark wraps dosc's layer entry points by name.  A
refactor that drops or renames one of them must fail here, not only in
a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_name():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        patched = list(tracer._restore)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


CONFIGS = TRACER.parent.parent / "configs"
COMMANDS = ("spectrum", "groundstate", "dynamics", "weak")


def _exit_codes(tmp_path, tag):
    """The exit code of every bundled config under every command but
    compare (whose traced run builds the oracle's eigenvectors), dynamics
    up to t = 10."""
    from dosc import cli

    codes = {}
    for config in sorted(CONFIGS.glob("*.json")):
        for cmd in COMMANDS:
            argv = [cmd, "--config", str(config), "--out", str(tmp_path / tag / config.stem / cmd)]
            if cmd == "dynamics":
                argv += ["--override", "time.t_max=10"]
            codes[config.stem, cmd] = cli.main(argv)
    return codes


def test_traced_commands_keep_their_exit_codes(tmp_path, capsys):
    # every refusal of fano.compute_pi carries the counts the tracer
    # reads, the zero coupling's too: V = 0 exits 3 traced as untraced
    untraced = _exit_codes(tmp_path, "untraced")
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        traced = _exit_codes(tmp_path, "traced")
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert all(untraced["uncoupled", cmd] == 3 for cmd in ("spectrum", "dynamics", "weak"))
    assert tracer.counts["fano.compute_pi.nodes"] > 0
