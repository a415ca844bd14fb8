"""Command-line fuzzer: every subcommand of ``cli._COMMANDS`` with a random
subset of its flags, each value drawn from a pool of edge values or from a
small pool of valid ones. Whatever the draw, a run ends in a documented exit
code, prints nothing on stderr when it succeeds and one JSON error line when
it fails, and writes strict JSON only."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import multiscale as ms
from multiscale import cli

EDGE = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e308", "garbage", "",
        ",", "1..0")

# Valid values per flag, small enough that no draw allocates more than a few
# MB: --n <= 4096, --levels <= 12, --jtot <= 64 or >= 2**32, lists of at
# most 8 entries, polynomial order <= 5. No thread count is drawn.
VALID = {
    "kind": st.sampled_from(["white", "fgn", "cascade", "sine", "sines"]),
    "--n": st.integers(2, 4096).map(str),
    "--seed": st.integers(0, 2 ** 32).map(str),
    "--h": st.sampled_from(["0.3", "0.5", "0.8"]),
    "--levels": st.integers(1, 12).map(str),
    "--p": st.sampled_from(["0.3", "0.6", "0.9"]),
    "--f": st.lists(st.sampled_from(["0.01", "0.05", "0.125", "0.25"]),
                    min_size=1, max_size=8).map(",".join),
    "--amp": st.lists(st.sampled_from(["0.5", "1", "2"]),
                      min_size=1, max_size=8).map(",".join),
    "--phase": st.sampled_from(["0", "1.5"]),
    "--output": st.sampled_from(["x.csv", "series.csv"]),
    "--segments": st.integers(1, 8).map(str),
    "--overlap": st.sampled_from(["0", "0.25", "0.5"]),
    "--fmin": st.sampled_from(["0.005", "0.01", "0.05"]),
    "--fmax": st.sampled_from(["0.2", "0.4", "0.5"]),
    "--windows": st.sampled_from(["8..256", "16..128", "16,32,64,128",
                                  "10,20,40,80,160"]),
    "--scales": st.sampled_from(["16..256", "16,32,64,128,256,512",
                                 "16,22,32,45,64,90,128,181"]),
    "--q": st.lists(st.sampled_from(["-5", "-2", "-1", "1", "2", "3", "5"]),
                    min_size=1, max_size=8).map(",".join),
    "--detrend": st.one_of(st.integers(0, 5).map("poly:{}".format),
                           st.sampled_from(["wavelet:2", "wavelet:4,3",
                                            "wavelet:2,1"])),
    "--s0": st.sampled_from(["2dt", "3", "4dt", "2.5dt"]),
    "--dj": st.floats(0.05, 1.0).map(repr),
    "--jtot": st.one_of(st.integers(1, 64),
                        st.integers(2 ** 32 - 1, 2 ** 40)).map(str),
    "--omega0": st.sampled_from(["5", "6", "8"]),
    "--sig": st.sampled_from(["0.9", "0.95", "0.99"]),
    "--scale": st.sampled_from(["auto", "16", "8dt", "64dt", "40"]),
    "--tol": st.sampled_from(["0.5", "1", "3"]),
    "--min-duration": st.sampled_from(["2", "32", "100"]),
    "--dt": st.sampled_from(["1", "0.5", "1e-3"]),
    "--format": st.sampled_from(["csv", "json", "both"]),
}
SWITCHES = {"--profile", "--shuffle", "--no-profile"}
INPUTS = ("fgn256.csv", "fgn1024.csv", "two512.csv", "short16.csv",
          "flat128.csv", "empty.csv", "latin1.csv", "three.csv", "ghost.csv")


def _write_inputs(d: Path) -> None:
    rng = np.random.default_rng(5)
    (d / "fgn256.csv").write_text(ms.gen_fgn(256, 0.7, 1).to_csv())
    (d / "fgn1024.csv").write_text(ms.gen_fgn(1024, 0.8, 2).to_csv())
    (d / "two512.csv").write_text(ms.TimeSeries(
        np.sin(np.arange(512) / 5.0) + rng.standard_normal(512), dt=0.5).to_csv())
    (d / "short16.csv").write_text(ms.gen_white_noise(16, 3).to_csv())
    (d / "flat128.csv").write_text("2.5\n" * 128)
    (d / "empty.csv").write_text("")
    (d / "latin1.csv").write_bytes(b"1.0\n2.0\n\xe9\n")
    (d / "three.csv").write_text("0,1,2\n1,2,3\n2,3,4\n3,4,5\n")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz-inputs")
    _write_inputs(d)
    return d


def flag_value(flag):
    return st.sampled_from(EDGE) | VALID[flag]


@st.composite
def command_lines(draw, command, input_dir):
    """argv for ``command``: its positionals, then a random subset of its
    flags and of --dt/--format, each written as --flag=value."""
    _, flags = cli._COMMANDS[command]
    argv = [command]
    if "kind" in flags:
        argv.append(draw(flag_value("kind")))
    if "input" in flags:
        argv.append(str(input_dir / draw(st.sampled_from(INPUTS))))
    if "input2" in flags and draw(st.booleans()):
        argv.append(str(input_dir / draw(st.sampled_from(INPUTS))))
    options = [f for f in flags + ("--dt", "--format") if f.startswith("--")]
    for flag in draw(st.lists(st.sampled_from(options), unique=True)):
        if flag in SWITCHES:
            argv.append(flag)
        else:
            argv.append(f"{flag}={draw(flag_value(flag))}")
    return argv


@st.composite
def pipeline_configs(draw, input_dir):
    """Lines of a pipeline config: up to three steps of ``_COMMANDS``, a
    generated or a loaded series, and a random subset of each step's keys."""
    names = draw(st.lists(st.sampled_from(
        [c for c in cli._COMMANDS if c != "gen"]), min_size=1, max_size=3))
    lines = ["pipeline.analyses = " + ", ".join(names)]
    if draw(st.booleans()):
        lines.append(f"pipeline.input = {input_dir / draw(st.sampled_from(INPUTS))}")
    else:
        names.append("gen")
        lines.append(f"gen.kind = {draw(flag_value('kind'))}")
        lines.append(f"gen.n = {draw(st.integers(2, 1024))}")
    for name in names:
        _, flags = cli._COMMANDS[name]
        options = [f for f in flags + ("--dt", "--format")
                   if f.startswith("--") and f != "--n"]
        for flag in draw(st.lists(st.sampled_from(options), unique=True,
                                  max_size=3)):
            value = "true" if flag in SWITCHES else draw(flag_value(flag))
            lines.append(f"{name}.{flag[2:]} = {value}")
    return lines


def refuse(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def check_run(argv, config_lines=None):
    """Run ``argv`` with a fresh --out (or, with ``config_lines``, a pipeline
    whose config file sets ``out``) and check its exit, stderr and JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        if config_lines is None:
            argv = argv + ["--out", str(out_dir)]
        else:
            config = Path(tmp) / "run.cfg"
            config.write_text("\n".join(config_lines + [f"out = {out_dir}"]))
            argv = argv + ["--config", str(config)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        out, err = stdout.getvalue(), stderr.getvalue()
        assert code in (0, 2, 3, 4), (argv, code, err)
        if code == 0:
            assert err == "", (argv, err)
        else:
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            assert json.loads(err, parse_constant=refuse)["code"] == code
        for line in out.splitlines():
            json.loads(line, parse_constant=refuse)
        if out_dir.exists():
            for path in out_dir.glob("*.json"):
                json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("command", [c for c in cli._COMMANDS if c != "profile"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_command_line_ends_in_a_documented_exit(inputs, command, data):
    check_run(data.draw(command_lines(command, inputs)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_pipeline_ends_in_a_documented_exit(inputs, data):
    check_run(["pipeline"], data.draw(pipeline_configs(inputs)))
