"""The benchmark's workloads. Inputs are fGn with H = 0.8 made from the seed;
the program only ever receives the generated CSV files or arrays.

A CLI op is one ``multiscale ...`` process; a round runs each op of the mix
once, and a run repeats whole rounds so every kind has the same weight.
"{A}", "{B}" and "{OUT}" in an op's arguments stand for the input files and
the op's fresh output directory.
"""

from __future__ import annotations

from dataclasses import dataclass

HURST = 0.8


@dataclass(frozen=True)
class Input:
    name: str
    n: int
    seed_offset: int

    def gen_args(self, seed: int, out_dir: str) -> list[str]:
        return ["gen", "fgn", "--n", str(self.n), "--h", str(HURST),
                "--seed", str(seed + self.seed_offset), "--out", out_dir,
                "--output", self.name]


@dataclass(frozen=True)
class CliOp:
    key: str                 # names the op; repeats of one key must agree
    args: tuple[str, ...]
    expect: tuple[str, ...]  # operations of the stdout summaries, in order


@dataclass(frozen=True)
class Workload:
    name: str
    n: int                   # series length the gate checks against
    inputs: tuple[Input, ...] = ()
    ops: tuple[CliOp, ...] = ()

    @property
    def is_cli(self) -> bool:
        return bool(self.ops)


N_LIGHT = 2 ** 13
N_LARGE = 2 ** 16

# pipeline ops get this config, with the op's output directory as ``out``
PIPELINE_CONFIG = "pipeline.input = {A}\npipeline.analyses = rs, profile, powerlaw\nout = {OUT}\n"

WORKLOADS = {w.name: w for w in (
    Workload(
        "cli_light", N_LIGHT,
        inputs=(Input("a.csv", N_LIGHT, 0), Input("b.csv", N_LIGHT, 1)),
        ops=(
            CliOp("spectrum", ("spectrum", "{A}", "--out", "{OUT}"), ("spectrum",)),
            CliOp("powerlaw", ("powerlaw", "{A}", "--profile", "--out", "{OUT}"),
                  ("powerlaw",)),
            CliOp("heisenberg", ("heisenberg", "{A}", "--out", "{OUT}"),
                  ("heisenberg",)),
            CliOp("rs", ("rs", "{A}", "--out", "{OUT}"), ("rs",)),
            CliOp("phase", ("phase", "{A}", "{B}", "--scale", "64dt", "--out", "{OUT}"),
                  ("phase",)),
            CliOp("pipeline", ("pipeline", "--config", "{CONFIG}"),
                  ("rs", "profile", "powerlaw")),
        )),
    Workload(
        "cli_cwt", N_LIGHT,
        inputs=(Input("a.csv", N_LIGHT, 0),),
        ops=(
            CliOp("cwt_both", ("cwt", "{A}", "--format", "both", "--out", "{OUT}"),
                  ("cwt",)),
            CliOp("cwt_json", ("cwt", "{A}", "--format", "json", "--out", "{OUT}"),
                  ("cwt",)),
        )),
    Workload(
        "cli_mfdfa_large", N_LARGE,
        inputs=(Input("big.csv", N_LARGE, 0),),
        ops=(CliOp("mfdfa", ("mfdfa", "{A}", "--out", "{OUT}"), ("mfdfa",)),)),
    # one long-lived worker process; see lib_worker.py for the op
    Workload("lib_numerics", N_LARGE),
)}
