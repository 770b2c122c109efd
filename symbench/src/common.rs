//! Pieces every workload shares: the seeded draw, sample statistics,
//! the legacy-interpreter oracle, the 3-unit speed-up, and process
//! memory.

use std::time::Instant;

use symbol_compactor::{
    sequential_cycles, try_compact, CompactMode, CompactStats, SeqDurations, TracePolicy,
};
use symbol_core::benchmarks::{self, Benchmark};
use symbol_core::pipeline::{Compiled, FrontEnd};
use symbol_fuzz::rng::Rng;
use symbol_intcode::{DecodedEmulator, DecodedProgram, ExecConfig, Layout, Outcome, RunResult};
use symbol_prolog::PredId;
use symbol_vliw::{
    DecodedVliw, DecodedVliwSim, MachineConfig, SimConfig, SimOutcome, SimResult, VliwProgram,
};

use crate::trace::Tracer;

/// A balanced seeded draw: every round visits each of `n` programs
/// once, in a freshly shuffled order. Seeds change the order, never the
/// mix, so runs with different seeds measure the same work.
pub struct Draw {
    rng: Rng,
    n: usize,
    round: Vec<usize>,
}

impl Draw {
    pub fn new(seed: u64, n: usize) -> Self {
        Draw {
            rng: Rng::new(seed),
            n,
            round: Vec::new(),
        }
    }

    /// The next full round (a permutation of `0..n`, Fisher–Yates).
    pub fn next_round(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.n).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, self.rng.index(i + 1));
        }
        order
    }

    /// The next single program index.
    pub fn next(&mut self) -> usize {
        if self.round.is_empty() {
            self.round = self.next_round();
            self.round.reverse();
        }
        self.round.pop().expect("a round is never empty")
    }
}

/// Looks up the named programs of the embedded suite.
pub fn programs(names: &[&str]) -> Vec<&'static Benchmark> {
    names
        .iter()
        .map(|n| benchmarks::by_name(n).unwrap_or_else(|| panic!("suite has no program {n}")))
        .collect()
}

/// Linear-interpolated quantile of an ascending-sorted sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Counts every operation the run attempts and every one that failed
/// (errored, missing, or disagreeing with the oracle).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one operation; `Err` carries why it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(why);
            }
        }
    }

    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.check(if got == want {
            Ok(())
        } else {
            Err(format!("{what}: got {got:?}, oracle says {want:?}"))
        });
    }
}

/// The oracle's reference step count for each program: the independent
/// op-at-a-time interpreter (`Compiled::run_sequential_legacy`), run
/// outside every timed section.
pub fn reference_steps(images: &[Compiled], tally: &mut Tally) -> Vec<u64> {
    images
        .iter()
        .map(|c| match c.run_sequential_legacy() {
            Ok(r) => {
                tally.check(Ok(()));
                r.steps
            }
            Err(e) => {
                tally.check(Err(format!("legacy oracle run: {e}")));
                0
            }
        })
        .collect()
}

/// One (compaction mode, machine) configuration of the paper's
/// evaluation (the work list `experiments::measure` runs per program).
pub struct PaperConfig {
    /// Span name of the compaction under this configuration.
    pub compact_span: &'static str,
    pub mode: CompactMode,
    /// 0 = the BAM model, 1..=5 = VLIW units, 6 = unbounded.
    pub machine: usize,
}

impl PaperConfig {
    pub fn machine(&self) -> MachineConfig {
        match self.machine {
            0 => MachineConfig::bam(),
            6 => MachineConfig::unbounded(),
            n => MachineConfig::units(n),
        }
    }
}

const fn cfg(compact_span: &'static str, mode: CompactMode, machine: usize) -> PaperConfig {
    PaperConfig {
        compact_span,
        mode,
        machine,
    }
}

/// The 8 paper configurations, in `BenchResult` field order.
pub const PAPER_CONFIGS: [PaperConfig; 8] = [
    cfg("compactor.compact.bam", CompactMode::BamGroups, 0),
    cfg("compactor.compact.bb_unbounded", CompactMode::BasicBlock, 6),
    cfg(
        "compactor.compact.trace_unbounded",
        CompactMode::TraceSchedule,
        6,
    ),
    cfg("compactor.compact.trace_u1", CompactMode::TraceSchedule, 1),
    cfg("compactor.compact.trace_u2", CompactMode::TraceSchedule, 2),
    cfg("compactor.compact.trace_u3", CompactMode::TraceSchedule, 3),
    cfg("compactor.compact.trace_u4", CompactMode::TraceSchedule, 4),
    cfg("compactor.compact.trace_u5", CompactMode::TraceSchedule, 5),
];

/// Index of the 3-unit trace-scheduled configuration in [`PAPER_CONFIGS`].
pub const TRACE_U3: usize = 5;

/// One compacted and simulated configuration.
pub struct Sim {
    pub result: SimResult,
    pub stats: CompactStats,
    /// The compacted program, kept for the legacy-simulator oracle.
    pub program: VliwProgram,
}

/// Compacts `c` for one paper configuration and simulates it on the
/// decoded VLIW engine, one span per public call; the simulation's
/// answer is self-checked.
pub fn simulate(
    c: &Compiled,
    run: &RunResult,
    config: &PaperConfig,
    id: u64,
    parent: Option<usize>,
    tr: &mut Tracer,
) -> Result<Sim, String> {
    let machine = config.machine();
    let compacted = tr
        .span(config.compact_span, id, parent, |_, _| {
            try_compact(
                &c.ici,
                &run.stats,
                &machine,
                config.mode,
                &TracePolicy::default(),
            )
        })
        .map_err(|v| format!("{}: {v}", config.compact_span))?;
    let decoded = tr.span("vliw.decode", id, parent, |_, _| {
        DecodedVliw::new(&compacted.program, machine)
    });
    let mut sim = tr.span("vliw.sim_new", id, parent, |_, _| {
        DecodedVliwSim::new(&decoded, &c.layout)
    });
    let result = tr
        .span("vliw.simulate", id, parent, |_, _| {
            sim.run(&SimConfig::default())
        })
        .map_err(|e| format!("simulation: {e}"))?;
    if result.outcome != SimOutcome::Success {
        return Err(format!(
            "{}: simulation failed its self-check",
            config.compact_span
        ));
    }
    Ok(Sim {
        result,
        stats: compacted.stats,
        program: compacted.program,
    })
}

/// The sequential-machine cycles of a profiled run (the numerator of
/// every paper speed-up).
pub fn seq_cycles(c: &Compiled, run: &RunResult) -> u64 {
    sequential_cycles(&c.ici, &run.stats, &SeqDurations::default())
}

/// Sequential-machine cycles over 3-unit trace-scheduled VLIW cycles
/// for one program.
pub fn speedup3(
    c: &Compiled,
    id: u64,
    parent: Option<usize>,
    tr: &mut Tracer,
) -> Result<(f64, Sim), String> {
    let run = sequential_run(&c.decoded, &c.layout, id, parent, tr)?;
    let sim = simulate(c, &run, &PAPER_CONFIGS[TRACE_U3], id, parent, tr)?;
    Ok((seq_cycles(c, &run) as f64 / sim.result.cycles as f64, sim))
}

/// The front end, one public call per layer: parse, BAM compile,
/// IntCode translation and micro-op decode at the production
/// `Layout::default()` — what `Compiled::from_source` does, with a
/// span around each step.
pub fn front_end(
    src: &str,
    id: u64,
    parent: Option<usize>,
    tr: &mut Tracer,
) -> Result<Compiled, String> {
    let program = tr
        .span("prolog.parse", id, parent, |_, _| {
            symbol_prolog::parse_program(src)
        })
        .map_err(|e| format!("parse: {e}"))?;
    let bam = tr
        .span("bam.compile", id, parent, |_, _| {
            symbol_bam::compile(&program)
        })
        .map_err(|e| format!("compile: {e}"))?;
    let main = program
        .symbols()
        .lookup("main")
        .map(|atom| PredId::new(atom, 0))
        .ok_or("program defines no main/0")?;
    let layout = Layout::default();
    let ici = tr
        .span("intcode.translate", id, parent, |_, _| {
            symbol_intcode::translate(&bam, main, &layout)
        })
        .map_err(|e| format!("translate: {e}"))?;
    let decoded = tr.span("intcode.decode", id, parent, |_, _| {
        DecodedProgram::new(&ici)
    });
    Ok(Compiled {
        front: Some(FrontEnd { program, bam }),
        ici,
        decoded,
        layout,
        fused: None,
    })
}

/// One sequential query on the decoded engine, split the way a server
/// worker pays for it: engine set-up (`DecodedEmulator::new` allocates
/// and zeroes the whole layout) and emulation. Exactly what
/// `Compiled::run_sequential` / `run_sequential_fused` do, self-check
/// included.
pub fn sequential_run(
    program: &DecodedProgram,
    layout: &Layout,
    id: u64,
    parent: Option<usize>,
    tr: &mut Tracer,
) -> Result<RunResult, String> {
    let mut emu = tr.span("intcode.engine_new", id, parent, |_, _| {
        DecodedEmulator::new(program, layout)
    });
    let run = tr
        .span("intcode.emulate", id, parent, |_, _| {
            emu.run(&ExecConfig::default())
        })
        .map_err(|e| format!("emulation: {e}"))?;
    if run.outcome != Outcome::Success {
        return Err("query failed its self-check".to_string());
    }
    Ok(run)
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
