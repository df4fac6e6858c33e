//! The paper's evaluation as one markdown report, paper vs. measured: every
//! table and figure, the introduction's TOP500 graph, and the two §3.2
//! ablations.
//!
//! ```text
//! cargo run --release -p crac-bench --bin experiments -- --scale 0.25 > EXPERIMENTS.md
//! cargo run --release -p crac-bench --bin experiments -- fig2 --scale 0.5
//! cargo run --release -p crac-bench --bin experiments -- table3 --iters 20
//! ```
//!
//! The optional section (default `all`) is one of [`SECTIONS`].  `--scale`
//! multiplies each application's default work scale (1.0 = the full
//! paper-sized runs; the default 0.25 keeps an `all` pass to a few
//! minutes); shapes — who wins, by what factor — are scale-invariant.
//! `--iters` is Table 3's repetitions per call (default 10).  An unknown
//! section, a value that does not parse, a `--scale` that is not a
//! positive finite number or `--iters 0` prints the usage and exits 2.

use crac_bench::refdata::{FIG5C_CKPT_MB, RODINIA_REF, TABLE1_REF, TABLE3_REF, TOP500_NVIDIA};
use crac_bench::{experiments as exp, markdown_table};

/// What one run prints, and at which size.
struct Args {
    /// `"all"` or the name of one of [`SECTIONS`].
    section: &'static str,
    scale: f64,
    iters: u32,
}

/// One section of the report: its name on the command line, and its printer.
type Section = (&'static str, fn(&Args));

/// Every section of the report, in the order `all` prints them.
const SECTIONS: [Section; 12] = [
    ("top500", top500),
    ("table1", table1),
    ("table2", table2),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5a", fig5a),
    ("fig5b", fig5b),
    ("fig5c", fig5c),
    ("table3", table3),
    ("fig6", fig6),
    ("ablations", ablations),
];

fn usage() -> String {
    let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: experiments [all|{}] [--scale S] [--iters N]\n  \
         S: a positive finite work multiplier (default 0.25)\n  \
         N: Table 3 repetitions per call, at least 1 (default 10)",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        section: "all",
        scale: 0.25,
        iters: 10,
    };
    let mut section_given = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--scale" => {
                let v = value()?;
                args.scale = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--scale wants a positive finite number, not `{v}`"))?;
            }
            "--iters" => {
                let v = value()?;
                args.iters = v
                    .parse()
                    .ok()
                    .filter(|n: &u32| *n > 0)
                    .ok_or_else(|| format!("--iters wants an integer ≥ 1, not `{v}`"))?;
            }
            name if !section_given => {
                args.section = std::iter::once("all")
                    .chain(SECTIONS.iter().map(|(n, _)| *n))
                    .find(|n| *n == name)
                    .ok_or_else(|| format!("unknown section `{name}`"))?;
                section_given = true;
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(args)
}

/// One section of the report: its heading, what the paper says (if
/// anything), and its table.
fn print_section(
    title: &str,
    prose: &str,
    header: &[&str],
    rows: impl IntoIterator<Item = Vec<String>>,
) {
    println!("\n## {title}\n");
    if !prose.is_empty() {
        println!("{prose}\n");
    }
    print!("{}", markdown_table(header, rows));
}

fn top500(_: &Args) {
    print_section(
        "TOP500 — systems with NVIDIA GPUs (the introduction's graph)",
        "Paper data, reproduced as a table: the motivation for checkpointing CUDA jobs.",
        &["Year", "# systems"],
        TOP500_NVIDIA
            .iter()
            .map(|(year, count)| vec![year.to_string(), count.to_string()]),
    );
}

fn table1(a: &Args) {
    let mark = |yes: bool| if yes { "✓" } else { "✗" }.to_string();
    print_section(
        "Table 1 — application characterisation",
        "The UVM/streams flags and stream ranges match Table 1 by construction; the CPS\n\
         column is measured from the synthetic applications and lands in the same order of\n\
         magnitude as the paper for every family (HYPRE lowest, Rodinia/HPGMG highest).",
        &[
            "Application",
            "UVM",
            "Streams",
            "CPS (paper)",
            "CPS (measured)",
            "# streams",
        ],
        exp::table1(a.scale).into_iter().map(|r| {
            let paper = TABLE1_REF.iter().find(|p| p.name == r.name);
            vec![
                r.name.clone(),
                mark(r.uvm),
                mark(r.streams),
                paper.map(|p| format!("{:.0}", p.cps)).unwrap_or_default(),
                format!("{:.0}", r.cps),
                r.stream_range,
            ]
        }),
    );
}

fn table2(_: &Args) {
    print_section(
        "Table 2 — Rodinia command lines",
        "",
        &[
            "Application",
            "Command-line argument(s), as configured in this repo",
        ],
        exp::table2().into_iter().map(|(name, cmd)| vec![name, cmd]),
    );
}

fn fig2(a: &Args) {
    print_section(
        "Figure 2 — Rodinia runtime overhead (native vs CRAC, V100 profile)",
        "Paper: 0–2 % overhead for the benchmarks running longer than 10 s; 1–14 % for the\n\
         short-running ones (DMTCP startup and run-to-run noise dominate there).",
        &[
            "Benchmark",
            "native (s)",
            "CRAC (s)",
            "overhead %",
            "calls (paper)",
            "calls (measured)",
        ],
        exp::fig2_rodinia(a.scale).into_iter().map(|r| {
            let paper = RODINIA_REF.iter().find(|p| p.name == r.name);
            let mut cells = overhead_cells(&r);
            cells.insert(
                4,
                paper.map(|p| p.total_calls.to_string()).unwrap_or_default(),
            );
            cells
        }),
    );
}

const CKPT_HEADER: [&str; 6] = [
    "Benchmark",
    "ckpt (s)",
    "restart (s)",
    "image MB (paper)",
    "image MB (measured)",
    "replayed calls",
];

/// A checkpoint/restart row beside the paper's image size (`—` where the
/// paper gives none).
fn ckpt_cells(r: exp::CkptRow, paper_mb: Option<u64>) -> Vec<String> {
    vec![
        r.name,
        format!("{:.3}", r.ckpt_s),
        format!("{:.3}", r.restart_s),
        paper_mb.map_or_else(|| "—".to_string(), |m| m.to_string()),
        format!("{:.1}", r.image_mb),
        r.replayed_calls.to_string(),
    ]
}

fn fig3(a: &Args) {
    print_section(
        "Figure 3 — Rodinia checkpoint/restart times and image sizes",
        "Paper: checkpoint and restart both complete within ~1 s for every benchmark;\n\
         restart exceeds checkpoint for the malloc/free-heavy ones because the allocation\n\
         log must be replayed.",
        &CKPT_HEADER,
        exp::fig3_rodinia_ckpt(a.scale).into_iter().map(|r| {
            let paper = RODINIA_REF.iter().find(|p| p.name == r.name);
            ckpt_cells(r, paper.and_then(|p| p.ckpt_mb))
        }),
    );
}

fn fig4(a: &Args) {
    let rows = exp::fig4_simple_streams(a.scale);
    print_section(
        "Figure 4a — simpleStreams total runtime vs kernel iterations",
        "Paper: total runtime grows with the kernel's iteration count and CRAC stays\n\
         within 1 %.",
        &[
            "niterations",
            "native total (s)",
            "CRAC total (s)",
            "overhead %",
        ],
        rows.iter().map(|r| {
            let overhead = (r.crac_total_s - r.native_total_s) / r.native_total_s * 100.0;
            vec![
                r.niterations.to_string(),
                format!("{:.2}", r.native_total_s),
                format!("{:.2}", r.crac_total_s),
                format!("{overhead:.2}"),
            ]
        }),
    );
    print_section(
        "Figure 4b — time to process the array once, non-streamed vs 128 streams",
        "Paper: the 128-stream variant beats the non-streamed one by an increasing margin\n\
         as kernels get longer.",
        &[
            "niterations",
            "native non-streamed (ms)",
            "CRAC non-streamed (ms)",
            "native 128 streams (ms)",
            "CRAC 128 streams (ms)",
        ],
        rows.iter().map(|r| {
            vec![
                r.niterations.to_string(),
                format!("{:.3}", r.native_nonstreamed_ms),
                format!("{:.3}", r.crac_nonstreamed_ms),
                format!("{:.3}", r.native_streamed_ms),
                format!("{:.3}", r.crac_streamed_ms),
            ]
        }),
    );
}

const OVERHEAD_HEADER: [&str; 5] = [
    "Benchmark",
    "native (s)",
    "CRAC (s)",
    "overhead %",
    "CUDA calls",
];

fn overhead_cells(r: &exp::OverheadRow) -> Vec<String> {
    vec![
        r.name.clone(),
        format!("{:.2}", r.native_s),
        format!("{:.2}", r.crac_s),
        format!("{:.2}", r.overhead_pct),
        r.total_calls.to_string(),
    ]
}

fn fig5a(a: &Args) {
    print_section(
        "Figure 5a — stream-oriented benchmarks",
        "Paper: ≤ ~1.5 % overhead for simpleStreams and UnifiedMemoryStreams; slightly\n\
         below 2 % for LULESH.",
        &OVERHEAD_HEADER,
        exp::fig5a_streams_apps(a.scale).iter().map(overhead_cells),
    );
}

fn fig5b(a: &Args) {
    print_section(
        "Figure 5b — real-world benchmarks",
        "Paper: just under 2 % overhead for HPGMG-FV and about 3 % for HYPRE.",
        &OVERHEAD_HEADER,
        exp::fig5b_realworld(a.scale).iter().map(overhead_cells),
    );
}

fn fig5c(a: &Args) {
    print_section(
        "Figure 5c — checkpoint/restart of the stream/real-world benchmarks",
        "Paper: both phases finish within ~1 s for the stream-oriented applications;\n\
         HPGMG needs ~1.75 s to restart because of the number of CUDA calls to replay,\n\
         while HYPRE's 2.3 GB image makes the checkpoint the expensive side.",
        &CKPT_HEADER,
        exp::fig5c_ckpt(a.scale).into_iter().map(|r| {
            let paper = FIG5C_CKPT_MB.iter().find(|(n, _)| *n == r.name);
            ckpt_cells(r, paper.map(|(_, mb)| *mb))
        }),
    );
}

fn table3(a: &Args) {
    print_section(
        "Table 3 — cuBLAS: native vs CRAC vs CMA/IPC",
        "Paper: CRAC stays within ~4 % (usually ~1 %) of native, while the proxy/IPC\n\
         approach pays 142 %–17 812 % because every operand crosses the process boundary.",
        &[
            "CUDA call",
            "data",
            "native (ms)",
            "CRAC (ms)",
            "CRAC ovh % (paper)",
            "CRAC ovh % (measured)",
            "CMA/IPC (ms)",
            "IPC ovh % (paper)",
            "IPC ovh % (measured)",
        ],
        exp::table3(a.iters).into_iter().map(|r| {
            let paper = TABLE3_REF
                .iter()
                .find(|p| p.routine == r.routine.name() && p.data_mb == r.data_mb);
            vec![
                r.routine.name().to_string(),
                format!("{}MB", r.data_mb),
                format!("{:.3}", r.native_ms),
                format!("{:.3}", r.crac_ms),
                paper
                    .map(|p| format!("{:.1}", p.crac_overhead_pct))
                    .unwrap_or_default(),
                format!("{:.1}", r.crac_overhead_pct),
                format!("{:.2}", r.ipc_ms),
                paper
                    .map(|p| format!("{:.0}", p.ipc_overhead_pct))
                    .unwrap_or_default(),
                format!("{:.0}", r.ipc_overhead_pct),
            ]
        }),
    );
}

fn fig6(a: &Args) {
    print_section(
        "Figure 6 — FSGSBASE experiment (Quadro K600)",
        "Paper: the FSGSBASE patch changes CRAC's overhead by at most a couple of\n\
         percentage points in either direction — CRAC's per-call cost is already small.",
        &[
            "Benchmark",
            "native (s)",
            "CRAC unpatched (s)",
            "CRAC FSGSBASE (s)",
            "ovh unpatched %",
            "ovh FSGSBASE %",
            "delta (pp)",
        ],
        exp::fig6_fsgsbase(a.scale).into_iter().map(|r| {
            vec![
                r.name,
                format!("{:.2}", r.native_s),
                format!("{:.2}", r.crac_unpatched_s),
                format!("{:.2}", r.crac_fsgsbase_s),
                format!("{:.2}", r.overhead_unpatched_pct),
                format!("{:.2}", r.overhead_fsgsbase_pct),
                format!("{:+.2}", r.delta_pct),
            ]
        }),
    );
}

fn ablations(_: &Args) {
    let drain = exp::ablation_drain();
    print_section(
        "Ablation §3.2.3 — drain only the active allocations",
        &format!(
            "CRAC stages the library's *active* device allocations, not the arena they were\n\
             carved from.  The same arena drained both ways; {} allocations ({} bytes) were\n\
             freed before the checkpoint, and that is exactly what the naive drain adds.",
            drain.freed_allocations, drain.freed_bytes
        ),
        &["Drain", "ranges", "staged bytes", "copied bytes"],
        drain.rows.iter().map(|r| {
            vec![
                r.strategy.to_string(),
                r.ranges.to_string(),
                r.staged_bytes.to_string(),
                r.copied_bytes.to_string(),
            ]
        }),
    );
    print_section(
        "Ablation §3.2.2 — upper-half region consolidation",
        "CRAC merges adjacent upper-half mappings before it checkpoints, so the\n\
         address space the walk iterates has fewer regions.  The image's region table\n\
         comes from the merged `/proc/PID/maps` view either way, so the image — its\n\
         regions, logical bytes and stored page bytes — is the same for both layouts.",
        &[
            "Layout",
            "address-space regions",
            "image regions",
            "image bytes",
            "stored bytes",
        ],
        exp::ablation_regions().iter().map(|r| {
            vec![
                r.layout.to_string(),
                r.space_regions.to_string(),
                r.image_regions.to_string(),
                r.image_bytes.to_string(),
                r.stored_bytes.to_string(),
            ]
        }),
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("experiments: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let Args {
        section,
        scale,
        iters,
    } = args;
    println!("# EXPERIMENTS — paper vs. measured");
    println!();
    println!(
        "Generated by `cargo run --release -p crac-bench --bin experiments -- {section} \
         --scale {scale} --iters {iters}`."
    );
    println!();
    println!("All \"measured\" numbers come from the simulated GPU/CUDA substrate (README");
    println!("\"Workspace layout\"), with each application's work scaled by its default scale");
    println!("× {scale} (footprints and call *rates* are unaffected by scaling).  Absolute times");
    println!("are therefore model times, not NVIDIA-hardware times; the comparison to check is");
    println!("the *shape*: who wins, by roughly what factor, and where the crossovers fall.");

    for (name, print) in SECTIONS {
        if section == "all" || section == name {
            print(&args);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<(&'static str, f64, u32), String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        parse_args(&argv).map(|a| (a.section, a.scale, a.iters))
    }

    #[test]
    fn flags_parse_and_bad_ones_fail_loudly() {
        assert_eq!(parse(&[]), Ok(("all", 0.25, 10)));
        let argv = ["table3", "--iters", "20", "--scale", "0.5"];
        assert_eq!(parse(&argv), Ok(("table3", 0.5, 20)));
        for (name, _) in SECTIONS {
            assert_eq!(parse(&[name]).map(|a| a.0), Ok(name));
        }
        for bad in [
            &["--scale", "0,5"][..],
            &["--scale", "0"],
            &["--scale", "-1"],
            &["--scale", "inf"],
            &["--scale", "NaN"],
            &["--scale"],
            &["--iters", "0"],
            &["--iters", "-3"],
            &["--iters", "2.5"],
            &["fig7"],
            &["fig4a"],
            &["table1", "table2"],
            &["--sclae", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }
}
