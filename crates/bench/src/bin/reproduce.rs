//! Regenerates every table and figure of the BigDataBench paper's
//! evaluation section, and runs the suite's artifact passes: telemetry
//! traces and profiles, the BENCH_RESULTS.json performance artifact, the
//! workload characterization map, and the SLO, chaos and time-series
//! passes.
//!
//! The passes live in [`bdb_bench::passes`]; `reproduce --help` prints
//! the usage generated from its pass table. Exit status: 0 on success,
//! 1 when a pass's gate rejects the run, 2 on a usage or I/O error.

use bdb_bench::passes::{self, Failure};

fn main() {
    quiet_injected_panics();
    let Err(failure) = passes::run(std::env::args().skip(1)) else { return };
    match &failure {
        Failure::Gate(msg) => eprintln!("{msg}"),
        Failure::Usage(msg) => eprintln!("error: {msg}\n\n{}", passes::usage()),
        Failure::Io(msg) => eprintln!("error: {msg}"),
    }
    std::process::exit(failure.exit_code());
}

/// Keeps injected-fault panics off the console: the engine catches and
/// retries them, and the chaos campaigns inject them on purpose. Every
/// other panic reaches the default hook.
fn quiet_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("injected fault:") {
            default_hook(info);
        }
    }));
}
