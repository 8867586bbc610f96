//! The repository's benchmark: five workloads through the production
//! pipeline, measured end to end (`src/bin/e2e.rs`, tracing off) and layer
//! by layer (`src/bin/layers.rs`, traced). `README.md` defines every metric;
//! `../BENCHMARK.json` is the contract the gate reads.

#![warn(missing_docs)]

pub mod alloc;
pub mod args;
pub mod inputs;
pub mod json;
pub mod load;
pub mod reference;
pub mod spans;
pub mod stats;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

use std::process::ExitCode;

/// What both measuring binaries do before they measure: parse the command
/// line (`traced` says which binary is asking), generate the inputs, print
/// their fingerprints and check them against the pinned ones, and compute
/// the reference outputs. `Err` carries the exit code, the reason already
/// printed.
pub fn prepare(
    traced: bool,
) -> Result<(args::Args, inputs::Inputs, reference::Reference), ExitCode> {
    let args = match args::Args::parse(std::env::args().skip(1)) {
        Ok(args) if args.trace == traced => args,
        Ok(_) => {
            eprintln!("--trace 0 is the e2e binary, --trace 1 the layers binary");
            return Err(ExitCode::from(2));
        }
        Err(message) => {
            eprintln!("{message}");
            return Err(ExitCode::from(2));
        }
    };
    let w = args.workload;
    let inputs = inputs::Inputs::generate(w, args.seed);
    let prints = inputs.fingerprints;
    println!(
        "{}: seed {} fingerprints rules={:016x} trace={:016x} schedule={:016x}",
        w.name, args.seed, prints.rules, prints.trace, prints.schedule
    );
    if args.seed == 1 && prints != w.pinned {
        eprintln!(
            "{}: inputs for seed 1 no longer match the pinned fingerprints {:016x?}: a generator changed; nothing measured",
            w.name,
            [w.pinned.rules, w.pinned.trace, w.pinned.schedule]
        );
        return Err(ExitCode::FAILURE);
    }
    match reference::Reference::build(&inputs) {
        Ok(reference) => Ok((args, inputs, reference)),
        Err(message) => {
            eprintln!(
                "{}: references disagree, nothing measured: {message}",
                w.name
            );
            Err(ExitCode::FAILURE)
        }
    }
}
