//! The gate: end-to-end metrics of one workload, tracing off.
//!
//! Phases, in order: generate inputs and check their fingerprints; compute
//! the reference outputs; time set-up 31 times; closed loop (goodput); open
//! loop at the workload's fixed offered rate (alert latency); resident
//! memory. Every pass of both loops is checked against the reference. The
//! last line of standard output is the result object the gate parses.

use mpm_benchmark::alloc;
use mpm_benchmark::inputs::TRACE_LEN;
use mpm_benchmark::json::push_metric;
use mpm_benchmark::load::{build_pipeline, park_mid_pass, time_setup, Driver, MAX_LATE_SHARE};
use mpm_benchmark::spans::NoProbe;
use mpm_benchmark::stats::{quantile_sorted, Quartiles};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 31;
/// Share of the closed loop's length spent on untimed passes before it.
const WARM_SHARE: f64 = 0.1;

fn main() -> ExitCode {
    let (args, inputs, reference) = match mpm_benchmark::prepare(false) {
        Ok(prepared) => prepared,
        Err(code) => return code,
    };
    let w = args.workload;

    let reps = if args.smoke { 3 } else { SETUP_REPS };
    let setups: Vec<f64> = (0..reps).map(|_| time_setup(&inputs)).collect();
    let setup = Quartiles::of(&setups);

    let mut driver = Driver::new(build_pipeline(&inputs), &inputs, &reference);
    let phase = args.phase(0.5);
    // Untimed passes first: caches, thread-local scratch, the allocator's
    // free lists and the host's clocks reach the state they keep for the
    // rest of the run (the first ~0.2 s of passes run visibly slower).
    let warm_started = Instant::now();
    loop {
        driver.closed_pass(&mut NoProbe);
        if warm_started.elapsed() >= phase.mul_f64(WARM_SHARE) {
            break;
        }
    }
    let closed_started = Instant::now();
    let mut pass_ns = Vec::new();
    while pass_ns.is_empty() || closed_started.elapsed() < phase {
        pass_ns.push(driver.closed_pass(&mut NoProbe));
    }
    // The good-side quartile: see `Driver::closed_pass`.
    let pass_bits = (TRACE_LEN * 8) as f64;
    let passes = pass_ns.len();
    let pass_ns = Quartiles::of(&pass_ns);
    let goodput = pass_bits / pass_ns.q1;

    let mut open = driver.open_loop(phase);
    let latencies_us = open.steady_latencies_us();
    if latencies_us.is_empty() {
        eprintln!("{}: the open loop saw no alert; nothing to report", w.name);
        return ExitCode::FAILURE;
    }
    let (p50, p75) = (
        quantile_sorted(&latencies_us, 0.50),
        quantile_sorted(&latencies_us, 0.75),
    );
    let (attempted, failed) = (driver.attempted, driver.failed);
    drop(driver);

    // Live heap from before set-up to `concurrency` flows resident
    // mid-stream with nothing in flight: engines, confirmer, rings, flow
    // table, per-flow carry and rule buffers. Nothing allocated before this
    // point is freed inside the counted region.
    alloc::set_counting(true);
    let before = alloc::snapshot();
    let mut pipeline = build_pipeline(&inputs);
    let resident_flows = park_mid_pass(&mut pipeline, &inputs);
    let resident_bytes = alloc::snapshot().since(before).live;
    alloc::set_counting(false);
    for flow in 0..resident_flows {
        pipeline.close_flow(flow);
    }
    drop(pipeline);

    let late_share = open.late_share();
    println!(
        "{}: goodput_gbps {:.4} (the faster quartile of {} passes; median {:.4}, slower quartile {:.4}; closed loop, lossless)",
        w.name,
        goodput,
        passes,
        pass_bits / pass_ns.median,
        pass_bits / pass_ns.q3
    );
    println!(
        "{}: open loop at {} Gbit/s: {} alerts x {} passes, late_share {:.5}, {} passes over {} late",
        w.name,
        w.offered_gbps,
        latencies_us.len(),
        open.passes,
        late_share,
        open.late_passes,
        MAX_LATE_SHARE
    );
    println!(
        "{}: steady alert latency us p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3}",
        w.name,
        quantile_sorted(&latencies_us, 0.10),
        quantile_sorted(&latencies_us, 0.25),
        p50,
        p75,
        quantile_sorted(&latencies_us, 0.90),
    );
    println!(
        "{}: setup_s median {:.6} q1 {:.6} q3 {:.6} over {} set-ups; resident over {} flows; alerts per pass {}",
        w.name, setup.median, setup.q1, setup.q3, reps, resident_flows, reference.alerts_per_pass
    );
    println!(
        "{}: failed_share {} ({failed} of {attempted} packets)",
        w.name,
        failed as f64 / attempted as f64
    );
    let mut metrics = String::new();
    // Goodput and latency are the good-side quartile of each piece of work
    // over its repetitions (see `Driver::closed_pass`, `OpenLoop`):
    // whatever else runs on the host only ever slows things down.
    push_metric(&mut metrics, "goodput_gbps", goodput, "Gbit/s");
    push_metric(&mut metrics, "alert_p50_us", p50, "us");
    push_metric(&mut metrics, "alert_p75_us", p75, "us");
    push_metric(&mut metrics, "setup_s", setup.median, "s");
    push_metric(
        &mut metrics,
        "resident_bytes",
        resident_bytes as f64,
        "bytes",
    );
    if !open.held_rate() {
        // Not a failure of the program's outputs, so not of the run: the
        // steady latencies above already carry what a pipeline too slow for
        // the offered rate does to alerts.
        eprintln!(
            "{}: WARNING: the generator was late on more than {MAX_LATE_SHARE} of the packets in {} of {} passes: the offered rate was not held",
            w.name, open.late_passes, open.passes
        );
    }
    if failed > 0 {
        eprintln!("{}: {failed} of {attempted} packets failed (refused, or in a flow whose alerts differ from the reference)", w.name);
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
