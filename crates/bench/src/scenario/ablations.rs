//! `report ablations`: the ablation tables over the reproduction's
//! design choices.

use evop_core::ablations::*;
use evop_portal::render::table;
use evop_sim::SimDuration;

use super::{Report, Sections};
use crate::cli::CliOptions;

pub(super) fn report(opts: &CliOptions) -> Result<Box<dyn Report>, String> {
    let seed = opts.seed.unwrap_or(super::DEFAULT_SEED);
    let mut out = Sections::new("ablations", format!("ablation studies (seed {seed})"), seed);
    for ablation in [a1, a2, a3, a4, a5] {
        ablation(&mut out, seed);
    }
    Ok(Box::new(out))
}

fn a1(out: &mut Sections, seed: u64) {
    out.heading("A1", "Load Balancer health-check cadence");
    out.line("(detection = interval × consecutive; false positives must stay 0)");
    let rows = ablate_health_check(
        &[SimDuration::from_secs(5), SimDuration::from_secs(15), SimDuration::from_secs(60)],
        &[2, 3, 5],
        seed,
    )
    .expect("a1 runs");
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.check_interval.to_string(),
                r.consecutive.to_string(),
                r.detection_delay.map(|d| d.to_string()).unwrap_or_else(|| "—".into()),
                r.false_positives.to_string(),
            ]
        })
        .collect();
    out.line(table(
        &["check interval", "consecutive", "hang detected after", "false positives"],
        &body,
    ));
}

fn a2(out: &mut Sections, seed: u64) {
    out.heading("A2", "warm-pool size vs time-to-first-result (40-user flash crowd)");
    let rows = ablate_warm_pool(40, &[0, 2, 4, 8], seed).expect("a2 runs");
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.warm_pool.to_string(),
                r.median_first_result.to_string(),
                r.p95_first_result.to_string(),
                format!("${:.2}", r.cost),
            ]
        })
        .collect();
    out.line(table(&["warm pool", "median TTFR", "p95 TTFR", "cost"], &body));
}

fn a3(out: &mut Sections, seed: u64) {
    out.heading("A3", "private-cloud size vs burst depth (80-user ramp)");
    let rows = ablate_private_capacity(&[4, 8, 16, 32], seed).expect("a3 runs");
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.private_vcpus.to_string(),
                r.peak_public_instances.to_string(),
                format!("${:.2}", r.cost),
            ]
        })
        .collect();
    out.line(table(&["private vCPUs", "peak public instances", "cost"], &body));
}

fn a4(out: &mut Sections, seed: u64) {
    out.heading("A4", "topographic-index discretisation (vs 64-class reference)");
    let rows = ablate_ti_bins(&[2, 4, 8, 16, 32], seed).expect("a4 runs");
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.bins.to_string(),
                format!("{:.3}", r.peak_m3s),
                format!("{:.4}", r.nse_vs_reference),
            ]
        })
        .collect();
    out.line(table(&["TI classes", "peak m³/s", "NSE vs 64-class"], &body));
}

fn a5(out: &mut Sections, seed: u64) {
    out.heading("A5", "replica count vs stateful session loss (one replica killed)");
    let rows = ablate_replicas(&[2, 3, 4, 8, 16], 1000, seed).expect("a5 runs");
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.replicas.to_string(),
                format!("{:.1} %", r.soap_loss_rate * 100.0),
                format!("{:.1} %", r.rest_loss_rate * 100.0),
            ]
        })
        .collect();
    out.line(table(&["replicas", "SOAP sessions lost", "REST workflows lost"], &body));
}
