//! Ablation studies over the reproduction's design choices.
//!
//! DESIGN.md calls out several load-bearing parameters: the Load Balancer's
//! health-check cadence, the warm-pool size, the private-cloud capacity,
//! the topographic-index discretisation and the service replica count.
//! Each ablation sweeps one of them and reports how the headline metric
//! moves; `cargo run -p evop-bench --release --bin report -- ablations`
//! prints the tables, and `tests/ablations.rs` asserts the trends.

use evop_broker::{Broker, BrokerConfig, BrokerEvent, SessionId};
use evop_cloud::FailureMode;
use evop_data::{Catchment, Timestamp};
use evop_models::objectives::nse;
use evop_models::{Forcing, Topmodel, TopmodelParams};
use evop_sim::stats::Percentiles;
use evop_sim::SimDuration;

use crate::experiments::{e2_rest_vs_soap, invariant, ExperimentError};

// ====================================================================
// A1 — health-check cadence vs detection delay and false positives
// ====================================================================

/// One row of the health-check ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthCheckRow {
    /// Sampling interval.
    pub check_interval: SimDuration,
    /// Consecutive bad samples required.
    pub consecutive: u32,
    /// Injection → detection delay for a hang.
    pub detection_delay: Option<SimDuration>,
    /// Failures declared on the *healthy but busy* control instance
    /// (false positives; must be zero under the final signature rules).
    pub false_positives: usize,
}

/// Sweeps the health-check cadence. For each `(interval, consecutive)`
/// combination: one instance is saturated with legitimate work (the
/// false-positive control), a second is hung (the detection probe).
///
/// # Errors
///
/// Returns an [`ExperimentError`] when the broker refuses a connect or
/// the probe instance the sweep relies on cannot be established.
pub fn ablate_health_check(
    intervals: &[SimDuration],
    consecutives: &[u32],
    seed: u64,
) -> Result<Vec<HealthCheckRow>, ExperimentError> {
    let mut rows = Vec::new();
    for &check_interval in intervals {
        for &consecutive in consecutives {
            let config = BrokerConfig {
                check_interval,
                consecutive_bad_samples: consecutive,
                private_capacity_vcpus: 8,
                ..BrokerConfig::default()
            };
            let mut broker = Broker::new(config, seed);

            // Control: a busy, healthy instance (all vCPUs saturated).
            let busy = broker.connect("busy-user", "topmodel")?;
            broker.advance(SimDuration::from_secs(200));
            for _ in 0..16 {
                let _ = broker.run_model(busy, SimDuration::from_secs(3600));
            }

            // Probe: a second instance that hangs. Force one into existence
            // by filling the first instance's session slots, then pick any
            // serving instance other than the busy control (the balancer may
            // shuffle individual sessions in between).
            for i in 0..broker.config().slots_per_instance() {
                broker.connect(&format!("probe-{i}"), "topmodel")?;
            }
            broker.advance(SimDuration::from_secs(200));
            let busy_instance = broker
                .session(busy)
                .and_then(|s| s.instance())
                .ok_or_else(|| invariant("control session bound"))?;
            let probe_instance = broker
                .cloud()
                .instances()
                .find(|i| i.is_running() && i.id() != busy_instance)
                .map(|i| i.id())
                .ok_or_else(|| invariant("a second instance must exist"))?;

            let injected_at = broker.now();
            broker
                .inject_failure(probe_instance, FailureMode::Hang)
                .map_err(|_| invariant("probe instance exists"))?;
            broker.advance(check_interval.saturating_mul(u64::from(consecutive) * 4));

            let detection_delay = broker.events().iter().find_map(|e| match e {
                BrokerEvent::FailureDetected { at, instance, .. }
                    if *instance == probe_instance =>
                {
                    Some(at.saturating_since(injected_at))
                }
                _ => None,
            });
            let false_positives = broker
                .events()
                .iter()
                .filter(|e| {
                    matches!(e, BrokerEvent::FailureDetected { instance, .. } if *instance == busy_instance)
                })
                .count();
            rows.push(HealthCheckRow {
                check_interval,
                consecutive,
                detection_delay,
                false_positives,
            });
        }
    }
    Ok(rows)
}

// ====================================================================
// A2 — warm-pool size vs time-to-first-result and cost
// ====================================================================

/// One row of the warm-pool ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmPoolRow {
    /// Warm instances held.
    pub warm_pool: u32,
    /// Median connect → first model result.
    pub median_first_result: SimDuration,
    /// 95th percentile of the same.
    pub p95_first_result: SimDuration,
    /// Total run cost.
    pub cost: f64,
}

/// Sweeps the warm-pool size against a fixed flash crowd.
///
/// # Errors
///
/// Returns an [`ExperimentError`] when the broker refuses a connect.
pub fn ablate_warm_pool(
    crowd: usize,
    sizes: &[u32],
    seed: u64,
) -> Result<Vec<WarmPoolRow>, ExperimentError> {
    sizes
        .iter()
        .map(|&pool| {
            let config = BrokerConfig {
                private_capacity_vcpus: 16,
                warm_pool_size: pool,
                ..BrokerConfig::default()
            };
            let mut broker = Broker::new(config, seed);
            broker.advance(SimDuration::from_secs(300));
            let arrival = broker.now();

            let mut jobs = Vec::new();
            let mut pending: Vec<SessionId> = Vec::new();
            for i in 0..crowd {
                let s = broker.connect(&format!("flash-{i}"), "topmodel")?;
                match broker.run_model(s, SimDuration::from_secs(60)) {
                    Ok(job) => jobs.push((s, job)),
                    Err(_) => pending.push(s),
                }
            }
            for _ in 0..240 {
                broker.advance(SimDuration::from_secs(15));
                pending.retain(|&s| match broker.run_model(s, SimDuration::from_secs(60)) {
                    Ok(job) => {
                        jobs.push((s, job));
                        false
                    }
                    Err(_) => true,
                });
            }

            let mut first_results = Percentiles::new();
            for &(s, job) in &jobs {
                let Some(instance) = broker.session(s).and_then(|x| x.instance()) else { continue };
                if let Some(latency) = broker
                    .cloud()
                    .instance(instance)
                    .and_then(|i| i.job(job))
                    .and_then(|j| j.latency())
                {
                    let submitted = broker
                        .cloud()
                        .instance(instance)
                        .and_then(|i| i.job(job))
                        .map(|j| j.submitted_at())
                        .unwrap_or(arrival);
                    let finished = submitted + latency;
                    first_results.record(finished.saturating_since(arrival).as_secs_f64());
                }
            }
            Ok(WarmPoolRow {
                warm_pool: pool,
                median_first_result: SimDuration::from_secs_f64(
                    first_results.median().unwrap_or(f64::INFINITY.min(1e9)),
                ),
                p95_first_result: SimDuration::from_secs_f64(
                    first_results.p95().unwrap_or(f64::INFINITY.min(1e9)),
                ),
                cost: broker.total_cost(),
            })
        })
        .collect()
}

// ====================================================================
// A3 — private capacity vs burst depth and cost
// ====================================================================

/// One row of the private-capacity ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityRow {
    /// Private cloud size in vCPUs.
    pub private_vcpus: u32,
    /// Peak concurrent public instances during the run.
    pub peak_public_instances: usize,
    /// Total hybrid cost.
    pub cost: f64,
}

/// Sweeps the private-cloud size under a fixed 80-user ramp: smaller
/// private clouds burst deeper and pay more.
///
/// # Errors
///
/// Returns an [`ExperimentError`] when the broker refuses a connect.
pub fn ablate_private_capacity(
    capacities: &[u32],
    seed: u64,
) -> Result<Vec<CapacityRow>, ExperimentError> {
    capacities
        .iter()
        .map(|&private_vcpus| {
            let config = BrokerConfig {
                private_capacity_vcpus: private_vcpus,
                scale_down_surplus_slots: 12,
                ..BrokerConfig::default()
            };
            let mut broker = Broker::new(config, seed);
            let mut sessions = Vec::new();
            let mut peak_public = 0usize;
            for minute in 0..60u64 {
                let target = (80 * (minute as usize + 1)) / 60;
                while sessions.len() < target {
                    sessions.push(broker.connect(&format!("u{}", sessions.len()), "topmodel")?);
                }
                broker.advance(SimDuration::from_secs(60));
                peak_public = peak_public.max(broker.provider_mix().public_instances);
            }
            Ok(CapacityRow {
                private_vcpus,
                peak_public_instances: peak_public,
                cost: broker.total_cost(),
            })
        })
        .collect()
}

// ====================================================================
// A4 — topographic-index discretisation
// ====================================================================

/// One row of the TI-discretisation ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TiBinsRow {
    /// Number of TI classes.
    pub bins: usize,
    /// Peak discharge under default parameters, m³/s.
    pub peak_m3s: f64,
    /// NSE against the 64-class reference run.
    pub nse_vs_reference: f64,
}

/// Sweeps the number of topographic-index classes: the coarse-grained
/// model must converge to the fine-grained reference.
///
/// # Errors
///
/// Returns an [`ExperimentError`] when the reference Topmodel run rejects
/// its parameters.
pub fn ablate_ti_bins(bins: &[usize], seed: u64) -> Result<Vec<TiBinsRow>, ExperimentError> {
    use rand::SeedableRng;
    let catchment = Catchment::morland();
    let generator = evop_data::synthetic::WeatherGenerator::for_catchment(&catchment, seed);
    let start = Timestamp::from_ymd(2012, 1, 1);
    let n = 30 * 24;
    let rain = generator.rainfall(start, 3600, n);
    let temp = generator.temperature(start, 3600, n);
    let pet = evop_models::pet::hamon_series(&temp, catchment.outlet().lat());
    let forcing = Forcing::new(rain, pet);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let dem = catchment.generate_dem(&mut rng);

    let run = |classes: usize| {
        Topmodel::new(dem.ti_distribution(classes), catchment.area_km2())
            .run(&TopmodelParams::default(), &forcing)
            .map(|out| out.discharge_m3s)
            .map_err(ExperimentError::Model)
    };
    let reference = run(64)?;

    bins.iter()
        .map(|&classes| {
            let q = run(classes)?;
            Ok(TiBinsRow {
                bins: classes,
                peak_m3s: q.peak().map(|(_, v)| v).unwrap_or(f64::NAN),
                nse_vs_reference: nse(&q, &reference),
            })
        })
        .collect()
}

// ====================================================================
// A5 — replica count vs stateful session loss
// ====================================================================

/// One row of the replica-count ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaRow {
    /// Service replicas.
    pub replicas: usize,
    /// Fraction of SOAP sessions lost to one replica kill.
    pub soap_loss_rate: f64,
    /// Fraction of REST workflows lost (always zero).
    pub rest_loss_rate: f64,
}

/// Sweeps the replica count in the E2 failover workload: more replicas
/// dilute — but never remove — the stateful loss; statelessness is flat at
/// zero.
///
/// # Errors
///
/// Returns an [`ExperimentError`] when the underlying E2 run fails.
pub fn ablate_replicas(
    replica_counts: &[usize],
    workflows: usize,
    seed: u64,
) -> Result<Vec<ReplicaRow>, ExperimentError> {
    replica_counts
        .iter()
        .map(|&replicas| {
            let r = e2_rest_vs_soap(workflows, replicas, seed)?;
            Ok(ReplicaRow {
                replicas,
                soap_loss_rate: r.soap_lost_sessions as f64 / r.workflows as f64,
                rest_loss_rate: (r.workflows - r.rest_completed) as f64 / r.workflows as f64,
            })
        })
        .collect()
}

/// Convenience: the detection-delay model the A1 sweep should follow
/// (`interval × consecutive`, rounded up to the next check tick).
pub fn expected_detection_delay(interval: SimDuration, consecutive: u32) -> SimDuration {
    SimDuration::from_millis(interval.as_millis() * u64::from(consecutive))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_detection_scales_with_cadence() {
        let rows = ablate_health_check(
            &[SimDuration::from_secs(10), SimDuration::from_secs(30)],
            &[2, 4],
            7,
        )
        .expect("a1 runs");
        assert_eq!(rows.len(), 4);
        for row in &rows {
            let delay = row.detection_delay.expect("hang must be detected");
            let expected = expected_detection_delay(row.check_interval, row.consecutive);
            assert!(
                delay >= expected && delay <= expected + row.check_interval * 2,
                "delay {delay} vs expected {expected}"
            );
            assert_eq!(row.false_positives, 0, "busy-but-healthy must never be axed");
        }
        // Fastest cadence detects fastest.
        let fastest = rows.iter().min_by_key(|r| r.detection_delay).unwrap();
        assert_eq!(fastest.check_interval, SimDuration::from_secs(10));
        assert_eq!(fastest.consecutive, 2);
    }

    #[test]
    fn a4_coarse_ti_converges_to_reference() {
        let rows = ablate_ti_bins(&[2, 8, 32], 42).expect("a4 runs");
        assert!(rows[0].nse_vs_reference < rows[2].nse_vs_reference + 1e-9);
        assert!(rows[2].nse_vs_reference > 0.99, "32 classes ≈ 64 classes");
        assert!(rows.iter().all(|r| r.peak_m3s.is_finite()));
    }

    #[test]
    fn a5_loss_dilutes_with_replicas_but_never_reaches_zero() {
        let rows = ablate_replicas(&[2, 4, 8], 400, 11).expect("a5 runs");
        assert!(rows[0].soap_loss_rate > rows[2].soap_loss_rate);
        assert!(rows[2].soap_loss_rate > 0.0);
        assert!(rows.iter().all(|r| r.rest_loss_rate == 0.0));
    }
}
