//! Trend assertions over the ablation sweeps (see
//! `evop::ablations` and `cargo run -p evop-bench --bin report -- ablations`).

use evop::ablations::*;
use evop::sim::SimDuration;

#[test]
fn a1_detection_delay_follows_cadence_with_zero_false_positives() {
    let rows =
        ablate_health_check(&[SimDuration::from_secs(5), SimDuration::from_secs(60)], &[2, 5], 42)
            .expect("a1 runs");
    for row in &rows {
        let delay = row.detection_delay.expect("hang detected");
        let expected = expected_detection_delay(row.check_interval, row.consecutive);
        assert!(
            delay >= expected && delay <= expected + row.check_interval * 2,
            "delay {delay} vs expected {expected}"
        );
        assert_eq!(row.false_positives, 0);
    }
    // The extremes bracket correctly: 5s×2 detects >20x faster than 60s×5.
    let fast = rows.iter().map(|r| r.detection_delay.unwrap()).min().unwrap();
    let slow = rows.iter().map(|r| r.detection_delay.unwrap()).max().unwrap();
    assert!(slow.as_secs_f64() / fast.as_secs_f64() > 20.0);
}

#[test]
fn a2_bigger_warm_pools_cut_latency_but_cost_more() {
    let rows = ablate_warm_pool(40, &[0, 4, 8], 42).expect("a2 runs");
    // Median time-to-first-result is non-increasing in pool size…
    for pair in rows.windows(2) {
        assert!(
            pair[1].median_first_result <= pair[0].median_first_result,
            "pool {} median {} vs pool {} median {}",
            pair[1].warm_pool,
            pair[1].median_first_result,
            pair[0].warm_pool,
            pair[0].median_first_result
        );
    }
    // …and cost is non-decreasing.
    for pair in rows.windows(2) {
        assert!(pair[1].cost >= pair[0].cost - 1e-9);
    }
    // The jump from 0 to 8 is substantial (the paper's "gain in user
    // experience").
    assert!(
        rows[2].median_first_result.as_secs_f64()
            < rows[0].median_first_result.as_secs_f64() * 0.75
    );
}

#[test]
fn a3_smaller_private_clouds_burst_deeper_and_pay_more() {
    let rows = ablate_private_capacity(&[4, 16, 32], 42).expect("a3 runs");
    for pair in rows.windows(2) {
        assert!(
            pair[1].peak_public_instances <= pair[0].peak_public_instances,
            "capacity {} bursts {} vs capacity {} bursts {}",
            pair[1].private_vcpus,
            pair[1].peak_public_instances,
            pair[0].private_vcpus,
            pair[0].peak_public_instances
        );
        assert!(pair[1].cost <= pair[0].cost + 1e-9);
    }
    // A big-enough private cloud never bursts at all.
    assert_eq!(rows.last().unwrap().peak_public_instances, 0);
    assert!(rows[0].peak_public_instances >= 3);
}

#[test]
fn a4_ti_discretisation_converges() {
    let rows = ablate_ti_bins(&[2, 16, 32], 42).expect("a4 runs");
    assert!(rows.iter().all(|r| r.nse_vs_reference > 0.98));
    assert!(rows[2].nse_vs_reference >= rows[0].nse_vs_reference - 1e-6);
}

#[test]
fn a5_replication_dilutes_stateful_loss_hyperbolically() {
    let rows = ablate_replicas(&[2, 4, 8], 800, 42).expect("a5 runs");
    // Loss ≈ 1/replicas: each workflow's home replica is the killed one
    // with probability 1/replicas.
    for row in &rows {
        let expected = 1.0 / row.replicas as f64;
        assert!(
            (row.soap_loss_rate - expected).abs() < 0.06,
            "{} replicas: loss {:.3} vs expected {:.3}",
            row.replicas,
            row.soap_loss_rate,
            expected
        );
        assert_eq!(row.rest_loss_rate, 0.0);
    }
}
