//! Network resilience at scale: sweep topologies and infection probabilities,
//! switching from exact enumeration to Monte-Carlo sampling when the chase
//! tree becomes too large.
//!
//! Run with: `cargo run --release --example network_resilience`

use gdlog::core::{network_resilience_program, CancelToken, McParams, Pipeline};
use gdlog::data::{Const, Database};
use gdlog_engine::StableModelLimits;

/// Build a ring network of `n` routers with router 1 infected.
fn ring(n: i64) -> Database {
    let mut db = Database::new();
    for i in 1..=n {
        db.insert_fact("Router", [Const::Int(i)]);
        let j = if i == n { 1 } else { i + 1 };
        if i != j {
            db.insert_fact("Connected", [Const::Int(i), Const::Int(j)]);
            db.insert_fact("Connected", [Const::Int(j), Const::Int(i)]);
        }
    }
    db.insert_fact("Infected", [Const::Int(1), Const::Int(1)]);
    db
}

fn main() {
    let limits = StableModelLimits::default();

    println!("exact enumeration on small rings");
    println!("{:>4} {:>6} {:>10} {:>10}", "n", "p", "#outcomes", "P(dom)");
    for n in [3i64, 4, 5] {
        for p in [0.1, 0.3] {
            let pipeline = Pipeline::new(&network_resilience_program(p), &ring(n)).unwrap();
            let space = pipeline.solve().unwrap();
            println!(
                "{:>4} {:>6} {:>10} {:>10.4}",
                n,
                p,
                space.outcome_count(),
                space.has_stable_model_probability().to_f64()
            );
        }
    }

    println!("\nMonte-Carlo sampling on a larger ring (n = 12)");
    println!(
        "{:>6} {:>10} {:>12} {:>10}",
        "p", "samples", "P(dom) est.", "std err"
    );
    for p in [0.1, 0.3, 0.5] {
        let pipeline = Pipeline::new(&network_resilience_program(p), &ring(12)).unwrap();
        let mut mc = pipeline.sampler_with(McParams::new().with_max_triggers(512).with_seed(2023));
        let stats = mc
            .estimate(500, |outcome| {
                !outcome
                    .stable_models(&limits, &CancelToken::never())
                    .unwrap()
                    .is_empty()
            })
            .unwrap();
        println!(
            "{:>6} {:>10} {:>12.4} {:>10.4}",
            p, stats.samples, stats.estimate.mean, stats.estimate.std_error
        );
    }
}
