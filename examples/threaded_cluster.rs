//! Running the protocol on real threads: one actor per edge device,
//! `std` channels for the wire, and straggler tolerance via redundant
//! rows on standby devices (the paper's footnote 1 extension).
//!
//! ```text
//! cargo run -p scec-experiments --example threaded_cluster --release
//! ```

use std::time::{Duration, Instant};

use rand::{rngs::StdRng, SeedableRng};
use scec_allocation::EdgeFleet;
use scec_coding::{CodeDesign, StragglerCode};
use scec_core::{AllocationStrategy, ScecSystem};
use scec_linalg::{Fp61, Matrix, Vector};
use scec_runtime::{LocalCluster, StragglerCluster};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(21);
    let (m, l) = (12, 8);
    let a = Matrix::<Fp61>::random(m, l, &mut rng);

    // --- Part 1: the base protocol on threads -------------------------
    let fleet = EdgeFleet::from_unit_costs(vec![1.0, 1.3, 1.7, 2.2, 3.0])?;
    let system = ScecSystem::build(a.clone(), fleet, AllocationStrategy::Mcscec, &mut rng)?;
    let cluster = LocalCluster::launch(&system, &mut rng)?;
    println!(
        "base cluster: {} device threads, r = {}",
        cluster.device_count(),
        system.plan().random_rows()
    );
    let x = Vector::<Fp61>::random(l, &mut rng);
    let y = cluster.query(&x)?;
    assert_eq!(y, a.matvec(&x)?);
    println!("threaded secure query matches A·x ✓");
    cluster.shutdown();

    // --- Part 2: straggler tolerance ----------------------------------
    // Base design (m=12, r=4) → 4 base devices; add s = 4 redundant rows
    // on one standby device. Then make base device 2 pathologically slow.
    let base = CodeDesign::new(m, 4)?;
    let code = StragglerCode::<Fp61>::new(base, 4, &mut rng)?;
    println!(
        "\nstraggler cluster: {} base + {} standby devices, any {} of {} rows decode",
        code.base().device_count(),
        code.standby_devices(),
        code.rows_needed(),
        code.total_rows(),
    );
    let delays = vec![Duration::ZERO, Duration::from_millis(500)]; // device 2 is slow
    let cluster = StragglerCluster::launch(code, &a, &mut rng, &delays)?;
    let started = Instant::now();
    let result = cluster.query(&x)?;
    let elapsed = started.elapsed();
    assert_eq!(result.value, a.matvec(&x)?);
    println!(
        "decoded from devices {:?} in {:.1} ms, leaving {} straggler(s) behind ✓",
        result.responders,
        elapsed.as_secs_f64() * 1e3,
        result.stragglers_left_behind
    );
    assert!(
        !result.responders.contains(&2),
        "the slow device should not be in the quorum"
    );
    cluster.shutdown();

    Ok(())
}
