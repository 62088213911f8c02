//! The §6.1 JasperReports case study: automate the 77-page manual install.
//!
//! Shows the two §6.1 measurements this reproduction can regenerate:
//!
//! * spec expansion — a ~26-line partial installation specification grows
//!   to a ~434-line full specification; and
//! * install timing — ≈17 minutes when packages are downloaded from the
//!   (simulated) internet vs ≈5 minutes from a local file cache.
//!
//! Run with: `cargo run --example jasper_reports`

use engage::{Engage, Target};
use engage_model::BasicState;
use engage_sim::DownloadSource;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let universe = engage_library::base_universe();
    let partial = engage_library::jasper_partial();

    println!("== JasperReports partial installation specification ==");
    let partial_rendered = engage_dsl::render_partial_spec(&partial);
    print!("{partial_rendered}");
    println!();

    println!("== Spec expansion ==");
    let engage = Engage::new(universe.clone())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry());
    let outcome = engage.plan(&partial)?;
    let full_rendered = engage_dsl::render_install_spec(&outcome.spec);
    println!(
        "partial: {} lines / {} resources   full: {} lines / {} resources",
        partial_rendered.lines().count(),
        partial.len(),
        full_rendered.lines().count(),
        outcome.spec.len()
    );
    println!("components, in installation order:");
    for inst in outcome.spec.iter() {
        println!("  {} : {}", inst.id(), inst.key());
    }
    println!();

    println!("== Environment checks performed by the install (§6.1) ==");
    println!("  required TCP ports available, packages resolvable, dependency order acyclic");
    println!();

    println!("== Automated install timing: internet vs local cache ==");
    for (label, source) in [
        ("internet   ", DownloadSource::typical_internet()),
        ("local cache", DownloadSource::local_cache()),
    ] {
        let engage = Engage::new(universe.clone())
            .with_packages(engage_library::package_universe())
            .with_download_source(source)
            .with_registry(engage_library::driver_registry());
        let t0 = engage.sim().now();
        let (_, deployment) = engage.deploy(&partial)?;
        let took = engage.sim().now() - t0;
        println!(
            "  {label}: {:>6.1} min  (sequential; paper: 17 min internet, 5 min cached)",
            took.as_secs_f64() / 60.0
        );
        assert!(deployment.is_deployed());
    }
    println!();

    println!("== Post-install management ==");
    let engage = Engage::new(universe)
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry());
    let (_, mut deployment) = engage.deploy(&partial)?;
    for (id, state) in engage.status(&deployment) {
        println!("  {id:<28} {state}");
    }
    engage.run(&mut deployment, Target::all(BasicState::Inactive))?;
    println!("  ... stopped in reverse dependency order; restartable with Target::all(Active)");
    Ok(())
}
