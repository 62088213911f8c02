//! The §6.2 upgrade evaluation: two production snapshots of the FA
//! application, "about four months apart", where "the user interface,
//! application logic, and database schema all changed".
//!
//! Shows (1) an automatic upgrade using a South-style schema migration
//! that preserves the database content, and (2) automatic rollback when
//! an injected error makes the upgrade fail.
//!
//! Run with: `cargo run --example upgrade_rollback`

use engage::{Engage, UpgradeStrategy};
use engage_model::{PartialInstallSpec, PartialInstance};

fn fa_partial(version: u32) -> PartialInstallSpec {
    [
        PartialInstance::new("server", "Ubuntu 10.10").config("hostname", "fa.example.com"),
        PartialInstance::new("web", "Gunicorn 0.13").inside("server"),
        PartialInstance::new("db", "MySQL 5.1").inside("server"),
        PartialInstance::new("app", format!("FA {version}").as_str()).inside("server"),
    ]
    .into_iter()
    .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engage = Engage::new(engage_library::django_universe())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry());

    println!("== Deploy FA version 1 (first production snapshot) ==");
    let (_, mut deployment) = engage.deploy(&fa_partial(1))?;
    let host = deployment.host_of(&"app".into()).expect("app host");
    println!(
        "database content: {:?}",
        engage.sim().read_file(host, "/var/db/fa/records")
    );
    assert!(deployment.is_deployed());

    println!("\n== Upgrade to FA version 2 (schema migration via South) ==");
    let report = engage.upgrade(&mut deployment, &fa_partial(2), UpgradeStrategy::WorstCase)?;
    println!(
        "upgrade took {:.1} min (worst-case strategy: {})",
        report.took.as_secs_f64() / 60.0,
        report.worst_case
    );
    println!(
        "database content after migration: {:?}",
        engage.sim().read_file(host, "/var/db/fa/records")
    );
    println!(
        "migration log: {:?}",
        engage.sim().read_file(host, "/srv/fa/migration.log")
    );
    assert!(deployment.is_deployed());

    println!("\n== Roll back: downgrade to FA 1, then retry an upgrade that fails ==");
    engage.upgrade(&mut deployment, &fa_partial(1), UpgradeStrategy::WorstCase)?;
    println!("downgraded; now inject an error into the FA 2 install...");
    engage.sim().inject_install_failure("fa-2", 1);
    match engage.upgrade(&mut deployment, &fa_partial(2), UpgradeStrategy::WorstCase) {
        Err(e) => println!("upgrade failed as expected: {e}"),
        Ok(_) => panic!("expected the injected failure to abort the upgrade"),
    }
    // "Engage automatically rolls back to the prior application version."
    println!(
        "after rollback, app version: {}",
        deployment.spec().get(&"app".into()).unwrap().key()
    );
    println!(
        "database content preserved: {:?}",
        engage.sim().read_file(host, "/var/db/fa/records")
    );
    assert!(deployment.is_deployed());
    assert_eq!(
        deployment
            .spec()
            .get(&"app".into())
            .unwrap()
            .key()
            .to_string(),
        "FA 1"
    );
    println!("\nDone: upgrade, migration, and automatic rollback all verified.");
    Ok(())
}
