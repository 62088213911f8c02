//! DSL round-trip integration tests: every resource file in the library
//! parses, prints, and re-parses to the same model; install specs survive
//! JSON round trips; and the universe parser survives hostile input —
//! every truncation and seeded byte mutations of printed universes.

use engage_dsl::{parse_resources, parse_universe, print_resource_type, print_universe};
use engage_model::Universe;
use engage_testgen::{scenario, Family};
use engage_util::prop::prelude::*;

const ALL_SOURCES: &[(&str, &str)] = &[
    ("servers", engage_library::SERVERS_ERS),
    ("java", engage_library::JAVA_ERS),
    ("tomcat", engage_library::TOMCAT_ERS),
    ("database", engage_library::DATABASE_ERS),
    ("openmrs", engage_library::OPENMRS_ERS),
    ("jasper", engage_library::JASPER_ERS),
    ("python", engage_library::PYTHON_ERS),
    ("webserver", engage_library::WEBSERVER_ERS),
    ("services", engage_library::SERVICES_ERS),
    ("django", engage_library::DJANGO_ERS),
    ("pip", engage_library::PIP_ERS),
    ("apps", engage_library::APPS_ERS),
    ("python_apps", engage_library::PYTHON_APPS_ERS),
];

#[test]
fn every_library_file_roundtrips() {
    for (name, src) in ALL_SOURCES {
        let types = parse_resources(src).unwrap_or_else(|e| panic!("{name}: {}", e.render(src)));
        assert!(!types.is_empty(), "{name} is empty");
        for ty in &types {
            let printed = print_resource_type(ty);
            let reparsed = parse_resources(&printed)
                .unwrap_or_else(|e| {
                    panic!(
                        "{name}/{}: {}\n--- printed ---\n{printed}",
                        ty.key(),
                        e.render(&printed)
                    )
                })
                .remove(0);
            assert_eq!(
                ty,
                &reparsed,
                "{name}/{} changed across print/parse",
                ty.key()
            );
        }
    }
}

#[test]
fn whole_universe_prints_and_reparses() {
    let u = engage_library::full_universe();
    let printed = print_universe(&u);
    let u2 = parse_universe(&printed).unwrap_or_else(|e| panic!("{}", e.render(&printed)));
    assert_eq!(u.len(), u2.len());
    for ty in u.iter() {
        let other = u2.get(ty.key()).expect("key survives");
        assert_eq!(ty, other, "{} changed", ty.key());
    }
    // The re-parsed universe passes the same checks.
    u2.check().unwrap();
}

#[test]
fn library_is_about_the_papers_metadata_size() {
    // The paper reports ~5K lines of resource metadata for its library;
    // ours is smaller (fewer platforms) but must be substantial.
    let total: usize = ALL_SOURCES.iter().map(|(_, s)| s.lines().count()).sum();
    assert!(total > 400, "library has only {total} lines of metadata");
}

#[test]
fn partial_specs_roundtrip_through_figure_2_json() {
    for partial in [
        engage_library::openmrs_partial(),
        engage_library::jasper_partial(),
        engage_library::webapp_production_partial(),
        engage_library::openmrs_production_partial(),
    ] {
        let json = engage_dsl::render_partial_spec(&partial);
        let back = engage_dsl::parse_partial_spec(&json).unwrap();
        assert_eq!(partial, back);
    }
}

#[test]
fn large_shuffled_partial_spec_roundtrips() {
    // 5 000 instances listed in a seeded random order (a spec is a set;
    // containers need not come first): render → parse gives the same spec
    // back, every id still resolves, and a duplicate is still refused.
    use engage_model::{PartialInstallSpec, PartialInstance};
    use engage_util::rand::{Rng, SeedableRng, StdRng};

    let mut instances: Vec<PartialInstance> = (0..1_000)
        .flat_map(|m| {
            let machine = PartialInstance::new(format!("m{m}"), "Mac-OSX 10.6")
                .config("hostname", format!("host-{m}.example.com").as_str());
            let inside = (0..4).map(move |k| {
                PartialInstance::new(format!("svc{m}-{k}"), "Tomcat 6.0.18")
                    .inside(format!("m{m}"))
                    .config("manager_port", 8_000 + k as i64)
            });
            std::iter::once(machine).chain(inside)
        })
        .collect();
    StdRng::seed_from_u64(0x5EED_5000).shuffle(&mut instances);
    let spec: PartialInstallSpec = instances.into_iter().collect();
    assert_eq!(spec.len(), 5_000);

    let json = engage_dsl::render_partial_spec(&spec);
    let back = engage_dsl::parse_partial_spec(&json).unwrap();
    assert_eq!(spec, back);
    assert!(spec.iter().map(|i| i.id()).eq(back.iter().map(|i| i.id())));
    for inst in spec.iter() {
        assert_eq!(back.get(inst.id()), Some(inst));
    }

    // The same text with its first instance listed twice is rejected.
    let first = spec.iter().next().unwrap();
    let one = engage_dsl::render_partial_spec(&[first.clone()].into_iter().collect());
    let doubled = format!(
        "{},{}",
        one.trim_end().trim_end_matches(']'),
        json.trim_start().trim_start_matches('[')
    );
    let err = engage_dsl::parse_partial_spec(&doubled).unwrap_err();
    assert!(
        err.to_string()
            .contains(&format!("duplicate instance id `{}`", first.id())),
        "{err}"
    );
}

#[test]
fn figure_2_verbatim_parses() {
    // The paper's Figure 2 text (keys/ids exactly as printed).
    let src = r#"[
      { "id": "server", "key": "Mac-OSX 10.6",
        "config_port": { "hostname": "localhost", "os_user_name": "root" } },
      { "id": "tomcat", "key": "Tomcat 6.0.18", "inside": { "id": "server" } },
      { "id": "openmrs", "key": "OpenMRS 1.8", "inside": { "id": "tomcat" } }
    ]"#;
    let parsed = engage_dsl::parse_partial_spec(src).unwrap();
    assert_eq!(parsed, engage_library::openmrs_partial());
}

#[test]
fn diagnostics_point_into_the_source() {
    let bad = "resource \"X 1\" {\n  config port p: int = \"oops\"\n}";
    // Missing semicolon: the parser reports position on line 2/3.
    let err = parse_resources(bad).unwrap_err();
    let rendered = err.render(bad);
    assert!(rendered.contains("error:"), "{rendered}");
    assert!(rendered.contains('^'), "{rendered}");
}

#[test]
fn comments_and_whitespace_are_insignificant() {
    let a = parse_resources(engage_library::JAVA_ERS).unwrap();
    let stripped: String = engage_library::JAVA_ERS
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join(" ");
    let b = parse_resources(&stripped).unwrap();
    assert_eq!(a, b);
}

/// The printed universes the hostile-input tests start from: the base
/// library and one generated universe per testgen family.
fn printed_universes() -> Vec<String> {
    let generated = Family::ALL.map(|family| scenario(family, 0).universe);
    let universes = std::iter::once(engage_library::base_universe()).chain(generated);
    universes.map(|u| print_universe(&u)).collect()
}

/// Whether `a` and `b` declare the same types.
fn same_types(a: &Universe, b: &Universe) -> bool {
    a.len() == b.len() && a.iter().all(|ty| b.get(ty.key()) == Some(ty))
}

/// The hostile-input rules for one DSL text: the parser does not panic,
/// a rejection is a diagnostic whose span lies within the text, and an
/// accepted text re-parses equal from its printed form.
fn parser_holds_on(text: &str) -> Result<(), TestCaseError> {
    match parse_universe(text) {
        Ok(u) => {
            let printed = print_universe(&u);
            let back = parse_universe(&printed).map_err(|e| {
                TestCaseError::fail(format!("{}\n---\n{printed}", e.render(&printed)))
            })?;
            prop_assert!(same_types(&u, &back), "reprint of {:?} changed", text);
        }
        Err(diagnostic) => {
            let span = diagnostic.span();
            prop_assert!(
                span.start <= span.end && span.end <= text.len(),
                "span {span:?} outside {} bytes of {text:?}",
                text.len()
            );
        }
    }
    Ok(())
}

/// Every prefix of every printed universe, cut at every byte offset (a
/// cut inside a UTF-8 character leaves a replacement character).
#[test]
fn universe_parser_survives_every_truncation() {
    for text in printed_universes() {
        let bytes = text.as_bytes();
        for cut in 0..=bytes.len() {
            let prefix = String::from_utf8_lossy(&bytes[..cut]);
            if let Err(e) = parser_holds_on(&prefix) {
                panic!("cut at byte {cut}: {e:?}");
            }
        }
        assert!(parse_universe(&text).is_ok(), "the whole text parses");
    }
}

/// Bytes a mutation writes half the time: the DSL's punctuation, string
/// and number syntax, identifier letters, and the lead byte of a
/// two-byte UTF-8 character.
const DSL_BYTES: &[u8] = b"{}()[]<>;:,.=\"\\-+*/!&|0123456789aeinrstx_ \t\n\xc3";

proptest! {
    #[test]
    fn universe_parser_survives_byte_mutations(
        which in 0usize..6,
        edits in engage_util::prop::collection::vec(
            (0u8..3, any::<usize>(), any::<u8>()),
            1..6
        )
    ) {
        let texts = printed_universes();
        let mut bytes = texts[which % texts.len()].clone().into_bytes();
        for (kind, at, byte) in edits {
            let byte = if byte % 2 == 0 { DSL_BYTES[usize::from(byte / 2) % DSL_BYTES.len()] } else { byte };
            let at = at % (bytes.len() + 1);
            match kind {
                0 => bytes.insert(at, byte),
                1 if at < bytes.len() => bytes[at] = byte,
                _ if at < bytes.len() => drop(bytes.remove(at)),
                _ => bytes.push(byte),
            }
        }
        parser_holds_on(&String::from_utf8_lossy(&bytes))?;
    }
}
