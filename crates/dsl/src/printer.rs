//! Pretty-printer from model types back to `.ers` concrete syntax.
//!
//! `parse_resources(print_resource_type(t))` reproduces `t` — the property
//! tests in this crate rely on that round-trip.

use std::fmt::Write as _;

use engage_model::{Binding, DriverSpec, DriverState, PortKind, ResourceType, StatePred, Universe};

/// Renders one resource type as `.ers` source.
pub fn print_resource_type(ty: &ResourceType) -> String {
    let mut out = String::new();
    if ty.is_abstract() {
        out.push_str("abstract ");
    }
    // Keys are string literals, escaped the way the lexer reads them.
    let _ = write!(out, "resource {:?}", ty.key().to_string());
    if let Some(sup) = ty.extends() {
        let _ = write!(out, " extends {:?}", sup.to_string());
    }
    out.push_str(" {\n");
    if let Some(dep) = ty.inside() {
        let _ = writeln!(out, "  {dep};");
    }
    for dep in ty.env().iter().chain(ty.peer().iter()) {
        let _ = writeln!(out, "  {dep};");
    }
    for kind in [PortKind::Input, PortKind::Config, PortKind::Output] {
        for p in ty.ports_of(kind) {
            out.push_str("  ");
            if p.binding() == Binding::Static {
                out.push_str("static ");
            }
            let _ = write!(out, "{} port {}: {}", p.kind(), p.name(), p.ty());
            if let Some(d) = p.default() {
                let _ = write!(out, " = {d}");
            }
            out.push_str(";\n");
        }
    }
    if let Some(d) = ty.driver_spec() {
        out.push_str(&print_driver(d, 2));
    }
    out.push_str("}\n");
    out
}

/// Renders a whole universe as one `.ers` file.
pub fn print_universe(u: &Universe) -> String {
    let mut out = String::new();
    for (i, ty) in u.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&print_resource_type(ty));
    }
    out
}

fn print_driver(d: &DriverSpec, indent: usize) -> String {
    let pad = " ".repeat(indent);
    if *d == DriverSpec::standard_service() {
        return format!("{pad}driver service;\n");
    }
    if *d == DriverSpec::standard_package() {
        return format!("{pad}driver package;\n");
    }
    let mut out = format!("{pad}driver {{\n");
    for s in d.custom_states() {
        let _ = writeln!(out, "{pad}  state {s};");
    }
    for t in d.transitions() {
        let _ = write!(
            out,
            "{pad}  transition {} from {} to {}",
            t.action(),
            state_name(t.from()),
            state_name(t.to())
        );
        if !t.guard().is_trivial() {
            out.push_str(" when ");
            for (i, p) in t.guard().preds().iter().enumerate() {
                if i > 0 {
                    out.push_str(" and ");
                }
                match p {
                    StatePred::Upstream(s) => {
                        let _ = write!(out, "upstream {s}");
                    }
                    StatePred::Downstream(s) => {
                        let _ = write!(out, "downstream {s}");
                    }
                }
            }
        }
        out.push_str(";\n");
    }
    let _ = writeln!(out, "{pad}}}");
    out
}

fn state_name(s: &DriverState) -> String {
    s.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_resources;

    const TOMCAT: &str = r#"
    resource "Tomcat 6.0.18" {
      inside "Server" { input host <- host; }
      env "JDK 1.6" | "JRE 1.6" { input java <- java; }
      input port host: { hostname: string };
      input port java: { home: string };
      config port manager_port: int = 8080;
      output port tomcat: { hostname: string, manager_port: int }
          = { hostname: input.host.hostname, manager_port: config.manager_port };
      driver service;
    }"#;

    #[test]
    fn print_parse_roundtrip() {
        let t1 = parse_resources(TOMCAT).unwrap().remove(0);
        let printed = print_resource_type(&t1);
        let t2 = parse_resources(&printed)
            .unwrap_or_else(|e| panic!("{}\n--- printed ---\n{printed}", e.render(&printed)))
            .remove(0);
        assert_eq!(t1, t2, "--- printed ---\n{printed}");
    }

    #[test]
    fn custom_driver_roundtrip() {
        let src = r#"
        resource "FA 2" {
          driver {
            state migrating;
            transition install from uninstalled to inactive;
            transition migrate from inactive to migrating when upstream active;
            transition finish from migrating to active;
            transition stop from active to inactive when downstream inactive and upstream active;
          }
        }"#;
        let t1 = parse_resources(src).unwrap().remove(0);
        let printed = print_resource_type(&t1);
        let t2 = parse_resources(&printed).unwrap().remove(0);
        assert_eq!(t1, t2, "--- printed ---\n{printed}");
    }

    #[test]
    fn abstract_and_extends_printed() {
        let src = r#"abstract resource "Java" { output port java: { home: string } = { home: "/usr" }; }
        resource "JDK 1.6" extends "Java" { inside "Server"; }"#;
        let types = parse_resources(src).unwrap();
        let printed: String = types.iter().map(print_resource_type).collect();
        assert!(printed.contains("abstract resource \"Java\""));
        assert!(printed.contains("resource \"JDK 1.6\" extends \"Java\""));
        let reparsed = parse_resources(&printed).unwrap();
        assert_eq!(types, reparsed);
    }

    #[test]
    fn universe_roundtrip() {
        let src = r#"
        abstract resource "Server" { config port hostname: string = "localhost"; }
        resource "Mac-OSX 10.6" extends "Server" {}
        resource "MySQL 5.1" {
          inside "Server";
          static config port port: int = 3306;
          output port mysql: { port: int } = { port: config.port };
        }"#;
        let u1 = crate::parser::parse_universe(src).unwrap();
        let printed = print_universe(&u1);
        let u2 = crate::parser::parse_universe(&printed).unwrap();
        assert_eq!(
            u1.iter().collect::<Vec<_>>(),
            u2.iter().collect::<Vec<_>>(),
            "--- printed ---\n{printed}"
        );
    }

    #[test]
    fn range_dependency_roundtrip() {
        let src = r#"resource "OpenMRS 1.8" { inside "Tomcat [5.5, 6.0.29)"; }"#;
        let t1 = parse_resources(src).unwrap().remove(0);
        let printed = print_resource_type(&t1);
        let t2 = parse_resources(&printed).unwrap().remove(0);
        assert_eq!(t1, t2, "--- printed ---\n{printed}");
    }

    #[test]
    fn escaped_keys_and_control_characters_roundtrip() {
        // Quotes and backslashes in keys, a control character in a
        // default: each printed as an escape the lexer reads back.
        let src = "resource \"a\\\"b 1.0\" extends \"c\\\\ 1.0\" {
          inside \"d\\\" [1.0, 2.0)\";
          config port p: string = \"x\u{1}\";
        }";
        let t1 = parse_resources(src).unwrap().remove(0);
        let printed = print_resource_type(&t1);
        let t2 = parse_resources(&printed)
            .unwrap_or_else(|e| panic!("{}\n--- printed ---\n{printed}", e.render(&printed)))
            .remove(0);
        assert_eq!(t1, t2, "--- printed ---\n{printed}");
    }
}
