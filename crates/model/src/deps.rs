//! Dependencies between resource types and their port mappings.
//!
//! §3.1: "Each dependency (inside, environment, or peer) is a pair
//! (key′, pmap), where key′ is a key to a resource and pmap is a partial
//! mapping from \[\[key′\]\].OutP to R.InP." §3.4 extends dependencies with
//! disjunctions, version ranges, and a reverse map of *static* output ports
//! flowing against the dependency direction.

use std::fmt;

use crate::key::ResourceKey;
use crate::version::VersionRange;

/// The three dependency kinds (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepKind {
    /// Container the resource must execute within (machine, Tomcat, ...).
    Inside,
    /// Must be present on the *same machine*.
    Environment,
    /// Must be present, possibly on a *different machine*.
    Peer,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepKind::Inside => write!(f, "inside"),
            DepKind::Environment => write!(f, "env"),
            DepKind::Peer => write!(f, "peer"),
        }
    }
}

/// One disjunct of a dependency target, before frontier/range expansion.
///
/// `Exact` names a single resource type (possibly abstract — expanded to its
/// concrete frontier by the configuration engine). `Range` is the §3.4
/// version sugar, expanded to a disjunction over the concrete versions of
/// `name` in the library that satisfy the range.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DepTarget {
    /// A specific resource type key.
    Exact(ResourceKey),
    /// All known versions of `name` within `range`.
    Range {
        /// Package name whose versions are matched.
        name: String,
        /// Version interval.
        range: VersionRange,
    },
}

impl DepTarget {
    /// Convenience: an exact target from a key-ish string.
    pub fn exact(key: impl Into<ResourceKey>) -> Self {
        DepTarget::Exact(key.into())
    }
}

impl fmt::Display for DepTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // A string literal, escaped the way the `.ers` lexer reads it.
        match self {
            DepTarget::Exact(k) => write!(f, "{:?}", k.to_string()),
            DepTarget::Range { name, range } => write!(f, "{:?}", format!("{name} {range}")),
        }
    }
}

/// Maps one output port of the dependee into one input port of the
/// dependent (or, for [`PortMapping::reverse`], a static output of the
/// dependent into an input of the dependee).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PortMapping {
    from_output: String,
    to_input: String,
    reverse: bool,
}

impl PortMapping {
    /// Forward mapping: dependee output `from_output` → dependent input
    /// `to_input`.
    pub fn forward(from_output: impl Into<String>, to_input: impl Into<String>) -> Self {
        PortMapping {
            from_output: from_output.into(),
            to_input: to_input.into(),
            reverse: false,
        }
    }

    /// Reverse mapping (§3.4 static ports): dependent *static* output
    /// `from_output` → dependee input `to_input`.
    pub fn reverse(from_output: impl Into<String>, to_input: impl Into<String>) -> Self {
        PortMapping {
            from_output: from_output.into(),
            to_input: to_input.into(),
            reverse: true,
        }
    }

    /// Source output port name.
    pub fn from_output(&self) -> &str {
        &self.from_output
    }

    /// Destination input port name.
    pub fn to_input(&self) -> &str {
        &self.to_input
    }

    /// Whether this is a reverse (static) mapping.
    pub fn is_reverse(&self) -> bool {
        self.reverse
    }
}

impl fmt::Display for PortMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.reverse {
            write!(f, "output {} -> {}", self.from_output, self.to_input)
        } else {
            write!(f, "input {} <- {}", self.to_input, self.from_output)
        }
    }
}

/// A dependency declaration: a disjunction of targets plus port mappings.
///
/// §3.4 requires "the ranges of two port mappings that are disjunctively
/// combined to be identical", which the well-formedness checker enforces by
/// applying the same `mappings` to every disjunct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependency {
    kind: DepKind,
    targets: Vec<DepTarget>,
    mappings: Vec<PortMapping>,
}

impl Dependency {
    /// Creates a dependency on a disjunction of targets.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty — a dependency must name at least one
    /// alternative.
    pub fn new(kind: DepKind, targets: Vec<DepTarget>, mappings: Vec<PortMapping>) -> Self {
        assert!(
            !targets.is_empty(),
            "dependency must have at least one target"
        );
        Dependency {
            kind,
            targets,
            mappings,
        }
    }

    /// Single-target convenience constructor.
    pub fn on(kind: DepKind, key: impl Into<ResourceKey>, mappings: Vec<PortMapping>) -> Self {
        Dependency::new(kind, vec![DepTarget::Exact(key.into())], mappings)
    }

    /// The dependency kind.
    pub fn kind(&self) -> DepKind {
        self.kind
    }

    /// The disjunction of targets.
    pub fn targets(&self) -> &[DepTarget] {
        &self.targets
    }

    /// All port mappings (forward and reverse).
    pub fn mappings(&self) -> &[PortMapping] {
        &self.mappings
    }

    /// Forward mappings only (dependee output → dependent input).
    pub fn forward_mappings(&self) -> impl Iterator<Item = &PortMapping> {
        self.mappings.iter().filter(|m| !m.is_reverse())
    }

    /// Reverse (static) mappings only.
    pub fn reverse_mappings(&self) -> impl Iterator<Item = &PortMapping> {
        self.mappings.iter().filter(|m| m.is_reverse())
    }
}

impl fmt::Display for Dependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.kind)?;
        for (i, t) in self.targets.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{t}")?;
        }
        if !self.mappings.is_empty() {
            write!(f, " {{ ")?;
            for m in &self.mappings {
                write!(f, "{m}; ")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::Bound;

    #[test]
    fn single_target_dependency() {
        let d = Dependency::on(
            DepKind::Peer,
            "MySQL 5.1",
            vec![PortMapping::forward("mysql", "mysql")],
        );
        assert_eq!(d.kind(), DepKind::Peer);
        assert_eq!(d.targets().len(), 1);
        assert_eq!(d.forward_mappings().count(), 1);
        assert_eq!(d.reverse_mappings().count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn empty_targets_panics() {
        let _ = Dependency::new(DepKind::Inside, vec![], vec![]);
    }

    #[test]
    fn range_target_display() {
        let t = DepTarget::Range {
            name: "Tomcat".into(),
            range: VersionRange::new(
                Bound::Inclusive("5.5".parse().unwrap()),
                Bound::Exclusive("6.0.29".parse().unwrap()),
            ),
        };
        assert_eq!(t.to_string(), "\"Tomcat [5.5, 6.0.29)\"");
    }

    #[test]
    fn reverse_mappings_are_separated() {
        let d = Dependency::on(
            DepKind::Inside,
            "Tomcat 6.0.18",
            vec![
                PortMapping::forward("tomcat", "tomcat"),
                PortMapping::reverse("server_config", "app_config"),
            ],
        );
        assert_eq!(d.forward_mappings().count(), 1);
        assert_eq!(d.reverse_mappings().count(), 1);
    }

    #[test]
    fn display_disjunction() {
        let d = Dependency::new(
            DepKind::Environment,
            vec![DepTarget::exact("JDK 1.6"), DepTarget::exact("JRE 1.6")],
            vec![PortMapping::forward("java", "java")],
        );
        assert_eq!(
            d.to_string(),
            "env \"JDK 1.6\" | \"JRE 1.6\" { input java <- java; }"
        );
    }
}
