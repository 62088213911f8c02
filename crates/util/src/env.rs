//! Environment-variable knobs shared by the test sweeps.
//!
//! Every seeded sweep in the workspace sizes itself from one
//! environment variable (`ENGAGE_SCHED_SWEEP_SEEDS`,
//! `ENGAGE_SCENARIO_SWEEP_SEEDS`, `ENGAGE_SERVE_SWEEP_SEEDS`, ...) with
//! the same contract: unset, empty, or unparseable means the quick
//! local default; CI exports a larger count for the full run.

/// The size of a seeded sweep: `var` parsed as a decimal `u64`, or
/// `default` when the variable is unset, empty, or not a number.
pub fn sweep_size(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::sweep_size;

    #[test]
    fn unset_empty_and_garbage_fall_back_to_the_default() {
        // Distinct variable names: tests in one binary share a process
        // environment.
        assert_eq!(sweep_size("ENGAGE_TEST_KNOB_UNSET", 7), 7);
        std::env::set_var("ENGAGE_TEST_KNOB_EMPTY", "");
        assert_eq!(sweep_size("ENGAGE_TEST_KNOB_EMPTY", 7), 7);
        std::env::set_var("ENGAGE_TEST_KNOB_GARBAGE", "lots");
        assert_eq!(sweep_size("ENGAGE_TEST_KNOB_GARBAGE", 7), 7);
    }

    #[test]
    fn set_values_parse_with_surrounding_whitespace() {
        std::env::set_var("ENGAGE_TEST_KNOB_SET", "64");
        assert_eq!(sweep_size("ENGAGE_TEST_KNOB_SET", 7), 64);
        std::env::set_var("ENGAGE_TEST_KNOB_PADDED", " 32\n");
        assert_eq!(sweep_size("ENGAGE_TEST_KNOB_PADDED", 7), 32);
    }
}
