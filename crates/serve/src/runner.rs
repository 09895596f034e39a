//! Executes one sweep cell under the service's robustness ladder:
//! deadline budget → bounded retry with jittered backoff → quarantine.
//!
//! The ladder mirrors the *in-machine* recovery ladder of the sync bus
//! (NACK retransmission → watchdog repair → fallback scheme) one layer
//! up: the machine's ladder heals a run from the inside, this one
//! decides what the service does when a whole run wedges. A detected
//! deadlock or timeout gets one escalated retry (4× the cycle budget,
//! after a jittered pause seeded from the cell hash — the
//! `WaitStrategy::JitteredBackoff` idea applied to request retries); a
//! second wedge poisons the cell, and a dependence-order violation
//! poisons it immediately — determinism means retrying a wrong answer
//! can only waste the budget reproducing it.

use datasync_schemes::scheme::CompiledLoop;
use datasync_schemes::{classify_run, Outcome, RunCell};
use datasync_sim::MachineConfig;

use crate::record::CellRecord;
use crate::spec::CellSpec;

/// Retry-budget escalation factor for the second attempt.
const RETRY_BUDGET_FACTOR: u64 = 4;

/// Maximum attempts before a wedging cell is poisoned.
const MAX_ATTEMPTS: u32 = 2;

/// The outcome of running one cell: the journalable record plus, for
/// poisoned cells, a chaos-fuzzer-format reproducer document.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The record to journal, cache and stream.
    pub record: CellRecord,
    /// `Some` exactly when the record is poisoned: the cell's
    /// [`RunCell::to_json`] reproducer, replayable with
    /// `datasync chaos --replay`.
    pub reproducer: Option<String>,
}

/// The cell's first-attempt cycle budget: the explicit deadline
/// override, or the workload-scaled budget every other harness in the
/// workspace uses.
pub fn base_budget(spec: &CellSpec, compiled: &CompiledLoop, config: &MachineConfig) -> u64 {
    if spec.deadline_cycles > 0 {
        spec.deadline_cycles
    } else {
        config
            .max_cycles
            .max(config.scaled_max_cycles(compiled.workload.programs.len()))
    }
}

/// Deterministic per-cell backoff pause (milliseconds) before attempt
/// `attempt`: a splitmix64 draw seeded from the cell hash, so two
/// replicas retrying the same poisonous cell desynchronize instead of
/// hammering in lockstep — `WaitStrategy::JitteredBackoff`'s
/// storm-avoidance rationale at request granularity.
pub fn backoff_ms(cell_hash_fnv: u64, attempt: u32) -> u64 {
    let mut z = cell_hash_fnv.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(attempt.into()));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // Base 1 << attempt ms, jittered to [base/2, 3*base/2], capped small:
    // the service budget is cycles, not wall time.
    let base = 1u64 << attempt.min(4);
    (base / 2 + z % (base + 1)).max(1)
}

/// Runs one cell to a terminal record.
pub fn run_cell(spec: &CellSpec) -> CellRun {
    let hash = spec.content_hash();
    let (compiled, mut config) = match RunCell::from(spec).compile() {
        Ok(pair) => pair,
        Err(why) => {
            // Admission validation makes this unreachable in the server;
            // poison rather than panic if a caller bypasses it.
            return poisoned(spec, &hash, "quarantined", 0, 1, 0, &why);
        }
    };
    let base = base_budget(spec, &compiled, &config);
    let mut attempt = 1u32;
    loop {
        let budget = base.saturating_mul(RETRY_BUDGET_FACTOR.saturating_pow(attempt - 1));
        config.max_cycles = budget;
        let outcome = classify_run(&compiled, &config);
        let (status, makespan) = match &outcome {
            Outcome::Completed { makespan, .. } => ("ok", *makespan),
            Outcome::Recovered { makespan, .. } => ("recovered", *makespan),
            Outcome::Reconfigured { makespan, .. } => ("reconfigured", *makespan),
            Outcome::Degraded { makespan, .. } => ("degraded", *makespan),
            Outcome::OrderViolation { .. } => {
                // Deterministically wrong: retrying reproduces the same
                // violation, so poison immediately.
                return poisoned(spec, &hash, "violated", 0, attempt, budget, &outcome.cell());
            }
            Outcome::DeadlockDetected { .. } | Outcome::TimedOut { .. } => {
                if attempt < MAX_ATTEMPTS {
                    let fnv = crate::hash::fnv1a(spec.canonical_json().as_bytes());
                    std::thread::sleep(std::time::Duration::from_millis(backoff_ms(fnv, attempt)));
                    attempt += 1;
                    continue;
                }
                return poisoned(spec, &hash, "quarantined", 0, attempt, budget, &outcome.cell());
            }
        };
        return CellRun {
            record: CellRecord {
                spec: spec.clone(),
                hash,
                status: status.to_string(),
                makespan,
                attempts: attempt,
                budget,
                detail: outcome.cell(),
            },
            reproducer: None,
        };
    }
}

fn poisoned(
    spec: &CellSpec,
    hash: &str,
    status: &str,
    makespan: u64,
    attempts: u32,
    budget: u64,
    detail: &str,
) -> CellRun {
    CellRun {
        record: CellRecord {
            spec: spec.clone(),
            hash: hash.to_string(),
            status: status.to_string(),
            makespan,
            attempts,
            budget,
            detail: detail.to_string(),
        },
        reproducer: Some(RunCell::from(spec).to_json()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_cell_completes_on_the_first_attempt() {
        let spec = CellSpec { iterations: 8, ..CellSpec::default() };
        let run = run_cell(&spec);
        assert_eq!(run.record.status, "ok");
        assert!(run.record.makespan > 0);
        assert_eq!(run.record.attempts, 1);
        assert!(run.record.budget > 0);
        assert!(run.reproducer.is_none());
        assert_eq!(run.record.hash, spec.content_hash());
    }

    #[test]
    fn cell_results_are_deterministic() {
        let spec = CellSpec { iterations: 10, fault_pct: 40, seed: 7, ..CellSpec::default() };
        let a = run_cell(&spec).record;
        let b = run_cell(&spec).record;
        assert_eq!(a.to_json(), b.to_json(), "identical specs must produce identical records");
    }

    #[test]
    fn a_starved_deadline_quarantines_after_exactly_two_attempts() {
        // A 1-cycle budget can never finish; attempt 2 runs at 4 cycles
        // and wedges too → poison, with a replayable reproducer.
        let spec = CellSpec { iterations: 8, deadline_cycles: 1, ..CellSpec::default() };
        let run = run_cell(&spec);
        assert_eq!(run.record.status, "quarantined");
        assert_eq!(run.record.attempts, 2);
        assert_eq!(run.record.budget, RETRY_BUDGET_FACTOR, "second attempt escalates 4x");
        assert!(run.record.is_poisoned());
        let doc = run.reproducer.expect("poisoned cells carry a reproducer");
        assert!(doc.starts_with("{\n  \"chaos_case\": 1,"));
        assert!(doc.contains("\"scheme\": \"process\""));
    }

    #[test]
    fn retry_escalation_rescues_a_tight_but_finishable_deadline() {
        // Find the real makespan, then set a deadline just under it:
        // attempt 1 times out, attempt 2 (4x) completes.
        let probe = CellSpec { iterations: 8, ..CellSpec::default() };
        let makespan = run_cell(&probe).record.makespan;
        let spec = CellSpec { deadline_cycles: makespan - 1, ..probe };
        let run = run_cell(&spec);
        assert_eq!(run.record.status, "ok", "{:?}", run.record);
        assert_eq!(run.record.attempts, 2);
        assert_eq!(run.record.makespan, makespan);
        assert!(run.reproducer.is_none());
    }

    #[test]
    fn backoff_is_jittered_but_deterministic() {
        let a = backoff_ms(0x1234, 1);
        assert_eq!(a, backoff_ms(0x1234, 1));
        assert!(a >= 1);
        // Different cells land on different pauses somewhere in range.
        let spread: std::collections::HashSet<u64> = (0u64..32).map(|h| backoff_ms(h, 1)).collect();
        assert!(spread.len() > 1, "jitter should spread cells out");
    }

    #[test]
    fn reproducers_cover_every_fault_field() {
        let spec = CellSpec { fault_pct: 60, seed: 99, ..CellSpec::default() };
        let doc = RunCell::from(&spec).to_json();
        for key in [
            "chaos_case",
            "scheme",
            "fabric",
            "iterations",
            "processors",
            "seed",
            "cache",
            "broadcast_delay_pct",
            "stale_image_pct",
            "data_jitter_pct",
            "fail_stop_procs",
        ] {
            assert!(doc.contains(&format!("\"{key}\"")), "missing {key} in:\n{doc}");
        }
        assert!(doc.contains("\"seed\": 99"));
    }
}
