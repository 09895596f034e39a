//! One machine run, named by its knobs: the cell shared by the chaos
//! fuzzer, serve's quarantine reproducers and `datasync chaos --replay`.
//!
//! A [`RunCell`] is a scheme key, the Fig 2.1 workload size and the §6
//! machine knobs (sync fabric with its coalescing, private caches, fault
//! plan). [`RunCell::compile`] turns it into a compiled loop plus a
//! machine config with the full recovery ladder armed, and
//! [`RunCell::to_json`] / [`RunCell::from_json`] are its one reproducer
//! codec: a flat `"chaos_case": 1` document, replayable byte-exact from
//! the file alone. Each knob's fields are read and written by the knob's
//! own codec in `datasync_sim` ([`FabricKind::decode`],
//! [`CacheModel::decode`], [`FaultPlan::KNOBS`]).

use crate::scheme::{CompiledLoop, Scheme};
use crate::{BarrierPhased, InstanceBased, ProcessOriented, ReferenceBased, StatementOriented};
use datasync_loopir::analysis::analyze;
use datasync_loopir::space::IterSpace;
use datasync_loopir::workpatterns::fig21_loop;
use datasync_sim::json::{self, Json, Layout, ObjectWriter};
use datasync_sim::{CacheModel, FabricKind, FaultPlan, MachineConfig, RecoveryPolicy};

/// Stable scheme keys a cell names its scheme by (the human-readable
/// `Scheme::name` strings carry parameters and are not stable
/// identifiers).
pub const SCHEME_KEYS: [&str; 5] = ["reference", "instance", "statement", "process", "barrier"];

/// Version stamp of the reproducer document.
const CHAOS_CASE_VERSION: u64 = 1;

/// Builds the scheme a key names for a `processors`-wide machine.
///
/// # Errors
///
/// Rejects an unknown key, and `barrier` on a machine whose size is
/// not a power of two (its butterfly needs one).
pub fn scheme_for_key(key: &str, processors: usize) -> Result<Box<dyn Scheme>, String> {
    Ok(match key {
        "reference" => Box::new(ReferenceBased::new()),
        "instance" => Box::new(InstanceBased::new()),
        "statement" => Box::new(StatementOriented::new()),
        "process" => Box::new(ProcessOriented::new(processors.max(2))),
        "barrier" if processors.is_power_of_two() => Box::new(BarrierPhased::new(processors)),
        other => return Err(format!("unknown or ill-formed scheme key `{other}`")),
    })
}

/// One machine run: everything needed to reproduce it byte-exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunCell {
    /// Scheme key (see [`SCHEME_KEYS`]).
    pub scheme: String,
    /// Sync-fabric backend, cluster geometry included.
    pub fabric: FabricKind,
    /// Loop iteration count (Fig 2.1 workload).
    pub iterations: i64,
    /// Processor count.
    pub processors: usize,
    /// Private-cache model under the data bus.
    pub cache: CacheModel,
    /// The fault plan, seed included.
    pub plan: FaultPlan,
}

impl RunCell {
    /// Compiles the cell's Fig 2.1 loop under its scheme and builds its
    /// machine config: the scheme's natural transport, full recovery,
    /// and a cycle cap raised to the workload-scaled budget.
    ///
    /// # Errors
    ///
    /// Reports an unknown or ill-formed scheme key.
    pub fn compile(&self) -> Result<(CompiledLoop, MachineConfig), String> {
        let scheme = scheme_for_key(&self.scheme, self.processors)?;
        let nest = fig21_loop(self.iterations);
        let compiled = scheme.compile(&nest, &analyze(&nest), &IterSpace::of(&nest));
        let mut config = MachineConfig {
            sync_transport: scheme.natural_transport(),
            sync_fabric: self.fabric,
            recovery: RecoveryPolicy::Full,
            cache: self.cache,
            faults: self.plan,
            ..MachineConfig::with_processors(self.processors)
        };
        config.max_cycles = config
            .max_cycles
            .max(config.scaled_max_cycles(compiled.workload.programs.len()));
        Ok((compiled, config))
    }

    /// Serializes the cell as a flat reproducer document. Every field is
    /// explicit: a flat fabric writes zero cluster geometry and a
    /// cacheless cell zero cache geometry.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(768);
        let mut w = ObjectWriter::new(&mut out, Layout::Flat);
        w.num("chaos_case", CHAOS_CASE_VERSION)
            .str("scheme", &self.scheme)
            .str("fabric", self.fabric.name())
            .num("iterations", self.iterations)
            .num("processors", self.processors)
            .num("seed", self.plan.seed)
            .str("cache", self.cache.word())
            .nums(&FabricKind::GEOMETRY_FIELDS, self.fabric.geometry())
            .nums(&CacheModel::FIELDS, self.cache.fields());
        let mut plan = self.plan;
        for (name, knob) in FaultPlan::KNOBS {
            w.num(name, *knob(&mut plan));
        }
        w.end();
        out
    }

    /// Parses a document written by [`RunCell::to_json`], including the
    /// older layouts still on disk: a document without cache fields
    /// (written before the cache layer) is cacheless, and a clustered
    /// document without geometry fields keeps `FabricKind::parse`'s
    /// defaults.
    ///
    /// # Errors
    ///
    /// Reports malformed JSON, an unsupported version, and the first
    /// missing, ill-typed or out-of-range field.
    pub fn from_json(doc: &str) -> Result<Self, String> {
        let doc = json::parse(doc)?;
        let required = |key: &str| -> Result<&Json, String> {
            doc.get(key).ok_or_else(|| format!("missing field `{key}`"))
        };
        let text = |key: &str| -> Result<String, String> {
            let v = required(key)?;
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` must be a string"))
        };
        if json::int_value::<u64>("chaos_case", required("chaos_case")?)? != CHAOS_CASE_VERSION {
            return Err("unsupported chaos_case version".into());
        }
        let fabric = FabricKind::decode(&text("fabric")?, |name| json::int(&doc, name))?;
        let cache_word = if doc.get("cache").is_some() { text("cache")? } else { "none".into() };
        let cache = CacheModel::decode(&cache_word, [0; 4], |name| match json::int(&doc, name)? {
            None if cache_word != "none" => Err(format!("missing field `{name}`")),
            value => Ok(value),
        })?;
        let mut plan =
            FaultPlan { seed: json::int_value("seed", required("seed")?)?, ..FaultPlan::none() };
        for (name, knob) in FaultPlan::KNOBS {
            *knob(&mut plan) = json::int_value(name, required(name)?)?;
        }
        Ok(RunCell {
            scheme: text("scheme")?,
            fabric,
            iterations: i64::from(json::int_value::<u32>("iterations", required("iterations")?)?),
            processors: json::int_value("processors", required("processors")?)?,
            cache,
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasync_sim::{CoherenceProtocol, FaultClass};

    fn sample() -> RunCell {
        RunCell {
            scheme: "process".into(),
            fabric: FabricKind::Clustered { clusters: 2, bridge_latency: 3, coalesce_window: 0 },
            iterations: 9,
            processors: 4,
            cache: CacheModel::private(CoherenceProtocol::Dragon).geometry(4, 1, 2).sync_uncached(),
            plan: FaultPlan::only(FaultClass::StaleImage, u64::MAX, 60).merge(FaultPlan::only(
                FaultClass::ProcFailStop,
                0,
                80,
            )),
        }
    }

    #[test]
    fn reproducer_round_trips_every_knob() {
        let cell = sample();
        let doc = cell.to_json();
        assert!(doc.starts_with("{\n  \"chaos_case\": 1,\n  \"scheme\": \"process\",\n"), "{doc}");
        assert!(doc.ends_with("\n  \"fail_stop_window\": 384\n}\n"), "{doc}");
        assert_eq!(RunCell::from_json(&doc), Ok(cell));
    }

    #[test]
    fn scheme_keys_build_their_schemes() {
        for key in SCHEME_KEYS {
            assert!(scheme_for_key(key, 4).is_ok(), "{key}");
        }
        assert!(scheme_for_key("barrier", 6).is_err());
        assert!(scheme_for_key("quantum", 4).is_err());
        let cell = RunCell { processors: 8, ..sample() };
        let (compiled, config) = cell.compile().unwrap();
        assert!(config.validate().is_ok());
        assert!(config.max_cycles >= config.scaled_max_cycles(compiled.workload.programs.len()));
    }

    #[test]
    fn malformed_and_out_of_range_reproducers_are_rejected() {
        let doc = sample().to_json();
        assert!(RunCell::from_json("{}").unwrap_err().contains("chaos_case"));
        assert!(RunCell::from_json(&doc.replace("\"chaos_case\": 1", "\"chaos_case\": 2")).is_err());
        for (field, wrapped) in [
            ("\"clusters\": 2", "\"clusters\": 4294967298"),
            ("\"stale_window_max\": 64", "\"stale_window_max\": 4294967360"),
            ("\"cache_sets\": 4", "\"cache_sets\": -4"),
        ] {
            assert!(doc.contains(field), "{doc}");
            let err = RunCell::from_json(&doc.replace(field, wrapped)).unwrap_err();
            assert!(err.contains("out of range"), "{wrapped}: {err}");
        }
        let no_sets: String =
            doc.lines().filter(|l| !l.contains("cache_sets")).collect::<Vec<_>>().join("\n");
        assert!(RunCell::from_json(&no_sets).unwrap_err().contains("cache_sets"));
    }
}
