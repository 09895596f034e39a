//! Wire-format corpus: literal bytes and content hashes of every
//! serialization the workspace hashes, journals or replays.
//!
//! Serve keys its run cache, journal and quarantine by the FNV-1a hash
//! of `CellSpec::canonical_json`; the aggregate hash folds
//! `CellRecord::to_json` lines; chaos reproducers replay from their
//! flat JSON alone. A refactor of any of those writers must keep these
//! bytes identical, or journals and reproducers on disk stop matching.

use datasync_bench::chaos;
use datasync_serve::hash::fnv1a_hex;
use datasync_serve::{CellRecord, CellSpec};
use datasync_sim::{CacheModel, CoherenceProtocol, FabricKind};

/// The pinned cells, in the order of [`CELL_BYTES`].
fn cells() -> Vec<CellSpec> {
    let d = CellSpec::default;
    vec![
        d(),
        CellSpec { fabric: FabricKind::Shared, ..d() },
        CellSpec { fabric: FabricKind::Ideal, iterations: 9, ..d() },
        CellSpec {
            fabric: FabricKind::Clustered { clusters: 2, bridge_latency: 3, coalesce_window: 7 },
            processors: 8,
            ..d()
        },
        CellSpec { cache: CacheModel::private(CoherenceProtocol::Mesi).geometry(16, 2, 4), ..d() },
        CellSpec {
            scheme: "reference".into(),
            cache: CacheModel::private(CoherenceProtocol::Dragon)
                .geometry(64, 2, 4)
                .sync_uncached(),
            ..d()
        },
        CellSpec { fault_pct: 40, seed: 7, ..d() },
        CellSpec {
            scheme: "barrier".into(),
            processors: 8,
            iterations: 32,
            seed: u64::MAX,
            deadline_cycles: 123_456,
            ..d()
        },
    ]
}

/// `(canonical_json, content_hash)` of each cell in [`cells`].
const CELL_BYTES: [(&str, &str); 8] = [
    (
        r#"{"cell_spec":1,"scheme":"process","fabric":"dedicated","iterations":16,"processors":4,"cache":"none","cache_sets":0,"cache_assoc":0,"cache_line":0,"cache_sync":0,"fault_pct":0,"seed":0,"deadline_cycles":0}"#,
        "7e0bd8b07a1e271e",
    ),
    (
        r#"{"cell_spec":1,"scheme":"process","fabric":"shared","iterations":16,"processors":4,"cache":"none","cache_sets":0,"cache_assoc":0,"cache_line":0,"cache_sync":0,"fault_pct":0,"seed":0,"deadline_cycles":0}"#,
        "1320e85a9495c45a",
    ),
    (
        r#"{"cell_spec":1,"scheme":"process","fabric":"ideal","iterations":9,"processors":4,"cache":"none","cache_sets":0,"cache_assoc":0,"cache_line":0,"cache_sync":0,"fault_pct":0,"seed":0,"deadline_cycles":0}"#,
        "4bafed7ce385a024",
    ),
    (
        r#"{"cell_spec":1,"scheme":"process","fabric":"clustered","clusters":2,"bridge_latency":3,"coalesce_window":7,"iterations":16,"processors":8,"cache":"none","cache_sets":0,"cache_assoc":0,"cache_line":0,"cache_sync":0,"fault_pct":0,"seed":0,"deadline_cycles":0}"#,
        "2a5fdd08c9517d29",
    ),
    (
        r#"{"cell_spec":1,"scheme":"process","fabric":"dedicated","iterations":16,"processors":4,"cache":"mesi","cache_sets":16,"cache_assoc":2,"cache_line":4,"cache_sync":1,"fault_pct":0,"seed":0,"deadline_cycles":0}"#,
        "560b79d7438987ee",
    ),
    (
        r#"{"cell_spec":1,"scheme":"reference","fabric":"dedicated","iterations":16,"processors":4,"cache":"dragon","cache_sets":64,"cache_assoc":2,"cache_line":4,"cache_sync":0,"fault_pct":0,"seed":0,"deadline_cycles":0}"#,
        "1854bd246de321d3",
    ),
    (
        r#"{"cell_spec":1,"scheme":"process","fabric":"dedicated","iterations":16,"processors":4,"cache":"none","cache_sets":0,"cache_assoc":0,"cache_line":0,"cache_sync":0,"fault_pct":40,"seed":7,"deadline_cycles":0}"#,
        "3a7d85c06da2e091",
    ),
    (
        r#"{"cell_spec":1,"scheme":"barrier","fabric":"dedicated","iterations":32,"processors":8,"cache":"none","cache_sets":0,"cache_assoc":0,"cache_line":0,"cache_sync":0,"fault_pct":0,"seed":18446744073709551615,"deadline_cycles":123456}"#,
        "2022d8c5a2e05f62",
    ),
];

#[test]
fn canonical_cell_bytes_and_hashes_are_pinned() {
    for (spec, (bytes, hash)) in cells().iter().zip(CELL_BYTES) {
        assert_eq!(spec.canonical_json(), bytes);
        assert_eq!(spec.content_hash(), hash, "{bytes}");
        assert_eq!(CellSpec::parse(bytes).as_ref(), Ok(spec), "{bytes}");
    }
}

#[test]
fn record_line_bytes_and_hash_are_pinned() {
    let spec = cells()[6].clone();
    let record = CellRecord {
        hash: spec.content_hash(),
        spec,
        status: "recovered".into(),
        makespan: 1234,
        attempts: 2,
        budget: 4_000_000,
        detail: "recovered(\"2\" rungs)\\\t".into(),
    };
    let line = record.to_json();
    assert_eq!(
        line,
        r#"{"schema_version":1,"hash":"3a7d85c06da2e091","status":"recovered","makespan":1234,"attempts":2,"budget":4000000,"detail":"recovered(\"2\" rungs)\\\t","spec":{"cell_spec":1,"scheme":"process","fabric":"dedicated","iterations":16,"processors":4,"cache":"none","cache_sets":0,"cache_assoc":0,"cache_line":0,"cache_sync":0,"fault_pct":40,"seed":7,"deadline_cycles":0}}"#
    );
    assert_eq!(fnv1a_hex(line.as_bytes()), "ac57bfe099458108");
    assert_eq!(CellRecord::parse(&line), Ok(record));
}

/// The chaos reproducer of fuzz cell `index` of master seed 1989.
fn chaos_doc(index: usize) -> String {
    chaos::generate(1989, index).to_json()
}

/// `(to_json, fnv1a_hex)` of fuzz cells 0..8 of seed 1989: cells 0, 1
/// and 3 are clustered, cells 1 and 3 are cached.
const CHAOS_DOCS: [(&str, &str); 8] = [
    (
        r#"{
  "chaos_case": 1,
  "scheme": "instance",
  "fabric": "clustered",
  "iterations": 9,
  "processors": 3,
  "seed": 7944991285606515369,
  "cache": "none",
  "clusters": 1,
  "bridge_latency": 4,
  "coalesce_window": 2,
  "cache_sets": 0,
  "cache_assoc": 0,
  "cache_line": 0,
  "cache_sync": 0,
  "broadcast_delay_pct": 0,
  "broadcast_delay_max": 0,
  "broadcast_reorder_pct": 0,
  "broadcast_drop_pct": 0,
  "max_redeliveries": 0,
  "stale_image_pct": 68,
  "stale_window_max": 72,
  "stall_mean_interval": 0,
  "stall_max": 0,
  "data_jitter_pct": 0,
  "data_jitter_max": 0,
  "broadcast_loss_pct": 0,
  "fail_stop_procs": 0,
  "fail_stop_window": 0
}
"#,
        "182dabf5988f24f7",
    ),
    (
        r#"{
  "chaos_case": 1,
  "scheme": "process",
  "fabric": "clustered",
  "iterations": 7,
  "processors": 2,
  "seed": 897223015674590849,
  "cache": "mesi",
  "clusters": 2,
  "bridge_latency": 3,
  "coalesce_window": 2,
  "cache_sets": 16,
  "cache_assoc": 1,
  "cache_line": 4,
  "cache_sync": 1,
  "broadcast_delay_pct": 71,
  "broadcast_delay_max": 75,
  "broadcast_reorder_pct": 23,
  "broadcast_drop_pct": 11,
  "max_redeliveries": 3,
  "stale_image_pct": 0,
  "stale_window_max": 0,
  "stall_mean_interval": 80,
  "stall_max": 108,
  "data_jitter_pct": 67,
  "data_jitter_max": 71,
  "broadcast_loss_pct": 76,
  "fail_stop_procs": 0,
  "fail_stop_window": 0
}
"#,
        "a8ff8cb72ca9d92f",
    ),
    (
        r#"{
  "chaos_case": 1,
  "scheme": "reference",
  "fabric": "dedicated",
  "iterations": 7,
  "processors": 2,
  "seed": 12670661093115639343,
  "cache": "none",
  "clusters": 0,
  "bridge_latency": 0,
  "coalesce_window": 0,
  "cache_sets": 0,
  "cache_assoc": 0,
  "cache_line": 0,
  "cache_sync": 0,
  "broadcast_delay_pct": 76,
  "broadcast_delay_max": 80,
  "broadcast_reorder_pct": 0,
  "broadcast_drop_pct": 0,
  "max_redeliveries": 0,
  "stale_image_pct": 68,
  "stale_window_max": 72,
  "stall_mean_interval": 0,
  "stall_max": 0,
  "data_jitter_pct": 0,
  "data_jitter_max": 0,
  "broadcast_loss_pct": 0,
  "fail_stop_procs": 0,
  "fail_stop_window": 0
}
"#,
        "81201e35fcd6cbe7",
    ),
    (
        r#"{
  "chaos_case": 1,
  "scheme": "instance",
  "fabric": "clustered",
  "iterations": 13,
  "processors": 2,
  "seed": 10503247442567075678,
  "cache": "dragon",
  "clusters": 1,
  "bridge_latency": 3,
  "coalesce_window": 1,
  "cache_sets": 64,
  "cache_assoc": 1,
  "cache_line": 4,
  "cache_sync": 1,
  "broadcast_delay_pct": 0,
  "broadcast_delay_max": 0,
  "broadcast_reorder_pct": 0,
  "broadcast_drop_pct": 0,
  "max_redeliveries": 0,
  "stale_image_pct": 0,
  "stale_window_max": 0,
  "stall_mean_interval": 0,
  "stall_max": 0,
  "data_jitter_pct": 61,
  "data_jitter_max": 65,
  "broadcast_loss_pct": 95,
  "fail_stop_procs": 2,
  "fail_stop_window": 192
}
"#,
        "eac8acc54a316077",
    ),
    (
        r#"{
  "chaos_case": 1,
  "scheme": "statement",
  "fabric": "dedicated",
  "iterations": 8,
  "processors": 3,
  "seed": 859020438603593017,
  "cache": "none",
  "clusters": 0,
  "bridge_latency": 0,
  "coalesce_window": 0,
  "cache_sets": 0,
  "cache_assoc": 0,
  "cache_line": 0,
  "cache_sync": 0,
  "broadcast_delay_pct": 0,
  "broadcast_delay_max": 0,
  "broadcast_reorder_pct": 0,
  "broadcast_drop_pct": 0,
  "max_redeliveries": 0,
  "stale_image_pct": 0,
  "stale_window_max": 0,
  "stall_mean_interval": 62,
  "stall_max": 136,
  "data_jitter_pct": 0,
  "data_jitter_max": 0,
  "broadcast_loss_pct": 0,
  "fail_stop_procs": 0,
  "fail_stop_window": 0
}
"#,
        "f51d47c7b9952178",
    ),
    (
        r#"{
  "chaos_case": 1,
  "scheme": "statement",
  "fabric": "dedicated",
  "iterations": 5,
  "processors": 2,
  "seed": 1076037987749521441,
  "cache": "none",
  "clusters": 0,
  "bridge_latency": 0,
  "coalesce_window": 0,
  "cache_sets": 0,
  "cache_assoc": 0,
  "cache_line": 0,
  "cache_sync": 0,
  "broadcast_delay_pct": 0,
  "broadcast_delay_max": 0,
  "broadcast_reorder_pct": 67,
  "broadcast_drop_pct": 0,
  "max_redeliveries": 0,
  "stale_image_pct": 0,
  "stale_window_max": 0,
  "stall_mean_interval": 43,
  "stall_max": 192,
  "data_jitter_pct": 0,
  "data_jitter_max": 0,
  "broadcast_loss_pct": 0,
  "fail_stop_procs": 0,
  "fail_stop_window": 0
}
"#,
        "df40c95125a9180c",
    ),
    (
        r#"{
  "chaos_case": 1,
  "scheme": "reference",
  "fabric": "shared",
  "iterations": 10,
  "processors": 4,
  "seed": 1654693747795618925,
  "cache": "none",
  "clusters": 0,
  "bridge_latency": 0,
  "coalesce_window": 0,
  "cache_sets": 0,
  "cache_assoc": 0,
  "cache_line": 0,
  "cache_sync": 0,
  "broadcast_delay_pct": 0,
  "broadcast_delay_max": 0,
  "broadcast_reorder_pct": 0,
  "broadcast_drop_pct": 0,
  "max_redeliveries": 0,
  "stale_image_pct": 0,
  "stale_window_max": 0,
  "stall_mean_interval": 200,
  "stall_max": 48,
  "data_jitter_pct": 20,
  "data_jitter_max": 24,
  "broadcast_loss_pct": 0,
  "fail_stop_procs": 1,
  "fail_stop_window": 1488
}
"#,
        "455522a10a7e8be7",
    ),
    (
        r#"{
  "chaos_case": 1,
  "scheme": "instance",
  "fabric": "dedicated",
  "iterations": 7,
  "processors": 4,
  "seed": 4617266798351313210,
  "cache": "none",
  "clusters": 0,
  "bridge_latency": 0,
  "coalesce_window": 0,
  "cache_sets": 0,
  "cache_assoc": 0,
  "cache_line": 0,
  "cache_sync": 0,
  "broadcast_delay_pct": 0,
  "broadcast_delay_max": 0,
  "broadcast_reorder_pct": 55,
  "broadcast_drop_pct": 0,
  "max_redeliveries": 0,
  "stale_image_pct": 56,
  "stale_window_max": 60,
  "stall_mean_interval": 0,
  "stall_max": 0,
  "data_jitter_pct": 0,
  "data_jitter_max": 0,
  "broadcast_loss_pct": 41,
  "fail_stop_procs": 0,
  "fail_stop_window": 0
}
"#,
        "72dda6718a28a362",
    ),
];

#[test]
fn chaos_reproducer_bytes_and_hashes_are_pinned() {
    for (index, (bytes, hash)) in CHAOS_DOCS.iter().enumerate() {
        let doc = chaos_doc(index);
        assert_eq!(doc, *bytes, "cell {index}");
        assert_eq!(fnv1a_hex(doc.as_bytes()), *hash, "cell {index}");
    }
}
