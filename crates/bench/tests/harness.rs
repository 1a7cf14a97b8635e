//! Harness regression tests: every registered experiment must run to
//! completion on a tiny store and produce printable lines plus a JSON
//! payload.

use appstore_core::Seed;
use bench::{run_experiment, run_experiments_observed, Stores, EXPERIMENT_IDS};

#[test]
fn every_experiment_runs_at_tiny_scale() {
    let seed = Seed::new(99);
    let stores = Stores::generate_all(64, seed.child("stores"));
    for id in EXPERIMENT_IDS {
        let result = run_experiment(id, &stores, seed.child("experiments"))
            .unwrap_or_else(|| panic!("unknown experiment id {id}"));
        assert_eq!(result.id, id);
        assert!(!result.lines.is_empty(), "{id} produced no output lines");
        assert!(!result.title.is_empty());
        assert!(result.json.is_object(), "{id} JSON not an object");
        // Rendering must include the id header.
        let rendered = result.render();
        assert!(rendered.contains(id), "{id} header missing");
    }
}

#[test]
fn unknown_experiment_is_rejected() {
    let seed = Seed::new(1);
    let stores = Stores::generate_all(256, seed);
    assert!(run_experiment("fig99", &stores, seed).is_none());
}

#[test]
fn experiments_are_deterministic() {
    let seed = Seed::new(7);
    let stores = Stores::generate_all(64, seed.child("stores"));
    for id in ["fig2", "fig5", "fig19", "recommend"] {
        let a = run_experiment(id, &stores, seed.child("experiments")).unwrap();
        let b = run_experiment(id, &stores, seed.child("experiments")).unwrap();
        assert_eq!(a.lines, b.lines, "{id} output not deterministic");
        assert_eq!(a.json, b.json, "{id} JSON not deterministic");
    }
}

/// The promise behind `repro --threads N`: the rendered output (and the
/// JSON series) must be byte-identical for any thread count, including
/// thread counts that exceed the experiment count.
#[test]
fn experiment_batches_are_thread_count_invariant() {
    let seed = Seed::new(7);
    let stores = Stores::generate_all(64, seed.child("stores"));
    let ids = ["table1", "fig8", "fig19", "ablate-p", "crawl-recovery"];
    let render_all = |threads: usize| -> (String, Vec<String>) {
        let results = run_experiments_observed(&ids, &stores, seed, threads, |_, _| {});
        let text: String = results.iter().map(|(r, _, _)| r.render()).collect();
        let json: Vec<String> = results
            .iter()
            .map(|(r, _, _)| serde_json::to_string_pretty(&r.json).expect("serialize"))
            .collect();
        (text, json)
    };
    let (serial_text, serial_json) = render_all(1);
    for threads in [2, 8] {
        let (text, json) = render_all(threads);
        assert_eq!(serial_text, text, "stdout differs at --threads {threads}");
        assert_eq!(serial_json, json, "JSON differs at --threads {threads}");
    }
}

/// Store generation through the threaded path must match the sequential
/// default for every thread count.
#[test]
fn store_generation_is_thread_count_invariant() {
    let seed = Seed::new(31);
    let serial = Stores::generate_all_threaded(128, seed, 1);
    let parallel = Stores::generate_all_threaded(128, seed, 4);
    assert_eq!(serial.bundles.len(), parallel.bundles.len());
    for (a, b) in serial.bundles.iter().zip(&parallel.bundles) {
        assert_eq!(a.profile.name, b.profile.name);
        assert_eq!(a.store.dataset, b.store.dataset);
    }
}
