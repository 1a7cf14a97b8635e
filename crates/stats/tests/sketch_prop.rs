//! Property tests for the mergeable sketches: the advertised error
//! bounds must hold on random *and* adversarial inputs, and merging must
//! commute/associate up to those bounds — the contract the out-of-core
//! shard folds rely on. The indexed [`SpaceSaving`] is also checked
//! against [`Reference`], the plain `BTreeMap` form of the algorithm,
//! for identical state after every operation.

use appstore_stats::{QuantileSketch, SpaceSaving};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Exact empirical quantile with the same convention the sketch uses
/// (rank = ceil(q·n), 1-based, clamped).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let target = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[target - 1]
}

/// Absolute rank error of reporting `approx` for quantile `q` of
/// `sorted`: distance from the target rank to the value's rank window.
fn rank_error(sorted: &[u64], q: f64, approx: u64) -> u64 {
    let lo = sorted.partition_point(|&v| v < approx) as u64;
    let hi = sorted.partition_point(|&v| v <= approx) as u64;
    let target = ((q * sorted.len() as f64).ceil() as u64).clamp(1, sorted.len() as u64);
    if target < lo {
        lo - target
    } else if target > hi {
        target - hi
    } else {
        0
    }
}

fn assert_within_bound(sketch: &QuantileSketch, mut values: Vec<u64>, label: &str) {
    values.sort_unstable();
    let bound = sketch.rank_error_bound();
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        let approx = sketch.quantile(q).expect("nonempty");
        let err = rank_error(&values, q, approx);
        assert!(
            err <= bound,
            "{label}: q={q} rank error {err} > advertised bound {bound}"
        );
    }
}

/// Deterministic Zipf-skewed value: heavy mass on small values.
fn zipf_value(i: u64) -> u64 {
    let u = ((i.wrapping_mul(2_654_435_761)) % 10_000) as f64 / 10_000.0;
    // Inverse-CDF of a rough power law on [1, 10_000].
    (10_000f64.powf(u).max(1.0)) as u64
}

/// The SpaceSaving algorithm in its plainest form: a `BTreeMap` of
/// `key → (estimate, overcount)`, with eviction and trimming by a linear
/// scan for the `(count, key)`-minimal entry. [`SpaceSaving`] must be
/// indistinguishable from it.
#[derive(Debug, Clone)]
struct Reference {
    capacity: usize,
    entries: BTreeMap<u64, (u64, u64)>,
    total: u64,
}

impl Reference {
    fn new(capacity: usize) -> Reference {
        Reference {
            capacity: capacity.max(1),
            entries: BTreeMap::new(),
            total: 0,
        }
    }

    fn offer(&mut self, key: u64, weight: u64) {
        self.total += weight;
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.0 += weight;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(key, (weight, 0));
            return;
        }
        let (&victim_key, &(victim_count, _)) = self
            .entries
            .iter()
            .min_by_key(|(&k, &(count, _))| (count, k))
            .expect("capacity >= 1");
        self.entries.remove(&victim_key);
        self.entries
            .insert(key, (victim_count + weight, victim_count));
    }

    fn merge(&mut self, other: &Reference) {
        let self_floor = self.min_count();
        let other_floor = other.min_count();
        let mut merged: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for (&key, &(count, over)) in &self.entries {
            let (extra, extra_over) = match other.entries.get(&key) {
                Some(&(c, o)) => (c, o),
                None => (other_floor, other_floor),
            };
            merged.insert(key, (count + extra, over + extra_over));
        }
        for (&key, &(count, over)) in &other.entries {
            merged
                .entry(key)
                .or_insert((count + self_floor, over + self_floor));
        }
        while merged.len() > self.capacity {
            let (&victim, _) = merged
                .iter()
                .min_by_key(|(&k, &(count, _))| (count, k))
                .expect("nonempty");
            merged.remove(&victim);
        }
        self.entries = merged;
        self.total += other.total;
    }

    fn min_count(&self) -> u64 {
        if self.entries.len() < self.capacity {
            return 0;
        }
        self.entries
            .values()
            .map(|&(count, _)| count)
            .min()
            .unwrap_or(0)
    }

    fn snapshot(&self) -> (Vec<(u64, u64, u64)>, u64) {
        let entries = self
            .entries
            .iter()
            .map(|(&key, &(count, over))| (key, count, over))
            .collect();
        (entries, self.total)
    }

    fn restore(capacity: usize, entries: &[(u64, u64, u64)], total: u64) -> Reference {
        let mut summary = Reference::new(capacity);
        let mut sorted: Vec<(u64, u64, u64)> = entries.to_vec();
        sorted.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        sorted.truncate(summary.capacity);
        for (key, count, over) in sorted {
            summary.entries.insert(key, (count, over));
        }
        summary.total = total;
        summary
    }

    fn top(&self, k: usize) -> Vec<(u64, u64, u64)> {
        let (mut all, _) = self.snapshot();
        all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }
}

/// Asserts every observable of `ss` equals the reference's.
fn assert_same(ss: &SpaceSaving, reference: &Reference, label: &str) {
    assert_eq!(ss.snapshot(), reference.snapshot(), "{label}: snapshot");
    assert_eq!(ss.min_count(), reference.min_count(), "{label}: min_count");
    assert_eq!(ss.total(), reference.total, "{label}: total");
    let capacity = reference.capacity;
    for k in [0, 1, capacity / 2, capacity, capacity + 3] {
        assert_eq!(ss.top(k), reference.top(k), "{label}: top({k})");
    }
}

/// Maps a drawn `(raw key, raw weight)` onto a key space of
/// `key_space` keys (small spaces tie heavily) and a weight that is 1
/// unless `weighted`.
fn stream(raw: &[(u64, u64)], key_space: u64, weighted: bool) -> Vec<(u64, u64)> {
    raw.iter()
        .map(|&(key, weight)| (key % key_space, if weighted { weight } else { 1 }))
        .collect()
}

/// Offers `items` to both summaries, comparing state after each offer.
fn offer_both(ss: &mut SpaceSaving, reference: &mut Reference, items: &[(u64, u64)], label: &str) {
    for (i, &(key, weight)) in items.iter().enumerate() {
        ss.offer(key, weight);
        reference.offer(key, weight);
        assert_eq!(ss.snapshot(), reference.snapshot(), "{label}: offer {i}");
    }
    assert_same(ss, reference, label);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn quantiles_within_bound_on_random_input(
        values in proptest::collection::vec(0u64..1_000_000, 1..4000),
        k in 8usize..128,
    ) {
        let mut sketch = QuantileSketch::new(k);
        for &v in &values {
            sketch.offer(v);
        }
        prop_assert_eq!(sketch.count(), values.len() as u64);
        assert_within_bound(&sketch, values, "random");
    }

    #[test]
    fn quantiles_within_bound_on_adversarial_shapes(
        n in 100usize..3000,
        k in 8usize..64,
        shape in 0usize..3,
    ) {
        let values: Vec<u64> = match shape {
            0 => (0..n as u64).map(zipf_value).collect(),      // Zipf-skewed
            1 => vec![42; n],                                  // all-equal
            _ => (0..n as u64).collect(),                      // sorted ramp
        };
        let mut sketch = QuantileSketch::new(k);
        for &v in &values {
            sketch.offer(v);
        }
        let label = ["zipf", "all-equal", "sorted"][shape];
        assert_within_bound(&sketch, values, label);
    }

    #[test]
    fn merge_is_commutative_and_associative_within_bounds(
        a in proptest::collection::vec(0u64..100_000, 1..1200),
        b in proptest::collection::vec(0u64..100_000, 1..1200),
        c in proptest::collection::vec(0u64..100_000, 1..1200),
        k in 16usize..64,
    ) {
        let build = |chunks: &[&Vec<u64>]| {
            let mut sketch = QuantileSketch::new(k);
            for chunk in chunks {
                let mut part = QuantileSketch::new(k);
                for &v in chunk.iter() {
                    part.offer(v);
                }
                sketch.merge(&part);
            }
            sketch
        };
        let abc = build(&[&a, &b, &c]);
        let cba = build(&[&c, &b, &a]);
        // (a⊕b)⊕c vs a⊕(b⊕c): fold the right pair first.
        let mut bc = QuantileSketch::new(k);
        for &v in b.iter().chain(c.iter()) {
            bc.offer(v);
        }
        let mut a_bc = build(&[&a]);
        a_bc.merge(&bc);

        let mut all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(abc.count(), all.len() as u64);
        prop_assert_eq!(cba.count(), all.len() as u64);
        prop_assert_eq!(a_bc.count(), all.len() as u64);
        // Every merge order answers within its own advertised bound of
        // the exact quantile — the fold contract the shards rely on.
        for sketch in [&abc, &cba, &a_bc] {
            assert_within_bound(sketch, all.clone(), "merge-order");
        }
    }

    #[test]
    fn exactness_below_capacity(
        values in proptest::collection::vec(0u64..1000, 1..64),
    ) {
        // A sketch that never compacts advertises bound 0 and must be
        // exactly the empirical quantile function.
        let mut sketch = QuantileSketch::new(64);
        for &v in &values {
            sketch.offer(v);
        }
        prop_assert_eq!(sketch.rank_error_bound(), 0);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.3, 0.5, 0.8, 1.0] {
            prop_assert_eq!(sketch.quantile(q), Some(exact_quantile(&sorted, q)));
        }
    }

    #[test]
    fn space_saving_brackets_truth_and_contains_heavy_hitters(
        keys in proptest::collection::vec(0u64..50, 1..2000),
        capacity in 4usize..24,
    ) {
        let mut ss = SpaceSaving::new(capacity);
        let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
        for &key in &keys {
            ss.offer(key, 1);
            *truth.entry(key).or_default() += 1;
        }
        prop_assert_eq!(ss.total(), keys.len() as u64);
        let top = ss.top(capacity);
        for &(key, est, over) in &top {
            let true_count = truth.get(&key).copied().unwrap_or(0);
            prop_assert!(est >= true_count, "estimate undercounts key {key}");
            prop_assert!(est - over <= true_count, "floor overcounts key {key}");
        }
        // Guaranteed containment: true count above min_count ⇒ tracked.
        let floor = ss.min_count();
        for (&key, &count) in &truth {
            if count > floor {
                prop_assert!(
                    top.iter().any(|&(k, _, _)| k == key),
                    "key {key} with true count {count} > floor {floor} missing"
                );
            }
        }
    }

    #[test]
    fn space_saving_merge_preserves_guarantees(
        left_keys in proptest::collection::vec(0u64..40, 1..1000),
        right_keys in proptest::collection::vec(0u64..40, 1..1000),
        capacity in 4usize..16,
    ) {
        let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
        let mut left = SpaceSaving::new(capacity);
        for &key in &left_keys {
            left.offer(key, 1);
            *truth.entry(key).or_default() += 1;
        }
        let mut right = SpaceSaving::new(capacity);
        for &key in &right_keys {
            right.offer(key, 1);
            *truth.entry(key).or_default() += 1;
        }
        let mut forward = left.clone();
        forward.merge(&right);
        let mut backward = right.clone();
        backward.merge(&left);
        for merged in [&forward, &backward] {
            prop_assert_eq!(merged.total(), (left_keys.len() + right_keys.len()) as u64);
            let top = merged.top(capacity);
            for &(key, est, over) in &top {
                let true_count = truth.get(&key).copied().unwrap_or(0);
                prop_assert!(est >= true_count);
                prop_assert!(est - over <= true_count);
            }
            let floor = merged.min_count();
            for (&key, &count) in &truth {
                if count > floor {
                    prop_assert!(top.iter().any(|&(k, _, _)| k == key));
                }
            }
        }
    }

    #[test]
    fn space_saving_matches_reference(
        raw in proptest::collection::vec((0u64..1_000_000, 1u64..6), 0..3000),
        capacity in 1usize..65,
        key_space in 1u64..200,
        weighted in any::<bool>(),
    ) {
        let items = stream(&raw, key_space, weighted);
        let mut ss = SpaceSaving::new(capacity);
        let mut reference = Reference::new(capacity);
        offer_both(&mut ss, &mut reference, &items, "offers");
    }

    #[test]
    fn space_saving_matches_reference_after_restore(
        raw in proptest::collection::vec((0u64..1_000_000, 1u64..6), 0..1500),
        entries in proptest::collection::vec((0u64..60, 0u64..40, 0u64..8), 0..100),
        capacity in 1usize..65,
        restored_capacity in 1usize..65,
        key_space in 1u64..120,
        weighted in any::<bool>(),
    ) {
        let items = stream(&raw, key_space, weighted);
        let (head, tail) = items.split_at(items.len() / 2);
        let mut ss = SpaceSaving::new(capacity);
        let mut reference = Reference::new(capacity);
        offer_both(&mut ss, &mut reference, head, "before checkpoint");
        // Round trip through a checkpoint, possibly into a smaller summary.
        let (snapshot, total) = ss.snapshot();
        let mut ss = SpaceSaving::restore(restored_capacity, &snapshot, total);
        let mut reference = Reference::restore(restored_capacity, &snapshot, total);
        offer_both(&mut ss, &mut reference, tail, "after restore");
        // Arbitrary entry lists, duplicate keys included.
        let mut ss = SpaceSaving::restore(restored_capacity, &entries, 7);
        let mut reference = Reference::restore(restored_capacity, &entries, 7);
        offer_both(&mut ss, &mut reference, tail, "after arbitrary restore");
    }

    #[test]
    fn space_saving_matches_reference_after_merge(
        left_raw in proptest::collection::vec((0u64..1_000_000, 1u64..6), 0..1200),
        right_raw in proptest::collection::vec((0u64..1_000_000, 1u64..6), 0..1200),
        capacities in (1usize..65, 1usize..65),
        key_space in 1u64..150,
        weighted in any::<bool>(),
    ) {
        let (left_capacity, right_capacity) = capacities;
        let left_items = stream(&left_raw, key_space, weighted);
        let right_items = stream(&right_raw, key_space, weighted);
        let mut left = SpaceSaving::new(left_capacity);
        let mut left_ref = Reference::new(left_capacity);
        offer_both(&mut left, &mut left_ref, &left_items, "left");
        let mut right = SpaceSaving::new(right_capacity);
        let mut right_ref = Reference::new(right_capacity);
        offer_both(&mut right, &mut right_ref, &right_items, "right");
        for (mut ss, mut reference, other, other_ref, label) in [
            (left.clone(), left_ref.clone(), &right, &right_ref, "left+right"),
            (right.clone(), right_ref.clone(), &left, &left_ref, "right+left"),
        ] {
            ss.merge(other);
            reference.merge(other_ref);
            assert_same(&ss, &reference, label);
            offer_both(&mut ss, &mut reference, &left_items, label);
        }
    }
}
