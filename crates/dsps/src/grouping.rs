//! Runtime grouping execution: mapping an emitted tuple to destination
//! task ids.
//!
//! The three strategies of §1: *shuffle grouping* (load-balance, one
//! destination), *key/fields grouping* (hash of a key field, one
//! destination), and *all grouping* (one-to-many: every downstream task) —
//! plus direct addressing.

use crate::codec::ValueView;
use crate::task::TaskId;
use crate::topology::Grouping;
use crate::tuple::{Tuple, Value};

/// Why a tuple could not be routed. Routing errors come from tuple
/// *data* (a malformed or foreign tuple), so the runtime drops the tuple
/// and counts it instead of crashing the pipeline. Misuse of the API
/// itself (`Direct` without a destination) still panics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteError {
    /// The tuple lacks the field a fields grouping hashes.
    MissingKeyField(usize),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::MissingKeyField(idx) => write!(f, "tuple lacks key field {idx}"),
        }
    }
}

impl std::error::Error for RouteError {}

/// A stateful executor of one grouping over a fixed destination task list.
#[derive(Clone, Debug)]
pub struct GroupingExec {
    grouping: Grouping,
    targets: Vec<TaskId>,
    rr_next: usize,
}

impl GroupingExec {
    /// Create for a grouping and the downstream component's task ids.
    pub fn new(grouping: Grouping, targets: Vec<TaskId>) -> Self {
        Self::with_rr_seed(grouping, targets, 0)
    }

    /// Like [`GroupingExec::new`], but the shuffle round-robin cursor
    /// starts at `seed % targets.len()` instead of 0. Cloned or
    /// per-shard routers seeded differently (e.g. by source task id or
    /// shard index) spread their first emissions across the target list
    /// instead of all hitting `targets[0]` first.
    pub fn with_rr_seed(grouping: Grouping, targets: Vec<TaskId>, seed: u64) -> Self {
        assert!(!targets.is_empty(), "grouping needs at least one target");
        let rr_next = (seed % targets.len() as u64) as usize;
        GroupingExec {
            grouping,
            targets,
            rr_next,
        }
    }

    /// The destination task list.
    pub fn targets(&self) -> &[TaskId] {
        &self.targets
    }

    /// The grouping strategy.
    pub fn grouping(&self) -> &Grouping {
        &self.grouping
    }

    /// Destinations for one tuple, as a fresh vector. For `Direct`, pass
    /// the chosen task in `direct`; it must be one of the targets.
    pub fn route(&mut self, tuple: &Tuple, direct: Option<TaskId>) -> Result<Vec<TaskId>, RouteError> {
        let mut out = Vec::new();
        self.route_into(tuple, direct, &mut out)?;
        Ok(out)
    }

    /// Destinations for one tuple, appended into a caller-owned buffer
    /// (cleared first). The hot path reuses one buffer per pipeline, so
    /// steady-state routing allocates nothing — `All` in particular
    /// copies into the scratch instead of cloning the target list.
    pub fn route_into(
        &mut self,
        tuple: &Tuple,
        direct: Option<TaskId>,
        out: &mut Vec<TaskId>,
    ) -> Result<(), RouteError> {
        self.route_by(|i| tuple.get(i).map(ValueView::from), direct, out)
    }

    /// [`Self::route_into`] with the key field read by `field`: how the
    /// runtime routes a tuple it holds only as a wire view.
    pub(crate) fn route_by<'k>(
        &mut self,
        field: impl FnOnce(usize) -> Option<ValueView<'k>>,
        direct: Option<TaskId>,
        out: &mut Vec<TaskId>,
    ) -> Result<(), RouteError> {
        out.clear();
        match &self.grouping {
            Grouping::Shuffle => {
                // Storm's shuffle is round-robin over the target list.
                let t = self.targets[self.rr_next % self.targets.len()];
                self.rr_next = (self.rr_next + 1) % self.targets.len();
                out.push(t);
            }
            Grouping::Fields(idx) => {
                let key = field(*idx).ok_or(RouteError::MissingKeyField(*idx))?;
                let h = hash_value_view(&key);
                out.push(self.targets[(h % self.targets.len() as u64) as usize]);
            }
            Grouping::All => out.extend_from_slice(&self.targets),
            Grouping::Direct => {
                let t = direct.expect("direct grouping requires an explicit destination");
                assert!(
                    self.targets.contains(&t),
                    "direct destination {t} is not a subscriber"
                );
                out.push(t);
            }
        }
        Ok(())
    }
}

/// Stable FNV-1a hash of a value, used by fields grouping so the same key
/// always lands on the same task across runs and platforms.
///
/// Float keys hash by *value*, not bit pattern: `-0.0` is normalized to
/// `0.0` (they compare equal, so they must route together), and every
/// NaN collapses to the one canonical quiet NaN — NaN keys never compare
/// equal, but a stable single bucket beats scattering payload-dependent
/// NaN bit patterns across tasks.
pub fn hash_value(v: &Value) -> u64 {
    // One implementation serves both the owned and the borrowed path, so
    // a key routes identically whether it was materialized or read in
    // place off the wire.
    hash_value_view(&ValueView::from(v))
}

/// [`hash_value`] over a borrowed wire view — same FNV-1a stream, same
/// float normalization, no allocation.
pub fn hash_value_view(v: &ValueView<'_>) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    match v {
        ValueView::I64(x) => feed(&x.to_le_bytes()),
        ValueView::F64(x) => {
            let bits = if x.is_nan() {
                f64::NAN.to_bits()
            } else if *x == 0.0 {
                0.0f64.to_bits()
            } else {
                x.to_bits()
            };
            feed(&bits.to_le_bytes());
        }
        ValueView::Str(s) => feed(s.as_bytes()),
        ValueView::Bytes(b) => feed(b),
        ValueView::Bool(b) => feed(&[*b as u8]),
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets(n: u32) -> Vec<TaskId> {
        (0..n).map(TaskId).collect()
    }

    fn key_tuple(k: &str) -> Tuple {
        Tuple::new(vec![Value::str(k)])
    }

    #[test]
    fn shuffle_round_robins() {
        let mut g = GroupingExec::new(Grouping::Shuffle, targets(3));
        let t = key_tuple("x");
        let seq: Vec<TaskId> = (0..6).flat_map(|_| g.route(&t, None).unwrap()).collect();
        assert_eq!(
            seq,
            vec![
                TaskId(0),
                TaskId(1),
                TaskId(2),
                TaskId(0),
                TaskId(1),
                TaskId(2)
            ]
        );
    }

    #[test]
    fn seeded_shuffle_offsets_the_cursor() {
        let mut g = GroupingExec::with_rr_seed(Grouping::Shuffle, targets(3), 5);
        let t = key_tuple("x");
        let seq: Vec<TaskId> = (0..3).flat_map(|_| g.route(&t, None).unwrap()).collect();
        assert_eq!(seq, vec![TaskId(2), TaskId(0), TaskId(1)]);
    }

    #[test]
    fn seeded_clones_spread_first_emissions_near_uniformly() {
        // N cloned routers with distinct seeds: their combined first
        // emissions should be near-uniform, not all on targets[0].
        let n_targets = 4u32;
        let clones = 64u64;
        let mut hits = vec![0u32; n_targets as usize];
        let t = key_tuple("x");
        for seed in 0..clones {
            let mut g =
                GroupingExec::with_rr_seed(Grouping::Shuffle, targets(n_targets), seed);
            let dst = g.route(&t, None).unwrap()[0];
            hits[dst.0 as usize] += 1;
        }
        let expected = clones as u32 / n_targets;
        for (i, &h) in hits.iter().enumerate() {
            assert_eq!(h, expected, "target {i} got {h}, want {expected}");
        }
    }

    #[test]
    fn fields_grouping_is_sticky() {
        let mut g = GroupingExec::new(Grouping::Fields(0), targets(8));
        let a1 = g.route(&key_tuple("driver-1"), None).unwrap();
        let a2 = g.route(&key_tuple("driver-1"), None).unwrap();
        assert_eq!(a1, a2, "same key must route to the same task");
        assert_eq!(a1.len(), 1);
    }

    #[test]
    fn fields_grouping_spreads_keys() {
        let mut g = GroupingExec::new(Grouping::Fields(0), targets(16));
        let mut seen = std::collections::HashSet::new();
        for i in 0..200 {
            let dst = g.route(&key_tuple(&format!("key-{i}")), None).unwrap()[0];
            seen.insert(dst);
        }
        assert!(
            seen.len() >= 12,
            "200 keys over 16 tasks should hit most tasks"
        );
    }

    #[test]
    fn missing_key_field_is_an_error_not_a_panic() {
        let mut g = GroupingExec::new(Grouping::Fields(3), targets(4));
        let err = g.route(&key_tuple("only-one-field"), None).unwrap_err();
        assert_eq!(err, RouteError::MissingKeyField(3));
    }

    #[test]
    fn negative_zero_routes_with_positive_zero() {
        // -0.0 == 0.0, so an f64 key grouping must send both to the same
        // task; hashing raw bits would split them.
        assert_eq!(hash_value(&Value::F64(0.0)), hash_value(&Value::F64(-0.0)));
        let mut g = GroupingExec::new(Grouping::Fields(0), targets(16));
        let pos = g.route(&Tuple::new(vec![Value::F64(0.0)]), None).unwrap();
        let neg = g.route(&Tuple::new(vec![Value::F64(-0.0)]), None).unwrap();
        assert_eq!(pos, neg);
    }

    #[test]
    fn every_nan_hashes_to_one_bucket() {
        let quiet = f64::NAN;
        let weird = f64::from_bits(0x7ff8_0000_dead_beef);
        assert!(weird.is_nan());
        assert_eq!(hash_value(&Value::F64(quiet)), hash_value(&Value::F64(weird)));
    }

    #[test]
    fn all_grouping_hits_everyone() {
        let mut g = GroupingExec::new(Grouping::All, targets(5));
        let dsts = g.route(&key_tuple("x"), None).unwrap();
        assert_eq!(dsts, targets(5));
    }

    #[test]
    fn route_into_reuses_the_buffer() {
        let mut g = GroupingExec::new(Grouping::All, targets(5));
        let mut out = Vec::with_capacity(8);
        g.route_into(&key_tuple("x"), None, &mut out).unwrap();
        assert_eq!(out, targets(5));
        let cap = out.capacity();
        g.route_into(&key_tuple("y"), None, &mut out).unwrap();
        assert_eq!(out, targets(5));
        assert_eq!(out.capacity(), cap, "steady-state routing must not regrow");
    }

    #[test]
    fn direct_grouping_uses_choice() {
        let mut g = GroupingExec::new(Grouping::Direct, targets(4));
        let dsts = g.route(&key_tuple("x"), Some(TaskId(2))).unwrap();
        assert_eq!(dsts, vec![TaskId(2)]);
    }

    #[test]
    #[should_panic(expected = "not a subscriber")]
    fn direct_to_non_subscriber_panics() {
        let mut g = GroupingExec::new(Grouping::Direct, targets(2));
        let _ = g.route(&key_tuple("x"), Some(TaskId(9)));
    }

    #[test]
    #[should_panic(expected = "requires an explicit destination")]
    fn direct_without_choice_panics() {
        let mut g = GroupingExec::new(Grouping::Direct, targets(2));
        let _ = g.route(&key_tuple("x"), None);
    }

    #[test]
    fn hash_value_distinguishes_types() {
        // Same bit pattern, different types should not be forced equal.
        let a = hash_value(&Value::str("abc"));
        let b = hash_value(&Value::str("abd"));
        assert_ne!(a, b);
        assert_eq!(hash_value(&Value::I64(5)), hash_value(&Value::I64(5)));
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn empty_targets_rejected() {
        let _ = GroupingExec::new(Grouping::Shuffle, vec![]);
    }

    #[test]
    fn hash_view_equals_hash_owned_for_every_type() {
        let values = [
            Value::I64(-3),
            Value::F64(2.5),
            Value::F64(-0.0),
            Value::F64(f64::NAN),
            Value::str("abc"),
            Value::Bytes(std::sync::Arc::from(&[1u8, 2][..])),
            Value::Bool(true),
        ];
        for v in &values {
            assert_eq!(hash_value(v), hash_value_view(&ValueView::from(v)), "{v:?}");
        }
    }
}
