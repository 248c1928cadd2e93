//! The user-facing job abstraction: map, combine, reduce.

use crate::codec::Datum;
use bdb_archsim::Probe;
use std::hash::Hash;

/// Collects `(key, value)` pairs emitted by a map function, with byte
/// accounting for spill decisions and shuffle statistics.
#[derive(Debug)]
pub struct Emitter<K, V> {
    pairs: Vec<(K, V)>,
    bytes: usize,
}

impl<K: Datum, V: Datum> Emitter<K, V> {
    /// An empty emitter.
    pub fn new() -> Self {
        Self { pairs: Vec::new(), bytes: 0 }
    }

    /// Emits one intermediate pair.
    pub fn emit(&mut self, key: K, value: V) {
        self.bytes += key.size_hint() + value.size_hint();
        self.pairs.push((key, value));
    }

    /// Number of pairs emitted.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Approximate serialized size of everything emitted.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Drains the emitted pairs, resetting the emitter but keeping its
    /// capacity for the next record.
    pub fn drain(&mut self) -> std::vec::Drain<'_, (K, V)> {
        self.bytes = 0;
        self.pairs.drain(..)
    }
}

impl<K: Datum, V: Datum> Default for Emitter<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// A MapReduce job: input/intermediate/output types plus the three user
/// functions. `combine` defaults to the identity (no map-side
/// aggregation).
///
/// Map and reduce receive a [`Probe`] so instrumented kernels can report
/// their per-record loads, stores and arithmetic; pass-through kernels
/// can ignore it.
pub trait Job: Sync {
    /// One input record.
    type Input: Send + Sync;
    /// Intermediate key; must be totally ordered for the sort phase.
    type Key: Datum + Ord + Hash;
    /// Intermediate value.
    type Value: Datum;
    /// One output record.
    type Output: Send;

    /// Serialized size of one input record, used by traced runs to model
    /// the input-stream traffic. Defaults to the in-memory size; jobs
    /// over variable-length records should override it.
    fn input_size(&self, input: &Self::Input) -> usize {
        std::mem::size_of_val(input)
    }

    /// Transforms one input record into zero or more intermediate pairs.
    fn map<P: Probe + ?Sized>(
        &self,
        input: &Self::Input,
        emit: &mut Emitter<Self::Key, Self::Value>,
        probe: &mut P,
    );

    /// Optional map-side pre-aggregation over the values of one key
    /// within one buffer flush (a spill or the task's final run), in the
    /// order map emitted them. Called once per key and flush. The
    /// default keeps values unchanged.
    fn combine(&self, key: &Self::Key, values: Vec<Self::Value>) -> Vec<Self::Value> {
        let _ = key;
        values
    }

    /// Folds one key group into output records.
    fn reduce<P: Probe + ?Sized>(
        &self,
        key: Self::Key,
        values: Vec<Self::Value>,
        out: &mut Vec<Self::Output>,
        probe: &mut P,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_archsim::NullProbe;

    struct Identity;
    impl Job for Identity {
        type Input = u64;
        type Key = u64;
        type Value = ();
        type Output = u64;
        fn map<P: Probe + ?Sized>(&self, input: &u64, emit: &mut Emitter<u64, ()>, _p: &mut P) {
            emit.emit(*input, ());
        }
        fn reduce<P: Probe + ?Sized>(&self, key: u64, _v: Vec<()>, out: &mut Vec<u64>, _p: &mut P) {
            out.push(key);
        }
    }

    #[test]
    fn emitter_accounting() {
        let mut e: Emitter<String, u64> = Emitter::new();
        assert!(e.is_empty());
        e.emit("ab".to_owned(), 7);
        assert_eq!(e.len(), 1);
        assert_eq!(e.bytes(), 4 + 2 + 8);
        assert_eq!(e.drain().len(), 1);
        assert!(e.is_empty());
        assert_eq!(e.bytes(), 0);
    }

    #[test]
    fn default_combine_is_identity() {
        let j = Identity;
        let vals = vec![(), (), ()];
        assert_eq!(j.combine(&1, vals.clone()).len(), vals.len());
    }

    #[test]
    fn job_functions_callable() {
        let j = Identity;
        let mut e = Emitter::new();
        j.map(&5, &mut e, &mut NullProbe);
        let mut out = Vec::new();
        j.reduce(5, vec![()], &mut out, &mut NullProbe);
        assert_eq!(out, vec![5]);
    }
}
