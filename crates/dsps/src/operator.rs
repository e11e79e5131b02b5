//! Operator traits: the user-facing API for writing spouts and bolts.

use crate::codec::{DecodeError, LazyTuple};
use crate::tuple::Tuple;

/// Receives the tuples an operator emits.
pub trait Emitter {
    /// Emit a tuple to all subscribed downstream components.
    fn emit(&mut self, tuple: Tuple);

    /// Pass `input` on as it arrived: the same id and values to the same
    /// downstream tasks as emitting a copy of it. The default does just
    /// that, `emit(input.materialize()?.clone())`, so an emitter that
    /// collects tuples needs nothing more; its `Err` is that
    /// materialization's. The runtime's emitter decodes nothing instead:
    /// a wire-backed input is routed off its view and its bytes are
    /// copied behind each frame's header — frames byte for byte those a
    /// re-encode would build, no serialization counted, and a string
    /// nobody read still unvalidated until the next reader touches it —
    /// and an owned input shares its tuple.
    fn forward(&mut self, input: &LazyTuple) -> Result<(), DecodeError> {
        self.emit(input.materialize()?.clone());
        Ok(())
    }
}

/// A simple collecting emitter for tests and batch-style execution.
#[derive(Default, Debug)]
pub struct VecEmitter {
    /// Tuples emitted so far.
    pub emitted: Vec<Tuple>,
}

impl Emitter for VecEmitter {
    fn emit(&mut self, tuple: Tuple) {
        self.emitted.push(tuple);
    }
}

/// A source of tuples (one instance per spout task).
///
/// The live runtime runs every pipeline of a run as steps on a few shared
/// executor threads, one per core. A spout may block in
/// [`next_tuple`](Self::next_tuple) — sleep until its next tuple is due,
/// wait on an outside source — and its executor pays for that time: no
/// other pipeline on it runs meanwhile. A call that blocks ends the
/// spout's step, so the others run between two blocking calls. It must not
/// wait on its own run's bolts: those may be on its executor.
pub trait Spout: Send {
    /// Produce the next tuple, or `None` when the stream is exhausted.
    fn next_tuple(&mut self) -> Option<Tuple>;
}

/// A processing operator (one instance per bolt task).
///
/// A bolt must not block — sleep, wait on a lock another task holds, or on
/// a channel: the live runtime runs it as part of a step on an executor
/// thread shared with other pipelines, which all wait while it does.
pub trait Bolt: Send {
    /// Process one input tuple, emitting any outputs.
    fn execute(&mut self, input: &Tuple, out: &mut dyn Emitter);

    /// Process one lazily-decoded input — what the runtime's receive
    /// path actually calls. The default materializes the tuple (at most
    /// once per worker: the handle memoizes, so fan-out to many local
    /// tasks still decodes once) and forwards to [`Bolt::execute`].
    /// Bolts that only touch a field or two should override this and
    /// read straight off the wire view, skipping materialization
    /// entirely. A received input is lent for the call, borrowed from
    /// its frame's buffer: a bolt that keeps it stores
    /// `input.clone().into_owned()`, which anchors it to the buffer in a
    /// block of its own. `Err` means the tuple's wire bytes are corrupt
    /// (its deferred UTF-8 validation failed); the runtime drops the
    /// tuple and counts it instead of crashing the pipeline.
    fn execute_lazy(
        &mut self,
        input: &LazyTuple,
        out: &mut dyn Emitter,
    ) -> Result<(), DecodeError> {
        self.execute(input.materialize()?, out);
        Ok(())
    }

    /// Called once when the stream has fully drained; emit any final state.
    fn finish(&mut self, _out: &mut dyn Emitter) {}
}

/// Factory producing per-task bolt instances.
pub type BoltFactory = Box<dyn Fn(u32) -> Box<dyn Bolt> + Send + Sync>;
/// Factory producing per-task spout instances.
pub type SpoutFactory = Box<dyn Fn(u32) -> Box<dyn Spout> + Send + Sync>;

/// A spout over any iterator, for tests and examples.
pub struct IterSpout<I: Iterator<Item = Tuple> + Send> {
    iter: I,
}

impl<I: Iterator<Item = Tuple> + Send> IterSpout<I> {
    /// Wrap an iterator.
    pub fn new(iter: I) -> Self {
        IterSpout { iter }
    }
}

impl<I: Iterator<Item = Tuple> + Send> Spout for IterSpout<I> {
    fn next_tuple(&mut self) -> Option<Tuple> {
        self.iter.next()
    }
}

/// A bolt applying a function to each tuple, for tests and examples.
pub struct FnBolt<F: FnMut(&Tuple, &mut dyn Emitter) + Send> {
    f: F,
}

impl<F: FnMut(&Tuple, &mut dyn Emitter) + Send> FnBolt<F> {
    /// Wrap a function.
    pub fn new(f: F) -> Self {
        FnBolt { f }
    }
}

impl<F: FnMut(&Tuple, &mut dyn Emitter) + Send> Bolt for FnBolt<F> {
    fn execute(&mut self, input: &Tuple, out: &mut dyn Emitter) {
        (self.f)(input, out)
    }
}

/// A bolt applying a function to each *lazy* tuple: the zero-
/// materialization path for sinks and key-touch operators that read a
/// field or two straight off the wire buffer.
pub struct LazyFnBolt<F: FnMut(&LazyTuple, &mut dyn Emitter) + Send> {
    f: F,
}

impl<F: FnMut(&LazyTuple, &mut dyn Emitter) + Send> LazyFnBolt<F> {
    /// Wrap a function over lazy tuples.
    pub fn new(f: F) -> Self {
        LazyFnBolt { f }
    }
}

impl<F: FnMut(&LazyTuple, &mut dyn Emitter) + Send> Bolt for LazyFnBolt<F> {
    fn execute(&mut self, input: &Tuple, out: &mut dyn Emitter) {
        // Direct (non-wire) invocation: wrap the owned tuple so the one
        // closure serves both entry points.
        (self.f)(&LazyTuple::from_tuple(input.clone()), out)
    }

    fn execute_lazy(
        &mut self,
        input: &LazyTuple,
        out: &mut dyn Emitter,
    ) -> Result<(), DecodeError> {
        (self.f)(input, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Value;

    #[test]
    fn iter_spout_drains() {
        let tuples = vec![
            Tuple::new(vec![Value::I64(1)]),
            Tuple::new(vec![Value::I64(2)]),
        ];
        let mut s = IterSpout::new(tuples.into_iter());
        assert_eq!(s.next_tuple().unwrap().get(0).unwrap().as_i64(), Some(1));
        assert_eq!(s.next_tuple().unwrap().get(0).unwrap().as_i64(), Some(2));
        assert!(s.next_tuple().is_none());
    }

    #[test]
    fn fn_bolt_transforms() {
        let mut b = FnBolt::new(|t: &Tuple, out: &mut dyn Emitter| {
            let x = t.get(0).unwrap().as_i64().unwrap();
            out.emit(Tuple::new(vec![Value::I64(x * 2)]));
        });
        let mut out = VecEmitter::default();
        b.execute(&Tuple::new(vec![Value::I64(21)]), &mut out);
        assert_eq!(out.emitted.len(), 1);
        assert_eq!(out.emitted[0].get(0).unwrap().as_i64(), Some(42));
    }

    #[test]
    fn lazy_fn_bolt_reads_the_wire_without_materializing() {
        let mut b = LazyFnBolt::new(|t: &LazyTuple, out: &mut dyn Emitter| {
            let x = t.field(0).unwrap().unwrap().as_i64().unwrap();
            out.emit(Tuple::new(vec![Value::I64(x * 2)]));
        });
        let input = Tuple::new(vec![Value::I64(21), Value::str("never touched")]);
        let bytes = crate::codec::encode_tuple(&input);
        let buf: std::sync::Arc<[u8]> = std::sync::Arc::from(&bytes[..]);
        let lazy = LazyTuple::from_wire(buf, 0).unwrap();
        let mut out = VecEmitter::default();
        b.execute_lazy(&lazy, &mut out).unwrap();
        assert_eq!(out.emitted[0].get(0).unwrap().as_i64(), Some(42));
        assert!(!lazy.is_materialized(), "lazy bolt must not materialize");
        // The default execute_lazy (owned-path bolts) materializes once.
        let mut eager = FnBolt::new(|t: &Tuple, out: &mut dyn Emitter| {
            out.emit(t.clone());
        });
        eager.execute_lazy(&lazy, &mut out).unwrap();
        assert!(lazy.is_materialized());
    }

    #[test]
    fn default_finish_is_noop() {
        let mut b = FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {});
        let mut out = VecEmitter::default();
        b.finish(&mut out);
        assert!(out.emitted.is_empty());
    }
}
