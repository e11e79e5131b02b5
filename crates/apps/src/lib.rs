//! # whale-apps — the paper's two evaluation applications
//!
//! Complete implementations of the topologies of §5.1: on-demand
//! ride-hailing (key-grouped driver locations joined with all-grouped
//! passenger requests, Fig 4) and stock exchange (split → key-grouped
//! sells / broadcast buys → matching → trading-volume aggregation), with
//! operator logic runnable on the live runtime and topology definitions
//! consumed by the cluster simulation.

#![warn(missing_docs)]

pub mod ride_hailing;
pub mod stock_exchange;

use whale_dsps::{DecodeError, Tuple, ValueView};

/// Field `i` of an input as both entry points of a bolt read it:
/// [`Bolt::execute`](whale_dsps::Bolt::execute) off an owned tuple (never
/// `Err`), [`Bolt::execute_lazy`](whale_dsps::Bolt::execute_lazy)
/// straight off the wire view. A bolt's body takes the reader as a
/// closure, so each entry point gets its own copy of it.
type Field<'a> = Result<Option<ValueView<'a>>, DecodeError>;

fn owned_field(input: &Tuple, i: usize) -> Field<'_> {
    Ok(input.get(i).map(ValueView::from))
}

const NO_DEFERRED_DECODE: &str = "an owned tuple has no deferred decode to fail";

#[cfg(test)]
mod testkit {
    use whale_dsps::{Bolt, DecodeError, Emitter, LazyTuple, Tuple, VecEmitter};

    /// A [`VecEmitter`] that notes whether it was asked to forward (its
    /// default `forward` materializes the input it copies).
    #[derive(Default)]
    struct Collect {
        out: VecEmitter,
        forwarded: bool,
    }

    impl Emitter for Collect {
        fn emit(&mut self, tuple: Tuple) {
            self.out.emit(tuple);
        }

        fn forward(&mut self, input: &LazyTuple) -> Result<(), DecodeError> {
            self.forwarded = true;
            self.out.forward(input)
        }
    }

    /// The same inputs through `execute` and through `execute_lazy`, off
    /// the wire and as owned handles: identical emissions, and a wire
    /// handle is never materialized — unless the bolt forwarded it, which
    /// this collecting emitter does by copying it.
    pub(crate) fn assert_lazy_equals_eager<B: Bolt>(
        new: fn() -> B,
        inputs: &[Tuple],
    ) -> Vec<Tuple> {
        let mut runs = [new(), new(), new()].map(|bolt| (bolt, Collect::default()));
        for t in inputs {
            let bytes = whale_dsps::codec::encode_tuple(t);
            let wire = LazyTuple::from_wire(std::sync::Arc::from(&bytes[..]), 0).unwrap();
            let [(eager, eager_out), (lazy, lazy_out), (owned, owned_out)] = &mut runs;
            eager.execute(t, eager_out);
            lazy_out.forwarded = false;
            lazy.execute_lazy(&wire, lazy_out).unwrap();
            owned
                .execute_lazy(&LazyTuple::from_tuple(t.clone()), owned_out)
                .unwrap();
            assert!(wire.is_wire());
            assert!(!wire.is_materialized() || lazy_out.forwarded, "{t:?}");
        }
        let [eager, lazy, owned] = runs.map(|(mut bolt, mut out)| {
            bolt.finish(&mut out);
            out.out.emitted
        });
        assert_eq!(eager, lazy);
        assert_eq!(eager, owned);
        eager
    }
}
