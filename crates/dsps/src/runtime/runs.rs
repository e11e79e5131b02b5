//! What a pipeline's step has encoded and not sent yet. Inside a step no
//! data frame of Whale's leaves as it is encoded: a broadcast's relay
//! record joins the step's relay run ([`PendingRun`]), and a worker
//! record joins the run of the pipeline it is for. A run leaves as one
//! fabric frame at the first of: the end of the step
//! ([`Routing::send_runs`], from
//! [`ShardPipeline::within`](super::pipeline::ShardPipeline::within)),
//! any EOS the step sends, or [`RUN_CAP`] records — and a relay run also
//! when the current generation changes. Off a step (the control step, a
//! thread with no pipeline) every record leaves at once, as a frame of
//! its own. A step that unwinds sends none of its runs.

use super::pipeline::PIPELINE_BATCH;
use super::relay::PendingRun;
use super::report::Ctr;
use super::send::{Routing, CURRENT_SHARD};
use super::wire::{self, Wire};
use crate::codec::LazyTuple;
use crate::messaging::MessagePlan;
use crate::task::TaskId;
use bytes::BytesMut;
use std::cell::RefCell;
use std::ops::Range;
use whale_net::EndpointId;

/// The most records a run holds: one that reaches it leaves at once. A
/// spout step emits at most this many tuples.
pub(super) const RUN_CAP: usize = PIPELINE_BATCH;

/// One pipeline's unsent runs: what the thread stepping it keeps in
/// [`RUNS`] while the step runs. A step ends with every run sent, so
/// between steps they are empty and keep only their buffers.
#[derive(Default)]
pub(super) struct StepRuns {
    /// The relay records the step broadcast on its origin's tree.
    pub(super) relay: PendingRun,
    /// Worker runs by destination endpoint id, grown on first use.
    worker: Vec<WorkerRun>,
    /// The endpoints whose run holds records, in the order each got its
    /// first.
    pending: Vec<EndpointId>,
}

/// The worker records one pipeline's step has encoded for one
/// destination pipeline, back to back in one buffer.
#[derive(Default)]
struct WorkerRun {
    /// The sending endpoint: every record of a run is from one.
    from: u32,
    records: usize,
    bytes: BytesMut,
}

thread_local! {
    /// The runs of the pipeline running on this thread. Threads without
    /// a pipeline send each record as it is encoded, so theirs stay
    /// empty.
    pub(super) static RUNS: RefCell<StepRuns> = RefCell::new(StepRuns::default());
}

impl StepRuns {
    /// Swap this pipeline's runs into the calling thread's.
    pub(super) fn enter(&mut self) {
        RUNS.with_borrow_mut(|runs| std::mem::swap(runs, self));
    }

    /// Swap them back out, leaving the thread's empty.
    pub(super) fn leave(&mut self) {
        self.enter();
    }

    /// Drop what a step that unwound left unsent: none of it leaves.
    pub(super) fn discard(&mut self) {
        self.relay.clear();
        for to in self.pending.drain(..) {
            self.worker[to.0 as usize].clear();
        }
    }

    /// The index of `to`'s run, ready for a record from `from`. Every
    /// record a step encodes is from the stepping pipeline's endpoint, and
    /// off a step the runs leave at once, so a run never mixes senders.
    fn open(&mut self, from: EndpointId, to: EndpointId) -> usize {
        let at = to.0 as usize;
        if self.worker.len() <= at {
            self.worker.resize_with(at + 1, WorkerRun::default);
        }
        let run = &mut self.worker[at];
        if run.records == 0 {
            self.pending.push(to);
            run.from = from.0;
        }
        debug_assert_eq!(run.from, from.0, "one sender per run");
        at
    }

    /// Send each pending worker run `which` picks, in the order they got
    /// their first record.
    fn send_worker(&mut self, routing: &Routing, mut which: impl FnMut(&WorkerRun) -> bool) {
        let worker = &mut self.worker;
        self.pending.retain(|&to| {
            let run = &mut worker[to.0 as usize];
            let send = which(run);
            if send {
                run.send(routing, to);
            }
            !send
        });
    }
}

impl WorkerRun {
    /// Send the run to `to` as one frame, lent to the fabric (zero-copy)
    /// or copied by it, and empty it. Its records were counted in
    /// `frames_encoded`, and the tracked ones written ahead to `to`'s log,
    /// as they were encoded.
    fn send(&mut self, routing: &Routing, to: EndpointId) {
        let frame = match routing.config.zero_copy {
            true => Wire::Lent(&self.bytes),
            false => Wire::Copied(&self.bytes),
        };
        routing.send_wire(EndpointId(self.from), to, frame);
        self.clear();
    }

    /// Empty it, keeping the buffer's capacity.
    fn clear(&mut self) {
        self.records = 0;
        self.bytes.clear();
    }
}

impl Routing {
    /// Append one worker record of `item` from `src` to the run of each
    /// remote pipeline `plan` names: the first record serializes the item,
    /// the rest copy its bytes, so the item is encoded once however many
    /// pipelines it goes to. A tracked record is appended to its
    /// destination's partition log as it is encoded — before its run
    /// leaves, so the log stays ahead of the fabric — as the bytes a lone
    /// frame of it would be. Off a pipeline's step the runs leave at once.
    pub(super) fn append_worker_records(
        &self,
        src: TaskId,
        plan: &MessagePlan,
        item: &LazyTuple,
        tracked: Option<u64>,
    ) {
        let from = self.endpoint(self.placement.worker_of(src).0, self.shard_of(src));
        let alone = CURRENT_SHARD.with(|c| c.get()).is_none();
        RUNS.with_borrow_mut(|runs| {
            // The run holding the item's bytes, and where in it they are.
            let mut encoded: Option<(usize, Range<usize>)> = None;
            let (mut records, mut full) = (0, false);
            for env in plan.remote() {
                for (to, owned) in self.pipelines_of(env.dst_worker, plan.tasks_of(env)) {
                    let at = runs.open(from, to);
                    let start = runs.worker[at].bytes.len();
                    let (run, bytes) = match &encoded {
                        None => (&mut runs.worker[at], None),
                        Some((first, range)) => {
                            let pair = runs.worker.get_disjoint_mut([*first, at]);
                            let [first, run] = pair.expect("one run per pipeline");
                            (run, Some(&first.bytes[range.clone()]))
                        }
                    };
                    let item_at =
                        wire::encode_worker(&mut run.bytes, tracked, src, owned, item, bytes);
                    if let (Some(log), Some(tracked)) = (&self.log, tracked) {
                        log.append(to, tracked, &run.bytes[start..]);
                    }
                    run.records += 1;
                    full |= run.records >= RUN_CAP;
                    records += 1;
                    encoded.get_or_insert((at, item_at));
                }
            }
            self.stats.add(Ctr::frames_encoded, records);
            if alone || full {
                runs.send_worker(self, |run| alone || run.records >= RUN_CAP);
            }
        });
    }

    /// Send every run the running pipeline's step holds: its relay run
    /// (one frame per tree child, on the generation its records carry),
    /// then one frame per destination pipeline. A pipeline's step ends
    /// with this, and so does every EOS it sends begin.
    pub(super) fn send_runs(&self) {
        RUNS.with_borrow_mut(|runs| {
            self.send_relay(&mut runs.relay);
            runs.send_worker(self, |_| true);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;

    #[test]
    fn a_worker_eos_sent_in_the_same_step_as_data_trails_all_of_it() {
        // The same spout without the relay tree: each of the three other
        // workers gets the step's tuples as one worker run, and the EOS
        // the step sends must leave behind it.
        const TUPLES: u64 = 1_000;
        for fabric in [
            FabricKind::PerSend,
            FabricKind::Ring(whale_net::RingConfig::default()),
            FabricKind::OneSided(whale_net::OneSidedConfig::default()),
        ] {
            let (topology, ops, at_eos) = at_eos_topology(TUPLES);
            let config = LiveConfig {
                machines: 4,
                fabric,
                ..LiveConfig::default()
            };
            let r = run_on(topology, ops, config, 1);
            assert_eq!(r.outcome, RunOutcome::Clean, "{fabric:?}");
            assert_eq!(r.executed[1], TUPLES * 16, "{fabric:?}");
            for sink in 0..16 {
                let at_eos = at_eos[sink].load(Ordering::Relaxed);
                assert_eq!(at_eos, TUPLES, "{fabric:?}: sink {sink} finished early");
            }
            // A record per tuple and an EOS for each of the three workers,
            // in runs, not a frame per tuple.
            assert_eq!(r.frames_encoded, (TUPLES + 1) * 3, "{fabric:?}");
            assert!(r.fabric_messages < TUPLES * 3, "{fabric:?}: {r:?}");
        }
    }
}
