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

    #[test]
    fn a_relayed_record_reaches_its_workers_other_pipeline_before_what_it_emits_there() {
        // src → 6 `mid` → 6 `out`, both edges relayed, over three machines
        // of two pipelines each. Worker 1 hosts a `mid` and an `out` task
        // on each pipeline. A relayed record lands on its shard-0 pipeline,
        // which hands it to shard 1 and runs it in place; its `mid`
        // re-emits it to every `out`. Shard 1 must run the record on its
        // `mid` before its `out` runs what shard 0's `mid` made of it.
        const TUPLES: u64 = 300;
        let fields = || Schema::new(vec!["n", "from"]);
        let topology = || {
            let mut b = crate::topology::TopologyBuilder::new();
            b.spout("src", 1, Schema::new(vec!["n"]))
                .bolt("mid", 6, fields())
                .bolt("out", 6, fields())
                .connect("src", "mid", Grouping::All)
                .connect("mid", "out", Grouping::All);
            b.build().unwrap()
        };
        let t = topology();
        let placement = crate::scheduler::Placement::even(&t, &ClusterSpec::new(3, 1, 16));
        let on_worker_1 = |comp: &str, shard: u32| {
            let mut tasks = t.tasks_of(comp).into_iter();
            let here = |t| placement.worker_of(t).0 == 1 && t.0 % 2 == shard;
            tasks.position(here).expect("a task there") as u32
        };
        let (mid_0, mid_1, out_1) = (on_worker_1("mid", 0), on_worker_1("mid", 1), on_worker_1("out", 1));
        for executors in [1, 2] {
            // What shard 1 of worker 1 ran, in order: `(from mid_0, n)`.
            let log: Arc<parking_lot::Mutex<Vec<(bool, i64)>>> = Arc::default();
            let (mid_log, out_log) = (Arc::clone(&log), Arc::clone(&log));
            let ops = Operators::new()
                .spout("src", |_| {
                    let tuples = (0..TUPLES).map(|i| Tuple::with_id(i, vec![Value::I64(i as i64)]));
                    Box::new(IterSpout::new(tuples))
                })
                .bolt("mid", move |idx| {
                    let log = Arc::clone(&mid_log);
                    Box::new(FnBolt::new(move |t: &Tuple, out: &mut dyn Emitter| {
                        let n = t.get(0).unwrap().as_i64().unwrap();
                        if idx == mid_1 {
                            log.lock().push((false, n));
                        }
                        let from = Value::I64(idx as i64);
                        out.emit(Tuple::with_id(t.id, vec![Value::I64(n), from]));
                    }))
                })
                .bolt("out", move |idx| {
                    let log = Arc::clone(&out_log);
                    Box::new(FnBolt::new(move |t: &Tuple, _out: &mut dyn Emitter| {
                        let from = t.get(1).unwrap().as_i64().unwrap();
                        if idx == out_1 && from == mid_0 as i64 {
                            log.lock().push((true, t.get(0).unwrap().as_i64().unwrap()));
                        }
                    }))
                });
            let config = LiveConfig {
                machines: 3,
                shards: 2,
                multicast_d_star: Some(2),
                ..LiveConfig::default()
            };
            let r = run_on(topology(), ops, config, executors);
            assert_eq!(r.outcome, RunOutcome::Clean, "{executors}");
            assert_eq!(r.executed[2], TUPLES * 6 * 6, "{executors}");
            let mut ran = std::collections::HashSet::new();
            let mut emitted = 0;
            for &(from_mid_0, n) in log.lock().iter() {
                if from_mid_0 {
                    assert!(ran.contains(&n), "{executors}: shard 0's emission of {n} came first");
                    emitted += 1;
                } else {
                    ran.insert(n);
                }
            }
            assert_eq!((ran.len() as u64, emitted), (TUPLES, TUPLES), "{executors}");
        }
    }

    #[test]
    fn a_relayed_record_runs_borrowed_on_one_pipeline_and_promoted_once_for_two() {
        // src → 12 `sink`, relayed, over three machines: workers 1 and 2
        // host four sinks each, two on each of their pipelines when they
        // have two. With one pipeline a worker, the record runs borrowed
        // from the frame's buffer; with two, the receiving pipeline hands
        // it to the other, so it is promoted once, up front, and both run
        // that one block — one decode per record per worker where no two
        // executors race to it, and the same tuple on every sink.
        use crate::codec::LazyTuple;
        use crate::operator::LazyFnBolt;
        const TUPLES: u64 = 400;
        let topology = || {
            let mut b = crate::topology::TopologyBuilder::new();
            b.spout("src", 1, Schema::new(vec!["n", "k"]))
                .bolt("sink", 12, Schema::new(vec!["n", "k"]))
                .connect("src", "sink", Grouping::All);
            b.build().unwrap()
        };
        for (shards, executors) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
            // Per received execution: (borrowed, n read off the wire, n
            // materialized).
            let seen: Arc<parking_lot::Mutex<Vec<(bool, i64, i64)>>> = Arc::default();
            let tap = Arc::clone(&seen);
            let ops = Operators::new()
                .spout("src", |_| {
                    let tuples = (0..TUPLES).map(|i| {
                        let k = Value::str(format!("key-{i}").as_str());
                        Tuple::with_id(i, vec![Value::I64(i as i64), k])
                    });
                    Box::new(IterSpout::new(tuples))
                })
                .bolt("sink", move |_| {
                    let seen = Arc::clone(&tap);
                    Box::new(LazyFnBolt::new(
                        move |t: &LazyTuple, _out: &mut dyn Emitter| {
                            if !t.is_wire() {
                                return;
                            }
                            let n = t.field(0).unwrap().unwrap().as_i64().unwrap();
                            let m = t.materialize().unwrap();
                            assert_eq!(
                                m.get(1).unwrap().as_str(),
                                Some(format!("key-{n}").as_str())
                            );
                            let m = m.get(0).unwrap().as_i64().unwrap();
                            seen.lock().push((t.is_borrowed(), n, m));
                        },
                    ))
                });
            let config = LiveConfig {
                machines: 3,
                shards,
                multicast_d_star: Some(2),
                ..LiveConfig::default()
            };
            let r = run_on(topology(), ops, config, executors);
            let at = format!("{shards} shards, {executors} executors");
            assert_eq!(r.outcome, RunOutcome::Clean, "{at}");
            assert_eq!(r.executed[1], TUPLES * 12, "{at}");
            let seen = seen.lock();
            // Workers 1 and 2's sinks ran every tuple off the wire.
            assert_eq!(seen.len() as u64, TUPLES * 8, "{at}");
            assert!(seen.iter().all(|&(_, n, m)| n == m), "{at}");
            assert!(
                seen.iter().all(|&(borrowed, ..)| borrowed == (shards == 1)),
                "{at}"
            );
            if shards == 1 || executors == 1 {
                let decodes = TUPLES * 2;
                assert_eq!(
                    r.tuples_materialized, decodes,
                    "{at}: one a record a worker"
                );
            }
        }
    }
}
