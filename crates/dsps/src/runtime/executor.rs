//! The data-plane threads, and the only threads a run starts. A run's
//! pipelines are split over `min(pipelines, available cores)` executors;
//! each steps its share round-robin on one thread, so a tuple crosses from
//! one of its pipelines to the next by function call, and parks on its one
//! [`Waker`] only when no step progressed. Every endpoint its pipelines
//! read and every cross-shard inbox they own wakes that waker; a hand-off
//! from the executor itself wakes nothing. The last executor also steps
//! the run's [`Control`] step, when it has one, and parks no later than it
//! is due.

use super::control::Control;
use super::pipeline::{ShardPipeline, Step};
use super::report::Ctr;
use super::send::Routing;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use whale_net::Waker;

/// Idle rounds of busy-spinning before the executor yields once and,
/// still idle after that, parks.
const IDLE_SPINS: u32 = 64;
/// Longest single park. Nothing depends on it firing — every source of
/// work either wakes the park or bounds it by its own due time — so it
/// only caps how long a missed wake-up could stall an executor.
pub(super) const PARK_CAP: Duration = Duration::from_millis(100);

/// Executors for a run of `pipelines`: one per core this process may run
/// on, and no more than it has pipelines.
pub(super) fn executors_for(pipelines: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    pipelines.min(cores).max(1)
}

/// The executor of pipeline `flat`, of `pipelines` split over
/// `executors`: contiguous blocks, so a worker's shards share one
/// wherever they can.
pub(super) fn executor_of(flat: usize, pipelines: usize, executors: usize) -> usize {
    flat * executors / pipelines.max(1)
}

/// One data-plane thread's steps and the waker it parks on.
pub(super) struct Executor {
    pipelines: Vec<ShardPipeline>,
    /// The last executor's, if the run has control work.
    control: Option<Control>,
    waker: Arc<Waker>,
}

impl Executor {
    /// Deal `pipelines` (in flat order) to one executor per waker of
    /// `wakers`, as [`executor_of`] assigns them.
    pub(super) fn deal(pipelines: Vec<ShardPipeline>, wakers: &[Arc<Waker>]) -> Vec<Executor> {
        let n = pipelines.len();
        let mut executors: Vec<Executor> = (wakers.iter())
            .map(|waker| Executor {
                pipelines: Vec::new(),
                control: None,
                waker: Arc::clone(waker),
            })
            .collect();
        for p in pipelines {
            executors[executor_of(p.flat, n, wakers.len())]
                .pipelines
                .push(p);
        }
        executors
    }

    /// [`Self::deal`] `pipelines`, give `control` to the last executor and
    /// start each executor on its own thread. The last, because the even
    /// placement puts spouts on the first workers: a controller stepped
    /// beside a spout that sleeps in `next_tuple` would sample the run
    /// only ever just after an emission, never between two, and so never
    /// see the idle queue it scales up on.
    pub(super) fn spawn_all(
        pipelines: Vec<ShardPipeline>,
        control: Option<Control>,
        wakers: &[Arc<Waker>],
        routing: &Arc<Routing>,
    ) -> Vec<JoinHandle<()>> {
        let mut executors = Self::deal(pipelines, wakers);
        executors.last_mut().expect("at least one executor").control = control;
        let executors = executors.into_iter().enumerate();
        executors
            .map(|(i, e)| e.spawn(i, Arc::clone(routing)))
            .collect()
    }

    /// Run the executor on a thread of its own until every step on it has
    /// exited.
    pub(super) fn spawn(mut self, index: usize, routing: Arc<Routing>) -> JoinHandle<()> {
        let thread = std::thread::Builder::new().name(format!("executor-{index}"));
        let run = move || {
            // A panic escaping a step is caught in `round`; one escaping
            // here (starting a pipeline, parking) is a runtime bug, but
            // every completion signal must still fire or the driver would
            // block forever. (The control step signals as it drops.)
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.run(&routing))) {
                self.pipelines
                    .iter_mut()
                    .for_each(ShardPipeline::report_done);
                resume_unwind(payload);
            }
        };
        thread.spawn(run).expect("spawn an executor thread")
    }

    /// Step round-robin until every step has exited. Out of work: spin,
    /// yield once, then park until a hand-off wakes the executor or the
    /// nearest step's due time.
    fn run(&mut self, routing: &Routing) {
        let _owner = self.waker.own();
        for p in &mut self.pipelines {
            p.within(routing, ShardPipeline::start);
        }
        let stats = &routing.stats;
        // Whether the last round followed a park.
        let (mut idle_rounds, mut parked) = (0u32, false);
        while !self.pipelines.is_empty() || self.control.is_some() {
            if self.round(routing) {
                if std::mem::take(&mut parked) {
                    stats.add(Ctr::pipeline_wakeups_with_work, 1);
                }
                idle_rounds = 0;
                continue;
            }
            parked = false;
            idle_rounds += 1;
            if idle_rounds < IDLE_SPINS {
                std::hint::spin_loop();
                continue;
            }
            if idle_rounds == IDLE_SPINS {
                // Load-bearing: parking straight away turns every frame
                // into futex-wake + preempt + re-park. Yielding first lets
                // a busy producer run on, and the executor comes back to a
                // batch instead of one frame.
                stats.add(Ctr::pipeline_yields, 1);
                std::thread::yield_now();
                continue;
            }
            // From `prepare` on, a hand-off to any pipeline here either
            // shows in this last round or wakes the park.
            self.waker.prepare();
            if self.round(routing) {
                self.waker.cancel();
                idle_rounds = 0;
                continue;
            }
            let now = Instant::now();
            let due = self.pipelines.iter().filter_map(|p| p.wake_at(now));
            let control = self.control.as_ref().map(|c| c.due);
            let until = due.chain(control).fold(now + PARK_CAP, Instant::min);
            // A parked executor must not keep a relay generation alive.
            self.pipelines
                .iter_mut()
                .for_each(ShardPipeline::release_relay);
            stats.add(Ctr::pipeline_parks, 1);
            self.waker.park(Some(until));
            parked = true;
        }
    }

    /// One step of every pipeline, and of the control step; drops those
    /// that exited. Returns whether any progressed or exited.
    ///
    /// Operator panics are caught inside the pipelines; one escaping a
    /// step is a runtime bug. It takes down that step alone, as it took
    /// down the step's own thread before steps shared one: the step
    /// reports done, is counted in `thread_panics` and is dropped, and the
    /// executor steps the others on.
    fn round(&mut self, routing: &Routing) -> bool {
        let mut progressed = false;
        self.pipelines.retain_mut(|p| {
            let step = catch_unwind(AssertUnwindSafe(|| p.within(routing, ShardPipeline::step)));
            if step.is_err() {
                p.unwound();
            }
            keep(step, routing, &mut progressed)
        });
        if let Some(control) = &mut self.control {
            let step = catch_unwind(AssertUnwindSafe(|| control.step(routing)));
            if !keep(step, routing, &mut progressed) {
                self.control = None;
            }
        }
        progressed
    }
}

/// Whether a step that ended as `step` is stepped again. Sets
/// `progressed` if it did any work or left; a panic that escaped it is
/// counted in `thread_panics`.
fn keep(step: std::thread::Result<Step>, routing: &Routing, progressed: &mut bool) -> bool {
    *progressed |= !matches!(step, Ok(Step::Idle));
    if step.is_err() {
        routing.stats.add(Ctr::thread_panics, 1);
    }
    matches!(step, Ok(Step::Progressed | Step::Idle))
}

#[cfg(test)]
mod tests {
    use super::super::send::{Dest, ExecMsg, ShardInbox};
    use super::super::testkit::*;
    use super::*;
    use crate::codec::LazyTuple;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// `tuples` tuples, one every `gap`, broadcast to 8 sinks.
    fn sparse_topology(tuples: u64, gap: Duration) -> (Topology, Operators) {
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("sink", 8, Schema::new(vec!["n"]))
            .connect("src", "sink", Grouping::All);
        let ops = Operators::new()
            .spout("src", move |_| {
                Box::new(IterSpout::new((1..=tuples).map(move |i| {
                    std::thread::sleep(gap);
                    Tuple::with_id(i, vec![Value::I64(i as i64)])
                })))
            })
            .bolt("sink", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
            });
        (b.build().unwrap(), ops)
    }

    #[test]
    fn idle_executors_park_once_per_arrival_not_once_per_tick() {
        // Two executors: the spout's sleeps inside `next_tuple` keep its
        // own busy, so the other one is idle between arrivals.
        const TUPLES: u64 = 40;
        const EXECUTORS: u64 = 2;
        let gap = Duration::from_millis(5);
        for fabric in [
            FabricKind::PerSend,
            FabricKind::Ring(whale_net::RingConfig::default()),
            FabricKind::OneSided(whale_net::OneSidedConfig::default()),
        ] {
            for shards in [1u32, 4] {
                let (t, ops) = sparse_topology(TUPLES, gap);
                let config = LiveConfig {
                    machines: 4,
                    shards,
                    fabric,
                    ..LiveConfig::default()
                };
                let r = run_on(t, ops, config, EXECUTORS as usize);
                let what = format!("{fabric:?} shards={shards}");
                assert_eq!(r.outcome, RunOutcome::Clean, "{what}");
                assert_eq!(r.executed[1], TUPLES * 8, "{what}");
                // At most a couple of parks per arriving tuple (a ring's
                // first post wakes the executor to arm its WTL timer, the
                // timer ends the second) plus EOS and the odd cap expiry.
                // Polling on a fixed 50 µs period would park ~4 000 times
                // per executor over the same 200 ms.
                assert!(
                    r.pipeline_parks <= EXECUTORS * (2 * TUPLES + 20),
                    "{what}: parks = {}",
                    r.pipeline_parks
                );
                assert!(
                    r.pipeline_wakeups_with_work >= TUPLES / 2,
                    "{what}: arrivals end parks with work, woke = {}",
                    r.pipeline_wakeups_with_work
                );
                assert!(r.pipeline_wakeups_with_work <= r.pipeline_parks);
                // An idle episode yields once before it first parks, and
                // a park that returns to work ends the episode.
                assert!(r.pipeline_yields >= r.pipeline_wakeups_with_work);
                let m = r.metrics();
                assert_eq!(m.counter("dsps.pipeline.yields"), Some(r.pipeline_yields));
                assert_eq!(m.counter("dsps.pipeline.parks"), Some(r.pipeline_parks));
                assert_eq!(
                    m.counter("dsps.pipeline.wakeups_with_work"),
                    Some(r.pipeline_wakeups_with_work)
                );
            }
        }
    }

    #[test]
    fn a_cross_shard_inbox_send_wakes_the_executor_it_goes_to() {
        // One machine, 4 shards on two executors: nothing crosses the
        // fabric, so the executor of shards 2 and 3, parked between the
        // spout's tuples, can only be woken by the inbox sends to them.
        // A lost wake-up would leave it parked past the next tuple's
        // send, and the two tuples would share one wake-up.
        const TUPLES: u64 = 20;
        let (t, ops) = sparse_topology(TUPLES, Duration::from_millis(5));
        let config = LiveConfig {
            machines: 1,
            shards: 4,
            ..LiveConfig::default()
        };
        let r = run_on(t, ops, config, 2);
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert_eq!(r.executed[1], TUPLES * 8);
        assert_eq!(r.copied_bytes + r.shared_bytes, 0, "single worker");
        assert!(r.cross_shard_msgs >= TUPLES);
        assert!(
            r.pipeline_wakeups_with_work >= TUPLES,
            "woke = {}",
            r.pipeline_wakeups_with_work
        );
    }

    #[test]
    fn a_hand_off_between_two_steps_of_one_executor_issues_no_wake() {
        // One machine, 4 shards on two executors: shards 0 and 1 on the
        // first, 2 and 3 on the second. This thread stands in for the
        // first, inside shard 0's step, with both executors about to park.
        let (t, _ops) = sparse_topology(1, Duration::ZERO);
        let config = LiveConfig {
            machines: 1,
            shards: 4,
            ..LiveConfig::default()
        };
        let fabric = Arc::new(whale_net::LiveFabric::new());
        let (done_tx, _) = crossbeam::channel::unbounded();
        let (routing, _pipelines, wakers) = wire_up(t, config, fabric, None, Some(2), &done_tx);
        assert_eq!(wakers.len(), 2);
        let sink = |flat| {
            let sinks = routing.topology.tasks_of("sink");
            *sinks
                .iter()
                .find(|&&t| routing.flat_shard_of(t) == flat)
                .unwrap()
        };
        let data = || {
            let t = LazyTuple::from_tuple(Tuple::new(vec![Value::I64(1)]));
            ExecMsg::Data(t, None)
        };
        let _owner = wakers[0].own();
        wakers.iter().for_each(|w| w.prepare());
        super::super::send::CURRENT_SHARD.with(|c| c.set(Some(0)));
        assert!(routing.deliver(Dest::Task(sink(1)), data()));
        assert_eq!(routing.stats.get(Ctr::cross_shard_msgs), 1);
        assert_eq!(
            wakers[0].wakes_sent(),
            0,
            "shard 1 is a step of this executor"
        );
        assert!(wakers[1].is_parked(), "the other executor heard nothing");
        assert!(routing.deliver(Dest::Task(sink(2)), data()));
        assert_eq!(wakers[1].wakes_sent(), 1, "shard 2 is another executor's");
        assert!(!wakers[1].is_parked());
        super::super::send::CURRENT_SHARD.with(|c| c.set(None));
        // This executor's own hand-off still kept its park from blocking.
        assert!(wakers[0].park(Some(Instant::now() + Duration::from_secs(30))));
    }

    #[test]
    fn a_burst_past_the_inbox_bound_between_two_steps_of_one_executor_is_not_lost() {
        // One machine, 2 shards, one executor: `fan` (task 1, shard 1)
        // emits 5 000 tuples per input to `sink` (task 2, shard 0) within
        // one step, past the bounded inbox's 4 096. Only this executor's
        // thread could drain that inbox, so a bounded hand-off would wait
        // out the send policy's deadline and drop the rest.
        const INPUTS: u64 = 3;
        const PER_INPUT: u64 = 5_000;
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("fan", 1, Schema::new(vec!["n"]))
            .bolt("sink", 1, Schema::new(vec!["n"]))
            .connect("src", "fan", Grouping::All)
            .connect("fan", "sink", Grouping::All);
        let ops = Operators::new()
            .spout("src", |_| {
                Box::new(IterSpout::new(
                    (0..INPUTS).map(|i| Tuple::with_id(i, vec![Value::I64(i as i64)])),
                ))
            })
            .bolt("fan", |_| {
                Box::new(FnBolt::new(|t: &Tuple, out: &mut dyn Emitter| {
                    for _ in 0..PER_INPUT {
                        out.emit(t.clone());
                    }
                }))
            })
            .bolt("sink", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
            });
        let config = LiveConfig {
            machines: 1,
            shards: 2,
            ..LiveConfig::default()
        };
        // A stalled run would wait out one deadline per entry past the
        // bound: wait for it on the side, for a fifth of one.
        let within = config.send.deadline / 5;
        let (tx, rx) = crossbeam::channel::bounded(1);
        let topology = b.build().unwrap();
        std::thread::spawn(move || {
            let _ = tx.send(run_on(topology, ops, config, 1));
        });
        let r = rx.recv_timeout(within).expect("the run ends in time");
        assert_eq!(r.send_failed, 0);
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert_eq!(r.executed[2], INPUTS * PER_INPUT);
        assert!(r.cross_shard_msgs >= INPUTS * PER_INPUT);
    }

    #[test]
    fn a_step_that_panics_takes_down_its_pipeline_alone() {
        let (executor, routing, done_rx) = empty_executor(2);
        let handle = executor.spawn(0, Arc::clone(&routing));
        for _ in 0..2 {
            done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        // An entry naming a row no pipeline has is a runtime bug, not an
        // operator's: pipeline 0's step panics on it.
        let bad = LazyTuple::from_tuple(Tuple::new(vec![Value::I64(1)]));
        let inbox = &routing.shard_inboxes[0];
        let entry = (Dest::Group(u32::MAX), ExecMsg::Data(bad, None));
        assert!(inbox.tx.try_send(entry).is_ok());
        inbox.waker.wake();
        let caught = || routing.stats.get(Ctr::thread_panics) > 0;
        let gave_up = Instant::now() + Duration::from_secs(10);
        while !(caught() || handle.is_finished()) && Instant::now() < gave_up {
            std::thread::yield_now();
        }
        assert!(caught(), "the executor counts the panic");
        assert!(!handle.is_finished(), "pipeline 1 still steps");
        routing.fabric.deregister(EndpointId(1));
        handle.join().expect("the executor itself did not panic");
        assert_eq!(routing.stats.get(Ctr::thread_panics), 1);
    }

    /// `n` task-less pipelines on one executor, on endpoints 0.. of their
    /// own per-send fabric.
    fn empty_executor(n: usize) -> (Executor, Arc<Routing>, crossbeam::channel::Receiver<()>) {
        let fabric = Arc::new(whale_net::LiveFabric::new());
        let waker: Arc<Waker> = Arc::default();
        let (done_tx, done_rx) = crossbeam::channel::unbounded();
        let (mut pipelines, mut shard_inboxes) = (Vec::new(), Vec::new());
        for flat in 0..n {
            let id = EndpointId(flat as u32);
            let fabric_rx = fabric.register_woken(id, Arc::clone(&waker)).unwrap();
            let (tx, inbox_rx) = crossbeam::channel::bounded(4);
            let waker = Arc::clone(&waker);
            shard_inboxes.push(ShardInbox::new(tx, waker));
            let done_tx = done_tx.clone();
            pipelines.push(ShardPipeline::new(flat, 0, fabric_rx, inbox_rx, done_tx));
        }
        let routing = Routing {
            fabric,
            shard_inboxes,
            ..bare_routing(LiveConfig::default(), None)
        };
        let mut executors = Executor::deal(pipelines, &[waker]);
        (executors.remove(0), Arc::new(routing), done_rx)
    }

    #[test]
    fn a_parked_executor_exits_as_soon_as_its_last_endpoint_closes() {
        let (executor, routing, done_rx) = empty_executor(2);
        let handle = executor.spawn(0, Arc::clone(&routing));
        // No tasks: done at once, then parked until the fabric closes.
        for _ in 0..2 {
            done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let parks = || routing.stats.get(Ctr::pipeline_parks);
        while parks() == 0 {
            std::thread::yield_now();
        }
        // One endpoint closed: that pipeline leaves, the executor parks
        // again for the other.
        let before = parks();
        routing.fabric.deregister(EndpointId(0));
        while parks() == before {
            std::thread::yield_now();
        }
        assert!(!handle.is_finished(), "one pipeline is still open");
        let closed = Instant::now();
        routing.fabric.deregister(EndpointId(1));
        handle.join().unwrap();
        assert!(closed.elapsed() < PARK_CAP / 2, "{:?}", closed.elapsed());
    }

    #[test]
    fn a_blocking_spout_on_one_executor_finds_all_but_its_last_tuple_delivered() {
        // The spout sleeps 200 µs before each tuple and broadcasts it to
        // 16 sinks through the d* = 2 relay tree over four machines, all on
        // one executor. Each slow call ends the spout's step, so every
        // other pipeline steps before the spout is asked again: when it is
        // asked for tuple i, tuples ..= i - 2 have run at every sink. (The
        // ring cuts a slice at every frame here: its timer is the
        // batcher's to test, not the executor's.)
        const TUPLES: u64 = 60;
        let ring = whale_net::RingConfig {
            batch: whale_net::BatchConfig {
                mms: 1,
                ..whale_net::BatchConfig::default()
            },
            ..whale_net::RingConfig::default()
        };
        for fabric in [
            FabricKind::PerSend,
            FabricKind::Ring(ring),
            FabricKind::OneSided(whale_net::OneSidedConfig::default()),
        ] {
            let counts: Arc<[AtomicU64; 16]> = Arc::default();
            let behind: Arc<AtomicU64> = Arc::default();
            let (seen, late) = (Arc::clone(&counts), Arc::clone(&behind));
            let executed = Arc::clone(&counts);
            let mut b = crate::topology::TopologyBuilder::new();
            b.spout("src", 1, Schema::new(vec!["n"]))
                .bolt("sink", 16, Schema::new(vec!["n"]))
                .connect("src", "sink", Grouping::All);
            let ops = Operators::new()
                .spout("src", move |_| {
                    let (seen, late) = (Arc::clone(&seen), Arc::clone(&late));
                    Box::new(IterSpout::new((0..TUPLES).map(move |i| {
                        let slowest = seen.iter().map(|c| c.load(Ordering::Relaxed)).min();
                        if slowest.unwrap() + 1 < i {
                            late.fetch_add(1, Ordering::Relaxed);
                        }
                        std::thread::sleep(Duration::from_micros(200));
                        Tuple::with_id(i, vec![Value::I64(i as i64)])
                    })))
                })
                .bolt("sink", move |idx| {
                    let executed = Arc::clone(&executed);
                    Box::new(FnBolt::new(move |_t: &Tuple, _out: &mut dyn Emitter| {
                        executed[idx as usize].fetch_add(1, Ordering::Relaxed);
                    }))
                });
            let config = LiveConfig {
                machines: 4,
                multicast_d_star: Some(2),
                fabric,
                ..LiveConfig::default()
            };
            let r = run_on(b.build().unwrap(), ops, config, 1);
            assert_eq!(r.outcome, RunOutcome::Clean, "{fabric:?}");
            assert_eq!(r.executed[1], TUPLES * 16, "{fabric:?}");
            assert!(r.relay_forwards > 0, "{fabric:?}");
            let late = behind.load(Ordering::Relaxed);
            assert_eq!(late, 0, "{fabric:?}: asked ahead of its sinks {late} times");
        }
    }
}
