//! A sampling profiler around one saturating run of a benchmark-shaped
//! topology — `fanout` (the default): `fanout_relay`'s, 150 B tuples
//! broadcast to 16 field-reading sinks over 4 machines through the
//! d* = 2 relay tree on the per-send fabric; `stock`: `stock_acklog`'s,
//! the stock exchange with 16 matching instances over 4 machines on the
//! per-send fabric, every tuple tracked by the acker and every frame
//! written ahead to the partition log, its spout cycling a 65 536-record
//! pool generated before sampling starts; `keyed`: `keyed_ring`'s, 30 B
//! two-integer tuples grouped by `Fields(0)` over 4 096 keys to 16
//! field-reading sinks over 4 machines on the batched ring; `ride`:
//! `ride_onesided`'s, the ride-hailing topology with 16 matching
//! instances over 4 machines through the d* = 2 relay tree on the
//! one-sided fabric, its two spouts cycling 65 536-record pools and
//! every matching instance preloaded, outside the sampled time, with the
//! drivers its key routes to it. `stock` and `ride` run in segments, each
//! a run of its own, as the benchmark runs them. `SIGPROF` on process CPU time,
//! the handler stores the interrupted `rip` and a bounded frame-pointer
//! walk. A developer tool for containers without `perf` — not a knob,
//! not linked into the runtime. README "Profiling" has the build line
//! (`-C force-frame-pointers=yes`) and the `addr2line` pipeline that
//! folds the output into inclusive shares.
//!
//! Output: the process's `/proc/self/maps` on `#` lines, then one line per
//! sample, innermost first, as offsets from the executable's load address
//! (what `addr2line -e` takes for a PIE); frames outside the executable
//! (libc, vdso) stay absolute and fold to `??`.

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("live_profile reads x86_64 Linux signal frames; nothing to do on this target");
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    const USAGE: &str = "usage: live_profile [fanout|stock|keyed|ride] [tuples]";
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let shapes = ["fanout", "stock", "keyed", "ride"];
    let shape = match args.first().filter(|a| shapes.contains(&a.as_str())) {
        Some(_) => args.remove(0),
        None => "fanout".to_string(),
    };
    assert!(args.len() <= 1, "{USAGE}");
    let tuples: u64 = args.first().map_or(3_000_000, |n| n.parse().expect(USAGE));
    let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
    // Generated before the sampler starts: the benchmark pays no
    // generator either.
    let stock = (shape == "stock").then(stock_pool);
    let ride = (shape == "ride").then(ride_pools);
    sampler::start();
    let elapsed = if let Some(pool) = &stock {
        // As the benchmark runs it: segment after segment, each a run of
        // its own, so the order books a matching instance keeps stay the
        // size they are there.
        let segments = (0..tuples.div_ceil(STOCK_SEGMENT)).map(|i| {
            let n = STOCK_SEGMENT.min(tuples - i * STOCK_SEGMENT);
            let report = run_stock(pool, n);
            assert!(report.outcome.is_clean(), "{:?}", report.outcome);
            assert_eq!((report.spout_emitted, report.tuples_acked), (n, n));
            assert_eq!(report.tuples_replayed, 0);
            report.elapsed
        });
        segments.sum()
    } else if let Some(pools) = &ride {
        let segments = (0..tuples.div_ceil(RIDE_SEGMENT)).map(|i| {
            let n = RIDE_SEGMENT.min(tuples - i * RIDE_SEGMENT);
            let report = run_ride(pools, n);
            assert!(report.outcome.is_clean(), "{:?}", report.outcome);
            assert_eq!(report.spout_emitted, n);
            report.elapsed
        });
        segments.sum()
    } else if shape == "keyed" {
        let report = run_keyed(tuples);
        assert!(report.outcome.is_clean(), "{:?}", report.outcome);
        assert_eq!(report.executed[1], tuples);
        report.elapsed
    } else {
        let report = run_fanout(tuples);
        assert!(report.outcome.is_clean(), "{:?}", report.outcome);
        assert_eq!(report.executed[1], 16 * tuples);
        report.elapsed
    };
    sampler::arm(0);
    for line in maps.lines() {
        println!("# {line}");
    }
    // The first mapping of the executable starts at its load address.
    let exe = std::env::current_exe().expect("procfs");
    let exe = exe.to_str().expect("a UTF-8 path");
    let mut own = maps.lines().filter(|l| l.ends_with(exe));
    let (first, last) = (own.next().expect("own mapping"), own.next_back());
    let bound = |line: &str, i| u64::from_str_radix(line.split(['-', ' ']).nth(i).unwrap(), 16);
    let base = bound(first, 0).unwrap();
    let end = bound(last.unwrap_or(first), 1).unwrap();
    let samples = sampler::samples();
    for stack in &samples {
        let frames = stack.iter().map(|&pc| match pc {
            // `addr2line -a`'s own format, so its output joins on it.
            pc if (base..end).contains(&pc) => format!("{:#018x}", pc - base),
            pc => format!("{pc:#018x}"),
        });
        println!("{}", frames.collect::<Vec<_>>().join(" "));
    }
    let (secs, taken): (f64, _) = (elapsed.as_secs_f64(), samples.len());
    eprintln!("{tuples} tuples in {secs:.2} s, {taken} samples");
}

/// Source tuples per `stock` run.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const STOCK_SEGMENT: u64 = 200_000;

/// `stock_acklog`'s record pool: 65 536 exchange records drawn from the
/// generator once, cycled by every segment.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn stock_pool() -> Vec<whale_dsps::Tuple> {
    use whale_dsps::Spout;
    let nasdaq = whale_workloads::NasdaqConfig::default();
    let mut spout = whale_apps::stock_exchange::ExchangeSpout::new(1, nasdaq, 65_536);
    std::iter::from_fn(|| spout.next_tuple()).collect()
}

/// `stock_acklog`'s shape, unthrottled: the timeout is one nothing needs
/// on a fault-free fabric, so no replay changes the work per run.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn run_stock(pool: &[whale_dsps::Tuple], tuples: u64) -> whale_dsps::RunReport {
    use whale_apps::stock_exchange::{self, MatchingBolt, SplitBolt, VolumeBolt};
    use whale_dsps::{AckConfig, IterSpout, LiveConfig, LogConfig, Operators, Tuple};
    use whale_workloads::Side;
    let config = LiveConfig {
        machines: 4,
        ack: Some(AckConfig {
            timeout: std::time::Duration::from_secs(20),
            ..AckConfig::default()
        }),
        log: Some(LogConfig::default()),
        ..LiveConfig::default()
    };
    let pool = std::sync::Arc::new(pool.to_vec());
    let ops = Operators::new()
        .spout("source", move |_| {
            let records = std::sync::Arc::clone(&pool);
            let cycled = (0..tuples).map(move |i| {
                let record = &records[i as usize % records.len()];
                Tuple::with_id(i + 1, record.values.clone())
            });
            Box::new(IterSpout::new(cycled))
        })
        .bolt("split_sell", |_| Box::new(SplitBolt::new(Side::Sell)))
        .bolt("split_buy", |_| Box::new(SplitBolt::new(Side::Buy)))
        .bolt("matching", |_| Box::new(MatchingBolt::new()))
        .bolt("aggregation", |_| Box::new(VolumeBolt::new()));
    whale_dsps::run_topology(stock_exchange::topology(16), ops, config)
}

/// `keyed_ring`'s shape, unthrottled: `[key, n]` tuples over 4 096 keys.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn run_keyed(tuples: u64) -> whale_dsps::RunReport {
    use whale_dsps::{
        Emitter, FabricKind, Grouping, IterSpout, LazyFnBolt, LazyTuple, LiveConfig, Operators,
        RingConfig, Schema, TopologyBuilder, Tuple, Value,
    };
    let mut t = TopologyBuilder::new();
    t.spout("src", 1, Schema::new(vec!["key", "n"]))
        .bolt("sink", 16, Schema::new(vec!["key", "n"]))
        .connect("src", "sink", Grouping::Fields(0));
    let ops = Operators::new()
        .spout("src", move |_| {
            Box::new(IterSpout::new((1..=tuples).map(|i| {
                let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52;
                let t = Tuple::with_id(i, vec![Value::I64(key as i64), Value::I64(i as i64)]);
                debug_assert_eq!(t.payload_bytes(), 30);
                t
            })))
        })
        .bolt("sink", |_| {
            Box::new(LazyFnBolt::new(|t: &LazyTuple, _out: &mut dyn Emitter| {
                std::hint::black_box(t.field(1));
            }))
        });
    let config = LiveConfig {
        machines: 4,
        fabric: FabricKind::Ring(RingConfig::default()),
        ..LiveConfig::default()
    };
    whale_dsps::run_topology(t.build().unwrap(), ops, config)
}

/// Source tuples per `ride` run, split evenly between its two spouts.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const RIDE_SEGMENT: u64 = 100_000;

/// `ride_onesided`'s input: 65 536 driver locations and 65 536 requests
/// drawn from the generators once, cycled by every segment, and per
/// matching instance the locations its key routes to it (its preload).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
struct RidePools {
    locations: Vec<whale_dsps::Tuple>,
    requests: Vec<whale_dsps::Tuple>,
    preload: Vec<Vec<whale_dsps::Tuple>>,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn ride_pools() -> RidePools {
    use whale_apps::ride_hailing::{LocationSpout, RequestSpout};
    use whale_dsps::{Grouping, GroupingExec, Spout, TaskId};
    let config = whale_workloads::DidiConfig::default();
    let drain = |mut spout: Box<dyn Spout>| std::iter::from_fn(move || spout.next_tuple());
    let locations: Vec<_> = drain(Box::new(LocationSpout::new(1, config, 65_536))).collect();
    let requests = drain(Box::new(RequestSpout::new(2, config, 65_536))).collect();
    let mut keyed = GroupingExec::new(Grouping::Fields(1), (0..16).map(TaskId).collect());
    let (mut preload, mut owner) = (vec![Vec::new(); 16], Vec::new());
    for t in &locations {
        keyed.route_into(t, None, &mut owner).expect("key field");
        preload[owner[0].0 as usize].push(t.clone());
    }
    RidePools {
        locations,
        requests,
        preload,
    }
}

/// `ride_onesided`'s shape, unthrottled, its spouts alternating one for
/// one. The matching instances are preloaded with the sampler disarmed:
/// the benchmark builds them in its operators' set-up.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn run_ride(pools: &RidePools, tuples: u64) -> whale_dsps::RunReport {
    use std::sync::{Arc, Mutex};
    use whale_apps::ride_hailing::{self, AggregationBolt, MatchingBolt};
    use whale_dsps::{Bolt, FabricKind, IterSpout, LiveConfig, Operators, Tuple, VecEmitter};
    use whale_net::OneSidedConfig;
    sampler::arm(0);
    let matching: Vec<Mutex<Option<MatchingBolt>>> = (pools.preload.iter())
        .map(|drivers| {
            let mut bolt = MatchingBolt::new();
            for t in drivers {
                bolt.execute(t, &mut VecEmitter::default());
            }
            Mutex::new(Some(bolt))
        })
        .collect();
    sampler::arm(1_000);
    let cycled = |pool: &[Tuple], n: u64| {
        let pool = Arc::new(pool.to_vec());
        move |_| {
            let records = Arc::clone(&pool);
            let tuples = (0..n).map(move |i| {
                let record = &records[i as usize % records.len()];
                Tuple::with_id(i + 1, record.values.clone())
            });
            Box::new(IterSpout::new(tuples)) as Box<dyn whale_dsps::Spout>
        }
    };
    let ops = Operators::new()
        .spout("locations", cycled(&pools.locations, tuples - tuples / 2))
        .spout("requests", cycled(&pools.requests, tuples / 2))
        .bolt("matching", move |i| {
            let bolt = matching[i as usize].lock().unwrap().take();
            Box::new(bolt.expect("one instance each"))
        })
        .bolt("aggregation", |_| Box::new(AggregationBolt::new()));
    let config = LiveConfig {
        machines: 4,
        multicast_d_star: Some(2),
        fabric: FabricKind::OneSided(OneSidedConfig::default()),
        ..LiveConfig::default()
    };
    whale_dsps::run_topology(ride_hailing::topology(16), ops, config)
}

/// `fanout_relay`'s shape, unthrottled.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn run_fanout(tuples: u64) -> whale_dsps::RunReport {
    use whale_dsps::{
        Emitter, Grouping, IterSpout, LazyFnBolt, LazyTuple, LiveConfig, Operators, Schema,
        TopologyBuilder, Tuple, Value,
    };
    let mut t = TopologyBuilder::new();
    t.spout("src", 1, Schema::new(vec!["n", "payload"]))
        .bolt("sink", 16, Schema::new(vec!["n", "payload"]))
        .connect("src", "sink", Grouping::All);
    let ops = Operators::new()
        .spout("src", move |_| {
            let payload: std::sync::Arc<str> = "x".repeat(126).into();
            Box::new(IterSpout::new((1..=tuples).map(move |i| {
                let fields = vec![Value::I64(i as i64), Value::Str(payload.clone())];
                Tuple::with_id(i, fields)
            })))
        })
        .bolt("sink", |_| {
            Box::new(LazyFnBolt::new(|t: &LazyTuple, _out: &mut dyn Emitter| {
                std::hint::black_box(t.field(0));
            }))
        });
    let config = LiveConfig {
        machines: 4,
        multicast_d_star: Some(2),
        ..LiveConfig::default()
    };
    whale_dsps::run_topology(t.build().unwrap(), ops, config)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::ffi::c_void;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// Frames kept per sample (`rip` + callers), and samples kept.
    const DEPTH: usize = 24;
    const CAPACITY: usize = 64 * 1024;
    /// How far above the interrupted `rsp` a frame pointer is believed: a
    /// function built without one uses `rbp` for anything.
    const STACK_WINDOW: u64 = 512 * 1024;

    static STACKS: [AtomicU64; CAPACITY * DEPTH] = [const { AtomicU64::new(0) }; CAPACITY * DEPTH];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);
    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// `ucontext_t.uc_mcontext.gregs` starts 40 bytes in; `REG_RBP` = 10,
    /// `REG_RSP` = 15, `REG_RIP` = 16 (x86_64 `sys/ucontext.h`).
    const GREGS: usize = 40 / 8;

    /// glibc's x86_64 `struct sigaction`.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    /// `struct itimerval`: interval, then first expiry, as `(sec, usec)`.
    #[repr(C)]
    struct ITimerVal([i64; 4]);

    extern "C" {
        fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
    }

    extern "C" fn on_sigprof(_sig: i32, _info: *mut c_void, ucontext: *mut c_void) {
        let sample = TAKEN.fetch_add(1, Ordering::Relaxed);
        if sample >= CAPACITY {
            return;
        }
        let regs = ucontext as *const u64;
        // SAFETY: the kernel passes an SA_SIGINFO handler a valid
        // `ucontext_t`; the three registers are inside it (layout above).
        let (mut fp, sp, pc) = unsafe {
            let greg = |i: usize| regs.add(GREGS + i).read();
            (greg(10), greg(15), greg(16))
        };
        let out = &STACKS[sample * DEPTH..][..DEPTH];
        out[0].store(pc, Ordering::Relaxed);
        for slot in &out[1..] {
            // A frame record is `[caller's rbp, return address]`, on this
            // thread's stack above `rsp`, and records move up the stack.
            if fp % 8 != 0 || fp < sp || fp - sp > STACK_WINDOW {
                break;
            }
            // SAFETY: `fp` is 8-aligned and within half a megabyte above
            // the interrupted `rsp`, i.e. inside the interrupted thread's
            // mapped stack whenever the code was built with frame
            // pointers (the documented build); both words are plain reads.
            let (next, ret) = unsafe {
                let record = fp as *const u64;
                (record.read(), record.add(1).read())
            };
            if ret == 0 || next <= fp {
                break;
            }
            // The call instruction, not the one it returns to (which may
            // belong to the next source line or inlined function).
            slot.store(ret - 1, Ordering::Relaxed);
            fp = next;
        }
    }

    /// Fire every `usec` of process CPU time from now on; 0 disarms.
    pub fn arm(usec: i64) {
        let every = ITimerVal([0, usec, 0, usec]);
        // SAFETY: `every` is a valid `itimerval`; no old value is asked for.
        let rc = unsafe { setitimer(ITIMER_PROF, &every, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer");
    }

    /// Install the handler and start the process-CPU-time timer (asked
    /// for at 1 kHz; the kernel delivers at its tick, 250 Hz on most).
    pub fn start() {
        let act = SigAction {
            handler: on_sigprof as *const () as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: `act` is a fully initialized glibc `struct sigaction`
        // whose handler only touches its arguments and the statics above
        // (async-signal-safe: atomics, no allocation, no locks).
        let rc = unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction");
        arm(1_000);
    }

    /// The stacks taken, innermost frame first.
    pub fn samples() -> Vec<Vec<u64>> {
        let taken = TAKEN.load(Ordering::Relaxed).min(CAPACITY);
        let stack = |s: usize| {
            let frames = STACKS[s * DEPTH..][..DEPTH].iter();
            let frames = frames.map(|f| f.load(Ordering::Relaxed));
            frames.take_while(|&pc| pc != 0).collect()
        };
        (0..taken).map(stack).collect()
    }
}
