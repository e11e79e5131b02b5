//! Criterion microbenchmarks of the fabric pieces: ring memory region
//! reuse, stream-slicing batcher, and the live fabric's copy vs
//! zero-copy send paths.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use whale_net::{
    BatchConfig, Batcher, EndpointId, FabricPath, LiveFabric, MemoryRegistry, RingRegion,
};

fn bench_fabric(c: &mut Criterion) {
    c.bench_function("ring_produce_consume", |b| {
        let mut reg = MemoryRegistry::new();
        let mut ring: RingRegion<u64> = RingRegion::new(1_024, 256, &mut reg);
        b.iter(|| {
            ring.produce(black_box(7)).unwrap();
            ring.consume().unwrap()
        })
    });

    c.bench_function("batcher_offer", |b| {
        let mut batcher: Batcher<u64> = Batcher::new(BatchConfig {
            mms: 256 * 1024,
            wtl: Duration::from_millis(1),
        });
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(batcher.offer(Duration::from_nanos(i), i, 150))
        })
    });

    let payload = vec![0u8; 256];
    c.bench_function("live_fabric_send_copied_256B", |b| {
        let fabric = LiveFabric::new();
        let rx = fabric.register(EndpointId(1)).unwrap();
        b.iter(|| {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), black_box(&payload))
                .unwrap();
            rx.recv().unwrap()
        })
    });

    c.bench_function("live_fabric_send_shared_256B", |b| {
        let fabric = LiveFabric::new();
        let rx = fabric.register(EndpointId(1)).unwrap();
        let buf: Arc<[u8]> = Arc::from(&payload[..]);
        b.iter(|| {
            fabric
                .send_shared(EndpointId(0), EndpointId(1), black_box(buf.clone()))
                .unwrap();
            rx.recv().unwrap()
        })
    });

    c.bench_function("ring_fabric_post_flush_256B", |b| {
        let fabric = whale_net::RingFabric::new(whale_net::RingConfig::default());
        let rx = fabric.register(EndpointId(1)).unwrap();
        let buf: Arc<[u8]> = Arc::from(&payload[..]);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            fabric
                .send_shared(EndpointId(0), EndpointId(1), black_box(buf.clone()))
                .unwrap();
            fabric.flush_at(Duration::from_nanos(i));
            rx.try_recv().unwrap()
        })
    });
}

criterion_group!(benches, bench_fabric);
criterion_main!(benches);
