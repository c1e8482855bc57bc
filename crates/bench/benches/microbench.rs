//! Microbenchmarks of the hot paths: header codec, CRC-32C, window
//! operations, fragmentation arithmetic, and raw simulator event
//! throughput.

use bytes::{Bytes, BytesMut};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use netsim::process::{Ctx, DatagramIn, Process};
use netsim::{topology, Sim, SimConfig, UdpDest};
use rmcast::loopback::Loopback;
use rmcast::window::SendWindow;
use rmcast::{ProtocolConfig, ProtocolKind};
use rmwire::{Header, PacketFlags, PacketType, Rank, SeqNo, Time};

fn header_codec(c: &mut Criterion) {
    let h = Header {
        ptype: PacketType::Data,
        flags: PacketFlags::POLL | PacketFlags::LAST,
        src_rank: Rank(17),
        transfer: 12345,
        seq: SeqNo(678),
    };
    let mut g = c.benchmark_group("micro/header");
    g.throughput(Throughput::Elements(1));
    g.bench_function("encode", |b| {
        let mut buf = BytesMut::with_capacity(64);
        b.iter(|| {
            buf.clear();
            h.encode(&mut buf);
            black_box(&buf);
        })
    });
    let mut encoded = BytesMut::new();
    h.encode(&mut encoded);
    let encoded = encoded.freeze();
    g.bench_function("decode", |b| {
        b.iter(|| {
            let mut s = &encoded[..];
            black_box(Header::decode(&mut s).unwrap());
        })
    });
    g.finish();
}

/// CRC-32C throughput at the two sizes the stack checksums: one 8 KB
/// integrity trailer and one 500 KB delivery witness.
fn crc32c(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/crc32c");
    for (name, len) in [("8kB-trailer", 8_000usize), ("500kB-witness", 500_000)] {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(name, |b| {
            b.iter(|| black_box(rmwire::crc32c(black_box(&data))))
        });
    }
    g.finish();
}

fn window_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/window");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("fill-release-1000", |b| {
        b.iter(|| {
            let mut w = SendWindow::new(1000, 64);
            let mut released = 0u32;
            while !w.all_released() {
                while w.can_send() {
                    w.mark_sent(Time::ZERO);
                }
                released = (released + 64).min(1000);
                w.release(released);
            }
            black_box(w.base());
        })
    });
    g.finish();
}

fn fragmentation(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/fragment");
    g.throughput(Throughput::Bytes(50_000));
    g.bench_function("50kB-datagram", |b| {
        b.iter(|| {
            let n = netsim::frame::n_fragments(black_box(50_000));
            let mut total = 0usize;
            for i in 0..n {
                total += netsim::frame::fragment_wire_bytes(50_000, i);
            }
            black_box(total)
        })
    });
    g.finish();
}

/// Raw event-engine throughput: a two-host ping-pong of small datagrams.
fn sim_engine(c: &mut Criterion) {
    struct Ping {
        left: u32,
        peer: netsim::HostId,
    }
    impl Process for Ping {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(UdpDest::host(self.peer, 9), Bytes::from_static(b"x"));
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dg: DatagramIn) {
            if self.left == 0 {
                ctx.stop_sim();
                return;
            }
            self.left -= 1;
            ctx.send(UdpDest::host(dg.src_host, 9), Bytes::from_static(b"x"));
        }
    }

    let mut g = c.benchmark_group("micro/netsim");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("pingpong-10k", |b| {
        b.iter(|| {
            let mut sim = Sim::new(SimConfig::default(), 1);
            let hosts = topology::single_switch(&mut sim, 2);
            sim.spawn(
                hosts[0],
                9,
                Box::new(Ping {
                    left: 10_000,
                    peer: hosts[1],
                }),
            );
            sim.spawn(
                hosts[1],
                9,
                Box::new(Ping {
                    left: 10_000,
                    peer: hosts[0],
                }),
            );
            sim.run();
            black_box(sim.now())
        })
    });
    g.finish();
}

/// End-to-end protocol engine throughput without the simulator.
fn loopback_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/loopback");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.throughput(Throughput::Bytes(500_000));
    g.bench_function("nak-500kB-8recv", |b| {
        b.iter(|| {
            let cfg = ProtocolConfig::new(ProtocolKind::nak_polling(16), 8_000, 20);
            let mut net = Loopback::new(cfg, 8, 1);
            net.send_message(Bytes::from(vec![1u8; 500_000]));
            black_box(net.run().len())
        })
    });
    g.finish();
}

criterion_group!(
    micro,
    header_codec,
    crc32c,
    window_ops,
    fragmentation,
    sim_engine,
    loopback_engine
);
criterion_main!(micro);
