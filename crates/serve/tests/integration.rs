//! End-to-end tests: a real server on loopback, driven through the
//! client library with synthetic iustitia-netsim traffic.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::time::Duration;

use iustitia::features::{FeatureExtractor, FeatureMode, TrainingMethod};
use iustitia::model::{train_from_corpus, train_from_corpus_battery, ModelKind, NatureModel};
use iustitia::pipeline::{HeaderPolicy, PipelineConfig};
use iustitia_entropy::{FeatureWidths, BATTERY_FEATURES};
use iustitia_netsim::trace::{ContentMode, TraceConfig, TraceGenerator};
use iustitia_netsim::{FiveTuple, Packet, Protocol, TcpFlags};
use iustitia_serve::{
    AdmissionPolicy, Client, ClientError, ClientEvent, FlowVerdict, Server, ServerConfig, Stage,
};

fn trained_model() -> NatureModel {
    let corpus =
        iustitia_corpus::CorpusBuilder::new(33).files_per_class(80).size_range(1024, 4096).build();
    train_from_corpus(
        &corpus,
        &FeatureWidths::svm_selected(),
        TrainingMethod::Prefix { b: 32 },
        FeatureMode::Exact,
        &ModelKind::paper_cart(),
        33,
    )
    .expect("balanced corpus")
}

fn server_config() -> ServerConfig {
    let mut config = ServerConfig::new(PipelineConfig::headline(33));
    config.shards = 4;
    config.queue_capacity = 1 << 14; // ample: this test asserts zero rejects
    config
}

/// The acceptance scenario: ≥ 4 shards, ≥ 10k synthetic packets pushed
/// through the client library, one verdict per data flow, and stats
/// consistent with what the client sent.
#[test]
fn serves_synthetic_trace_end_to_end() {
    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();

    let mut trace_config = TraceConfig::small_test(42);
    trace_config.n_flows = 640;
    trace_config.duration = 12.0;
    trace_config.content = ContentMode::Realistic;
    let mut generator = TraceGenerator::new(trace_config);
    let packets: Vec<Packet> = generator.by_ref().collect();
    assert!(packets.len() >= 10_000, "trace too small: {} packets", packets.len());

    // Tuples that carried at least one data packet, ignoring those only
    // seen on a closing packet (the pipeline drops a closing packet's
    // payload, so such a flow never opens a buffer).
    let mut data_tuples: HashSet<FiveTuple> = HashSet::new();
    for p in &packets {
        if p.is_data() && !p.flags.closes_flow() {
            data_tuples.insert(p.tuple);
        }
    }

    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut events = Vec::new();
    for packet in &packets {
        client.submit_packet(packet).unwrap();
        events.extend(client.poll_events());
    }
    client.flush().unwrap();

    // The drain barrier: all submitted packets processed, all in-flight
    // flows classified, every verdict on the wire before the reply.
    client.drain().unwrap();
    events.extend(client.poll_events());

    let mut verdicts: HashMap<FiveTuple, iustitia_corpus::FileClass> = HashMap::new();
    let mut busy = 0u64;
    for event in &events {
        match event {
            ClientEvent::Verdict(v) => {
                let prev = verdicts.insert(v.tuple, v.label);
                assert!(prev.is_none(), "duplicate verdict for {:?}", v.tuple);
                assert!(v.packets > 0);
                assert!(v.buffered_bytes > 0);
                assert!(v.fill_time >= 0.0);
            }
            ClientEvent::Busy(_) => busy += 1,
        }
    }
    assert_eq!(busy, 0, "queues were sized to never reject");

    // Every completed flow got exactly one verdict.
    let verdict_tuples: HashSet<FiveTuple> = verdicts.keys().copied().collect();
    assert_eq!(verdict_tuples, data_tuples, "one verdict per data flow");

    // The model should beat chance comfortably on realistic content.
    let truth = generator.ground_truth();
    let correct =
        verdicts.iter().filter(|(tuple, &label)| truth.get(*tuple) == Some(&label)).count();
    let accuracy = correct as f64 / verdicts.len() as f64;
    assert!(accuracy > 0.5, "accuracy {accuracy:.2} suspiciously low");

    // Stats agree with what this (only) client sent and received.
    let stats = client.stats().unwrap();
    assert_eq!(stats.packets, packets.len() as u64);
    assert_eq!(stats.busy_rejects, 0);
    assert_eq!(stats.dropped_oldest, 0);
    assert_eq!(stats.flows_classified, verdicts.len() as u64);
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.drains, 1);
    // The hash stage is timed only when a hash runs: one sample per
    // flow-ID memo miss, and every packet offered was one or the other.
    assert_eq!(stats.stage(Stage::Hash).count(), stats.flow_memo_misses);
    assert_eq!(stats.flow_memo_hits + stats.flow_memo_misses, packets.len() as u64);
    assert!(
        stats.flow_memo_misses >= data_tuples.len() as u64,
        "each flow is hashed at least once"
    );
    assert!(stats.flow_memo_hits > 0, "repeat packets of a flow must not be hashed again");
    assert_eq!(stats.stage(Stage::CdbLookup).count(), stats.hits);
    assert_eq!(
        stats.stage(Stage::Classify).count() + stats.stage(Stage::BufferFill).count(),
        stats.packets - stats.hits - ignored_count(&packets) as u64
    );
    assert!(stats.hits > 0, "repeat packets on classified flows must hit the CDB");
    assert!(stats.stage(Stage::Hash).p99().is_some());

    // Per-shard gauges: one entry per shard, and after the drain
    // barrier every shard's pipeline is empty.
    assert_eq!(stats.shards.len(), 4);
    assert_eq!(stats.pending_flows(), 0, "drain leaves no pending flows");
    assert_eq!(stats.resident_feature_bytes(), 0);

    // Flow-state pooling: with hundreds of flows per shard, almost all
    // of them must have recycled a pooled state instead of allocating,
    // and the drained pipelines hold their states parked for reuse.
    assert!(
        stats.state_pool_hits() > 0,
        "steady-state flows must reuse pooled feature state (hits={})",
        stats.state_pool_hits()
    );
    assert!(stats.state_pool_size() > 0, "drained pipelines must park their flow states for reuse");
    assert!(
        stats.state_pool_hits() + stats.state_pool_size() >= stats.flows_classified,
        "every classified flow's state was pooled or reused: hits={} parked={} flows={}",
        stats.state_pool_hits(),
        stats.state_pool_size(),
        stats.flows_classified
    );

    client.close().unwrap();
    server.shutdown();
}

/// Packets the pipeline ignores outright: closing packets and empty
/// (pure-ACK/handshake) packets.
fn ignored_count(packets: &[Packet]) -> usize {
    packets.iter().filter(|p| p.flags.closes_flow() || !p.is_data()).count()
}

/// Graceful shutdown classifies in-flight flows from the bytes they
/// have buffered and pushes final verdicts to connected clients.
#[test]
fn shutdown_drains_in_flight_flows() {
    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // 8 bytes buffered of a 32-byte target: flow stays in flight.
    let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), 40000, Ipv4Addr::new(10, 0, 0, 2), 443);
    let packet =
        Packet { timestamp: 0.5, tuple, flags: TcpFlags::ACK, payload: b"partial!".to_vec() };
    client.submit_packet(&packet).unwrap();
    client.flush().unwrap();

    // No verdict while the buffer is short of b bytes...
    let stats = client.stats().unwrap();
    assert_eq!(stats.packets, 1);
    assert!(client.poll_events().is_empty());

    // ...until shutdown flushes it.
    server.shutdown();
    let event = client.recv_event_timeout(Duration::from_secs(10));
    match event {
        Some(ClientEvent::Verdict(v)) => {
            assert_eq!(v.tuple, tuple);
            assert_eq!(v.packets, 1);
            assert_eq!(v.buffered_bytes, 8);
        }
        other => panic!("expected a shutdown verdict, got {other:?}"),
    }
}

/// The verdicts among `events`.
fn verdicts_in(events: Vec<ClientEvent>) -> Vec<FlowVerdict> {
    events
        .into_iter()
        .filter_map(|event| match event {
            ClientEvent::Verdict(v) => Some(v),
            ClientEvent::Busy(_) => None,
        })
        .collect()
}

/// One shard, one connection, the given packets in one write, then a
/// drain: the verdicts that came back.
fn verdicts_after_drain(packets: &[Packet]) -> Vec<FlowVerdict> {
    let mut config = server_config();
    config.shards = 1;
    let server = Server::start("127.0.0.1:0", trained_model(), config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for packet in packets {
        client.submit_packet(packet).unwrap();
    }
    client.drain().unwrap();
    let verdicts = verdicts_in(client.poll_events());
    client.close().unwrap();
    server.shutdown();
    verdicts
}

/// A flow that pauses longer than the idle timeout with nothing else on
/// its shard is classified by the idle sweep its own next packet makes
/// due; that packet is then a CDB hit. The sweep's verdict must still
/// reach the client.
#[test]
fn flow_swept_by_its_own_packet_keeps_its_verdict() {
    let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), 40001, Ipv4Addr::new(10, 0, 0, 2), 443);
    let idle_timeout = server_config().pipeline.idle_timeout;
    let data = |timestamp, payload: &[u8]| Packet {
        timestamp,
        tuple,
        flags: TcpFlags::ACK,
        payload: payload.to_vec(),
    };
    let verdicts =
        verdicts_after_drain(&[data(0.0, b"partial!"), data(idle_timeout + 1.0, b"and more")]);
    assert_eq!(verdicts.len(), 1, "exactly one verdict for the flow: {verdicts:?}");
    assert_eq!(verdicts[0].tuple, tuple);
    assert_eq!((verdicts[0].packets, verdicts[0].buffered_bytes), (1, 8), "taken by the sweep");
}

/// A tuple that classifies, closes and starts over inside one write
/// (one drained segment, when the worker takes it whole) gets one
/// verdict per life: neither lost with the close's route teardown nor
/// duplicated.
#[test]
fn close_then_reopen_yields_one_verdict_per_life() {
    let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), 40002, Ipv4Addr::new(10, 0, 0, 2), 443);
    let packet = |timestamp, flags, payload: &[u8]| Packet {
        timestamp,
        tuple,
        flags,
        payload: payload.to_vec(),
    };
    let full = [b'a'; 48];
    let verdicts = verdicts_after_drain(&[
        packet(0.0, TcpFlags::ACK, &full),
        packet(0.1, TcpFlags::ACK, b"a cdb hit"),
        packet(0.2, TcpFlags::FIN | TcpFlags::ACK, &[]),
        packet(0.3, TcpFlags::ACK, &full[..16]),
        packet(0.4, TcpFlags::ACK, &full[..16]),
    ]);
    assert_eq!(verdicts.len(), 2, "one verdict per life of the tuple: {verdicts:?}");
    assert_eq!((verdicts[0].packets, verdicts[0].buffered_bytes), (1, 32));
    assert_eq!((verdicts[1].packets, verdicts[1].buffered_bytes), (2, 32));
}

/// A drain barrier reports how many of the flushed flows belonged to
/// the requesting connection.
#[test]
fn drain_flushes_and_counts_own_flows() {
    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    for port in 0..5u16 {
        let packet = Packet {
            timestamp: 0.1,
            tuple: FiveTuple::udp(
                Ipv4Addr::new(172, 16, 0, 1),
                9000 + port,
                Ipv4Addr::new(172, 16, 0, 2),
                53,
            ),
            flags: TcpFlags::empty(),
            payload: vec![0x55; 4],
        };
        client.submit_packet(&packet).unwrap();
    }
    let flushed = client.drain().unwrap();
    assert_eq!(flushed, 5, "all five short flows flushed for this connection");

    let verdicts = client.poll_events();
    assert_eq!(verdicts.len(), 5);

    // A second drain has nothing left to flush.
    assert_eq!(client.drain().unwrap(), 0);

    client.close().unwrap();
    server.shutdown();
}

/// Sixteen bytes of `tuple`'s data, a data packet's worth of half a
/// `b = 32` window.
fn half_window(tuple: FiveTuple, timestamp: f64, byte: u8) -> Packet {
    Packet { timestamp, tuple, flags: TcpFlags::ACK, payload: vec![byte; 16] }
}

/// Waits for `client`'s next event, which must be a verdict.
fn next_verdict(client: &mut Client) -> FlowVerdict {
    match client.recv_event_timeout(Duration::from_secs(10)) {
        Some(ClientEvent::Verdict(v)) => v,
        other => panic!("expected a verdict, got {other:?}"),
    }
}

/// A flow that leaves the table without a verdict (every byte it sent
/// was header skip, so the drain's sweep drops it) keeps no claim on
/// its tuple: the tuple's next life answers the connection that sends
/// it, and that connection's drain counts it.
#[test]
fn a_flow_that_leaves_without_a_verdict_does_not_claim_the_tuples_next_life() {
    let mut config = server_config();
    config.pipeline.header_policy = HeaderPolicy::SkipThreshold { t: 64 };
    let server = Server::start("127.0.0.1:0", trained_model(), config).unwrap();
    let tuple = FiveTuple::udp(Ipv4Addr::new(10, 0, 0, 1), 40003, Ipv4Addr::new(10, 0, 0, 2), 53);
    let packet = |timestamp, len| Packet {
        timestamp,
        tuple,
        flags: TcpFlags::empty(),
        payload: vec![b'h'; len],
    };

    let mut a = Client::connect(server.local_addr()).unwrap();
    a.submit_packet(&packet(0.0, 16)).unwrap();
    assert_eq!(a.drain().unwrap(), 0, "16 bytes of a 64-byte skip: nothing to classify");

    let mut b = Client::connect(server.local_addr()).unwrap();
    b.submit_packet(&packet(1.0, 80)).unwrap(); // 64 skipped, 16 of 32 fed
    assert_eq!(b.drain().unwrap(), 1, "the drain classifies B's flow, for B");
    let verdicts = verdicts_in(b.poll_events());
    assert_eq!(verdicts.len(), 1, "B's verdict reaches B: {verdicts:?}");
    assert_eq!(
        (verdicts[0].tuple, verdicts[0].packets, verdicts[0].buffered_bytes),
        (tuple, 1, 80)
    );

    assert_eq!(a.drain().unwrap(), 0);
    assert!(a.poll_events().is_empty(), "A is owed nothing");
    a.close().unwrap();
    b.close().unwrap();
    server.shutdown();
}

/// A client that disconnects mid-flow and finishes the flow on a new
/// connection gets the verdict there.
#[test]
fn a_reconnected_client_finishing_a_flow_gets_its_verdict() {
    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();
    let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), 40004, Ipv4Addr::new(10, 0, 0, 2), 443);

    let mut a = Client::connect(server.local_addr()).unwrap();
    a.submit_packet(&half_window(tuple, 0.0, b'a')).unwrap();
    // `close` returns once the server has closed the socket, after
    // every shard passed A's disconnect barrier.
    assert!(verdicts_in(a.close().unwrap()).is_empty(), "half a window: no verdict yet");

    let mut b = Client::connect(server.local_addr()).unwrap();
    b.submit_packet(&half_window(tuple, 0.1, b'b')).unwrap();
    b.flush().unwrap();
    let v = next_verdict(&mut b);
    assert_eq!((v.tuple, v.packets, v.buffered_bytes), (tuple, 2, 32));
    b.close().unwrap();
    server.shutdown();
}

/// Two live connections interleaving one tuple: the verdict answers the
/// one that sent the flow's latest data packet, not the first sender.
#[test]
fn interleaved_connections_answer_the_latest_sender() {
    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();
    let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), 40005, Ipv4Addr::new(10, 0, 0, 2), 443);

    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    a.submit_packet(&half_window(tuple, 0.0, b'a')).unwrap();
    // The reactor dispatches a connection's earlier submits before it
    // answers `Stats`, so A's packet is queued ahead of B's.
    a.stats().unwrap();
    b.submit_packet(&half_window(tuple, 0.1, b'b')).unwrap();
    b.flush().unwrap();
    let v = next_verdict(&mut b);
    assert_eq!((v.tuple, v.packets, v.buffered_bytes), (tuple, 2, 32));

    assert_eq!(a.drain().unwrap(), 0);
    assert!(a.poll_events().is_empty(), "the first sender is owed nothing");
    a.close().unwrap();
    b.close().unwrap();
    server.shutdown();
}

/// RejectBusy admission: overload produces Busy events, and the
/// accounting always balances.
#[test]
fn reject_busy_accounting_balances() {
    let mut config = server_config();
    config.shards = 1;
    config.queue_capacity = 1;
    config.admission = AdmissionPolicy::RejectBusy;
    let server = Server::start("127.0.0.1:0", trained_model(), config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 9, 8, 7), 1234, Ipv4Addr::new(10, 9, 8, 6), 80);
    let n = 256u64;
    for i in 0..n {
        let packet = Packet {
            timestamp: i as f64 * 1e-4,
            tuple,
            flags: TcpFlags::ACK,
            payload: vec![0xAB], // 1-byte payloads: the buffer fills slowly
        };
        client.submit_packet(&packet).unwrap();
    }
    client.flush().unwrap();

    let stats = client.stats().unwrap();
    assert_eq!(stats.packets + stats.busy_rejects, n, "every packet admitted or rejected");
    let busy = client
        .poll_events()
        .iter()
        .filter(|e| matches!(e, ClientEvent::Busy(t) if *t == tuple))
        .count() as u64;
    assert_eq!(busy, stats.busy_rejects, "one Busy frame per reject");

    client.close().unwrap();
    server.shutdown();
}

/// Batch amortization regression test: a burst of N packets must cost
/// far fewer than N shard-queue lock acquisitions. Readers push whole
/// batches under one lock and the worker drains everything per wakeup,
/// so the counter stays an order of magnitude below the packet count;
/// a lock-per-packet regression on either side would blow past N.
#[test]
fn burst_takes_far_fewer_lock_acquisitions_than_packets() {
    let mut config = server_config();
    config.shards = 1;
    let server = Server::start("127.0.0.1:0", trained_model(), config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let n = 2048u64;
    for i in 0..n {
        let packet = Packet {
            timestamp: i as f64 * 1e-4,
            tuple: FiveTuple::udp(
                Ipv4Addr::new(172, 20, 0, 1),
                7000 + (i % 64) as u16,
                Ipv4Addr::new(172, 20, 0, 2),
                4433,
            ),
            flags: TcpFlags::empty(),
            payload: vec![0x33; 4],
        };
        client.submit_packet(&packet).unwrap();
    }
    client.flush().unwrap();
    client.drain().unwrap();

    let stats = client.stats().unwrap();
    assert_eq!(stats.packets, n, "ample queue admits the whole burst");
    assert!(stats.queue_lock_acquisitions > 0, "the counter must be wired up");
    assert!(
        stats.queue_lock_acquisitions < n / 4,
        "burst of {} packets cost {} lock acquisitions; batching should amortize \
         to roughly n / batch_limit",
        n,
        stats.queue_lock_acquisitions
    );

    // The batch-dispatch stage records its shape per segment.
    assert!(stats.batch_size.count() > 0, "batched dispatch must record batch sizes");
    assert_eq!(
        stats.batch_size.count(),
        stats.flows_per_batch.count(),
        "each dispatched segment records both histograms"
    );

    client.close().unwrap();
    server.shutdown();
}

/// One-shot ClassifyBuffer bypasses flow state and matches a local
/// model run bit-for-bit (exact entropy features are deterministic).
#[test]
fn classify_buffer_matches_local_model() {
    let model = trained_model();
    let server = Server::start("127.0.0.1:0", model.clone(), server_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut extractor = FeatureExtractor::new(FeatureWidths::svm_selected(), FeatureMode::Exact, 0);
    let samples: [&[u8]; 3] = [
        b"The quick brown fox jumps over the lazy dog, twice over.",
        &[
            0u8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
            24, 25, 26, 27, 28, 29, 30, 31, 32, 33,
        ],
        &[
            0xE7, 0x12, 0x9C, 0x44, 0xD0, 0x5B, 0xF3, 0x2E, 0x81, 0x6A, 0xC5, 0x0F, 0xB8, 0x93,
            0x27, 0xDC, 0x4E, 0xA1, 0x78, 0x35, 0xEB, 0x52, 0x0D, 0xC6, 0x99, 0x3F, 0x84, 0x61,
            0xF2, 0x1B, 0xAE, 0x47, 0x70, 0x8D,
        ],
    ];
    for data in samples {
        let remote = client.classify_buffer(data).unwrap();
        let local = model.predict(&extractor.extract(&data[..data.len().min(32)]));
        assert_eq!(remote, local);
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.classify_requests, samples.len() as u64);
    assert_eq!(stats.packets, 0, "no flow state was touched");

    client.close().unwrap();
    server.shutdown();
}

/// A model trained with the randomness battery, served with the
/// battery on as `iustitia serve` does for such a model: `ClassifyBuffer`
/// extracts the battery features too, labels as the local model does,
/// and the server still answers `Stats` afterwards. Served with the
/// battery off, the same model cannot classify: the request gets an
/// `Error` naming both widths, and the connection keeps serving.
#[test]
fn classify_buffer_serves_a_battery_model() {
    let corpus =
        iustitia_corpus::CorpusBuilder::new(33).files_per_class(40).size_range(1024, 4096).build();
    let widths = FeatureWidths::svm_selected();
    let samples: [&[u8]; 2] = [
        b"The quick brown fox jumps over the lazy dog, twice over.",
        &[
            0xE7, 0x12, 0x9C, 0x44, 0xD0, 0x5B, 0xF3, 0x2E, 0x81, 0x6A, 0xC5, 0x0F, 0xB8, 0x93,
            0x27, 0xDC, 0x4E, 0xA1, 0x78, 0x35, 0xEB, 0x52, 0x0D, 0xC6, 0x99, 0x3F, 0x84, 0x61,
            0xF2, 0x1B, 0xAE, 0x47, 0x70, 0x8D,
        ],
    ];
    let mut extractor =
        FeatureExtractor::new(widths.clone(), FeatureMode::Exact, 0).with_battery(true);
    for kind in [ModelKind::paper_cart(), ModelKind::paper_svm()] {
        let model = train_from_corpus_battery(
            &corpus,
            &widths,
            TrainingMethod::Prefix { b: 32 },
            FeatureMode::Exact,
            &kind,
            33,
        )
        .expect("balanced corpus");
        assert_eq!(model.n_features(), widths.len() + BATTERY_FEATURES);

        let mut config = server_config();
        config.pipeline.battery = true;
        let server = Server::start("127.0.0.1:0", model.clone(), config).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for data in samples {
            let remote = client.classify_buffer(data).unwrap();
            let local = model.predict(&extractor.extract(&data[..data.len().min(32)]));
            assert_eq!(remote, local, "{kind:?}");
        }
        let stats = client.stats().expect("the server serves on after classifying");
        assert_eq!(stats.classify_requests, samples.len() as u64);
        client.close().unwrap();
        server.shutdown();

        let server = Server::start("127.0.0.1:0", model, server_config()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let widths_named = format!(
            "the model takes {} features, this server extracts {}",
            widths.len() + BATTERY_FEATURES,
            widths.len()
        );
        match client.classify_buffer(samples[0]) {
            Err(ClientError::Server(msg)) => assert!(msg.contains(&widths_named), "{msg}"),
            other => panic!("{kind:?}: expected an Error frame, got {other:?}"),
        }
        let stats = client.stats().expect("a width mismatch does not end the connection");
        assert_eq!(stats.classify_requests, 1);
        client.close().unwrap();
        server.shutdown();
    }
}

/// The server binds one TCP listener and no datagram socket: the UDP
/// port of the same number stays free for anyone to bind.
#[test]
fn the_server_binds_no_udp_socket() {
    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();
    let socket = std::net::UdpSocket::bind(server.local_addr());
    assert!(socket.is_ok(), "the server holds the UDP port too: {socket:?}");
    drop(socket);
    server.shutdown();
}

/// Junk on the wire gets a descriptive Error frame back.
#[test]
fn malformed_frame_yields_error_response() {
    use iustitia_serve::proto::{read_frame, write_frame};

    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut stream, 0x7F, b"???").unwrap();
    let (type_byte, _body) = read_frame(&mut stream).unwrap().expect("an error frame");
    assert_eq!(type_byte, 0x86, "0x86 is the Error frame type");
    server.shutdown();
}

/// Shutdown regression: the reactor is unblocked by its wakeup
/// eventfd, not by the old hack of dialing a throwaway TCP connection
/// to its own listener. An idle server must shut down promptly, with
/// zero connections ever accepted, and leave the port closed.
#[test]
fn shutdown_completes_without_self_connection() {
    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();
    let addr = server.local_addr();

    // Nothing ever connected — and nothing may connect during
    // shutdown either (the stop phase closes the listener before the
    // reactor exits, so a self-connect would deadlock, not help).
    assert_eq!(server.stats().connections, 0);

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown must complete without a self-connection to unblock accept");

    let refused = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(2));
    assert!(refused.is_err(), "listener must be gone after shutdown");
}

/// Many-connections smoke: one reactor serves hundreds of sockets
/// concurrently — every probe's flow classifies, nothing is lost, and
/// the accept-to-verdict histogram sees every verdict.
#[test]
fn many_connections_smoke() {
    use iustitia_serve::proto::{read_frame, write_frame, Request, Response};

    const CONNS: usize = 256;
    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();

    // Phase 1: every probe connects and submits one 2-packet flow
    // (2 × 16 bytes fills the b = 32 buffer) before anyone reads, so
    // all sockets are genuinely concurrent.
    let mut probes = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let tuple = FiveTuple::udp(
            Ipv4Addr::new(10, 1, (i / 256) as u8, (i % 256) as u8),
            40_000 + i as u16,
            Ipv4Addr::new(10, 99, 99, 99),
            9999,
        );
        probes.push((stream, tuple));
    }
    for (stream, tuple) in &mut probes {
        for k in 0..2u8 {
            let packet = Packet {
                timestamp: 0.01 * f64::from(k),
                tuple: *tuple,
                flags: TcpFlags::empty(),
                payload: vec![0xC3 ^ k; 16],
            };
            let (t, body) = Request::SubmitPacket(packet).encode().unwrap();
            write_frame(stream, t, &body).unwrap();
        }
    }

    // Phase 2: every probe gets exactly its own verdict back.
    for (stream, tuple) in &mut probes {
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let (type_byte, body) = read_frame(stream).unwrap().expect("a verdict frame");
        match Response::decode(type_byte, &body).unwrap() {
            Response::FlowVerdict(v) => assert_eq!(v.tuple, *tuple, "verdict routed to its owner"),
            other => panic!("expected a verdict, got {other:?}"),
        }
    }

    let mut control = Client::connect(server.local_addr()).unwrap();
    let stats = control.stats().unwrap();
    assert_eq!(stats.connections, CONNS as u64 + 1, "every probe (and this client) accepted");
    assert_eq!(stats.packets, 2 * CONNS as u64, "no packet lost across {CONNS} sockets");
    assert_eq!(stats.busy_rejects, 0);
    assert!(
        stats.accept_to_verdict.count() >= CONNS as u64,
        "accept-to-verdict latency recorded per verdict: {}",
        stats.accept_to_verdict.count()
    );
    assert!(
        stats.open_connections >= 1 && stats.open_connections <= CONNS as u64 + 1,
        "open-connection gauge in range: {}",
        stats.open_connections
    );
    // The sockets have gone quiet at frame boundaries: at most a
    // partial frame may stay banked per connection, and here every
    // frame arrived whole, so nothing is.
    assert_eq!(
        stats.reassembly_buffer_bytes, 0,
        "quiet connections at a frame boundary bank no bytes"
    );

    drop(probes);
    control.close().unwrap();
    server.shutdown();
}

/// UDP flows work exactly like TCP flows (no flags, no close).
#[test]
fn udp_flow_classifies_on_full_buffer() {
    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let tuple =
        FiveTuple::udp(Ipv4Addr::new(192, 168, 1, 5), 5353, Ipv4Addr::new(192, 168, 1, 9), 5353);
    for i in 0..4 {
        let packet = Packet {
            timestamp: 0.1 * f64::from(i),
            tuple,
            flags: TcpFlags::empty(),
            payload: vec![b'a' + i as u8; 16], // 4 × 16 = 64 ≥ b = 32
        };
        client.submit_packet(&packet).unwrap();
    }
    client.flush().unwrap();

    let event = client.recv_event_timeout(Duration::from_secs(10));
    match event {
        Some(ClientEvent::Verdict(v)) => {
            assert_eq!(v.tuple, tuple);
            assert_eq!(v.tuple.protocol, Protocol::Udp);
            assert_eq!(v.packets, 2, "32 bytes arrive with the second packet");
        }
        other => panic!("expected a verdict, got {other:?}"),
    }

    client.close().unwrap();
    server.shutdown();
}
