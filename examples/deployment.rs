//! Production deployment patterns: train once → persist → load in a
//! multi-core sharded pipeline, plus §4.6 tunnel handling.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release -p iustitia --example deployment
//! ```

use iustitia::cdb::shard_index;
use iustitia::prelude::*;
use iustitia_corpus::Rc4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. Train once, persist to disk ──────────────────────────────
    let b = 64;
    let widths = FeatureWidths::svm_selected();
    let corpus = CorpusBuilder::new(21).files_per_class(120).size_range(1024, 8192).build();
    println!("training flow-nature model (b = {b})...");
    let model = iustitia::model::train_from_corpus(
        &corpus,
        &widths,
        TrainingMethod::Prefix { b },
        FeatureMode::Exact,
        &ModelKind::paper_cart(),
        21,
    )
    .expect("balanced corpus has every class");
    let model_path = std::env::temp_dir().join("iustitia-deployment-model.json");
    model.save(&model_path)?;
    println!(
        "model persisted to {} ({} bytes)",
        model_path.display(),
        std::fs::metadata(&model_path)?.len()
    );

    // ── 2. Load it in the "router" process and shard across cores ───
    let loaded = NatureModel::load(&model_path)?;
    let shards = 4;
    let mut trace = TraceConfig::small_test(22);
    trace.n_flows = 600;
    trace.content = ContentMode::Realistic;
    println!("\nprocessing a {}-flow trace across {shards} shards...", trace.n_flows);
    // Flows never straddle shards, so each core owns an independent
    // pipeline (flow table included) and the packet path takes no lock.
    let mut per_shard = vec![Vec::new(); shards];
    for packet in TraceGenerator::new(trace) {
        per_shard[shard_index(&FlowId::of_tuple(&packet.tuple), shards)].push(packet);
    }
    let config = PipelineConfig { buffer_size: b, ..PipelineConfig::headline(21) };
    let work = |packets: &Vec<Packet>| {
        let mut pipeline = Iustitia::new(loaded.clone(), config.clone());
        for packet in packets {
            pipeline.process_packet(packet);
        }
        pipeline.sweep_idle(f64::INFINITY);
        (pipeline.take_log(), pipeline.cdb().len())
    };
    let logs: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = per_shard.iter().map(|p| scope.spawn(|| work(p))).collect();
        workers.into_iter().map(|worker| worker.join().expect("shard worker panicked")).collect()
    });
    let packets: usize = per_shard.iter().map(Vec::len).sum();
    let flows: Vec<_> = logs.iter().flat_map(|(log, _)| log).collect();
    println!("  {packets} packets, {} flows classified", flows.len());
    println!("  per-shard CDB sizes: {:?}", logs.iter().map(|(_, cdb)| *cdb).collect::<Vec<_>>());
    let mean_c = flows.iter().map(|f| f.packets as f64).sum::<f64>() / flows.len().max(1) as f64;
    println!("  mean packets-to-classify c = {mean_c:.2}");

    // ── 3. Tunnel policy (§4.6) ──────────────────────────────────────
    println!("\ntunnel handling:");
    let mut fx = FeatureExtractor::new(widths, FeatureMode::Exact, 23);

    // An IPsec-style tunnel: everything inside is ciphertext on the wire.
    let mut tunnel_cipher = Rc4::new(b"ipsec-session");
    let encrypted_tunnel: Vec<TunnelSegment> = (0..3)
        .map(|i| TunnelSegment { inner: InnerFlowKey(i), payload: tunnel_cipher.keystream(200) })
        .collect();
    match classify_tunnel(&encrypted_tunnel, &loaded, &mut fx, b) {
        TunnelVerdict::EncryptedTunnel => {
            println!("  ipsec-like tunnel -> encrypted (inner flows opaque)")
        }
        TunnelVerdict::PerFlow(_) => println!("  unexpected cleartext verdict"),
    }

    // A GRE-style cleartext tunnel carrying one chat flow and one
    // encrypted inner flow.
    let mut inner_cipher = Rc4::new(b"inner-tls");
    let cleartext_tunnel = vec![
        TunnelSegment {
            inner: InnerFlowKey(1),
            payload: b"hey, lunch at noon? the usual place sounds good to me. ".repeat(3),
        },
        TunnelSegment { inner: InnerFlowKey(2), payload: inner_cipher.keystream(180) },
    ];
    match classify_tunnel(&cleartext_tunnel, &loaded, &mut fx, b) {
        TunnelVerdict::PerFlow(map) => {
            let mut entries: Vec<_> = map.into_iter().collect();
            entries.sort_by_key(|&(k, _)| k);
            for (key, label) in entries {
                println!("  gre-like tunnel, inner flow {} -> {label}", key.0);
            }
        }
        TunnelVerdict::EncryptedTunnel => println!("  unexpected encrypted verdict"),
    }

    std::fs::remove_file(&model_path).ok();
    Ok(())
}
