//! End-to-end: real attacks over real sockets, with and without the
//! morph scheduler armed.

use ril_attacks::prelude::*;
use ril_core::LockedCircuit;
use ril_serve::{DesignSpec, RemoteOracle, ServeClient, ServeConfig, Server};
use ril_trace::{Phase, Tracer};
use std::net::SocketAddr;
use std::time::Duration;

fn design(scan: bool, zero_se: bool, seed: u64) -> DesignSpec {
    DesignSpec {
        benchmark: "adder:8".to_string(),
        spec: "2x2".to_string(),
        blocks: 2,
        seed,
        scan,
        zero_se,
    }
}

fn remote(addr: SocketAddr, design: &DesignSpec) -> RemoteOracle {
    let client = ServeClient::builder(addr.to_string()).build().unwrap();
    RemoteOracle::activate_with(client, design).unwrap()
}

fn attack_cfg() -> SatAttackConfig {
    SatAttackConfig {
        timeout: Some(Duration::from_secs(30)),
        ..SatAttackConfig::default()
    }
}

/// The tentpole claim, static half: with no morphing, a stock SAT attack
/// driven through [`RemoteOracle`] recovers a truly-correct key, exactly
/// as it does against the in-process oracle.
#[test]
fn sat_attack_succeeds_through_a_static_remote_oracle() {
    let handle = Server::start(ServeConfig::default()).unwrap();
    let design = design(false, false, 41);
    let locked = design.build().unwrap();
    let view = attacker_view(&locked);

    let mut oracle = remote(handle.addr(), &design);
    let report = ril_attacks::satattack::sat_attack(&view, &mut oracle, &attack_cfg());
    let AttackResult::ExactKey(key) = &report.result else {
        panic!("remote attack failed: {report}");
    };
    assert!(locked.equivalent_under_key(key, 32).unwrap());
    assert_eq!(oracle.generation_changes(), 0, "no scheduler is armed");
    assert!(oracle.queries() > 0);

    // The server counted the same traffic.
    let stats = oracle.client().stats().unwrap();
    assert_eq!(stats.chips.len(), 1);
    assert!(stats.chips[0].queries >= oracle.queries());
    assert_eq!(stats.chips[0].morphs, 0);
    handle.shutdown();
}

/// The tentpole claim, dynamic half: the same attack against the same
/// design family is defeated when the query-count morph trigger re-rolls
/// the Scan-Enable keys out from under the accumulating DIP set.
#[test]
fn query_triggered_morphing_defeats_the_remote_attack() {
    let tracer = Tracer::new();
    let root = tracer.open_root("e2e", Phase::Experiment);
    let handle = Server::start_traced(
        ServeConfig {
            morph_queries: Some(1),
            ..ServeConfig::default()
        },
        &tracer,
        root,
    )
    .unwrap();
    // The control: a chip that never morphs.
    let control = Server::start(ServeConfig::default()).unwrap();
    let truly_correct = |locked: &LockedCircuit, report: &AttackReport| match &report.result {
        AttackResult::ExactKey(key) => locked.equivalent_under_key(key, 32).unwrap(),
        _ => false,
    };

    // A fresh SE generation per query is overwhelmingly likely to corrupt
    // some accumulated DIP response, but a tiny adder can occasionally
    // dodge every re-roll — so, like the static scan-defense test in
    // ril-attacks, try a few seeds and require a defeat among them.
    let mut defeated = false;
    for seed in 41..46 {
        // Provisioned transparent (SE keys zeroed): only the morphs arm
        // the scan corruption — exactly the paper's dynamic defense.
        let design = DesignSpec {
            blocks: 3,
            ..design(true, true, seed)
        };
        let locked = design.build().unwrap();
        let view = attacker_view(&locked);
        // Sequential DIPs: batching would let up to 64 DIPs ride one
        // pre-morph generation, softening the every-query re-key this
        // test is about.
        let mut cfg = SatAttackConfig {
            dip_batch: 1,
            ..attack_cfg()
        };

        // Against the static chip the attack converges to a correct key;
        // the morphing chip gets ten times the DIPs that took.
        let report =
            ril_attacks::satattack::sat_attack(&view, &mut remote(control.addr(), &design), &cfg);
        assert!(
            truly_correct(&locked, &report),
            "seed {seed}: the attack on the static chip must recover a correct key: {report}"
        );
        cfg.max_iterations = Some(10 * report.iterations);

        let mut oracle = remote(handle.addr(), &design);
        let report = ril_attacks::satattack::sat_attack(&view, &mut oracle, &cfg);
        assert!(
            oracle.generation_changes() > 0,
            "the oracle should have observed generation bumps"
        );
        if !truly_correct(&locked, &report) {
            defeated = true;
            break;
        }
    }
    assert!(
        defeated,
        "a chip morphing every query must defeat the attack on some seed"
    );

    control.shutdown();
    handle.shutdown();
    tracer.close(root);
    assert!(tracer.metrics().counter("serve.morphs") > 0);
    assert!(tracer.metrics().counter("serve.requests") > 0);
}

/// A lane-packed batch that straddles the query-count morph threshold is
/// still answered atomically: one round trip, one generation for every
/// row, and the scheduled re-key fires only after the block.
#[test]
fn batches_never_straddle_a_scheduled_morph() {
    let handle = Server::start(ServeConfig {
        morph_queries: Some(10),
        ..ServeConfig::default()
    })
    .unwrap();
    let design = design(false, false, 23);
    let mut oracle = remote(handle.addr(), &design);
    let width = oracle.input_width();
    // 7 singles leave the chip 3 queries from its morph threshold ...
    for i in 0..7u32 {
        let p: Vec<bool> = (0..width).map(|b| (i >> (b % 32)) & 1 == 1).collect();
        oracle.try_query(&p).unwrap();
    }
    assert_eq!(oracle.generation(), Some(0));
    // ... then a 16-lane block crosses it. The whole block must come back
    // under the pre-morph generation, with the re-key landing after.
    let rows: Vec<Vec<bool>> = (0..16u32)
        .map(|i| (0..width).map(|b| (i >> (b % 32)) & 1 == 1).collect())
        .collect();
    let block = PatternBlock::pack(&rows);
    let responses = oracle.try_query_batch(&block).unwrap();
    assert_eq!(responses.lanes(), 16);
    assert_eq!(
        oracle.generation(),
        Some(0),
        "the batch must be answered under the pre-morph generation"
    );
    assert_eq!(oracle.generation_changes(), 0);
    assert_eq!(oracle.batch_blocks(), 1);
    assert_eq!(oracle.batch_patterns(), 16);
    assert_eq!(
        oracle.queries(),
        7 + 16,
        "budgets count individual patterns"
    );
    // The morph did fire — after the block.
    let stats = oracle.client().stats().unwrap();
    assert_eq!(stats.chips[0].queries, 23);
    assert_eq!(stats.chips[0].morphs, 1);
    assert_eq!(stats.chips[0].generation, 1);
    // The next query reveals the new generation to the client.
    let p: Vec<bool> = vec![false; width];
    oracle.try_query(&p).unwrap();
    assert_eq!(oracle.generation(), Some(1));
    handle.shutdown();
}

/// The telemetry tentpole, wire half: after a mixed single/batch query
/// load, a `Stats` round-trip carries the server's full metrics
/// snapshot — non-empty phase and per-chip latency histograms whose
/// counts are consistent with the request counters — plus uptime and a
/// qps-since-last-poll rate.
#[test]
fn stats_round_trip_carries_latency_histograms() {
    let handle = Server::start(ServeConfig::default()).unwrap();
    let design = design(false, false, 99);
    let mut oracle = remote(handle.addr(), &design);
    let width = oracle.input_width();
    for i in 0..10u32 {
        let p: Vec<bool> = (0..width).map(|b| (i >> (b % 32)) & 1 == 1).collect();
        oracle.try_query(&p).unwrap();
    }
    let rows: Vec<Vec<bool>> = (0..16u32)
        .map(|i| (0..width).map(|b| (i >> (b % 32)) & 1 == 1).collect())
        .collect();
    oracle.try_query_batch(&PatternBlock::pack(&rows)).unwrap();

    let stats = oracle.client().stats().unwrap();
    assert!(stats.uptime_s > 0.0);
    assert!(stats.qps > 0.0, "first poll rates the whole uptime window");
    // activate + 10 singles + 1 batch + this stats poll.
    assert_eq!(stats.requests, 13);
    let m = &stats.metrics;
    assert!(!m.is_empty());
    assert_eq!(m.counter("serve.requests"), stats.requests);
    // The consistency invariant CI greps for: one query request = one
    // counter bump = one histogram sample.
    assert_eq!(m.counter("serve.queries"), 11);
    let lat = m.timing("serve.query.latency").expect("latency histogram");
    assert_eq!(lat.count, 11);
    assert!(!lat.buckets.is_empty());
    assert!(lat.p99_us() >= lat.p50_us());
    assert!(lat.quantile_us(1.0) <= lat.max_us as f64);
    // Per-chip scoped metrics: same 11 requests, 10 + 16 patterns, and
    // lane occupancy derivable from patterns/blocks.
    let chip = m
        .timing("chip.1.query.latency")
        .expect("per-chip histogram");
    assert_eq!(chip.count, 11);
    assert_eq!(m.counter("chip.1.query.patterns"), 26);
    assert_eq!(m.counter("chip.1.query.blocks"), 11);
    assert_eq!(m.counter("serve.query.patterns"), 26);
    // Phase histograms cover the request pipeline.
    for phase in [
        "serve.phase.decode",
        "serve.phase.eval",
        "serve.phase.write",
    ] {
        let h = m.timing(phase).unwrap_or_else(|| panic!("{phase} missing"));
        assert!(h.count > 0, "{phase} never recorded");
    }
    // A second idle poll: counters are unchanged, uptime advanced.
    let stats2 = oracle.client().stats().unwrap();
    assert!(stats2.uptime_s >= stats.uptime_s);
    assert_eq!(stats2.metrics.counter("serve.queries"), 11);
    assert_eq!(
        stats2
            .metrics
            .timing("serve.query.latency")
            .expect("still there"),
        lat
    );
    handle.shutdown();
}

/// The wall-clock trigger morphs chips that receive no traffic at all.
#[test]
fn time_triggered_morphing_rekeys_idle_chips() {
    let handle = Server::start(ServeConfig {
        morph_interval: Some(Duration::from_millis(20)),
        ..ServeConfig::default()
    })
    .unwrap();
    let design = design(true, false, 7);
    let mut oracle = remote(handle.addr(), &design);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = oracle.client().stats().unwrap();
        if stats.chips[0].morphs >= 2 {
            assert_eq!(stats.chips[0].generation, stats.chips[0].morphs);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "scheduler never fired: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();
}

/// Morphing preserves the chip's functional contract: a scan-free chip
/// that re-keys every `k` queries answers identically across generations,
/// and each round of `k` queries is stamped with one new generation.
#[test]
fn query_count_morphs_preserve_functional_responses() {
    let k = 16u32;
    let handle = Server::start(ServeConfig {
        morph_queries: Some(u64::from(k)),
        ..ServeConfig::default()
    })
    .unwrap();
    let design = design(false, false, 13);
    let mut oracle = remote(handle.addr(), &design);
    let width = oracle.input_width();
    let patterns: Vec<Vec<bool>> = (0..k)
        .map(|i| (0..width).map(|b| (i >> (b % 32)) & 1 == 1).collect())
        .collect();
    let mut rounds = Vec::new();
    for generation in 0..4u64 {
        let answers: Vec<Vec<bool>> = patterns
            .iter()
            .map(|p| {
                let bits = oracle.try_query(p).unwrap();
                assert_eq!(oracle.generation(), Some(generation));
                bits
            })
            .collect();
        rounds.push(answers);
    }
    assert_eq!(oracle.generation_changes(), 3);
    for (generation, answers) in rounds.iter().enumerate().skip(1) {
        assert_eq!(
            answers, &rounds[0],
            "morph broke functionality at generation {generation}"
        );
    }
    let stats = oracle.client().stats().unwrap();
    assert_eq!(stats.chips[0].morphs, 4, "the last round's morph fired too");
    assert!(stats.metrics.counter("serve.key_bits_morphed") > 0);
    handle.shutdown();
}

/// Pipelining: a window of mixed requests written back-to-back on one
/// connection comes back as one response per request, in request order.
#[test]
fn pipelined_windows_answer_in_request_order() {
    use ril_serve::{Request, Response};
    let handle = Server::start(ServeConfig::default()).unwrap();
    let design = design(false, false, 11);
    let chip = handle.activate(&design).unwrap();
    let width = ril_attacks::Oracle::new(&design.build().unwrap())
        .unwrap()
        .input_width();
    let mut client = ServeClient::builder(handle.addr().to_string())
        .build()
        .unwrap();
    // 80 distinguishable queries, two and a half 32-request windows:
    // pattern i encodes i in its low bits.
    let reqs: Vec<Request> = (0..80u32)
        .map(|i| Request::Query {
            chip,
            inputs: (0..width).map(|b| (i >> (b % 32)) & 1 == 1).collect(),
        })
        .collect();
    let resps = client.request_pipelined(&reqs).unwrap();
    assert_eq!(resps.len(), 80);
    // Order check: each response equals a fresh unpipelined query of the
    // same pattern (the chip is static, so replies are stable).
    for (i, resp) in resps.iter().enumerate() {
        let Response::Outputs { bits, .. } = resp else {
            panic!("request {i} got {resp:?}");
        };
        let again = client
            .request(&reqs[i])
            .unwrap_or_else(|e| panic!("re-query {i}: {e}"));
        let Response::Outputs { bits: expect, .. } = again else {
            panic!("re-query {i} got a non-output response");
        };
        assert_eq!(bits, &expect, "response {i} out of order");
    }
    handle.shutdown();
}

/// A window far larger than the socket buffers still completes: the
/// server thread blocks writing answers until the client reads them, so
/// the client must read while it is still writing the window.
#[test]
fn a_window_larger_than_the_socket_buffers_completes() {
    use ril_serve::{Request, Response, MAX_FRAME_BYTES};
    let handle = Server::start(ServeConfig::default()).unwrap();
    let design = DesignSpec {
        benchmark: "adder:32".to_string(),
        ..design(false, false, 5)
    };
    let chip = handle.activate(&design).unwrap();
    let width = ril_attacks::Oracle::new(&design.build().unwrap())
        .unwrap()
        .input_width();
    let mut client = ServeClient::builder(handle.addr().to_string())
        .build()
        .unwrap();
    // One 32-request window of batches just under the frame cap: a row
    // costs a 4-byte count plus its packed bits, so each request is
    // ~1 MiB and each answer (33 outputs) ~0.75 MiB — ~32 MiB out and
    // ~24 MiB back.
    let patterns = (MAX_FRAME_BYTES - 64) / (4 + width.div_ceil(8));
    let reqs: Vec<Request> = (0..32)
        .map(|i| Request::QueryBatch {
            chip,
            patterns: vec![vec![i % 2 == 0; width]; patterns],
        })
        .collect();
    assert!(reqs[0].encode().unwrap().len() > MAX_FRAME_BYTES - 64);
    let resps = client.request_pipelined(&reqs).unwrap();
    assert_eq!(resps.len(), 32);
    assert!(resps
        .iter()
        .all(|r| matches!(r, Response::Batch { rows, .. } if rows.len() == patterns)));
    handle.shutdown();
}
