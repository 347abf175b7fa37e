//! `net_read` and `net_durable`: an in-process `silo_net::Server` over
//! loopback, driven by pipelined `silo_client` connections.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use silo_client::{ClientStats, Connection, Session};
use silo_core::Database;
use silo_log::{recover_directory, DurableWait, RecoveryOptions, SiloLogger};
use silo_net::protocol::{decode_request, decode_response, encode_request, encode_response};
use silo_net::{Request, Response, Server, ServerConfig};

use crate::harness::{
    check_thread_budget, fresh_dir, log_config, measure, memsilo_config, nproc, pin_to_one_cpu,
    repeat_setup, Control, Outcome, Params, Slices,
};
use crate::stats::Timing;
use crate::stream::{net_key, net_value, NetOp, NetStream};
use crate::trace::{merge_aggs, Name, Tracer};
use crate::{layers, trace};

const TABLE: &str = "net_kv";
const KEYS: u32 = 10_000;
const SERVER_WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
const PIPELINE: usize = 32;
/// Requests each connection sends before the measured phase.
const WARM_REQUESTS: u64 = 20_000;
/// Share of `net_read`'s seconds spent pipelined; the rest runs at depth 1.
const PIPELINED_SHARE: f64 = 0.6;

/// How one client thread drives its connection.
#[derive(Clone, Copy)]
struct Drive {
    depth: usize,
    put_pct: u64,
    /// The connection's own key range; ranges of writers are disjoint, so
    /// each key's expected value is known to exactly one thread.
    base: u32,
    keys: u32,
    warm: u64,
    /// Loop iterations per span sample. Prime, because a stride that shares
    /// a factor with the pipeline depth always samples the same slot of a
    /// group-commit burst; small for the slow durable mix, so that its
    /// budget still rests on a thousand operations.
    sample_every: u64,
}

#[derive(Default)]
struct ClientOut {
    requests: u64,
    puts_acked: u64,
    failed: u64,
    error: Option<String>,
    verified: u64,
    /// Round trips at depth 1, or `PUT` ack times when writing.
    latencies_ns: Vec<u64>,
    tracer: Option<Tracer>,
    stats: ClientStats,
    /// Last version written per key of the range (index = key - base).
    versions: Vec<u32>,
}

struct InFlight {
    sent: Instant,
    key: u32,
    put: bool,
    /// Version the response (for a `GET`) or the store (for a `PUT`) must hold.
    version: u32,
}

struct Client<'a> {
    conn: &'a mut Connection,
    table: u32,
    stream: NetStream,
    drive: Drive,
    in_flight: VecDeque<InFlight>,
    out: ClientOut,
}

impl Client<'_> {
    fn fail(&mut self, what: String) {
        self.out.failed += 1;
        self.out.error.get_or_insert(what);
    }

    fn send_next(&mut self, tr: &mut Tracer) {
        let NetOp { key, put } = self.stream.next_op();
        let slot = &mut self.out.versions[(key - self.drive.base) as usize];
        let request = if put {
            *slot += 1;
            Request::Put {
                table: self.table,
                key: net_key(key),
                value: net_value(key, *slot),
            }
        } else {
            Request::Get {
                table: self.table,
                key: net_key(key),
            }
        };
        let version = *slot;
        let s = tr.start(Name::ClientSend);
        let sent = self.conn.send(&request);
        tr.end(s);
        if let Err(e) = sent {
            // Still queued as in flight, so that a dead connection makes the
            // loop fail fast on `recv` rather than spin here.
            self.fail(format!("send: {e}"));
        }
        self.in_flight.push_back(InFlight {
            sent: Instant::now(),
            key,
            put,
            version,
        });
    }

    /// Receives one response and checks it against what was sent.
    fn receive_one(&mut self, tr: &mut Tracer, record_latency: bool) {
        let s = tr.start(Name::ClientRecv);
        let response = self.conn.recv();
        tr.end(s);
        let Some(req) = self.in_flight.pop_front() else {
            return;
        };
        let elapsed = req.sent.elapsed().as_nanos() as u64;
        match response {
            Ok(Response::Ok) if req.put => {
                self.out.puts_acked += 1;
                if record_latency {
                    self.out.latencies_ns.push(elapsed);
                }
            }
            Ok(Response::Value { value }) if !req.put => {
                if value.as_deref() != Some(net_value(req.key, req.version).as_slice()) {
                    self.fail(format!(
                        "GET {} did not return version {}",
                        req.key, req.version
                    ));
                }
                if record_latency && self.drive.put_pct == 0 {
                    self.out.latencies_ns.push(elapsed);
                }
            }
            // Shed, refused, aborted and unexpected replies all count as failed.
            other => self.fail(format!("request for key {} got {other:?}", req.key)),
        }
        self.out.requests += 1;
    }

    /// One loop iteration: top the pipeline up, flush, take one response.
    fn step(&mut self, tr: &mut Tracer, record_latency: bool) {
        while self.in_flight.len() < self.drive.depth {
            self.send_next(tr);
        }
        let s = tr.start(Name::ClientFlush);
        let flushed = self.conn.flush();
        tr.end(s);
        if let Err(e) = flushed {
            self.fail(format!("flush: {e}"));
        }
        self.receive_one(tr, record_latency);
    }

    fn drain(&mut self, tr: &mut Tracer) {
        while !self.in_flight.is_empty() {
            self.receive_one(tr, false);
        }
    }
}

/// `index` names the thread in streams and traces; `slot` is its counter
/// in `control`.
fn client_main(
    addr: SocketAddr,
    control: Arc<Control>,
    index: usize,
    slot: usize,
    seed: u64,
    drive: Drive,
    origin: Instant,
) -> ClientOut {
    let mut session = Session::connect(addr).expect("connect to the in-process server");
    let table = session.open_table(TABLE).expect("open table over the wire");
    let mut tracer = Tracer::new(index, origin);
    let mut client = Client {
        conn: session.connection(),
        table,
        stream: NetStream::new(seed, index, drive.base, drive.keys, drive.put_pct),
        drive,
        in_flight: VecDeque::with_capacity(drive.depth),
        out: ClientOut {
            latencies_ns: Vec::with_capacity(1 << 20),
            versions: vec![0; drive.keys as usize],
            ..Default::default()
        },
    };
    for _ in 0..drive.warm {
        client.step(&mut tracer, false);
    }
    client.drain(&mut tracer);
    client.out.requests = 0;
    client.out.puts_acked = 0;

    if !control.ready_then_go() {
        return client.out;
    }
    let done = &control.done[slot].0;
    let mut iterations = 0u64;
    while !control.stopped() {
        let tracing = control.tracing.load(Ordering::Relaxed);
        let traced = tracing && iterations.is_multiple_of(drive.sample_every);
        tracer.begin_op(traced, Name::Request);
        client.step(&mut tracer, !tracing);
        tracer.end_op();
        iterations += 1;
        done.store(client.out.requests, Ordering::Relaxed);
    }
    client.drain(&mut tracer);
    control.finished.wait();

    // Over the wire, every key of this connection's range holds the last
    // version this connection wrote (all of its writes were acked above).
    if drive.put_pct > 0 {
        for start in (0..drive.keys).step_by(PIPELINE) {
            let chunk = start..(start + PIPELINE as u32).min(drive.keys);
            for k in chunk.clone() {
                let _ = client.conn.send(&Request::Get {
                    table,
                    key: net_key(drive.base + k),
                });
            }
            for k in chunk {
                let key = drive.base + k;
                let version = client.out.versions[k as usize];
                match client.conn.recv() {
                    Ok(Response::Value { value })
                        if value.as_deref() == Some(net_value(key, version).as_slice()) => {}
                    other => client.fail(format!(
                        "final GET {key} is not version {version}: {other:?}"
                    )),
                }
                client.out.verified += 1;
            }
        }
    }
    let mut out = client.out;
    out.stats = session.stats();
    out.tracer = Some(tracer);
    out
}

struct Instance {
    db: Arc<Database>,
    logger: Arc<SiloLogger>,
    dir: PathBuf,
    server: Server,
    control: Arc<Control>,
    clients: Vec<JoinHandle<ClientOut>>,
}

/// Opens the database, installs the logger, starts the server, preloads
/// version 0 of every key, and connects and warms `drives.len()` clients.
fn setup(p: &Params, label: &str, drives: &[Drive], origin: Instant) -> Instance {
    let db = Database::open(memsilo_config());
    let dir = fresh_dir(p, label);
    let logger = SiloLogger::install(log_config(&dir), &db).expect("install logger");
    let server = Server::start(
        Arc::clone(&db),
        Some(Arc::clone(&logger)),
        ServerConfig::default().with_workers(SERVER_WORKERS),
    )
    .expect("start server");
    let mut session = db.session();
    let table = session.open_table(TABLE).expect("create table");
    for key in 0..KEYS {
        session
            .put(table, &net_key(key), &net_value(key, 0))
            .expect("preload");
    }
    session.quiesce();
    drop(session);

    let control = Arc::new(Control::new(drives.len()));
    let addr = server.local_addr();
    let clients = drives
        .iter()
        .enumerate()
        .map(|(index, &drive)| {
            let (control, seed) = (Arc::clone(&control), p.seed);
            std::thread::Builder::new()
                .name(format!("net-client-{index}"))
                .spawn(move || client_main(addr, control, index, index, seed, drive, origin))
                .expect("spawn client")
        })
        .collect();
    control.wait_ready();
    Instance {
        db,
        logger,
        dir,
        server,
        control,
        clients,
    }
}

fn join_clients(clients: Vec<JoinHandle<ClientOut>>) -> Vec<ClientOut> {
    clients
        .into_iter()
        .map(|c| c.join().expect("client thread panicked"))
        .collect()
}

fn shut_down(mut instance: Instance) -> PathBuf {
    instance.server.shutdown();
    instance.logger.shutdown();
    instance.db.stop_epoch_advancer();
    instance.dir
}

fn discard(mut instance: Instance) {
    instance.control.discard();
    join_clients(std::mem::take(&mut instance.clients));
    let _ = std::fs::remove_dir_all(shut_down(instance));
}

/// Adds the clients' counts to `out` and returns their latencies.
fn collect(out: &mut Outcome, results: &[ClientOut]) -> Vec<u64> {
    let mut latencies = Vec::new();
    for r in results {
        out.attempted += r.requests + r.verified;
        out.fail(r.failed, || r.error.clone().unwrap_or_default());
        out.fail(r.stats.retries + r.stats.reconnects, || {
            format!(
                "client retried {} times and reconnected {} times",
                r.stats.retries, r.stats.reconnects
            )
        });
        latencies.extend_from_slice(&r.latencies_ns);
    }
    latencies
}

/// Mean ns per call of `f` over `items`.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    for item in items {
        f(item);
    }
    start.elapsed().as_nanos() as f64 / items.len().max(1) as f64
}

/// Wire coding cost of the workload's own request stream, offline.
fn codec_probes(out: &mut Outcome, seed: u64, put_pct: u64) {
    let mut stream = NetStream::new(seed, 0, 0, KEYS, put_pct);
    let (requests, responses): (Vec<Request>, Vec<Response>) = (0..50_000)
        .map(|_| {
            let NetOp { key, put } = stream.next_op();
            if put {
                (
                    Request::Put {
                        table: 0,
                        key: net_key(key),
                        value: net_value(key, 1),
                    },
                    Response::Ok,
                )
            } else {
                (
                    Request::Get {
                        table: 0,
                        key: net_key(key),
                    },
                    Response::Value {
                        value: Some(net_value(key, 0)),
                    },
                )
            }
        })
        .unzip();
    let mut buf = Vec::with_capacity(256);
    let encode = |buf: &mut Vec<u8>, r: &Request| {
        buf.clear();
        encode_request(buf, r);
    };
    out.set(
        "net.encode_request_ns",
        time_each(&requests, |r| encode(&mut buf, std::hint::black_box(r))),
    );
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| {
            encode(&mut buf, r);
            buf.clone()
        })
        .collect();
    out.set(
        "net.decode_request_ns",
        time_each(&frames, |f| drop(std::hint::black_box(decode_request(f)))),
    );
    let encode = |buf: &mut Vec<u8>, r: &Response| {
        buf.clear();
        encode_response(buf, r);
    };
    out.set(
        "net.encode_response_ns",
        time_each(&responses, |r| encode(&mut buf, std::hint::black_box(r))),
    );
    let frames: Vec<Vec<u8>> = responses
        .iter()
        .map(|r| {
            encode(&mut buf, r);
            buf.clone()
        })
        .collect();
    out.set(
        "net.decode_response_ns",
        time_each(&frames, |f| drop(std::hint::black_box(decode_response(f)))),
    );
}

/// Mean ns of the same `GET` stream through the in-process session.
fn embedded_get_ns(db: &Arc<Database>, seed: u64) -> f64 {
    let mut session = db.session();
    let table = session.open_table(TABLE).expect("open table");
    let mut stream = NetStream::new(seed, CONNECTIONS, 0, KEYS, 0);
    let keys: Vec<Vec<u8>> = (0..50_000).map(|_| net_key(stream.next_op().key)).collect();
    let ns = time_each(&keys, |k| drop(std::hint::black_box(session.get(table, k))));
    session.quiesce();
    ns
}

fn client_layer(out: &mut Outcome, tracers: &[Tracer]) {
    let aggs = merge_aggs(tracers);
    out.set("client.send_ns", aggs[Name::ClientSend as usize].mean_ns());
    out.set(
        "client.flush_ns",
        aggs[Name::ClientFlush as usize].mean_ns(),
    );
    out.set(
        "client.recv_wait_us",
        aggs[Name::ClientRecv as usize].mean_ns() / 1e3,
    );
}

fn server_layer(out: &mut Outcome, instance: &Instance) {
    let s = instance.server.stats();
    out.set("net.requests", s.requests as f64);
    out.set("net.writes_acked", s.writes_acked as f64);
    out.set("net.shed_busy", s.writes_shed_busy as f64);
    out.set("net.shed_degraded", s.writes_shed_degraded as f64);
    out.fail(
        s.writes_shed_busy + s.writes_shed_degraded + s.protocol_errors,
        || {
            format!(
                "server shed {} busy, {} degraded, saw {} protocol errors",
                s.writes_shed_busy, s.writes_shed_degraded, s.protocol_errors
            )
        },
    );
}

/// Phase A: two connections at depth 32 (throughput). Phase B: one
/// connection at depth 1 (round trip).
pub fn run_read(p: &Params) -> Result<Outcome, String> {
    check_thread_budget("net_read", CONNECTIONS, nproc())?;
    let origin = Instant::now();
    let mut out = Outcome {
        stream_hash: NetStream::fingerprint(p.seed, KEYS, 0),
        ..Default::default()
    };
    let warm = if p.quick { 500 } else { WARM_REQUESTS };
    let reader = |depth| Drive {
        depth,
        put_pct: 0,
        base: 0,
        keys: KEYS,
        warm,
        sample_every: 67,
    };
    let pipelined = [reader(PIPELINE); CONNECTIONS];
    let _pin = pin_to_one_cpu()?;

    let (mut instance, setup_s) =
        repeat_setup(|| setup(p, "net_read", &pipelined, origin), discard);
    let a: Slices = measure(&instance.control, p.seconds * PIPELINED_SHARE, p.trace);
    let a_results = join_clients(std::mem::take(&mut instance.clients));
    collect(&mut out, &a_results);

    let control = Arc::new(Control::new(1));
    let single = {
        let (control, addr, seed, drive) = (
            Arc::clone(&control),
            instance.server.local_addr(),
            p.seed,
            reader(1),
        );
        std::thread::spawn(move || {
            client_main(
                addr,
                control,
                CONNECTIONS,
                0,
                seed,
                Drive {
                    warm: warm / 4,
                    ..drive
                },
                origin,
            )
        })
    };
    control.wait_ready();
    let b = measure(&control, p.seconds * (1.0 - PIPELINED_SHARE), p.trace);
    let b_results = join_clients(vec![single]);
    let rtt = Timing::from_samples(collect(&mut out, &b_results));
    out.detail("slices_a", a.describe());
    out.detail("slices_b", b.describe());
    out.detail(
        "phase_a",
        format!(
            "{CONNECTIONS} connections x depth {PIPELINE}: {} requests",
            a.ops
        ),
    );
    out.detail(
        "phase_b",
        format!("1 connection x depth 1: {} requests", b.ops),
    );
    out.detail("rtt_depth_1", rtt.describe(1e-3, "us"));

    if p.trace {
        let a_tracers: Vec<Tracer> = a_results.into_iter().filter_map(|r| r.tracer).collect();
        let b_tracers: Vec<Tracer> = b_results.into_iter().filter_map(|r| r.tracer).collect();
        // The budget explains the pipelined per-request time; the client
        // spans reported by name are the depth-1 round trip's.
        layers::budget(
            &mut out,
            &merge_aggs(&a_tracers),
            Name::Request,
            CONNECTIONS as f64 * 1e9 / a.ops_per_s(),
            &a,
        );
        client_layer(&mut out, &b_tracers);
        server_layer(&mut out, &instance);
        codec_probes(&mut out, p.seed, 0);
        let embedded_ns = embedded_get_ns(&instance.db, p.seed);
        out.set("net.overhead_us", (rtt.p50 - embedded_ns) / 1e3);
        out.set("net.rtt_p99_us", rtt.tail_value(1e-3));
        out.detail("embedded_get_ns", format!("{embedded_ns:.0}"));
        index_layer(&mut out, &instance.db, p.seed);
        let mut tracers = a_tracers;
        tracers.extend(b_tracers);
        trace::write_trace(&p.out_dir, "net_read", &tracers)?;
    } else {
        out.set("txn_per_s", a.ops_per_s());
        out.set("latency_p50_us", rtt.p50 / 1e3);
        out.set("setup_s", setup_s);
    }
    let _ = std::fs::remove_dir_all(shut_down(instance));
    Ok(out)
}

fn index_layer(out: &mut Outcome, db: &Arc<Database>, seed: u64) {
    let table = db.table(db.table_id(TABLE).expect("table exists"));
    let mut rng = SmallRng::seed_from_u64(seed);
    layers::index_probes(
        out,
        table.tree(),
        100_000,
        || net_key(rng.gen_range(0..KEYS)),
        u64::from(KEYS),
        |i| net_key(((i * 7919) % u64::from(KEYS)) as u32),
    );
    let stats = db.index_stats();
    layers::index_shape(out, &stats, &stats);
}

/// Two connections at depth 32, half `PUT`s acked only when durable, each
/// connection on its own half of the keys.
pub fn run_durable(p: &Params) -> Result<Outcome, String> {
    check_thread_budget("net_durable", CONNECTIONS, nproc())?;
    let _pin = pin_to_one_cpu()?;
    let origin = Instant::now();
    let mut out = Outcome {
        stream_hash: NetStream::fingerprint(p.seed, KEYS, 50),
        ..Default::default()
    };
    let share = KEYS / CONNECTIONS as u32;
    let drives: Vec<Drive> = (0..CONNECTIONS as u32)
        .map(|c| Drive {
            depth: PIPELINE,
            put_pct: 50,
            base: c * share,
            keys: share,
            // Durable acks arrive per epoch, so a warm-up is time, not work.
            warm: if p.quick { 100 } else { 1_000 },
            sample_every: 7,
        })
        .collect();

    let (mut instance, setup_s) =
        repeat_setup(|| setup(p, "net_durable", &drives, origin), discard);
    let log_before = instance.logger.stats();
    let slices = measure(&instance.control, p.seconds, p.trace);
    let results = join_clients(std::mem::take(&mut instance.clients));
    let log_after = instance.logger.stats();
    let ack = Timing::from_samples(collect(&mut out, &results));
    let puts_acked: u64 = results.iter().map(|r| r.puts_acked).sum();
    out.detail("requests", slices.ops);
    out.detail("slices", slices.describe());
    out.detail("put_ack_latency", ack.describe(1e-3, "us"));

    if p.trace {
        layers::log_stats(&mut out, &log_before, &log_after, puts_acked);
        out.set("net.acks_per_sync", out.metrics["log.txns_per_sync"]);
        out.set("log.durable_p99_ms", ack.tail_value(1e-6));
        server_layer(&mut out, &instance);
        codec_probes(&mut out, p.seed, 50);
        index_layer(&mut out, &instance.db, p.seed);
    }
    let waited = instance
        .logger
        .wait_for_durable(instance.db.epochs().global_epoch(), Duration::from_secs(30));
    out.fail(u64::from(waited != DurableWait::Durable), || {
        format!("log never became durable: {waited:?}")
    });
    let dir = shut_down(instance);

    // After recovery from the server's log, every key again holds the last
    // acked version.
    let recovered = Database::open(memsilo_config());
    let table = recovered.create_table(TABLE).map_err(|e| e.to_string())?;
    let start = Instant::now();
    recover_directory(
        &recovered,
        &dir,
        &RecoveryOptions {
            replay_threads: nproc(),
            ..Default::default()
        },
    )
    .map_err(|e| format!("recovery failed: {e}"))?;
    let recover_s = start.elapsed().as_secs_f64();
    let mut session = recovered.session();
    for (drive, result) in drives.iter().zip(&results) {
        for (k, version) in result.versions.iter().enumerate() {
            let key = drive.base + k as u32;
            let stored = session
                .get(table, &net_key(key))
                .map_err(|e| e.to_string())?;
            out.attempted += 1;
            out.fail(
                u64::from(stored.as_deref() != Some(net_value(key, *version).as_slice())),
                || format!("after recovery key {key} is not at its last acked version {version}"),
            );
        }
    }
    session.quiesce();
    drop(session);
    recovered.stop_epoch_advancer();

    if p.trace {
        let (on_disk, user) = layers::log_tail_bytes(&dir).map_err(|e| format!("read log: {e}"))?;
        out.set(
            "log.bytes_written_per_user_byte",
            on_disk as f64 / user.max(1) as f64,
        );
        out.set("log.recover_s", recover_s);
        let tracers: Vec<Tracer> = results.into_iter().filter_map(|r| r.tracer).collect();
        layers::budget(
            &mut out,
            &merge_aggs(&tracers),
            Name::Request,
            CONNECTIONS as f64 * 1e9 / slices.ops_per_s(),
            &slices,
        );
        client_layer(&mut out, &tracers);
        trace::write_trace(&p.out_dir, "net_durable", &tracers)?;
    } else {
        out.set("txn_per_s", slices.ops_per_s());
        out.set("latency_p50_us", ack.p50 / 1e3);
        out.set("setup_s", setup_s);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}
