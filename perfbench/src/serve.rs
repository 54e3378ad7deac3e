//! The `serve` workload: an in-process daemon (1 io thread, 1 worker, a
//! result cache smaller than the query universe) driven over loopback
//! by one client thread holding 2 keep-alive connections in a closed
//! loop: each connection sends its next request only when the previous
//! answer is in, as a scheduler waiting on each answer would.
//!
//! Set-up boots the daemon and warms its oracles with one pass over the
//! universe; the bodies of that pass are the reference every later
//! answer must match byte for byte. A fixed number of requests then
//! measures peak memory and warms the timed phase, which draws queries
//! from a Zipf(1.1) law, so most requests hit the cache on the io thread
//! and a steady minority miss, run on the worker, and insert and evict.

use crate::report::{Report, Unit};
use crate::spans::{LayerTable, Tracer};
use crate::stats;
use pmemflow_des::rng::SplitMix64;
use pmemflow_iostack::StackKind;
use pmemflow_net::{drain_read, Event, Interest, Reactor, Token, WriteBuf};
use pmemflow_serve::{Answer, Backend, ModelBackend, Query, Server, ServerConfig};
use pmemflow_workloads::Family;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FAMILIES: [&str; 6] = [
    "micro-2kb",
    "micro-64mb",
    "gtc-readonly",
    "gtc-matmult",
    "miniamr-readonly",
    "miniamr-matmult",
];
const RANKS: [usize; 3] = [8, 16, 24];
const STACKS: [&str; 2] = ["nvstream", "nova"];
/// Result-cache entries: well under the universe, so misses keep coming.
const CACHE_ENTRIES: usize = 64;
/// Client connections (one client thread multiplexes them).
const CONNECTIONS: usize = 2;
/// Zipf exponent of query popularity.
const ZIPF_S: f64 = 1.1;
/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 3;
/// The paced load after set-up over which `peak_rss_mb` is taken: this
/// many requests at this rate, a few seconds, well inside the daemon's
/// 30-s request deadline and well under its capacity.
const MEMORY_REQUESTS: usize = 30_000;
const MEMORY_RATE: f64 = 10_000.0;

/// How much of the query universe a run asks about: every family, or
/// two for `--smoke`.
pub struct Shape {
    pub families: usize,
}

pub const FULL: Shape = Shape { families: 6 };
pub const SMOKE: Shape = Shape { families: 2 };

/// The query universe as rendered HTTP requests: predict, sweep and
/// recommend for every family, rank level and stack, then co-schedule
/// pairs of every two families (and each with itself) on both stacks.
fn universe(shape: &Shape) -> Vec<Vec<u8>> {
    let families = &FAMILIES[..shape.families];
    let mut out = Vec::new();
    let request = |path: &str, body: String| {
        format!(
            "POST {path} HTTP/1.1\r\nHost: l\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    };
    for stack in STACKS {
        for family in families {
            for ranks in RANKS {
                for path in ["/v1/predict", "/v1/sweep", "/v1/recommend"] {
                    let body = format!(
                        "{{\"workload\":\"{family}\",\"ranks\":{ranks},\"stack\":\"{stack}\"}}"
                    );
                    out.push(request(path, body));
                }
            }
        }
        for (i, a) in families.iter().enumerate() {
            for b in &families[i..] {
                let body = format!(
                    "{{\"stack\":\"{stack}\",\"tenants\":[\
                     {{\"workload\":\"{a}\",\"ranks\":8,\"config\":\"S-LocW\"}},\
                     {{\"workload\":\"{b}\",\"ranks\":8,\"config\":\"P-LocR\"}}]}}"
                );
                out.push(request("/v1/coschedule", body));
            }
        }
    }
    out
}

/// Zipf(s) over `n` ranks by inverse-CDF search.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The model backend behind a stopwatch and a span per call.
struct TimedBackend {
    inner: Arc<ModelBackend>,
    tracer: Arc<Tracer>,
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Backend for TimedBackend {
    fn answer(&self, query: &Query) -> Answer {
        let t0 = Instant::now();
        let out = self
            .tracer
            .span(None, "backend", "Backend::answer", 1, |_| {
                self.inner.answer(query)
            });
        // Relaxed: statistics only, read once the client is done.
        self.ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        out
    }
}

impl TimedBackend {
    fn take(&self) -> (f64, u64) {
        (
            self.ns.swap(0, Relaxed) as f64 / 1e9,
            self.calls.swap(0, Relaxed),
        )
    }
}

fn config() -> ServerConfig {
    ServerConfig {
        io_threads: 1,
        workers: 1,
        cache_capacity: CACHE_ENTRIES,
        ..ServerConfig::default()
    }
}

/// Parse one complete response off the front of `buf`:
/// `(status, consumed, body)`, or `None` while incomplete.
fn parse_response(buf: &[u8]) -> Option<(u16, usize, &[u8])> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let len: usize = lines
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(|v| v.trim().parse().ok())
        })
        .flatten()?;
    (buf.len() >= head_end + len).then(|| (status, head_end + len, &buf[head_end..head_end + len]))
}

/// One nonblocking keep-alive connection with at most one request out.
struct Conn {
    stream: TcpStream,
    wb: WriteBuf,
    rbuf: Vec<u8>,
    /// Universe index, send instant and span id of the request out.
    inflight: Option<(usize, Instant, u32, u64)>,
}

/// One closed [`SLICE_S`] slice of a phase.
struct Slice {
    /// Answers over the time from the slice's first answer to the next
    /// slice's.
    rate: f64,
    p50_s: f64,
    /// `None` when the slice is too thin for a tail (see [`stats::tail`]).
    p99: Option<stats::Tail>,
}

impl Slice {
    fn of(latencies_s: &[f64], seconds: f64) -> Slice {
        Slice {
            rate: latencies_s.len() as f64 / seconds,
            p50_s: stats::median(latencies_s),
            p99: stats::tail(latencies_s, 99.0),
        }
    }
}

/// What the client saw over one phase. Each slice is summarised when it
/// closes, so the client's memory stays constant however many answers
/// it counts, and the process's peak memory is the daemon's.
#[derive(Default)]
struct Phase {
    answered: usize,
    slowest_s: f64,
    elapsed_s: f64,
    closed: Vec<Slice>,
    /// The slice in progress: its index, when its first answer arrived
    /// (seconds into the phase), and its latencies.
    open: (usize, f64, Vec<f64>),
}

impl Phase {
    fn record(&mut self, latency: Duration, done: Duration) {
        let (latency, done) = (latency.as_secs_f64(), done.as_secs_f64());
        let slice = (done / SLICE_S) as usize;
        let (index, start, samples) = &mut self.open;
        if samples.is_empty() || *index != slice {
            if !samples.is_empty() {
                self.closed.push(Slice::of(samples, done - *start));
                samples.clear();
            }
            (*index, *start) = (slice, done);
        }
        samples.push(latency);
        self.answered += 1;
        self.slowest_s = self.slowest_s.max(latency);
    }
}

/// How the client waits for answers.
#[derive(Clone, Copy, PartialEq)]
enum Wait {
    /// Block in `epoll_wait` (the warm pass, whose answers are slow).
    Block,
    /// Poll without blocking (the timed phase). A blocked client's own
    /// wake-up, which on a shared virtual host can take longer than the
    /// daemon's whole answer, then stays out of the measured latency; the
    /// daemon's threads still block as they do in production.
    Spin,
}

/// Drive `next()` (a universe index, or `None` to stop sending) over
/// `conns` connections in a closed loop until every sent request is
/// answered, handing each answer to `check`.
fn drive(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    conns: usize,
    wait: Wait,
    tracer: Option<&Tracer>,
    check: &mut dyn FnMut(usize, u16, &[u8]),
    next: &mut dyn FnMut() -> Option<usize>,
) -> Phase {
    let mut reactor = Reactor::new().expect("client reactor");
    let mut fleet: Vec<Conn> = (0..conns)
        .map(|i| {
            let stream = TcpStream::connect(addr).expect("connect to the daemon");
            stream.set_nodelay(true).expect("nodelay");
            stream.set_nonblocking(true).expect("nonblocking");
            reactor
                .register(
                    stream.as_raw_fd(),
                    Token(i as u64),
                    Interest::edge_read_write(),
                )
                .expect("register client connection");
            Conn {
                stream,
                wb: WriteBuf::new(),
                rbuf: Vec::new(),
                inflight: None,
            }
        })
        .collect();
    let send = |conn: &mut Conn, idx: usize| {
        let (id, start) = tracer.map_or((0, 0), |t| (t.open(), t.now_ns()));
        conn.inflight = Some((idx, Instant::now(), id, start));
        conn.wb.push(&requests[idx]);
        conn.wb.flush(&mut conn.stream).expect("client write");
    };
    let mut phase = Phase::default();
    let started = Instant::now();
    let mut outstanding = 0usize;
    for conn in &mut fleet {
        if let Some(idx) = next() {
            send(conn, idx);
            outstanding += 1;
        }
    }
    let mut events: Vec<Event> = Vec::new();
    let poll_timeout = match wait {
        Wait::Block => Duration::from_millis(100),
        Wait::Spin => Duration::ZERO,
    };
    let mut last_progress = Instant::now();
    while outstanding > 0 {
        reactor
            .poll(&mut events, Some(poll_timeout))
            .expect("client poll");
        for ev in &events {
            let conn = &mut fleet[ev.token.0 as usize];
            if ev.writable && !conn.wb.is_empty() {
                conn.wb.flush(&mut conn.stream).expect("client write");
            }
            if !(ev.readable || ev.closed) {
                continue;
            }
            loop {
                const LIMIT: usize = 256 * 1024;
                let got = drain_read(&mut conn.stream, &mut conn.rbuf, LIMIT).expect("client read");
                while let Some((status, used, body)) = parse_response(&conn.rbuf) {
                    let (idx, sent, id, start) =
                        conn.inflight.take().expect("an answer to a request sent");
                    phase.record(sent.elapsed(), started.elapsed());
                    if let Some(t) = tracer {
                        t.close(id, None, "serve", "request", start, 0);
                    }
                    check(idx, status, body);
                    conn.rbuf.drain(..used);
                    outstanding -= 1;
                    last_progress = Instant::now();
                    if let Some(idx) = next() {
                        send(conn, idx);
                        outstanding += 1;
                    }
                }
                assert!(!got.eof, "the daemon closed a keep-alive connection");
                if got.bytes < LIMIT {
                    break;
                }
            }
        }
        assert!(
            last_progress.elapsed() < Duration::from_secs(60),
            "no answer for 60 s with {outstanding} requests out"
        );
    }
    phase.elapsed_s = started.elapsed().as_secs_f64();
    phase
}

/// Width of the slices a phase is cut into for its figures.
const SLICE_S: f64 = 0.25;

/// A phase's figures, taken over its whole [`SLICE_S`] slices (the last,
/// partial slice is dropped) from the quietest tenth of them: the 90th
/// percentile of the slices' rates and the 10th of their p50s and p99s.
/// Other tenants of a shared host only ever slow the daemon down, in
/// bursts that hit some slices and not others, so the quieter slices
/// measure the daemon and the rest measure the host. A change that slows
/// the daemon itself moves every slice, the quiet ones too; a stall it
/// causes in fewer than nine slices in ten is left out. On a noisy
/// host whole seconds went by without a quiet one, and p99 taken from
/// the quietest quarter of 1-s slices doubled in three runs of ten;
/// quarter-second slices still find quiet stretches. Every slice holds
/// thousands of answers, so each slice's p99 has well over ten samples
/// beyond it.
struct Figures {
    req_per_s: f64,
    p50_s: f64,
    p99_s: f64,
    slices: usize,
    /// Fewest samples beyond a slice's p99.
    beyond: usize,
}

fn figures(phase: &Phase) -> Figures {
    // Under one whole slice: the phase as a single slice.
    let short;
    let slices = if phase.closed.is_empty() {
        short = [Slice::of(&phase.open.2, phase.elapsed_s)];
        &short[..]
    } else {
        &phase.closed[..]
    };
    let tails: Vec<&stats::Tail> = slices.iter().filter_map(|s| s.p99.as_ref()).collect();
    let p99s: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Figures {
        req_per_s: stats::quantile(&slices.iter().map(|s| s.rate).collect::<Vec<_>>(), 0.9),
        p50_s: stats::quantile(&slices.iter().map(|s| s.p50_s).collect::<Vec<_>>(), 0.1),
        // A slice too thin for a tail has no p99; so slow a daemon shows
        // as its slowest answer instead.
        p99_s: if p99s.is_empty() {
            phase.slowest_s
        } else {
            stats::quantile(&p99s, 0.1)
        },
        slices: slices.len(),
        beyond: tails
            .iter()
            .map(|t| t.samples - (t.percentile / 100.0 * t.samples as f64).round() as usize)
            .min()
            .unwrap_or(0),
    }
}

/// `GET /metrics` counters by name (unlabeled series only).
fn scrape(addr: SocketAddr) -> std::collections::BTreeMap<String, f64> {
    let mut s = TcpStream::connect(addr).expect("connect for /metrics");
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n")
        .expect("send /metrics request");
    let mut text = String::new();
    s.read_to_string(&mut text).expect("read /metrics");
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.trim().parse().ok()?))
        })
        .collect()
}

/// A booted, warmed daemon with the reference answers of its warm pass.
struct Daemon {
    server: Server,
    reference: Vec<Vec<u8>>,
    /// The backend, when the daemon runs behind a [`TimedBackend`].
    timed: Option<Arc<TimedBackend>>,
}

/// Boot a daemon and warm it with one in-order pass over the universe.
/// Any answer other than `200` is a failed operation.
fn boot(requests: &[Vec<u8>], timed: Option<Arc<TimedBackend>>, report: &mut Report) -> Daemon {
    let server = match &timed {
        Some(b) => Server::start_with_backend(config(), b.clone()),
        None => Server::start(config()),
    }
    .expect("daemon boots");
    let mut order = 0..requests.len();
    let mut failed = Vec::new();
    let mut reference = vec![Vec::new(); requests.len()];
    let warm = drive(
        server.addr(),
        requests,
        1,
        Wait::Block,
        None,
        &mut |idx, status, body| {
            if status != 200 {
                failed.push(idx);
            }
            reference[idx] = body.to_vec();
        },
        &mut || order.next(),
    );
    report.attempted += warm.answered as u64;
    report.failed += failed.len() as u64;
    for idx in failed {
        report.fail(format!("warm-up query #{idx} was not answered 200"));
    }
    Daemon {
        server,
        reference,
        timed,
    }
}

fn stop(daemon: Daemon, report: &mut Report) {
    daemon.server.shutdown();
    let abandoned = daemon.server.join();
    if abandoned != 0 {
        report.fail(format!("{abandoned} connections abandoned at shutdown"));
    }
}

/// How a closed loop sends.
enum Load {
    /// Each request as soon as its connection is free, until this instant.
    Until(Instant),
    /// This many requests, no more than `per_s` a second. A request sent
    /// late does not make the next one early.
    Paced { requests: usize, per_s: f64 },
}

/// A closed loop of Zipf draws over the universe, from `rng`.
fn timed_phase(
    daemon: &Daemon,
    requests: &[Vec<u8>],
    zipf: &Zipf,
    rng: &mut SplitMix64,
    load: Load,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> Phase {
    let mut bad = 0u64;
    let mut first_bad = None;
    let mut sent = 0usize;
    let mut slot = Instant::now();
    let phase = drive(
        daemon.server.addr(),
        requests,
        CONNECTIONS,
        Wait::Spin,
        tracer,
        &mut |idx, status, body| {
            if status != 200 || body != daemon.reference[idx].as_slice() {
                bad += 1;
                first_bad.get_or_insert((idx, status));
            }
        },
        &mut || {
            match load {
                Load::Until(at) if Instant::now() >= at => return None,
                Load::Paced { requests, .. } if sent == requests => return None,
                Load::Paced { per_s, .. } => {
                    while Instant::now() < slot {
                        std::hint::spin_loop();
                    }
                    slot = Instant::now() + Duration::from_secs_f64(1.0 / per_s);
                }
                Load::Until(_) => {}
            }
            sent += 1;
            Some(zipf.sample(rng))
        },
    );
    report.attempted += phase.answered as u64;
    report.failed += bad;
    if let Some((idx, status)) = first_bad {
        report.fail(format!(
            "{bad} answers differ from warm-up, first query #{idx} (status {status})"
        ));
    }
    phase
}

pub fn run(shape: &Shape, seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let requests = universe(shape);
    report.line(format!(
        "universe of {} queries against a {CACHE_ENTRIES}-entry cache, {CONNECTIONS} connections",
        requests.len()
    ));
    let zipf = Zipf::new(requests.len(), ZIPF_S);
    if !trace {
        // Memory is read after one boot and a fixed paced load, before
        // the timed phase. The daemon keeps a deadline timer for every
        // miss it queues until the timer fires (30 s), so its memory
        // after a fixed time at full speed grows with its speed, and
        // set-ups beyond the first leave freed heap behind that a daemon
        // booted once would not have. The paced requests also warm the
        // timed phase.
        let mut setups = Vec::with_capacity(SETUPS);
        let t0 = Instant::now();
        let daemon = boot(&requests, None, report);
        setups.push(t0.elapsed().as_secs_f64());
        let mut rng = SplitMix64::new(seed);
        let load = Load::Paced {
            requests: MEMORY_REQUESTS,
            per_s: MEMORY_RATE,
        };
        let memory = timed_phase(&daemon, &requests, &zipf, &mut rng, load, None, report);
        report.peak_rss();
        report.line(format!(
            "peak memory after set-up and {} requests at {MEMORY_RATE} req/s ({:.2} s)",
            memory.answered, memory.elapsed_s
        ));
        let load = Load::Until(Instant::now() + Duration::from_secs_f64(seconds));
        let phase = timed_phase(&daemon, &requests, &zipf, &mut rng, load, None, report);
        stop(daemon, report);
        while setups.len() < SETUPS {
            let t0 = Instant::now();
            let daemon = boot(&requests, None, report);
            setups.push(t0.elapsed().as_secs_f64());
            stop(daemon, report);
        }
        let f = figures(&phase);
        report.line(format!(
            "{} answers; figures from the quietest tenth of {} slices of {SLICE_S} s, \
             each slice's p99 with at least {} samples beyond it",
            phase.answered, f.slices, f.beyond
        ));
        let each = |f: fn(&Slice) -> f64| phase.closed.iter().map(f).collect::<Vec<_>>();
        report.line(format!("slice req/s {:?}", each(|s| s.rate.round())));
        report.line(format!(
            "slice p50 us {:?}",
            each(|s| (s.p50_s * 1e7).round() / 10.0)
        ));
        report.metric("jobs_per_s", f.req_per_s, Unit::PerS);
        report.metric("req_per_s", f.req_per_s, Unit::PerS);
        report.metric("latency_p50_ms", f.p50_s * 1e3, Unit::Ms);
        report.metric("latency_p99_ms", f.p99_s * 1e3, Unit::Ms);
        report.metric("setup_s", stats::median(&setups), Unit::S);
        return;
    }

    // Traced: half the window untraced on the stock daemon as the
    // baseline, half on a daemon whose backend records spans.
    let window = Duration::from_secs_f64(seconds / 2.0);
    let daemon = boot(&requests, None, report);
    let mut rng = SplitMix64::new(seed);
    let load = Load::Until(Instant::now() + window);
    let plain = timed_phase(&daemon, &requests, &zipf, &mut rng, load, None, report);
    stop(daemon, report);

    let tracer = Arc::new(Tracer::default());
    let model = Arc::new(ModelBackend::with_replicas(2));
    let backend = Arc::new(TimedBackend {
        inner: model.clone(),
        tracer: tracer.clone(),
        ns: AtomicU64::new(0),
        calls: AtomicU64::new(0),
    });
    let daemon = boot(&requests, Some(backend), report);
    let timed = daemon.timed.clone().expect("timed backend");
    let (warm_s, warm_calls) = timed.take();
    // The warm pass is the daemon's oracle build: spans up to here are it.
    let warm_spans = tracer.spans().len();
    let before = scrape(daemon.server.addr());
    let mut rng = SplitMix64::new(seed);
    let load = Load::Until(Instant::now() + window);
    let traced = timed_phase(
        &daemon,
        &requests,
        &zipf,
        &mut rng,
        load,
        Some(&tracer),
        report,
    );
    let after = scrape(daemon.server.addr());
    let (backend_s, backend_calls) = timed.take();
    stop(daemon, report);

    let delta =
        |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let hits = delta("pmemflow_serve_cache_hits_total");
    let misses = delta("pmemflow_serve_cache_misses_total");
    let answered = traced.answered as f64;

    let spans = tracer.spans();
    let mut table = LayerTable::from_spans(&spans[warm_spans..]);
    table.nest("serve", "backend");
    report.table(&table);
    let (plain, traced_f) = (figures(&plain), figures(&traced));
    let overhead = report.overhead("req_per_s", plain.req_per_s, traced_f.req_per_s, true);
    report.metric("trace.overhead_pct", overhead, Unit::Pct);
    report.overhead(
        "latency_p50_ms",
        plain.p50_s * 1e3,
        traced_f.p50_s * 1e3,
        false,
    );
    report.overhead(
        "latency_p99_ms",
        plain.p99_s * 1e3,
        traced_f.p99_s * 1e3,
        false,
    );
    match report.write_trace(&crate::spans::chrome_trace_json(&spans)) {
        Ok(path) => report.line(format!("trace written to {path}")),
        Err(e) => report.line(format!("trace not written: {e}")),
    }
    report.line(format!(
        "{answered} requests: {hits} cache hits, {misses} misses; warm pass {warm_calls} backend calls"
    ));

    let (mut entries, mut corun_sets, mut events) = (0usize, 0usize, 0u64);
    for stack in [StackKind::NvStream, StackKind::Nova] {
        let oracle = model.oracle(stack);
        entries += oracle.alphabet_len();
        corun_sets += oracle.corun_cache_len();
        for family in &FAMILIES[..shape.families] {
            let name = Family::parse(family).expect("universe family").name();
            for ranks in RANKS {
                if oracle.contains(name, ranks) {
                    events += oracle
                        .config_sweep(name, ranks)
                        .runs
                        .iter()
                        .map(|r| r.events)
                        .sum::<u64>();
                }
            }
        }
    }
    report.metric("oracle.build_s", warm_s, Unit::S);
    report.metric("oracle.entries", entries as f64, Unit::Count);
    report.metric("des.events", events as f64, Unit::Count);
    report.metric("des.events_per_s", events as f64 / warm_s, Unit::PerS);
    report.metric("pricing.corun_sets", corun_sets as f64, Unit::Count);
    report.metric("serve.requests", answered, Unit::Count);
    report.metric("serve.backend_s", backend_s, Unit::S);
    report.metric("serve.backend_calls", backend_calls as f64, Unit::Count);
    report.metric(
        "serve.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        Unit::Ratio,
    );
    report.metric(
        "serve.coalesced",
        delta("pmemflow_serve_coalesced_total"),
        Unit::Count,
    );
    report.metric(
        "serve.shed",
        delta("pmemflow_serve_shed_total"),
        Unit::Count,
    );
    report.metric(
        "serve.epoll_wakeups_per_req",
        delta("pmemflow_serve_epoll_wakeups_total") / answered.max(1.0),
        Unit::Ratio,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_has_about_150_distinct_queries() {
        let u = universe(&FULL);
        assert_eq!(u.len(), 2 * (6 * 3 * 3 + 21));
        let mut dedup = u.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), u.len());
    }

    #[test]
    fn zipf_favours_low_ranks_and_is_seeded() {
        let z = Zipf::new(150, ZIPF_S);
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut a)).collect();
        assert!(draws.iter().all(|&d| d < 150));
        assert_eq!(
            draws[..100],
            (0..100).map(|_| z.sample(&mut b)).collect::<Vec<_>>()[..]
        );
        let top = draws.iter().filter(|&&d| d < 10).count();
        assert!(top > 4_000, "top-10 share {top}/10000");
    }

    #[test]
    fn figures_come_from_the_quietest_tenth_of_whole_slices() {
        // Ten whole slices, slice i with 1000 + 100 i answers that all
        // took (10 - i) x 0.1 ms, then a partial slow one that is dropped.
        let mut phase = Phase::default();
        let slices = (0..10).map(|i| (i, 1000 + 100 * i, (10 - i) as f64 * 1e-4));
        for (slice, n, lat) in slices.chain([(10, 50, 1.0)]) {
            for i in 0..n {
                let done = (slice as f64 + i as f64 / n as f64) * SLICE_S;
                phase.record(Duration::from_secs_f64(lat), Duration::from_secs_f64(done));
            }
        }
        phase.elapsed_s = 10.5 * SLICE_S;
        let f = figures(&phase);
        assert_eq!(f.slices, 10);
        // Nearest rank: the second-fastest of ten rates, the fastest p50/p99.
        let rate = 1800.0 / SLICE_S;
        assert!((f.req_per_s - rate).abs() < 1e-6, "{}", f.req_per_s);
        assert!((f.p50_s - 1e-4).abs() < 1e-12, "{}", f.p50_s);
        assert!((f.p99_s - 1e-4).abs() < 1e-12, "{}", f.p99_s);
        assert!(f.beyond >= 10);
    }

    #[test]
    fn response_parser_waits_for_the_whole_body() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nabcdHTTP/1.1";
        assert_eq!(parse_response(full), Some((200, 42, &b"abcd"[..])));
        assert_eq!(parse_response(&full[..40]), None);
    }
}
