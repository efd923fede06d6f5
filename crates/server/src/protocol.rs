//! The `sfqt1d` wire protocol: line-oriented, UTF-8, hand-parsed.
//!
//! One connection carries exactly **one request** and its response — the
//! simplest framing that still supports many concurrent clients (each just
//! opens its own connection), and the one that makes graceful shutdown
//! trivial to reason about: draining in-flight connections drains in-flight
//! requests.
//!
//! # Requests
//!
//! ```text
//! PING
//! STATS
//! STOP
//! FLOW phases=4 t1=1 engine=auto gain=0 verify=0 deadline_ms=- max_nodes=-
//! DESIGN <name> PATH <path>
//! DESIGN <name> INLINE <len>
//! <len raw bytes>
//! RUN
//! ```
//!
//! A `FLOW` header line is followed by any number of `DESIGN` lines and a
//! terminating `RUN`. `PATH` designs are read by the daemon (same-host
//! clients hand over a path instead of shipping bytes); `INLINE` designs
//! carry their content directly — exactly `<len>` bytes follow the header
//! line, then one newline. `deadline_ms`/`max_nodes` take `-` for
//! "unlimited". `verify=1` follows every flow with pulse-level verification
//! (equivalence sweep + margin analysis); rows then use the verify table
//! layout.
//!
//! # Responses
//!
//! ```text
//! PONG
//! BYE
//! STATS ok=.. failed=.. panicked=.. timed_out=.. cache_hits=.. cache_misses=..
//!       cache_collisions=.. cache_evictions=.. cache_len=.. cache_capacity=..
//!       workers=..
//! ROW <index> <table row>
//! END ok=<n> failed=<n>
//! ERR <message>
//! ```
//!
//! A `FLOW` response is a stream: one `ROW` line per design, **in request
//! order, flushed as each design finishes** (row `k` is sent as soon as
//! designs `0..=k` are all done), terminated by `END`. Every other request
//! answers with a single line. `ERR` can replace any response.

use crate::jobs::{JobKind, VerifyOptions};
use sfq_core::{FlowConfig, Limits, PhaseEngine};
use sfq_netlist::CacheStats;
use std::fmt;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::time::Duration;

/// Upper bound on one inline design submission (bytes) — a daemon serving
/// arbitrary clients must bound what one request can make it allocate.
pub const MAX_INLINE_BYTES: usize = 64 << 20;

/// Upper bound on designs in one `FLOW` request.
pub const MAX_DESIGNS_PER_REQUEST: usize = 4096;

/// A protocol failure: transport I/O or a malformed message.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The peer sent something the grammar does not admit.
    Malformed(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "protocol i/o: {e}"),
            ProtocolError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> ProtocolError {
    ProtocolError::Malformed(msg.into())
}

/// Flow options carried by a `FLOW` request — the daemon-side mirror of the
/// `sfqt1 flow` CLI options that make sense per request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowOptions {
    /// Number of clock phases.
    pub phases: u8,
    /// Whether T1 detection runs.
    pub use_t1: bool,
    /// Phase-assignment engine.
    pub engine: PhaseEngine,
    /// T1 commit gain threshold (JJs).
    pub gain_threshold: i64,
    /// Whether each flow is followed by pulse-level verification
    /// (equivalence sweep + Monte-Carlo margin analysis) with the default
    /// sweep settings — rows then use the verify table layout.
    pub verify: bool,
    /// Per-design wall-clock deadline, if any.
    pub deadline_ms: Option<u64>,
    /// Per-design node-budget ceiling, if any.
    pub max_nodes: Option<u64>,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            phases: 4,
            use_t1: false,
            engine: PhaseEngine::Auto,
            gain_threshold: 0,
            verify: false,
            deadline_ms: None,
            max_nodes: None,
        }
    }
}

impl FlowOptions {
    /// The [`FlowConfig`] these options describe.
    pub fn flow_config(&self) -> FlowConfig {
        let mut config = if self.use_t1 {
            FlowConfig::t1(self.phases)
        } else {
            FlowConfig::multiphase(self.phases)
        };
        config.engine = self.engine;
        config.gain_threshold = self.gain_threshold;
        config
    }

    /// The [`JobKind`] these options ask for: `verify=1` runs pulse-level
    /// verification with the default sweep and margin settings (the wire
    /// carries only the flag).
    pub fn job_kind(&self) -> JobKind {
        if self.verify {
            JobKind::Verify(VerifyOptions::default())
        } else {
            JobKind::Flow
        }
    }

    /// The per-design supervision [`Limits`] these options describe.
    pub fn limits(&self) -> Limits {
        Limits {
            deadline: self.deadline_ms.map(Duration::from_millis),
            max_nodes: self.max_nodes,
        }
    }
}

/// One design of a `FLOW` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignSource {
    /// The daemon reads (and caches) the file itself.
    Path {
        /// Display name of the design (one `ROW` per name).
        name: String,
        /// Path the daemon reads.
        path: PathBuf,
    },
    /// The client ships the design bytes inline.
    Inline {
        /// Display name of the design; its extension drives format
        /// detection, content sniffing covers the rest.
        name: String,
        /// The design source text.
        content: String,
    },
}

impl DesignSource {
    /// The display name of the design.
    pub fn name(&self) -> &str {
        match self {
            DesignSource::Path { name, .. } | DesignSource::Inline { name, .. } => name,
        }
    }
}

/// A parsed `FLOW` request: options plus the designs to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRequest {
    /// Flow configuration and per-design limits.
    pub options: FlowOptions,
    /// The designs, in the order their rows will stream back.
    pub designs: Vec<DesignSource>,
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Counter snapshot.
    Stats,
    /// Graceful shutdown (drain, then exit).
    Stop,
    /// Run flows and stream rows back.
    Flow(FlowRequest),
}

/// Validates a design name token: non-empty, no whitespace, bounded.
fn check_name(name: &str) -> Result<(), ProtocolError> {
    if name.is_empty() || name.len() > 256 || name.chars().any(char::is_whitespace) {
        return Err(malformed(format!("bad design name `{name}`")));
    }
    Ok(())
}

fn parse_kv<'a>(token: &'a str, key: &str) -> Result<&'a str, ProtocolError> {
    token
        .strip_prefix(key)
        .and_then(|r| r.strip_prefix('='))
        .ok_or_else(|| malformed(format!("expected `{key}=...`, got `{token}`")))
}

fn parse_opt_u64(v: &str, what: &str) -> Result<Option<u64>, ProtocolError> {
    if v == "-" {
        return Ok(None);
    }
    v.parse()
        .map(Some)
        .map_err(|_| malformed(format!("bad {what} `{v}`")))
}

/// Parses the `FLOW ...` header line (after the verb).
fn parse_flow_header(rest: &str) -> Result<FlowOptions, ProtocolError> {
    let mut toks = rest.split_whitespace();
    let mut need = |key: &str| {
        toks.next()
            .ok_or_else(|| malformed(format!("missing `{key}=`")))
    };
    let phases: u8 = parse_kv(need("phases")?, "phases")?
        .parse()
        .map_err(|_| malformed("bad phases"))?;
    if phases == 0 {
        return Err(malformed("phases must be at least 1"));
    }
    let t1 = match parse_kv(need("t1")?, "t1")? {
        "0" => false,
        "1" => true,
        other => return Err(malformed(format!("bad t1 flag `{other}`"))),
    };
    let engine = match parse_kv(need("engine")?, "engine")? {
        "auto" => PhaseEngine::Auto,
        "exact" => PhaseEngine::Exact,
        "heuristic" => PhaseEngine::Heuristic,
        other => return Err(malformed(format!("bad engine `{other}`"))),
    };
    let gain: i64 = parse_kv(need("gain")?, "gain")?
        .parse()
        .map_err(|_| malformed("bad gain"))?;
    let verify = match parse_kv(need("verify")?, "verify")? {
        "0" => false,
        "1" => true,
        other => return Err(malformed(format!("bad verify flag `{other}`"))),
    };
    let deadline_ms = parse_opt_u64(
        parse_kv(need("deadline_ms")?, "deadline_ms")?,
        "deadline_ms",
    )?;
    let max_nodes = parse_opt_u64(parse_kv(need("max_nodes")?, "max_nodes")?, "max_nodes")?;
    if toks.next().is_some() {
        return Err(malformed("trailing tokens after FLOW header"));
    }
    Ok(FlowOptions {
        phases,
        use_t1: t1,
        engine,
        gain_threshold: gain,
        verify,
        deadline_ms,
        max_nodes,
    })
}

fn read_line(r: &mut impl BufRead) -> Result<Option<String>, ProtocolError> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// Reads one request from the stream.
///
/// # Errors
/// [`ProtocolError::Io`] on transport failure, [`ProtocolError::Malformed`]
/// when the peer violates the grammar (including oversized inline designs).
pub fn read_request(r: &mut impl BufRead) -> Result<Request, ProtocolError> {
    let Some(line) = read_line(r)? else {
        return Err(malformed("empty request"));
    };
    let (verb, rest) = match line.split_once(' ') {
        Some((v, rest)) => (v, rest),
        None => (line.as_str(), ""),
    };
    match verb {
        "PING" => Ok(Request::Ping),
        "STATS" => Ok(Request::Stats),
        "STOP" => Ok(Request::Stop),
        "FLOW" => {
            let options = parse_flow_header(rest)?;
            let mut designs = Vec::new();
            loop {
                let Some(line) = read_line(r)? else {
                    return Err(malformed("FLOW request ended before RUN"));
                };
                if line == "RUN" {
                    break;
                }
                let rest = line
                    .strip_prefix("DESIGN ")
                    .ok_or_else(|| malformed(format!("expected DESIGN or RUN, got `{line}`")))?;
                let (name, src) = rest
                    .split_once(' ')
                    .ok_or_else(|| malformed("DESIGN needs a name and a source"))?;
                check_name(name)?;
                if let Some(path) = src.strip_prefix("PATH ") {
                    designs.push(DesignSource::Path {
                        name: name.to_string(),
                        path: PathBuf::from(path),
                    });
                } else if let Some(len) = src.strip_prefix("INLINE ") {
                    let len: usize = len
                        .parse()
                        .map_err(|_| malformed(format!("bad INLINE length `{len}`")))?;
                    if len > MAX_INLINE_BYTES {
                        return Err(malformed(format!(
                            "inline design `{name}` exceeds {MAX_INLINE_BYTES} bytes"
                        )));
                    }
                    let mut bytes = vec![0u8; len];
                    r.read_exact(&mut bytes)?;
                    let mut nl = [0u8; 1];
                    r.read_exact(&mut nl)?;
                    if nl[0] != b'\n' {
                        return Err(malformed("inline design not newline-terminated"));
                    }
                    let content = String::from_utf8(bytes)
                        .map_err(|_| malformed(format!("inline design `{name}` is not UTF-8")))?;
                    designs.push(DesignSource::Inline {
                        name: name.to_string(),
                        content,
                    });
                } else {
                    return Err(malformed(format!("bad DESIGN source `{src}`")));
                }
                if designs.len() > MAX_DESIGNS_PER_REQUEST {
                    return Err(malformed(format!(
                        "more than {MAX_DESIGNS_PER_REQUEST} designs in one request"
                    )));
                }
            }
            Ok(Request::Flow(FlowRequest { options, designs }))
        }
        other => Err(malformed(format!("unknown verb `{other}`"))),
    }
}

/// Writes one request to the stream (the client side of [`read_request`]).
///
/// # Errors
/// Transport I/O errors.
pub fn write_request(w: &mut impl Write, req: &Request) -> std::io::Result<()> {
    match req {
        Request::Ping => writeln!(w, "PING")?,
        Request::Stats => writeln!(w, "STATS")?,
        Request::Stop => writeln!(w, "STOP")?,
        Request::Flow(f) => {
            let o = &f.options;
            let fmt_opt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
            let engine = match o.engine {
                PhaseEngine::Auto => "auto",
                PhaseEngine::Exact => "exact",
                PhaseEngine::Heuristic => "heuristic",
            };
            writeln!(
                w,
                "FLOW phases={} t1={} engine={} gain={} verify={} deadline_ms={} max_nodes={}",
                o.phases,
                u8::from(o.use_t1),
                engine,
                o.gain_threshold,
                u8::from(o.verify),
                fmt_opt(o.deadline_ms),
                fmt_opt(o.max_nodes),
            )?;
            for d in &f.designs {
                match d {
                    DesignSource::Path { name, path } => {
                        writeln!(w, "DESIGN {name} PATH {}", path.display())?;
                    }
                    DesignSource::Inline { name, content } => {
                        writeln!(w, "DESIGN {name} INLINE {}", content.len())?;
                        w.write_all(content.as_bytes())?;
                        w.write_all(b"\n")?;
                    }
                }
            }
            writeln!(w, "RUN")?;
        }
    }
    w.flush()
}

/// The counter snapshot a `STATS` request answers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Flows that finished and verified.
    pub ok: u64,
    /// Flows that failed (ingest error, flow error, or over node budget).
    pub failed: u64,
    /// Flows that panicked and were contained.
    pub panicked: u64,
    /// Flows aborted at their wall-clock deadline.
    pub timed_out: u64,
    /// Shared design-cache counters.
    pub cache: CacheStats,
    /// Effective worker-thread count each request fans its designs over
    /// (`sfq_netlist::par::workers()` as the serving process resolves it —
    /// `sfqt1d --workers` / `SFQ_WORKERS` override, else the host's
    /// available parallelism).
    pub workers: u64,
}

impl fmt::Display for StatsReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "STATS ok={} failed={} panicked={} timed_out={} cache_hits={} cache_misses={} \
             cache_collisions={} cache_evictions={} cache_len={} cache_capacity={} workers={}",
            self.ok,
            self.failed,
            self.panicked,
            self.timed_out,
            self.cache.hits,
            self.cache.misses,
            self.cache.collisions,
            self.cache.evictions,
            self.cache.len,
            self.cache.capacity,
            self.workers,
        )
    }
}

/// One response line, as the client sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `PING` answer.
    Pong,
    /// `STOP` acknowledgment.
    Bye,
    /// Counter snapshot.
    Stats(Box<StatsReply>),
    /// One streamed result row of a `FLOW` request.
    Row {
        /// Zero-based index of the design within the request.
        index: usize,
        /// The rendered table row.
        line: String,
    },
    /// End of a `FLOW` stream with the request's outcome counts.
    End {
        /// Designs that finished and verified.
        ok: usize,
        /// Designs that failed.
        failed: usize,
    },
    /// Server-side failure report.
    Err(String),
}

/// Parses one response line (the client side of the daemon's writes).
///
/// # Errors
/// [`ProtocolError::Malformed`] when the line fits no response form.
pub fn parse_reply(line: &str) -> Result<Reply, ProtocolError> {
    let (verb, rest) = match line.split_once(' ') {
        Some((v, rest)) => (v, rest),
        None => (line, ""),
    };
    match verb {
        "PONG" => Ok(Reply::Pong),
        "BYE" => Ok(Reply::Bye),
        "ERR" => Ok(Reply::Err(rest.to_string())),
        "ROW" => {
            let (index, line) = rest
                .split_once(' ')
                .ok_or_else(|| malformed("ROW needs an index and a row"))?;
            let index = index
                .parse()
                .map_err(|_| malformed(format!("bad ROW index `{index}`")))?;
            Ok(Reply::Row {
                index,
                line: line.to_string(),
            })
        }
        "END" => {
            let mut toks = rest.split_whitespace();
            let ok = parse_kv(toks.next().ok_or_else(|| malformed("END needs ok="))?, "ok")?
                .parse()
                .map_err(|_| malformed("bad END ok count"))?;
            let failed = parse_kv(
                toks.next().ok_or_else(|| malformed("END needs failed="))?,
                "failed",
            )?
            .parse()
            .map_err(|_| malformed("bad END failed count"))?;
            Ok(Reply::End { ok, failed })
        }
        "STATS" => {
            let mut stats = StatsReply::default();
            for tok in rest.split_whitespace() {
                let (key, value) = tok
                    .split_once('=')
                    .ok_or_else(|| malformed(format!("bad STATS token `{tok}`")))?;
                let v: u64 = value
                    .parse()
                    .map_err(|_| malformed(format!("bad STATS value `{tok}`")))?;
                let vu = v as usize;
                match key {
                    "ok" => stats.ok = v,
                    "failed" => stats.failed = v,
                    "panicked" => stats.panicked = v,
                    "timed_out" => stats.timed_out = v,
                    "cache_hits" => stats.cache.hits = vu,
                    "cache_misses" => stats.cache.misses = vu,
                    "cache_collisions" => stats.cache.collisions = vu,
                    "cache_evictions" => stats.cache.evictions = vu,
                    "cache_len" => stats.cache.len = vu,
                    "cache_capacity" => stats.cache.capacity = vu,
                    "workers" => stats.workers = v,
                    other => return Err(malformed(format!("unknown STATS key `{other}`"))),
                }
            }
            Ok(Reply::Stats(Box::new(stats)))
        }
        other => Err(malformed(format!("unknown reply `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn round_trip(req: Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).expect("write");
        read_request(&mut BufReader::new(buf.as_slice())).expect("read back")
    }

    #[test]
    fn simple_requests_round_trip() {
        for req in [Request::Ping, Request::Stats, Request::Stop] {
            assert_eq!(round_trip(req.clone()), req);
        }
    }

    #[test]
    fn flow_requests_round_trip_with_mixed_sources() {
        let req = Request::Flow(FlowRequest {
            options: FlowOptions {
                phases: 6,
                use_t1: true,
                engine: PhaseEngine::Heuristic,
                gain_threshold: -3,
                verify: true,
                deadline_ms: Some(2500),
                max_nodes: None,
            },
            designs: vec![
                DesignSource::Path {
                    name: "a.aag".into(),
                    path: PathBuf::from("/tmp/designs/a with space.aag"),
                },
                DesignSource::Inline {
                    name: "b.blif".into(),
                    content: ".model b\n.inputs x\n.outputs y\n.names x y\n1 1\n.end\n".into(),
                },
                DesignSource::Inline {
                    name: "empty.blif".into(),
                    content: String::new(),
                },
            ],
        });
        assert_eq!(round_trip(req.clone()), req);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "FROB\n",
            "FLOW phases=4\nRUN\n",
            "FLOW phases=0 t1=0 engine=auto gain=0 verify=0 deadline_ms=- max_nodes=-\nRUN\n",
            "FLOW phases=4 t1=2 engine=auto gain=0 verify=0 deadline_ms=- max_nodes=-\nRUN\n",
            "FLOW phases=4 t1=0 engine=warp gain=0 verify=0 deadline_ms=- max_nodes=-\nRUN\n",
            "FLOW phases=4 t1=0 engine=auto gain=0 verify=yes deadline_ms=- max_nodes=-\nRUN\n",
            "FLOW phases=4 t1=0 engine=auto gain=0 deadline_ms=- max_nodes=-\nRUN\n",
            "FLOW phases=4 t1=0 engine=auto gain=0 verify=0 deadline_ms=- max_nodes=-\nDESIGN bad name PATH /x\nRUN\n",
            "FLOW phases=4 t1=0 engine=auto gain=0 verify=0 deadline_ms=- max_nodes=-\nDESIGN a.aag INLINE 4\nab\n",
            "FLOW phases=4 t1=0 engine=auto gain=0 verify=0 deadline_ms=- max_nodes=-\nDESIGN a.aag FTP /x\nRUN\n",
        ] {
            let res = read_request(&mut BufReader::new(bad.as_bytes()));
            assert!(res.is_err(), "`{}` should be rejected", bad.escape_debug());
        }
    }

    #[test]
    fn replies_parse_and_stats_round_trips() {
        assert_eq!(parse_reply("PONG").unwrap(), Reply::Pong);
        assert_eq!(parse_reply("BYE").unwrap(), Reply::Bye);
        assert_eq!(
            parse_reply("ROW 3 adder8.aag FAILED(x)").unwrap(),
            Reply::Row {
                index: 3,
                line: "adder8.aag FAILED(x)".into()
            }
        );
        assert_eq!(
            parse_reply("END ok=5 failed=2").unwrap(),
            Reply::End { ok: 5, failed: 2 }
        );
        let stats = StatsReply {
            ok: 9,
            failed: 2,
            panicked: 1,
            timed_out: 3,
            cache: CacheStats {
                hits: 21,
                misses: 11,
                evictions: 4,
                collisions: 1,
                len: 7,
                capacity: 256,
            },
            workers: 8,
        };
        match parse_reply(&stats.to_string()).unwrap() {
            Reply::Stats(parsed) => assert_eq!(*parsed, stats),
            other => panic!("expected stats, got {other:?}"),
        }
        assert!(parse_reply("WAT 1 2").is_err());
    }

    #[test]
    fn flow_options_map_onto_config_and_limits() {
        let o = FlowOptions {
            phases: 5,
            use_t1: true,
            engine: PhaseEngine::Exact,
            gain_threshold: 7,
            verify: true,
            deadline_ms: Some(100),
            max_nodes: Some(9),
        };
        let c = o.flow_config();
        assert_eq!(c.phases, 5);
        assert!(c.use_t1);
        assert_eq!(c.gain_threshold, 7);
        let l = o.limits();
        assert_eq!(l.deadline, Some(Duration::from_millis(100)));
        assert_eq!(l.max_nodes, Some(9));
    }
}
