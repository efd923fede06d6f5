//! In-memory span recorder of the traced run: one span per call the
//! benchmark makes into a layer, written out once the run ends.

use crate::json::Json;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: String,
    parent: Option<SpanId>,
    start_us: f64,
    end_us: f64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_us,
            end_us: f64::NAN,
        });
        self.spans.len() - 1
    }

    /// Closes `id` and returns its duration in milliseconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end;
        (end - span.start_us) / 1e3
    }

    /// Records a span measured elsewhere (e.g. on a client thread).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let (start_us, end_us) = (us(start), us(end));
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_us,
            end_us,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name`; returns its result and its
    /// duration in milliseconds.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(s.name.as_str())),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                    ])
                })
                .collect(),
        )
    }
}
