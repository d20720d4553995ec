//! Minimal JSON codec for schedules and diagnostics.
//!
//! The workspace builds hermetically (no external crates), so this is a
//! small hand-rolled parser/emitter for the one format the tools need:
//!
//! ```json
//! {
//!   "n": 3,
//!   "lambda": "5/2",
//!   "messages": 1,
//!   "sends": [
//!     { "src": 0, "dst": 1, "at": "0" },
//!     { "src": 1, "dst": 2, "at": "5/2" }
//!   ]
//! }
//! ```
//!
//! Times and λ accept the same forms the CLI does: `"5/2"`, `"2.5"`, or
//! a bare JSON number. `"messages"` is optional (default 1). λ and every
//! send time must share one `i64` tick lattice ([`TimeLattice`]); a time
//! outside it is rejected with a [`TimeRangeError`] naming the send.
//!
//! ## Reading
//!
//! One reader serves both entry points: [`parse_schedule_reader`] pulls
//! from any [`BufRead`], and [`parse_schedule`] runs it over a string's
//! bytes. The lexer keeps a bounded window of the input: each refill
//! takes at most 64 KiB of the reader's current `fill_buf` slice and
//! consumes it at once, and drops the bytes already read, so a token
//! that straddles two slices is still contiguous. Whitespace, numbers
//! and string bodies are scanned as runs of the window; keys are
//! matched as bytes, and integers and times are converted straight
//! from the token's bytes. Only a string with an escape is decoded, into
//! one reused scratch buffer. No token allocates, and a parse holds the
//! window, that buffer and the `TimedSend` list — never the text or a
//! parse tree. Errors name the absolute byte offset (`at byte N`),
//! whatever the reader's chunking.

use postal_model::latency::Latency;
use postal_model::lint::Diagnostic;
use postal_model::ratio::Ratio;
use postal_model::schedule::{Schedule, TimedSend};
use postal_model::time::{TickScale, Time, TICK_LIMIT};
use postal_obs::ObsEvent;
use std::fmt;
use std::io::BufRead;

/// A schedule as read from a file, with its optional message count.
#[derive(Debug, Clone)]
pub struct ScheduleFile {
    /// The schedule.
    pub schedule: Schedule,
    /// `"messages"` field, when present.
    pub messages: Option<u64>,
    /// Events the recorder dropped before this schedule was derived
    /// (JSONL logs only; schedule files are always complete). A nonzero
    /// value marks the schedule as a *partial* reconstruction.
    pub dropped_events: Option<u64>,
    /// The sampling spec that produced the source log, when sampled.
    pub sample: Option<String>,
    /// Whether the source log carries a `truncated` event — the engine
    /// hit its event budget and aborted, so the trace stops mid-run
    /// (JSONL logs only; schedule files are always complete).
    pub truncated: bool,
    /// `"topology"` field, when present: a `TopologySpec` string
    /// (`complete`, `ring`, `torus:RxC`, `hypercube:D`, `mbg:N`) naming
    /// the communication graph the schedule targets. `postal-cli lint`
    /// uses it as the default when `--topology` is not given.
    pub topology: Option<String>,
}

impl ScheduleFile {
    /// True when the source trace is known to be incomplete — findings
    /// about absences (causality, coverage) are unreliable then. Both
    /// recorder sampling (`dropped_events > 0`) and an engine event-
    /// budget abort (`truncated`) make a trace partial.
    pub fn is_partial(&self) -> bool {
        self.dropped_events.is_some_and(|d| d > 0) || self.truncated
    }
}

/// Why a schedule or event log could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// A syntax or shape error, with a byte offset when syntactic.
    Syntax(String),
    /// A well-formed time the linters cannot hold exactly.
    TimeRange(TimeRangeError),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax(msg) => f.write_str(msg),
            JsonError::TimeRange(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<TimeRangeError> for JsonError {
    fn from(e: TimeRangeError) -> JsonError {
        JsonError::TimeRange(e)
    }
}

/// A parsed time outside the range the linters hold exactly.
///
/// Every time of one input — λ, and each send start — must share one
/// `i64` tick lattice (see [`TickScale`]): the lcm of their denominators
/// fits an `i64`, and each time is at most [`TICK_LIMIT`] ticks from
/// zero. Then every sum and cross-multiplied comparison the linters
/// make stays inside 128-bit rationals, so no input can overflow them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeRangeError {
    /// Where the time was read: `lambda`, `sends[3]` (input order) or
    /// `line 7` of an event log.
    pub field: String,
    /// The time, exactly as parsed.
    pub value: Ratio,
}

impl fmt::Display for TimeRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: time {} is out of range: every time must lie on one i64 tick lattice \
             with lambda (denominators with an lcm below 2^63, at most 2^61 ticks from zero)",
            self.field, self.value
        )
    }
}

/// Admits the times of one input onto a shared tick lattice, refining
/// it as denominators appear: the codec-side guard behind
/// [`TimeRangeError`].
#[derive(Debug, Clone)]
pub struct TimeLattice {
    scale: TickScale,
    /// Largest tick magnitude admitted so far, on `scale`.
    max_tick: i64,
}

impl TimeLattice {
    /// A lattice holding λ, or the error naming it.
    pub fn new(latency: Latency) -> Result<TimeLattice, TimeRangeError> {
        let mut lattice = TimeLattice {
            scale: TickScale::HALF,
            max_tick: 0,
        };
        let lam = latency.as_time();
        if !lattice.admit(lam) {
            return Err(TimeRangeError {
                field: "lambda".into(),
                value: lam.as_ratio(),
            });
        }
        Ok(lattice)
    }

    /// Admits `t`, refining the lattice if needed. `false` — and the
    /// lattice unchanged — when `t`, or an earlier time on the refined
    /// lattice, would fall out of range.
    pub fn admit(&mut self, t: Time) -> bool {
        if let Some(h) = self.scale.to_tick(t) {
            self.max_tick = self.max_tick.max(h.abs());
            return true;
        }
        let refined = self.scale.refine(t).and_then(|finer| {
            let max_tick = self
                .max_tick
                .checked_mul(finer.factor_over(self.scale)?)
                .filter(|&m| m <= TICK_LIMIT)?;
            Some((finer, max_tick.max(finer.to_tick(t)?.abs())))
        });
        let Some((scale, max_tick)) = refined else {
            return false;
        };
        (self.scale, self.max_tick) = (scale, max_tick);
        true
    }

    /// Admits every time an event carries; the first one out of range
    /// is returned as the error.
    pub fn admit_event(&mut self, ev: &ObsEvent) -> Result<(), Time> {
        let times: &[Time] = match ev {
            ObsEvent::Send { start, finish, .. } => &[*start, *finish],
            ObsEvent::Recv {
                arrival,
                start,
                finish,
                ..
            } => &[*arrival, *start, *finish],
            ObsEvent::Violation {
                arrival,
                busy_until,
                ..
            } => &[*arrival, *busy_until],
            ObsEvent::Wake { at, .. }
            | ObsEvent::Drop { at, .. }
            | ObsEvent::Crash { at, .. }
            | ObsEvent::Truncated { at, .. } => &[*at],
        };
        match times.iter().find(|&&t| !self.admit(t)) {
            Some(&t) => Err(t),
            None => Ok(()),
        }
    }
}

/// Holds a parsed schedule's λ and send starts (in input order) to one
/// tick lattice.
pub(crate) fn check_times(latency: Latency, sends: &[TimedSend]) -> Result<(), TimeRangeError> {
    let mut lattice = TimeLattice::new(latency)?;
    match sends.iter().position(|s| !lattice.admit(s.send_start)) {
        Some(i) => Err(TimeRangeError {
            field: format!("sends[{i}]"),
            value: sends[i].send_start.as_ratio(),
        }),
        None => Ok(()),
    }
}

/// A scalar as the lexer hands it to a field's converter: the bytes of
/// a number literal or of a decoded string — valid UTF-8 either way —
/// or just the fact that the value was something else.
enum Lit<'a> {
    Num(&'a [u8]),
    Str(&'a [u8]),
    Other,
}

/// An integer field's value: `None` unless a number literal that parses
/// as a `u64`.
fn as_int(lit: Lit<'_>) -> Option<u64> {
    match lit {
        Lit::Num(t) => utf8(t).parse().ok(),
        _ => None,
    }
}

/// A time field's value. `Err` carries the literal that did not parse,
/// or `None` for a value that is neither number nor string.
fn as_time(lit: Lit<'_>) -> Result<Ratio, Option<String>> {
    match lit {
        Lit::Num(t) | Lit::Str(t) => {
            let text = utf8(t);
            text.parse().map_err(|_| Some(text.to_owned()))
        }
        Lit::Other => Err(None),
    }
}

fn utf8(bytes: &[u8]) -> &str {
    // Number literals are ASCII; strings are checked as they are read.
    std::str::from_utf8(bytes).expect("the lexer hands over UTF-8 only")
}

fn int_field(value: Option<u64>, field: &str) -> Result<u64, JsonError> {
    value.ok_or_else(|| JsonError::Syntax(format!("\"{field}\" must be a nonnegative integer")))
}

fn time_field(value: Result<Ratio, Option<String>>, field: &str) -> Result<Ratio, JsonError> {
    value.map_err(|text| {
        JsonError::Syntax(match text {
            Some(text) => format!("\"{field}\": cannot parse {text:?} as a rational"),
            None => format!("\"{field}\" must be a number or string"),
        })
    })
}

/// The keys the schedule format gives a meaning, matched as bytes.
#[derive(Clone, Copy)]
enum Key {
    N,
    Lambda,
    Messages,
    Topology,
    Sends,
    Src,
    Dst,
    At,
    Other,
}

impl Key {
    fn of(bytes: &[u8]) -> Key {
        match bytes {
            b"n" => Key::N,
            b"lambda" => Key::Lambda,
            b"messages" => Key::Messages,
            b"topology" => Key::Topology,
            b"sends" => Key::Sends,
            b"src" => Key::Src,
            b"dst" => Key::Dst,
            b"at" => Key::At,
            _ => Key::Other,
        }
    }
}

fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r')
}

fn is_num(b: u8) -> bool {
    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
}

/// Most input bytes one refill copies into the window: 64 KiB.
const CHUNK: usize = 1 << 16;

/// The pull lexer behind both entry points: see the module docs.
struct Lexer<R> {
    inner: R,
    /// The window: a bounded run of the input, unread from `at` on.
    buf: Vec<u8>,
    at: usize,
    /// Absolute offset of `buf[0]`.
    base: usize,
    /// A string with escapes, decoded; reused for every such string.
    scratch: Vec<u8>,
}

impl<R: BufRead> Lexer<R> {
    fn new(inner: R) -> Lexer<R> {
        Lexer {
            inner,
            buf: Vec::new(),
            at: 0,
            base: 0,
            scratch: Vec::new(),
        }
    }

    /// Absolute offset of the next unread byte: the `N` of `at byte N`.
    fn pos(&self) -> usize {
        self.base + self.at
    }

    fn err(&self, what: &str) -> JsonError {
        JsonError::Syntax(format!("{what} at byte {}", self.pos()))
    }

    /// Drops the window's read bytes and appends up to [`CHUNK`] bytes
    /// of the reader's current `fill_buf` slice, consuming them at once.
    /// `false` at the end of the input.
    fn refill(&mut self) -> Result<bool, JsonError> {
        let end = self.base + self.buf.len();
        let chunk = self
            .inner
            .fill_buf()
            .map_err(|e| JsonError::Syntax(format!("read error at byte {end}: {e}")))?;
        let k = chunk.len().min(CHUNK);
        self.buf.drain(..self.at);
        self.base += self.at;
        self.at = 0;
        self.buf.extend_from_slice(&chunk[..k]);
        self.inner.consume(k);
        Ok(k > 0)
    }

    fn peek(&mut self) -> Result<Option<u8>, JsonError> {
        if self.at == self.buf.len() && !self.refill()? {
            return Ok(None);
        }
        Ok(Some(self.buf[self.at]))
    }

    fn skip_ws(&mut self) -> Result<(), JsonError> {
        loop {
            let rest = &self.buf[self.at..];
            match rest.iter().position(|&b| !is_ws(b)) {
                Some(k) => {
                    self.at += k;
                    return Ok(());
                }
                None => {
                    self.at = self.buf.len();
                    if !self.refill()? {
                        return Ok(());
                    }
                }
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek()? == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        for &w in word.as_bytes() {
            if self.peek()? != Some(w) {
                return Err(self.err(&format!("expected '{word}'")));
            }
            self.at += 1;
        }
        Ok(())
    }

    /// Offset from `at` of the first byte from `at + from` on that
    /// `stop` takes, or of the end of the input; refills keep the bytes
    /// before it in the window.
    fn scan(&mut self, from: usize, stop: impl Fn(u8) -> bool) -> Result<usize, JsonError> {
        let mut k = from;
        loop {
            let rest = &self.buf[self.at + k..];
            match rest.iter().position(|&b| stop(b)) {
                Some(j) => return Ok(k + j),
                None => {
                    k += rest.len();
                    if !self.refill()? {
                        return Ok(k);
                    }
                }
            }
        }
    }

    fn number<T>(&mut self, f: impl FnOnce(&[u8]) -> T) -> Result<T, JsonError> {
        let k = self.scan(0, |b| !is_num(b))?;
        let t = &self.buf[self.at..self.at + k];
        let out = (!t.is_empty() && t != b"-").then(|| f(t));
        self.at += k;
        out.ok_or_else(|| self.err("malformed number"))
    }

    /// Reads a string and hands its decoded bytes to `f`: in place from
    /// the window when the string has no escape.
    fn string<T>(&mut self, f: impl FnOnce(&[u8]) -> T) -> Result<T, JsonError> {
        if self.peek()? == Some(b'"') {
            let q = self.scan(1, |b| b == b'"' || b == b'\\')?;
            let body = &self.buf[self.at + 1..self.at + q];
            if self.buf.get(self.at + q) == Some(&b'"') && std::str::from_utf8(body).is_ok() {
                let out = f(body);
                self.at += q + 1;
                return Ok(out);
            }
        }
        self.decode_string()?;
        Ok(f(&self.scratch))
    }

    /// Decodes a string into `scratch` byte by byte: the path for
    /// escapes, bad UTF-8, a missing `"` and an unterminated string.
    fn decode_string(&mut self) -> Result<(), JsonError> {
        self.expect(b'"')?;
        self.scratch.clear();
        // The bytes of a multi-byte UTF-8 sequence so far, checked after
        // each one: an error once four bytes make no character.
        let (mut seq, mut len) = ([0u8; 4], 0);
        loop {
            let Some(b) = self.peek()? else {
                return Err(self.err("unterminated string"));
            };
            self.at += 1;
            match b {
                b'"' if len == 0 => return Ok(()),
                b'\\' if len == 0 => {
                    let esc = self.peek()?.ok_or_else(|| self.err("bad escape"))?;
                    self.at += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let mut hex = [0u8; 4];
                            for h in &mut hex {
                                *h = self.peek()?.ok_or_else(|| self.err("bad \\u escape"))?;
                                self.at += 1;
                            }
                            let cp = std::str::from_utf8(&hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            char::from_u32(cp).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("unknown escape")),
                    };
                    self.scratch
                        .extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => {
                    seq[len] = b;
                    len += 1;
                    match std::str::from_utf8(&seq[..len]) {
                        Ok(s) => {
                            self.scratch.extend_from_slice(s.as_bytes());
                            len = 0;
                        }
                        Err(_) if len < 4 => {}
                        Err(_) => return Err(self.err("invalid UTF-8")),
                    }
                }
            }
        }
    }

    /// Reads one value and hands it to `f`; an array or object is
    /// validated, skipped and handed over as [`Lit::Other`].
    fn scalar<T>(&mut self, f: impl FnOnce(Lit<'_>) -> T) -> Result<T, JsonError> {
        self.skip_ws()?;
        match self.peek()? {
            Some(b'"') => self.string(|s| f(Lit::Str(s))),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(|t| f(Lit::Num(t))),
            Some(b't') => self.literal("true").map(|()| f(Lit::Other)),
            Some(b'f') => self.literal("false").map(|()| f(Lit::Other)),
            Some(b'n') => self.literal("null").map(|()| f(Lit::Other)),
            Some(b'{' | b'[') => self.skip_value().map(|()| f(Lit::Other)),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Validates and discards one value of any shape: how unknown keys
    /// are skipped without keeping their contents.
    fn skip_value(&mut self) -> Result<(), JsonError> {
        self.skip_ws()?;
        match self.peek()? {
            Some(b'{') => {
                self.at += 1;
                self.members(|p, _| p.skip_value())
            }
            Some(b'[') => {
                self.at += 1;
                self.elements(|p, _| p.skip_value())
            }
            _ => self.scalar(|_| ()),
        }
    }

    /// Reads an object's members after its `{`; `member` reads the
    /// value of each key.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Key) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.skip_ws()?;
        if self.peek()? == Some(b'}') {
            self.at += 1;
            return Ok(());
        }
        loop {
            self.skip_ws()?;
            let key = self.string(Key::of)?;
            self.skip_ws()?;
            self.expect(b':')?;
            member(self, key)?;
            self.skip_ws()?;
            match self.peek()? {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Reads an array's elements after its `[`; `element` reads the
    /// `i`-th.
    fn elements(
        &mut self,
        mut element: impl FnMut(&mut Self, usize) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.skip_ws()?;
        if self.peek()? == Some(b']') {
            self.at += 1;
            return Ok(());
        }
        for i in 0.. {
            element(self, i)?;
            self.skip_ws()?;
            match self.peek()? {
                Some(b',') => self.at += 1,
                Some(b']') => break,
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
        self.at += 1;
        Ok(())
    }

    /// The `"sends"` value: its list when it is an array, else `None` —
    /// a `"sends"` that is not an array reads as absent.
    fn sends(&mut self) -> Result<Option<Vec<TimedSend>>, JsonError> {
        self.skip_ws()?;
        if self.peek()? != Some(b'[') {
            self.skip_value()?;
            return Ok(None);
        }
        self.at += 1;
        let mut list = Vec::new();
        self.elements(|p, i| {
            list.push(p.send(i)?);
            Ok(())
        })?;
        Ok(Some(list))
    }

    /// The `i`-th element of `"sends"`: an object with `src`, `dst` and
    /// `at`, checked as soon as it closes.
    fn send(&mut self, i: usize) -> Result<TimedSend, JsonError> {
        self.skip_ws()?;
        if self.peek()? != Some(b'{') {
            self.skip_value()?;
            return Err(JsonError::Syntax(format!("sends[{i}] must be an object")));
        }
        self.at += 1;
        let (mut src, mut dst, mut at) = (None, None, None);
        self.members(|p, key| {
            match key {
                Key::Src => src = Some(p.scalar(as_int)?),
                Key::Dst => dst = Some(p.scalar(as_int)?),
                Key::At => at = Some(p.scalar(as_time)?),
                _ => p.skip_value()?,
            }
            Ok(())
        })?;
        let missing = |key| JsonError::Syntax(format!("sends[{i}]: missing \"{key}\""));
        let src = int_field(src.ok_or_else(|| missing("src"))?, "src")?;
        let dst = int_field(dst.ok_or_else(|| missing("dst"))?, "dst")?;
        let at = time_field(at.ok_or_else(|| missing("at"))?, "at")?;
        let (Ok(src), Ok(dst)) = (u32::try_from(src), u32::try_from(dst)) else {
            return Err(JsonError::Syntax(format!(
                "sends[{i}]: endpoint out of range"
            )));
        };
        Ok(TimedSend {
            src,
            dst,
            send_start: Time(at),
        })
    }
}

/// Parses a schedule file (see module docs for the format) held in a
/// string: [`parse_schedule_reader`] over its bytes.
pub fn parse_schedule(text: &str) -> Result<ScheduleFile, JsonError> {
    parse_schedule_reader(text.as_bytes())
}

/// Reads a schedule file (see module docs for the format) from
/// `reader`, so a million-send schedule is linted without its text or a
/// parse tree ever being held in memory: only the `TimedSend` list is
/// kept. Unknown keys, top-level and per-send, are skipped; duplicate
/// keys are last-wins; fields may appear in any order.
///
/// # Errors
/// [`JsonError`] on syntax errors (with their byte offset), I/O
/// failures, shape violations and times off every shared tick lattice.
pub fn parse_schedule_reader<R: BufRead>(reader: R) -> Result<ScheduleFile, JsonError> {
    let mut p = Lexer::new(reader);
    p.skip_ws()?;
    if p.peek()? != Some(b'{') {
        // Validate the stray value for a precise syntax error first.
        p.skip_value()?;
        return Err(JsonError::Syntax("top level must be an object".into()));
    }
    p.at += 1;
    let (mut n, mut lambda, mut messages, mut topology, mut sends) = (None, None, None, None, None);
    p.members(|p, key| {
        match key {
            Key::N => n = Some(p.scalar(as_int)?),
            Key::Lambda => lambda = Some(p.scalar(as_time)?),
            Key::Messages => messages = Some(p.scalar(as_int)?),
            Key::Topology => {
                topology = Some(p.scalar(|lit| match lit {
                    Lit::Str(s) => Some(utf8(s).to_owned()),
                    _ => None,
                })?)
            }
            Key::Sends => sends = p.sends()?,
            _ => p.skip_value()?,
        }
        Ok(())
    })?;
    p.skip_ws()?;
    if p.peek()?.is_some() {
        return Err(p.err("trailing characters after JSON value"));
    }

    let missing = |key| JsonError::Syntax(format!("missing \"{key}\""));
    let n = int_field(n.ok_or_else(|| missing("n"))?, "n")?;
    if n == 0 || n > u32::MAX as u64 {
        return Err(JsonError::Syntax(format!("\"n\" out of range: {n}")));
    }
    let lam_ratio = time_field(lambda.ok_or_else(|| missing("lambda"))?, "lambda")?;
    let latency = Latency::new(lam_ratio)
        .map_err(|e| JsonError::Syntax(format!("invalid \"lambda\": {e}")))?;
    let messages = messages.map(|m| int_field(m, "messages")).transpose()?;
    let topology = topology
        .map(|t| t.ok_or_else(|| JsonError::Syntax("\"topology\" must be a string".into())))
        .transpose()?;
    let sends = sends.ok_or_else(|| JsonError::Syntax("missing \"sends\" array".into()))?;
    check_times(latency, &sends)?;
    Ok(ScheduleFile {
        schedule: Schedule::new(n as u32, latency, sends),
        messages,
        dropped_events: None,
        sample: None,
        truncated: false,
        topology,
    })
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes a schedule in the format [`parse_schedule`] reads.
pub fn schedule_to_json(schedule: &Schedule, messages: Option<u64>) -> String {
    schedule_to_json_with_topology(schedule, messages, None)
}

/// Like [`schedule_to_json`], but also records an optional `"topology"`
/// field (a [`TopologySpec`](postal_model::TopologySpec) string such as
/// `"ring"` or `"torus:4x6"`) so that `postal-cli lint` can pick the
/// communication graph up from the file itself.
pub fn schedule_to_json_with_topology(
    schedule: &Schedule,
    messages: Option<u64>,
    topology: Option<&str>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"n\": {},\n  \"lambda\": \"{}\",\n",
        schedule.n(),
        schedule.latency()
    ));
    if let Some(m) = messages {
        out.push_str(&format!("  \"messages\": {m},\n"));
    }
    if let Some(t) = topology {
        out.push_str(&format!("  \"topology\": \"{}\",\n", esc(t)));
    }
    out.push_str("  \"sends\": [\n");
    let body: Vec<String> = schedule
        .sends()
        .iter()
        .map(|s| {
            format!(
                "    {{ \"src\": {}, \"dst\": {}, \"at\": \"{}\" }}",
                s.src, s.dst, s.send_start
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Serializes diagnostics as a JSON array (for `postal lint --format json`).
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[\n");
    let body: Vec<String> = diags
        .iter()
        .map(|d| {
            let sends: Vec<String> = d
                .sends
                .iter()
                .map(|s| {
                    format!(
                        "{{ \"src\": {}, \"dst\": {}, \"at\": \"{}\" }}",
                        s.src, s.dst, s.send_start
                    )
                })
                .collect();
            let proc = match d.proc {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let related = match d.related_time {
                Some(t) => format!("\"{t}\""),
                None => "null".to_string(),
            };
            let witness = match d.witness {
                Some(w) => format!("[\"{}\", \"{}\"]", w.lo(), w.hi()),
                None => "null".to_string(),
            };
            format!(
                "  {{ \"code\": \"{}\", \"severity\": \"{}\", \"proc\": {proc}, \
                 \"message\": \"{}\", \"related_time\": {related}, \
                 \"lambda_witness\": {witness}, \"sends\": [{}] }}",
                d.code,
                d.severity,
                esc(&d.message),
                sends.join(", ")
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::lint::{lint_schedule, LintOptions};

    const SAMPLE: &str = r#"{
      "n": 3,
      "lambda": "5/2",
      "sends": [
        { "src": 0, "dst": 1, "at": "0" },
        { "src": 1, "dst": 2, "at": "5/2" }
      ]
    }"#;

    #[test]
    fn parses_the_documented_format() {
        let file = parse_schedule(SAMPLE).unwrap();
        assert_eq!(file.schedule.n(), 3);
        assert_eq!(file.schedule.latency(), Latency::from_ratio(5, 2));
        assert_eq!(file.schedule.len(), 2);
        assert_eq!(file.messages, None);
        assert_eq!(file.schedule.sends()[1].send_start, Time::new(5, 2));
    }

    #[test]
    fn accepts_decimal_and_bare_number_times() {
        let file =
            parse_schedule(r#"{"n": 2, "lambda": 2.5, "sends": [{"src":0,"dst":1,"at":1.5}]}"#)
                .unwrap();
        assert_eq!(file.schedule.latency(), Latency::from_ratio(5, 2));
        assert_eq!(file.schedule.sends()[0].send_start, Time::new(3, 2));
    }

    #[test]
    fn round_trips_through_emitter() {
        let file = parse_schedule(SAMPLE).unwrap();
        let text = schedule_to_json(&file.schedule, Some(2));
        let again = parse_schedule(&text).unwrap();
        assert_eq!(again.schedule.sends(), file.schedule.sends());
        assert_eq!(again.messages, Some(2));
    }

    /// An accepted input with the n, λ, sends as `(src, dst, at)` in
    /// schedule order, and messages it parses to.
    type Accepted = (
        &'static str,
        u32,
        &'static str,
        &'static [(u32, u32, &'static str)],
        Option<u64>,
    );

    const ACCEPTED: &[Accepted] = &[
        (SAMPLE, 3, "5/2", &[(0, 1, "0"), (1, 2, "5/2")], None),
        (
            r#"{"n": 2, "lambda": 2.5, "sends": [{"src":0,"dst":1,"at":1.5}]}"#,
            2,
            "5/2",
            &[(0, 1, "3/2")],
            None,
        ),
        // Out-of-order fields, unknown keys (nested), duplicates.
        (
            r#"{"comment": {"a": [1, {"b": null}]}, "sends": [
                 {"src": 0, "dst": 1, "at": "0", "note": "x"}],
               "lambda": "5/2", "n": 4, "n": 3}"#,
            3,
            "5/2",
            &[(0, 1, "0")],
            None,
        ),
        (r#"{"n": 2, "lambda": 1, "sends": []}"#, 2, "1", &[], None),
        // Escaped keys and times decode before they are matched.
        (
            r#"{"n":2,"lambda":"5\/2","m\u0065ssages":2,
                "sends":[{"src":0,"dst":1,"at":"1/2"}]}"#,
            2,
            "5/2",
            &[(0, 1, "1/2")],
            Some(2),
        ),
    ];

    /// Inputs the reader rejects, with the exact error each one gets.
    const REJECTED: &[(&str, &str)] = &[
        ("[1, 2]", "top level must be an object"),
        ("{\"n\": 2}", "missing \"lambda\""),
        (
            "{\"n\": 0, \"lambda\": 1, \"sends\": []}",
            "\"n\" out of range: 0",
        ),
        (
            r#"{"n": 2, "lambda": "1/2", "sends": []}"#,
            "invalid \"lambda\": latency must satisfy λ ≥ 1, got 1/2",
        ),
        (
            "{\"n\": 2, \"lambda\": 1, \"sends\": [{}]}",
            "sends[0]: missing \"src\"",
        ),
        (
            "{\"n\": 2, \"lambda\": 1, \"sends\": []} trailing",
            "trailing characters after JSON value at byte 35",
        ),
        (
            "{\"n\": 2, \"lambda\": 1, \"sends\": 3}",
            "missing \"sends\" array",
        ),
        ("not json", "expected 'null' at byte 1"),
        (
            "{\"n\": 2, \"lambda\": 1, \"sends\": [{\"dst\": 1, \"at\": 0}]}",
            "sends[0]: missing \"src\"",
        ),
        (
            r#"{"n": 2, "lambda": 1, "sends": [{"src": 0, "dst": 1, "at": "1/"}]}"#,
            "\"at\": cannot parse \"1/\" as a rational",
        ),
        (
            r#"{"n": 2, "lambda": 1, "x": "\q", "sends": []}"#,
            "unknown escape at byte 30",
        ),
        (r#"{"n": 2, "x": "abc"#, "unterminated string at byte 18"),
    ];

    #[test]
    fn parses_accepted_inputs_to_expected_values() {
        for &(text, n, lambda, sends, messages) in ACCEPTED {
            let file = parse_schedule(text).unwrap();
            assert_eq!(file.schedule.n(), n, "{text}");
            assert_eq!(file.schedule.latency().to_string(), lambda, "{text}");
            let got: Vec<(u32, u32, String)> = file
                .schedule
                .sends()
                .iter()
                .map(|s| (s.src, s.dst, s.send_start.to_string()))
                .collect();
            let want: Vec<(u32, u32, String)> = sends
                .iter()
                .map(|&(src, dst, at)| (src, dst, at.to_string()))
                .collect();
            assert_eq!(got, want, "{text}");
            assert_eq!(file.messages, messages, "{text}");
        }
    }

    #[test]
    fn rejects_with_exact_messages() {
        for &(text, message) in REJECTED {
            let err = parse_schedule(text).unwrap_err();
            assert_eq!(err.to_string(), message, "{text}");
        }
    }

    /// Yields at most `k` bytes per `read`.
    struct Chunked<'a> {
        data: &'a [u8],
        k: usize,
    }

    impl std::io::Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.k.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// A parse result as text: every field of the file, or the error.
    fn outcome(parsed: Result<ScheduleFile, JsonError>) -> String {
        match parsed {
            Ok(f) => format!(
                "n={} lambda={} sends={:?} messages={:?} topology={:?}",
                f.schedule.n(),
                f.schedule.latency(),
                f.schedule.sends(),
                f.messages,
                f.topology
            ),
            Err(e) => format!("error: {e}"),
        }
    }

    /// Parses `data` from one whole-slice read, and again from readers
    /// that return 1, 2, 7 and 4096 bytes per read; asserts that all
    /// agree and returns the outcome.
    fn parse_every_chunking(data: &[u8]) -> String {
        let whole = outcome(parse_schedule_reader(data));
        for k in [1, 2, 7, 4096] {
            let reader = std::io::BufReader::with_capacity(k, Chunked { data, k });
            assert_eq!(
                outcome(parse_schedule_reader(reader)),
                whole,
                "{k}-byte reads of {:?}",
                String::from_utf8_lossy(data)
            );
        }
        whole
    }

    #[test]
    fn chunk_boundaries_change_nothing() {
        for &(text, ..) in ACCEPTED {
            assert!(!parse_every_chunking(text.as_bytes()).starts_with("error"));
        }
        for &(text, message) in REJECTED {
            assert_eq!(
                parse_every_chunking(text.as_bytes()),
                format!("error: {message}")
            );
        }
        // Multi-byte UTF-8 and `\u` escapes straddle 2- and 7-byte reads.
        let text = r#"{"n":2,"lambda":1,"topology":"é€😀\u00e9\u20ac","sends":[]}"#;
        assert!(parse_every_chunking(text.as_bytes()).ends_with("topology=Some(\"é€😀é€\")"));
        let bad: [(&[u8], &str); 3] = [
            (
                b"{\"n\": 2, \"x\": \"ab\xff\", \"sends\": []}",
                "invalid UTF-8 at byte 21",
            ),
            (
                b"{\"n\": 2, \"x\": \"\xe2\x82\", \"sends\": []}",
                "invalid UTF-8 at byte 19",
            ),
            (
                b"{\"n\": 2, \"x\": \"a\xe2\x82",
                "unterminated string at byte 18",
            ),
        ];
        for (data, message) in bad {
            assert_eq!(parse_every_chunking(data), format!("error: {message}"));
        }
        // Longer than one refill of the window.
        let sends = (1..3000)
            .map(|i| TimedSend {
                src: i / 2,
                dst: i,
                send_start: Time::new(i128::from(i), 2),
            })
            .collect();
        let long = Schedule::new(3000, Latency::from_ratio(5, 2), sends);
        let text = schedule_to_json(&long, Some(1));
        assert!(text.len() > CHUNK);
        assert_eq!(
            parse_schedule(&text).unwrap().schedule.sends(),
            long.sends()
        );
        parse_every_chunking(text.as_bytes());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Emitted schedules, whole or cut short anywhere, parse alike
        /// under every chunking, and whole ones round-trip.
        #[test]
        fn generated_schedules_parse_alike_under_every_chunking(
            q in 1i128..8,
            p in 1i128..40,
            n in 1u32..12,
            raw in proptest::collection::vec((0u32..14, 0u32..14, 0i128..200), 0..24),
            messages in proptest::option::of(1u64..4),
            cut in 0usize..2000,
        ) {
            let lambda = Latency::from_ratio(p.max(q), q);
            let sends = raw
                .into_iter()
                .map(|(src, dst, t)| TimedSend { src, dst, send_start: Time::new(t, q) })
                .collect();
            let schedule = Schedule::new(n, lambda, sends);
            let text = schedule_to_json_with_topology(&schedule, messages, Some("ring"));
            let whole = parse_every_chunking(text.as_bytes());
            let file = parse_schedule(&text).unwrap();
            proptest::prop_assert_eq!(file.schedule.sends(), schedule.sends());
            proptest::prop_assert_eq!(file.messages, messages);
            proptest::prop_assert_eq!(file.topology.as_deref(), Some("ring"));
            proptest::prop_assert_eq!(whole, outcome(Ok(file)));
            parse_every_chunking(&text.as_bytes()[..cut.min(text.len())]);
        }
    }

    #[test]
    fn diagnostics_serialize_with_code_and_sends() {
        let file = parse_schedule(
            r#"{"n": 3, "lambda": "5/2",
                "sends": [{"src":0,"dst":1,"at":"0"}, {"src":0,"dst":2,"at":"1/2"}]}"#,
        )
        .unwrap();
        let diags = lint_schedule(&file.schedule, &LintOptions::ports_only());
        let json = diagnostics_to_json(&diags);
        assert!(json.contains("\"code\": \"P0001\""), "{json}");
        assert!(json.contains("\"at\": \"1/2\""), "{json}");
    }
}
