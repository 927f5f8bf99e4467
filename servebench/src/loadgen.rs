//! The open-loop client: one sender (the calling thread) paces requests
//! on a schedule and one receiver thread reads and times every answer,
//! over one TCP connection; answers are checked once the phase is over.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sst_core::wire::{decode_frame, FrameHeader, HEADER_LEN};
use sst_portfolio::protocol::{parse_response, Response};
use sst_portfolio::wire::{
    decode_response, FT_RESPONSE_ERROR, FT_RESPONSE_OK, FT_RESPONSE_SESSION,
};

use crate::workload::{Checked, Checker, Message, Outcome, Spec};

/// One answer as the receiver saw it: arrival time and raw bytes. Decoding
/// and checking wait until the phase is over, so the client spends as
/// little CPU as it can while the server is being timed.
struct Answer {
    id: Option<u64>,
    at: Instant,
    bytes: Vec<u8>,
}

/// One sent request and what came back.
#[derive(Debug, Clone)]
pub struct Record {
    /// When the schedule wanted it sent.
    pub due: Instant,
    pub sent: Instant,
    pub is_delta: bool,
    /// Arrival time and verdict; `None` when no answer came in time.
    pub answer: Option<(Instant, Checked)>,
}

impl Record {
    pub fn outcome(&self) -> Outcome {
        self.answer.as_ref().map_or(Outcome::Timeout, |(_, c)| c.outcome)
    }

    /// Latency from the scheduled send time, in ms.
    pub fn latency_ms(&self) -> Option<f64> {
        self.answer.as_ref().map(|(at, _)| at.duration_since(self.due).as_secs_f64() * 1e3)
    }

    /// How late the sender ran against the schedule, in ms.
    pub fn lag_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// The result of one paced phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub records: Vec<Record>,
    /// Error answers that carried no request id.
    pub stray_errors: usize,
    /// The sender stopped early because the backlog kept growing.
    pub aborted: bool,
}

pub struct Client {
    writer: TcpStream,
    packed: bool,
    checker: Checker,
    answers: Receiver<Answer>,
    receiver: Option<JoinHandle<()>>,
}

/// Reads one whole response — a frame, or an NDJSON line — and the request
/// id it carries, without decoding the rest. `None` at end of stream.
fn read_answer(reader: &mut BufReader<TcpStream>, packed: bool) -> Option<(Option<u64>, Vec<u8>)> {
    if packed {
        let mut header = [0u8; HEADER_LEN];
        reader.read_exact(&mut header).ok()?;
        let len = FrameHeader::parse(&header).map_or(0, |h| h.len as usize);
        let mut bytes = vec![0u8; HEADER_LEN + len];
        bytes[..HEADER_LEN].copy_from_slice(&header);
        reader.read_exact(&mut bytes[HEADER_LEN..]).ok()?;
        let id = decode_frame(&bytes).ok().and_then(|(ft, payload)| request_id(ft, payload));
        Some((id, bytes))
    } else {
        let mut bytes = Vec::new();
        match reader.read_until(b'\n', &mut bytes) {
            Ok(0) | Err(_) => None,
            Ok(_) => {
                // Responses open with their id: `{"id": N, ...`.
                let digits = bytes.strip_prefix(b"{\"id\": ").unwrap_or_default();
                let end = digits.iter().position(|b| !b.is_ascii_digit()).unwrap_or(0);
                let id = std::str::from_utf8(&digits[..end]).ok().and_then(|d| d.parse().ok());
                Some((id, bytes))
            }
        }
    }
}

/// The request id of a response frame: the leading `u64` of an OK or
/// session answer, the optional id after the tag byte of an error.
fn request_id(frame_type: u8, payload: &[u8]) -> Option<u64> {
    let word = |at: usize| Some(u64::from_le_bytes(payload.get(at..at + 8)?.try_into().ok()?));
    match frame_type {
        FT_RESPONSE_OK | FT_RESPONSE_SESSION => word(0),
        FT_RESPONSE_ERROR if payload.first() == Some(&1) => word(1),
        _ => None,
    }
}

fn decode(bytes: &[u8], packed: bool) -> Option<Response> {
    if packed {
        let (ft, payload) = decode_frame(bytes).ok()?;
        decode_response(ft, payload).ok()
    } else {
        parse_response(std::str::from_utf8(bytes).ok()?.trim()).ok()
    }
}

fn receive(stream: TcpStream, packed: bool, answers: Sender<Answer>) {
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    while let Some((id, bytes)) = read_answer(&mut reader, packed) {
        let at = Instant::now();
        if answers.send(Answer { id, at, bytes }).is_err() {
            return;
        }
    }
}

/// Answers of the running phase, filed by request.
struct Inbox {
    index_of: HashMap<u64, usize>,
    /// (record, answer) in arrival order.
    arrived: Vec<(usize, Answer)>,
    answered: Vec<bool>,
    /// Errors the server could not attribute to a request.
    stray: usize,
}

impl Inbox {
    fn take(&mut self, answer: Answer) {
        match answer.id.map(|id| self.index_of.get(&id).copied()) {
            Some(Some(i)) if !self.answered[i] => {
                self.answered[i] = true;
                self.arrived.push((i, answer));
            }
            None => self.stray += 1,
            // A duplicate, or a late answer to an earlier phase.
            Some(_) => {}
        }
    }
}

impl Client {
    pub fn connect(addr: &str, spec: &Spec) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let (answer_tx, answers) = channel();
        let packed = spec.packed;
        let receiver = std::thread::spawn(move || receive(read_half, packed, answer_tx));
        Ok(Client {
            writer: stream,
            packed,
            checker: Checker::new(spec),
            answers,
            receiver: Some(receiver),
        })
    }

    /// Sends `messages` at the offsets of `schedule` (from a start a few ms
    /// ahead), collecting answers while it waits, then waits up to `drain`
    /// for the rest, and checks every answer in arrival order. With
    /// `abort_backlog` set, stops sending once more than that many
    /// requests are unanswered.
    pub fn run_phase(
        &mut self,
        messages: &[Message],
        schedule: &[Duration],
        abort_backlog: Option<usize>,
        drain: Duration,
    ) -> std::io::Result<Phase> {
        let mut phase = Phase::default();
        let mut inbox = Inbox {
            index_of: HashMap::with_capacity(messages.len()),
            arrived: Vec::with_capacity(messages.len()),
            answered: vec![false; messages.len()],
            stray: 0,
        };
        let start = Instant::now() + Duration::from_millis(5);
        for (msg, offset) in messages.iter().zip(schedule) {
            let due = start + *offset;
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                match self.answers.recv_timeout(due - now) {
                    Ok(answer) => inbox.take(answer),
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(std::io::Error::other("connection to the server closed"))
                    }
                }
            }
            let outstanding = phase.records.len() - inbox.arrived.len();
            if abort_backlog.is_some_and(|cap| outstanding > cap) {
                phase.aborted = true;
                break;
            }
            let sent = Instant::now();
            inbox.index_of.insert(msg.id, phase.records.len());
            self.writer.write_all(&msg.bytes)?;
            phase.records.push(Record { due, sent, is_delta: msg.expect.is_delta(), answer: None });
        }
        let deadline = Instant::now() + drain;
        while inbox.arrived.len() < phase.records.len() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match self.answers.recv_timeout(deadline - now) {
                Ok(answer) => inbox.take(answer),
                Err(_) => break,
            }
        }
        phase.stray_errors = inbox.stray;
        for (i, answer) in inbox.arrived {
            let checked = match decode(&answer.bytes, self.packed) {
                Some(resp) => self.checker.check(&messages[i].expect, resp),
                None => Checked::bare(Outcome::ErrorLine),
            };
            phase.records[i].answer = Some((answer.at, checked));
        }
        Ok(phase)
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        let _ = self.writer.shutdown(Shutdown::Both);
        if let Some(receiver) = self.receiver.take() {
            let _ = receiver.join();
        }
    }
}
