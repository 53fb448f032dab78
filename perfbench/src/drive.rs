//! Load generation against the service: the open loop with its
//! completion-order receiver, and the closed loops.

use crate::inputs::{BlockStream, MIN_SAMPLES};
use fpdm::plinda::{field, Template, TupleSpace};
use fpdm::service::serve::RESPONSE_CHAN;
use fpdm::service::Status;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Reply key that releases [`receive_in_completion_order`]. Service request
/// ids are never negative.
const STOP_KEY: i64 = -1;

/// A closed loop stops after this long even if it has too few samples.
const HARD_CAP: Duration = Duration::from_secs(100);

/// One answered request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Menu index of the request.
    pub menu: usize,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    /// When it was actually sent.
    pub sent: Instant,
    /// When its response arrived.
    pub done: Instant,
    /// Response status.
    pub status: Status,
    /// Response payload, as an index into [`Pass::payloads`].
    pub payload: usize,
}

impl Answer {
    /// Client-side latency: from when the request was due to its response.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }
}

/// What one timed pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Requests submitted.
    pub submitted: usize,
    /// Answers, in completion order.
    pub answers: Vec<Answer>,
    /// The distinct payloads the answers point into.
    pub payloads: Vec<Vec<u8>>,
}

impl Pass {
    /// First due time to last completion.
    pub fn wall(&self) -> Duration {
        let first = self.answers.iter().map(|a| a.due).min();
        let last = self.answers.iter().map(|a| a.done).max();
        match (first, last) {
            (Some(a), Some(b)) => b.saturating_duration_since(a),
            _ => Duration::ZERO,
        }
    }
}

/// Distinct payloads, each kept once, so the memory a pass holds does not
/// grow with the number of requests.
#[derive(Default)]
pub struct Payloads(HashMap<Vec<u8>, usize>);

impl Payloads {
    /// The id of `payload`, storing it if it is new.
    pub fn id(&mut self, payload: Vec<u8>) -> usize {
        let next = self.0.len();
        *self.0.entry(payload).or_insert(next)
    }

    /// The stored payloads, by id.
    pub fn into_list(self) -> Vec<Vec<u8>> {
        let mut byid: Vec<(usize, Vec<u8>)> = self.0.into_iter().map(|(p, id)| (id, p)).collect();
        byid.sort_unstable_by_key(|(id, _)| *id);
        byid.into_iter().map(|(_, p)| p).collect()
    }
}

/// A response as [`receive_in_completion_order`] took it.
pub struct Received {
    /// The request id it answers.
    pub reqid: i64,
    /// When it was taken.
    pub at: Instant,
    /// Raw status.
    pub status: i64,
    /// Payload id in the receiver's [`Payloads`].
    pub payload: usize,
}

/// Take service responses in completion order with a wildcard-key take on
/// `svc.response`, until `n` have arrived or [`release_receiver`] is
/// called. A slow early request never delays recording a later one's
/// answer, as waiting per request id in submission order would.
pub fn receive_in_completion_order(space: &TupleSpace, n: usize) -> (Vec<Received>, Payloads) {
    let template = Template::new(vec![
        field::val(RESPONSE_CHAN),
        field::int(),
        field::int(),
        field::bytes(),
    ]);
    let mut got = Vec::with_capacity(n);
    let mut payloads = Payloads::default();
    while got.len() < n {
        let t = space.in_blocking(template.clone());
        let at = Instant::now();
        let reqid = t.int(1);
        if reqid == STOP_KEY {
            break;
        }
        got.push(Received {
            reqid,
            at,
            status: t.int(2),
            payload: payloads.id(t.bytes(3).to_vec()),
        });
    }
    (got, payloads)
}

/// Release a receiver blocked in [`receive_in_completion_order`].
pub fn release_receiver(space: &TupleSpace) {
    fpdm::plinda::KeyedChan::<(i64, Vec<u8>)>::new(RESPONSE_CHAN).send_to(
        space,
        STOP_KEY,
        &(Status::Error as i64, Vec::new()),
    );
}

/// A request of the open loop: due `due_ns` after the loop starts.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// Due time, nanoseconds after the start.
    pub due_ns: u64,
    /// Issuing tenant.
    pub tenant: i64,
    /// Menu index.
    pub menu: usize,
}

/// Run `plan` open-loop against the service on `space`: one thread submits
/// each request when it is due (`submit` returns its request id), whatever
/// is outstanding; one thread takes responses in completion order.
/// Requests unanswered `drain` after the last submission stay unanswered.
pub fn open_loop(
    space: &TupleSpace,
    plan: &[Planned],
    drain: Duration,
    mut submit: impl FnMut(&Planned) -> i64,
) -> Pass {
    let start = Instant::now() + Duration::from_millis(5);
    let (sent, received) = std::thread::scope(|s| {
        let rx = s.spawn(|| receive_in_completion_order(space, plan.len()));
        let mut sent: HashMap<i64, (usize, Instant, Instant)> = HashMap::new();
        for (i, p) in plan.iter().enumerate() {
            let due = start + Duration::from_nanos(p.due_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let at = Instant::now();
            let reqid = submit(p);
            sent.insert(reqid, (i, due, at));
        }
        let deadline = Instant::now() + drain;
        while !rx.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        if !rx.is_finished() {
            release_receiver(space);
        }
        (sent, rx.join().expect("receiver thread"))
    });
    let (received, payloads) = received;
    let answers = received
        .into_iter()
        .filter_map(|r| {
            let &(i, due, at) = sent.get(&r.reqid)?;
            Some(Answer {
                menu: plan[i].menu,
                due,
                sent: at,
                done: r.at,
                status: Status::from_i64(r.status).unwrap_or(Status::Error),
                payload: r.payload,
            })
        })
        .collect();
    Pass {
        submitted: plan.len(),
        answers,
        payloads: payloads.into_list(),
    }
}

/// Run a closed loop: each client sends its next request as soon as the
/// previous one is answered, drawing from its own block stream. Clients
/// stop at a block boundary once `seconds` have passed and the clients
/// together have at least [`MIN_SAMPLES`] answers (or at [`HARD_CAP`]).
///
/// Only `call(client, client index, menu index)` is timed; `settle` turns
/// its output into a status and payload after the clock has stopped.
pub fn closed_loop<C: Sync, O>(
    clients: &[C],
    seed: u64,
    menu_len: usize,
    seconds: f64,
    call: impl Fn(&C, usize, usize) -> O + Sync,
    settle: impl Fn(usize, O) -> (Status, Vec<u8>) + Sync,
) -> Pass {
    let start = Instant::now();
    let done = AtomicUsize::new(0);
    let submitted = AtomicUsize::new(0);
    let answers = Mutex::new((Vec::new(), Payloads::default()));
    let min = Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for (ci, client) in clients.iter().enumerate() {
            let (done, submitted, answers) = (&done, &submitted, &answers);
            let (call, settle) = (&call, &settle);
            s.spawn(move || {
                let mut stream = BlockStream::new(seed, ci as u64, menu_len);
                loop {
                    let elapsed = start.elapsed();
                    if stream.at_block_start()
                        && elapsed >= min
                        && done.load(Ordering::Relaxed) >= MIN_SAMPLES
                        || elapsed >= HARD_CAP
                    {
                        break;
                    }
                    let m = stream.next_index();
                    submitted.fetch_add(1, Ordering::Relaxed);
                    let t0 = Instant::now();
                    let out = call(client, ci, m);
                    let t1 = Instant::now();
                    let (status, payload) = settle(m, out);
                    done.fetch_add(1, Ordering::Relaxed);
                    let mut all = answers.lock().expect("answers lock");
                    let payload = all.1.id(payload);
                    all.0.push(Answer {
                        menu: m,
                        due: t0,
                        sent: t0,
                        done: t1,
                        status,
                        payload,
                    });
                }
            });
        }
    });
    let (mut answers, payloads) = answers.into_inner().expect("answers lock");
    answers.sort_by_key(|a| a.done);
    Pass {
        submitted: submitted.into_inner(),
        answers,
        payloads: payloads.into_list(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpdm::plinda::KeyedChan;

    #[test]
    fn completion_order_receiver_adds_no_head_of_line_wait() {
        let space = TupleSpace::new();
        let replies = KeyedChan::<(i64, Vec<u8>)>::new(RESPONSE_CHAN);
        let (got, before_first) = std::thread::scope(|s| {
            let h = s.spawn(|| receive_in_completion_order(&space, 2).0);
            // Request 1 was submitted first but finishes second: answer 2,
            // and answer 1 only once the receiver has taken answer 2.
            replies.send_to(&space, 2, &(0, b"two".to_vec()));
            while !space.is_empty() {
                std::thread::yield_now();
            }
            let before_first = Instant::now();
            replies.send_to(&space, 1, &(0, b"one".to_vec()));
            (h.join().unwrap(), before_first)
        });
        assert_eq!(got[0].reqid, 2);
        assert_eq!(got[1].reqid, 1);
        assert!(
            got[0].at <= before_first,
            "the later request's answer waited for the earlier one"
        );
    }

    #[test]
    fn stop_releases_a_waiting_receiver() {
        let space = TupleSpace::new();
        let got = std::thread::scope(|s| {
            let h = s.spawn(|| receive_in_completion_order(&space, 3).0);
            release_receiver(&space);
            h.join().unwrap()
        });
        assert!(got.is_empty());
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let space = TupleSpace::new();
        let replies = KeyedChan::<(i64, Vec<u8>)>::new(RESPONSE_CHAN);
        let plan = [
            Planned {
                due_ns: 0,
                tenant: 0,
                menu: 0,
            },
            Planned {
                due_ns: 1_000_000,
                tenant: 0,
                menu: 1,
            },
        ];
        // An instantly answering service, but the generator stalls 30 ms
        // on the first submission, so the second goes out ~29 ms late.
        let mut next = 100;
        let pass = open_loop(&space, &plan, Duration::from_secs(5), |p| {
            if p.menu == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            next += 1;
            replies.send_to(&space, next, &(Status::Ok as i64, Vec::new()));
            next
        });
        assert_eq!(pass.answers.len(), 2);
        let late = pass.answers.iter().find(|a| a.menu == 1).unwrap();
        assert!(late.sent - late.due >= Duration::from_millis(28));
        assert!(late.latency() >= late.sent - late.due);
        assert!(late.done - late.sent < late.latency());
    }
}
