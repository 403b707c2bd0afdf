//! The coalescing dispatcher: a bounded submit queue drained by one
//! dispatcher thread into [`ServingEngine::query_wave`] waves.
//!
//! Request threads call [`Coalescer::submit`] and block on the returned
//! reply channel. The dispatcher **batches while busy**: it takes
//! whatever is queued (up to `max_batch`) and hands that wave to the
//! engine at once; queries that arrive while a wave runs form the next
//! wave. Under load the waves grow by themselves — the engine's own
//! service time is the coalescing window — and a lone request never
//! waits for a request that has not arrived yet. Answers are
//! bit-identical to serving each request alone: coalescing decides who
//! computes together, never what the answer is (see `srs-search`'s
//! determinism contract).
//!
//! Shutdown is a drain: [`Coalescer::close`] rejects new submissions but
//! the dispatcher keeps serving until the queue is empty, so every
//! request that was accepted gets its answer.
//!
//! The dispatcher is also the server's single point of failure, so it
//! defends itself twice: the engine re-validates every vertex against
//! the generation the wave actually pins (a reload can shrink the graph
//! between submit and dispatch — see [`QueryAnswer::out_of_range`]), and
//! the wave call runs under `catch_unwind`, so an engine panic fails
//! that wave's requests with errors instead of killing the dispatcher
//! thread and hanging every future query.

use srs_search::engine::WaveQuery;
use srs_search::{ServingEngine, TopKResult};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};

use crate::metrics::ServerMetrics;
use crate::sync::{lock, wait};

/// What the dispatcher sends back for one submitted query.
#[derive(Debug)]
pub struct QueryAnswer {
    /// The top-k result (empty when `out_of_range`).
    pub result: TopKResult,
    /// The dataset generation the answering wave pinned — read under the
    /// same pin as the computation, so it always names the snapshot that
    /// actually produced `result`.
    pub generation: u64,
    /// The query's vertex did not exist in the pinned generation (it
    /// passed submit-time validation against an older, larger snapshot,
    /// then a hot reload shrank the graph).
    pub out_of_range: bool,
    /// When the answering wave handed off to the engine, in ns since the
    /// process trace epoch ([`srs_obs::now_ns`]) — the end of this
    /// request's queue wait. Two clock reads *per wave*, so tracing
    /// adds nothing per-request on the dispatcher side.
    pub wave_started_ns: u64,
    /// When the answering wave's engine call returned, same timebase.
    pub wave_ended_ns: u64,
    /// How many requests the answering wave coalesced (this request's
    /// wave membership).
    pub wave_width: u32,
}

/// Why a submission was rejected (the request answers 503).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — the server is overloaded.
    Full,
    /// The dispatcher is draining for shutdown.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "dispatch queue full"),
            SubmitError::Closed => write!(f, "dispatcher is draining"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct Pending {
    query: WaveQuery,
    reply: mpsc::Sender<QueryAnswer>,
    /// [`srs_obs::now_ns`] at submit: with the wave's start it gives the
    /// query's `srs_server_queue_wait_ns` observation.
    submitted_ns: u64,
}

struct QueueInner {
    queue: VecDeque<Pending>,
    closed: bool,
}

/// The bounded submit queue plus the dispatcher's collection parameters.
/// Shared between request threads (producers) and the one dispatcher
/// thread (consumer) via `Arc`.
pub struct Coalescer {
    inner: Mutex<QueueInner>,
    nonempty: Condvar,
    capacity: usize,
    max_batch: usize,
}

impl Coalescer {
    /// A coalescer holding at most `capacity` queued queries, serving at
    /// most `max_batch` per wave.
    pub fn new(capacity: usize, max_batch: usize) -> Self {
        Coalescer {
            inner: Mutex::new(QueueInner { queue: VecDeque::new(), closed: false }),
            nonempty: Condvar::new(),
            capacity: capacity.max(1),
            max_batch: max_batch.max(1),
        }
    }

    /// Enqueues one query; the answer arrives on the returned channel
    /// when its wave completes.
    pub fn submit(&self, query: WaveQuery) -> Result<mpsc::Receiver<QueryAnswer>, SubmitError> {
        let submitted_ns = srs_obs::now_ns();
        let mut inner = lock(&self.inner);
        if inner.closed {
            return Err(SubmitError::Closed);
        }
        if inner.queue.len() >= self.capacity {
            return Err(SubmitError::Full);
        }
        let (tx, rx) = mpsc::channel();
        inner.queue.push_back(Pending { query, reply: tx, submitted_ns });
        drop(inner);
        self.nonempty.notify_one();
        Ok(rx)
    }

    /// Rejects all future submissions and wakes the dispatcher so it can
    /// drain the queue and return. Idempotent.
    pub fn close(&self) {
        lock(&self.inner).closed = true;
        self.nonempty.notify_all();
    }

    /// Whether [`Coalescer::close`] has been called.
    pub fn is_closed(&self) -> bool {
        lock(&self.inner).closed
    }

    /// Queries currently waiting for a wave.
    pub fn depth(&self) -> usize {
        lock(&self.inner).queue.len()
    }

    /// The dispatcher loop: take what is queued as one wave, serve it,
    /// fan the results back, repeat. Returns once closed **and**
    /// drained — every accepted query is answered before exit. Run this
    /// on a dedicated thread.
    pub fn run(&self, engine: &ServingEngine, metrics: &ServerMetrics) {
        let mut wave: Vec<WaveQuery> = Vec::with_capacity(self.max_batch);
        let mut replies: Vec<(mpsc::Sender<QueryAnswer>, u64)> = Vec::with_capacity(self.max_batch);
        loop {
            {
                let mut inner = lock(&self.inner);
                while inner.queue.is_empty() {
                    if inner.closed {
                        metrics.queue_depth.set(0);
                        return;
                    }
                    inner = wait(&self.nonempty, inner);
                }
                let take = inner.queue.len().min(self.max_batch);
                for p in inner.queue.drain(..take) {
                    wave.push(p.query);
                    replies.push((p.reply, p.submitted_ns));
                }
                metrics.queue_depth.set(inner.queue.len() as u64);
            }
            metrics.waves.inc();
            // The dispatcher must survive anything the engine does: a
            // panicking wave drops its reply senders, so each blocked
            // request observes a closed channel and answers 500, while
            // the dispatcher moves on to the next wave.
            let wave_started_ns = srs_obs::now_ns();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.query_wave(&wave)));
            let wave_ended_ns = srs_obs::now_ns();
            for &(_, submitted_ns) in &replies {
                metrics.queue_wait.observe(wave_started_ns.saturating_sub(submitted_ns));
            }
            let wave_width = wave.len() as u32;
            wave.clear();
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(_) => {
                    metrics.wave_panics.inc();
                    replies.clear();
                    continue;
                }
            };
            for &size in &outcome.batch_sizes {
                metrics.wave_size.observe(size as u64);
            }
            // A dropped receiver (client hung up mid-wait) is fine — the
            // answer just has nowhere to go.
            let generation = outcome.generation;
            let answers =
                outcome.results.into_iter().zip(outcome.out_of_range).map(|(result, out_of_range)| {
                    QueryAnswer {
                        result,
                        generation,
                        out_of_range,
                        wave_started_ns,
                        wave_ended_ns,
                        wave_width,
                    }
                });
            for ((reply, _), answer) in replies.drain(..).zip(answers) {
                let _ = reply.send(answer);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_search::QueryOptions;
    use std::sync::Arc;

    fn q(vertex: u32) -> WaveQuery {
        WaveQuery { vertex, k: 5, opts: Arc::new(QueryOptions::default()) }
    }

    #[test]
    fn queue_bounds_and_close_are_enforced() {
        let c = Coalescer::new(2, 8);
        let _a = c.submit(q(1)).unwrap();
        let _b = c.submit(q(2)).unwrap();
        assert_eq!(c.depth(), 2);
        assert_eq!(c.submit(q(3)).unwrap_err(), SubmitError::Full);
        c.close();
        assert!(c.is_closed());
        assert_eq!(c.submit(q(4)).unwrap_err(), SubmitError::Closed);
        c.close(); // idempotent
    }

    #[test]
    fn capacity_and_batch_floors() {
        let c = Coalescer::new(0, 0);
        assert_eq!(c.capacity, 1);
        assert_eq!(c.max_batch, 1);
    }
}
