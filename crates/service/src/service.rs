//! The service facade: admission control → per-class bounded intake
//! queues → weighted-fair dispatcher (batcher) → supervised worker pool.
//!
//! ```text
//!  submit() ──validate──► admission (deadline vs predicted cost) ⇒ Shed?
//!      │ try_send (per QoS class; full ⇒ Busy)
//!      ▼
//!  class queues: [Interactive] [Batch] [BestEffort]   (bounded each)
//!      │ weighted-fair dequeue (deficit round-robin, qos_weights)
//!  dispatcher ── groups same-key, same-class jobs ──► batch queue
//!      │                                              (bounded)
//!      ▼                                                  │
//!  pending buffers (per class)        workers ◄───────────┘
//!                                        │  plan cache / partition
//!                              supervisor│  (heartbeats, kill+restart)
//!                                        ▼
//!                                  responder channels
//! ```
//!
//! The dispatcher owns per-class pending buffers so it can look past the
//! head job for batch mates without reordering unrelated work, and a
//! deficit-round-robin credit scheme (seeded from
//! [`ServiceConfig::qos_weights`]) so a flood of best-effort work cannot
//! starve interactive jobs. The batch queue is bounded at the worker
//! count, so backpressure reaches the class queues (and submitters, as
//! `Busy`) instead of ballooning in memory. A supervisor thread watches
//! per-worker progress heartbeats and kills/respawns wedged workers
//! (see [`crate::supervisor`]).
//!
//! Because the dispatcher must block on *several* class queues at once
//! and the bundled channel library has no `select`, wake-ups ride a
//! dedicated unbounded signal channel: `submit` sends the job to its
//! class queue and then one `()` signal; the dispatcher blocks only on
//! the signal channel and drains every class queue opportunistically.
//! A job is always visible in its class queue by the time its signal is
//! received, so no wake-up is ever lost.

use crate::admission::{AdmissionController, AdmissionDecision};
use crate::batch::{form_batch, Batch, Job};
use crate::fingerprint::Fingerprint;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::plan::PlanCache;
use crate::request::{ServiceConfig, SolveRequest};
use crate::response::{ServiceError, SolveResponse};
use crate::retry::CircuitBreaker;
use crate::supervisor::{supervisor_loop, WorkerFactory, WorkerSlot, WorkerState};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError, TrySendError};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Handle to one accepted job; redeem it for the result.
#[derive(Debug)]
pub struct JobHandle {
    pub job_id: u64,
    rx: Receiver<Result<SolveResponse, ServiceError>>,
}

impl JobHandle {
    /// Block until the job finishes (or the service shuts down).
    pub fn wait(self) -> Result<SolveResponse, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::Shutdown))
    }

    /// Block up to `timeout`; `None` means still running.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<SolveResponse, ServiceError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => None,
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                Some(Err(ServiceError::Shutdown))
            }
        }
    }

    /// Non-blocking check; `None` means still running.
    pub fn poll(&self) -> Option<Result<SolveResponse, ServiceError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(ServiceError::Shutdown)),
        }
    }
}

/// A running solver service. Dropping it (or calling
/// [`SolverService::shutdown`]) stops intake, drains accepted work, and
/// joins every thread.
pub struct SolverService {
    config: ServiceConfig,
    class_txs: Option<[Sender<Job>; 3]>,
    signal_tx: Option<Sender<()>>,
    metrics: Arc<Metrics>,
    cache: Arc<Mutex<PlanCache>>,
    next_id: AtomicU64,
    shutting_down: Arc<AtomicBool>,
    breaker: Arc<CircuitBreaker>,
    admission: Arc<AdmissionController>,
    dispatcher: Option<JoinHandle<()>>,
    slots: Arc<Mutex<Vec<WorkerSlot>>>,
    supervisor: Option<JoinHandle<()>>,
}

impl SolverService {
    /// Start the dispatcher, worker pool, and (if enabled) supervisor
    /// described by `config`.
    pub fn start(config: ServiceConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        assert!(config.np > 0, "machine size must be positive");
        let metrics = Arc::new(Metrics::new());
        metrics
            .queue_capacity
            .store(config.queue_capacity as u64, Ordering::Relaxed);
        let cache = Arc::new(Mutex::new(PlanCache::new(
            config.plan_cache_capacity.max(1),
        )));
        let shutting_down = Arc::new(AtomicBool::new(false));
        let breaker = Arc::new(CircuitBreaker::new(
            config.breaker_threshold,
            config.breaker_cooldown,
        ));
        let admission = Arc::new(AdmissionController::new(&config));

        // One bounded intake queue per QoS class plus the wake-up signal
        // channel (see the module docs for the no-select rationale).
        let (tx0, rx0) = bounded::<Job>(config.queue_capacity);
        let (tx1, rx1) = bounded::<Job>(config.queue_capacity);
        let (tx2, rx2) = bounded::<Job>(config.queue_capacity);
        let (signal_tx, signal_rx) = unbounded::<()>();
        // Bounded at the worker count: a saturated pool pushes back into
        // the class queues rather than accumulating formed batches.
        let (batch_tx, batch_rx) = bounded::<Batch>(config.workers);

        let dispatcher = {
            let cfg = config.clone();
            let shutting_down = shutting_down.clone();
            let metrics = metrics.clone();
            let admission = admission.clone();
            std::thread::Builder::new()
                .name("hpf-service-dispatcher".into())
                .spawn(move || {
                    dispatcher_loop(
                        cfg,
                        [rx0, rx1, rx2],
                        signal_rx,
                        batch_tx,
                        shutting_down,
                        metrics,
                        admission,
                    )
                })
                .expect("spawn dispatcher")
        };

        let factory = WorkerFactory {
            batch_rx,
            cache: cache.clone(),
            config: config.clone(),
            metrics: metrics.clone(),
            breaker: breaker.clone(),
            admission: admission.clone(),
        };
        let slots: Vec<WorkerSlot> = (0..config.workers)
            .map(|i| {
                let state = WorkerState::new();
                WorkerSlot::new(factory.spawn(i, state.clone()), state)
            })
            .collect();
        let slots = Arc::new(Mutex::new(slots));

        let supervisor = if config.supervision_enabled {
            let slots = slots.clone();
            let shutting_down = shutting_down.clone();
            Some(
                std::thread::Builder::new()
                    .name("hpf-service-supervisor".into())
                    .spawn(move || supervisor_loop(slots, factory, shutting_down))
                    .expect("spawn supervisor"),
            )
        } else {
            None
        };

        SolverService {
            config,
            class_txs: Some([tx0, tx1, tx2]),
            signal_tx: Some(signal_tx),
            metrics,
            cache,
            next_id: AtomicU64::new(1),
            shutting_down,
            breaker,
            admission,
            dispatcher: Some(dispatcher),
            slots,
            supervisor,
        }
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Validate and enqueue a request. Non-blocking: a full class queue
    /// returns [`ServiceError::Busy`] immediately (backpressure),
    /// malformed requests fail up front, and — once the admission
    /// controller is calibrated — jobs whose deadline cannot be met are
    /// refused with a typed [`ServiceError::Shed`] rather than queued to
    /// die.
    pub fn submit(&self, request: SolveRequest) -> Result<JobHandle, ServiceError> {
        if let Err(why) = validate(&request) {
            self.metrics
                .rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::InvalidRequest(why));
        }
        let mut request = request;
        // Stamp a deterministic non-zero trace id before any telemetry
        // fires, so the shed event and the worker's machine span carry
        // the same id. Callers may pre-assign their own via `.trace()`.
        let job_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if request.trace_id == 0 {
            request.trace_id = crate::events::derive_trace_id(job_id);
        }
        let predicted_us = match self.admission.decide(&request) {
            AdmissionDecision::Admit { predicted_us } => predicted_us,
            AdmissionDecision::Shed { predicted, budget } => {
                self.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
                crate::events::emit(
                    &self.config.event_sink,
                    crate::ServiceEvent::Shed {
                        trace_id: request.trace_id,
                        class: request.qos,
                        predicted_us: predicted.as_micros() as u64,
                        budget_us: budget.as_micros() as u64,
                    },
                );
                return Err(ServiceError::Shed { predicted, budget });
            }
        };
        let (tx, rx) = bounded(1);
        let qos = request.qos;
        let class = qos.index();
        let trace_id = request.trace_id;
        let job = Job {
            id: job_id,
            fingerprint: Fingerprint::of(&request.matrix),
            request,
            submitted: Instant::now(),
            admission_us: predicted_us,
            responder: tx,
        };
        let class_txs = self.class_txs.as_ref().ok_or(ServiceError::Shutdown)?;
        match class_txs[class].try_send(job) {
            Ok(()) => {
                self.admission.admit(qos, predicted_us);
                self.metrics.accepted.fetch_add(1, Ordering::Relaxed);
                self.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
                self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
                self.metrics.class_queue_depth[class].fetch_add(1, Ordering::Relaxed);
                crate::events::emit(
                    &self.config.event_sink,
                    crate::ServiceEvent::Admitted {
                        trace_id,
                        class: qos,
                        predicted_us,
                    },
                );
                // Wake the dispatcher *after* the job is in its queue.
                if let Some(signal) = self.signal_tx.as_ref() {
                    let _ = signal.send(());
                }
                Ok(JobHandle { job_id, rx })
            }
            Err(TrySendError::Full(_)) => {
                self.metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Busy {
                    queue_capacity: self.config.queue_capacity,
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(ServiceError::Shutdown),
        }
    }

    /// Submit and block for the result.
    pub fn solve(&self, request: SolveRequest) -> Result<SolveResponse, ServiceError> {
        self.submit(request)?.wait()
    }

    /// Point-in-time counters (including the current queue-depth gauges
    /// and service uptime).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Shared handle to the live counters, for external recorders that
    /// need to bump service metrics as events happen (e.g. the flight
    /// recorder counting post-mortem dumps by verdict).
    pub fn metrics_handle(&self) -> Arc<Metrics> {
        self.metrics.clone()
    }

    /// Number of plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.cache.lock().len()
    }

    /// The deadline-aware admission controller (calibration state and
    /// predicted backlog are readable for reports and tests).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Stop intake, answer every still-queued job with
    /// [`ServiceError::Shutdown`], join all threads. Jobs already handed
    /// to a worker run to completion.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_in_place();
        self.metrics.snapshot()
    }

    /// True once shutdown has begun (visible to the dispatcher).
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
    }

    /// Number of structures whose circuit breaker is currently open.
    pub fn open_circuits(&self) -> usize {
        self.breaker.open_circuits()
    }

    /// Expose this service over HTTP at `addr` (`"127.0.0.1:0"` picks a
    /// free port, reported by [`crate::http::MetricsServer::addr`]):
    /// `GET /metrics` (Prometheus text), `GET /healthz` (JSON liveness:
    /// `ok` / `degraded` / `draining`, `503` once shutdown begins), and
    /// `GET /drift` (the latest published cost-oracle report). The
    /// listener runs on its own thread and outlives neither the returned
    /// handle nor the process.
    pub fn serve_http(&self, addr: &str) -> std::io::Result<crate::http::MetricsServer> {
        crate::http::spawn(
            addr,
            crate::http::HttpState {
                metrics: self.metrics.clone(),
                breaker: self.breaker.clone(),
                shutting_down: self.shutting_down.clone(),
            },
        )
    }

    fn shutdown_in_place(&mut self) {
        // Raise the flag first so the dispatcher refuses (rather than
        // executes) whatever is still queued, then close the intake and
        // signal channels: the dispatcher drains, answers the
        // stragglers, and exits; that drops the batch sender, which
        // winds down the workers. The supervisor is joined before the
        // workers so it cannot respawn a slot we are trying to reap.
        self.shutting_down.store(true, Ordering::SeqCst);
        self.class_txs.take();
        self.signal_tx.take();
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        for slot in self.slots.lock().drain(..) {
            if let Some(h) = slot.handle {
                let _ = h.join();
            }
        }
    }
}

impl Drop for SolverService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn validate(request: &SolveRequest) -> Result<(), String> {
    let a = &request.matrix;
    if !a.is_square() {
        return Err(format!(
            "matrix must be square, got {}x{}",
            a.n_rows(),
            a.n_cols()
        ));
    }
    if a.n_rows() == 0 {
        return Err("matrix is empty".into());
    }
    if request.rhs.is_empty() {
        return Err("no right-hand sides".into());
    }
    for (k, rhs) in request.rhs.iter().enumerate() {
        if rhs.len() != a.n_rows() {
            return Err(format!(
                "rhs {k} has length {}, matrix expects {}",
                rhs.len(),
                a.n_rows()
            ));
        }
    }
    if request.max_iters == 0 {
        return Err("max_iters must be positive".into());
    }
    match request.solver {
        crate::request::SolverKind::PcgMg { levels } => {
            let dims = request
                .grid
                .ok_or("pcg-mg requires grid dims (SolveRequest::grid)")?;
            if dims.n() != a.n_rows() {
                return Err(format!(
                    "grid {dims} has {} unknowns, matrix has {}",
                    dims.n(),
                    a.n_rows()
                ));
            }
            if !dims.supports_levels(levels) {
                return Err(format!(
                    "grid {dims} cannot support a {levels}-level hierarchy"
                ));
            }
        }
        crate::request::SolverKind::Gmres { restart: 0 } => {
            return Err("gmres needs a restart length of at least 1".into());
        }
        _ => {}
    }
    if hpf_partition::by_name(&request.partitioner).is_none() {
        return Err(format!(
            "unknown partitioner {:?}; registered: {}",
            request.partitioner,
            hpf_partition::partitioner_names().join(", ")
        ));
    }
    Ok(())
}

/// Dispatcher: pull jobs from the class queues, pick the next class by
/// deficit round-robin, group batch mates *within* that class, forward
/// to the pool. During shutdown it stops forwarding and instead answers
/// every job still queued or buffered with a typed
/// [`ServiceError::Shutdown`], so no submitter is left hanging on a
/// silently dropped responder.
#[allow(clippy::too_many_arguments)]
fn dispatcher_loop(
    config: ServiceConfig,
    class_rxs: [Receiver<Job>; 3],
    signal_rx: Receiver<()>,
    batch_tx: Sender<Batch>,
    shutting_down: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    admission: Arc<AdmissionController>,
) {
    let refuse = |job: Job| {
        admission.release(job.request.qos, job.admission_us);
        metrics.failed.fetch_add(1, Ordering::Relaxed);
        metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        let _ = job.responder.send(Err(ServiceError::Shutdown));
    };
    // Zero weights would never earn a dequeue; treat them as one.
    let weights: [u32; 3] = std::array::from_fn(|i| config.qos_weights[i].max(1));
    let mut credits: [u32; 3] = weights;
    let mut pending: [VecDeque<Job>; 3] = Default::default();
    let mut intake_open = true;
    loop {
        // Pull everything queued right now into the per-class pending
        // buffers (bounded by the class-queue capacities, so this is
        // bounded memory). Intake is closed once every class channel
        // reports disconnected.
        let mut all_disconnected = true;
        for (i, rx) in class_rxs.iter().enumerate() {
            loop {
                match rx.try_recv() {
                    Ok(j) => {
                        metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        metrics.class_queue_depth[i].fetch_sub(1, Ordering::Relaxed);
                        pending[i].push_back(j);
                    }
                    Err(TryRecvError::Empty) => {
                        all_disconnected = false;
                        break;
                    }
                    Err(TryRecvError::Disconnected) => break,
                }
            }
        }
        if all_disconnected {
            intake_open = false;
        }
        if shutting_down.load(Ordering::SeqCst) {
            // Drain mode: answer everything buffered, then wait for the
            // channels to close (or more stragglers to refuse).
            for q in pending.iter_mut() {
                while let Some(job) = q.pop_front() {
                    refuse(job);
                }
            }
            if !intake_open {
                break;
            }
            match signal_rx.recv() {
                Ok(()) => continue,
                Err(_) => {
                    // Signal closed; one more refill pass drains the
                    // class queues to disconnection, then we exit above.
                    continue;
                }
            }
        }
        if pending.iter().all(|q| q.is_empty()) {
            if !intake_open {
                break;
            }
            // Nothing to do: block on the signal channel. Each accepted
            // job sends exactly one signal *after* it is enqueued, so a
            // wake-up here guarantees the next refill sees the job.
            match signal_rx.recv() {
                Ok(()) => {
                    // Collapse the signal backlog; the refill drains the
                    // class queues wholesale anyway.
                    while signal_rx.try_recv().is_ok() {}
                    continue;
                }
                Err(_) => {
                    intake_open = false;
                    continue;
                }
            }
        }
        // Deficit round-robin: the first class (in priority order) with
        // work and credits wins; when every backlogged class is out of
        // credits, replenish all from the configured weights.
        let class = match (0..3).find(|&i| !pending[i].is_empty() && credits[i] > 0) {
            Some(i) => i,
            None => {
                credits = weights;
                (0..3)
                    .find(|&i| !pending[i].is_empty())
                    .expect("some class has work")
            }
        };
        credits[class] -= 1;
        let seed = pending[class].pop_front().expect("class has work");
        // Batch mates come only from the same class: co-executing a
        // best-effort job inside an interactive batch would let it jump
        // the weighted queue.
        let batch = if config.batching_enabled {
            form_batch(seed, &mut pending[class], config.max_batch)
        } else {
            Batch { jobs: vec![seed] }
        };
        if let Err(send_err) = batch_tx.send(batch) {
            // Workers are gone; answer the batch and whatever is still
            // buffered rather than dropping responders silently.
            for job in send_err.0.jobs {
                refuse(job);
            }
            for q in pending.iter_mut() {
                while let Some(job) = q.pop_front() {
                    refuse(job);
                }
            }
            break;
        }
    }
}

/// Worker: execute batches until the batch channel closes or the
/// supervisor flags this worker for death. `execute_batch` already
/// answers every job exactly once (including on panics inside solves);
/// the outer `catch_unwind` is a last resort for bugs in the bookkeeping
/// itself — the batch's handles then observe `Shutdown` when their
/// responders drop, and the worker keeps serving.
pub(crate) fn worker_loop(
    batch_rx: Receiver<Batch>,
    cache: Arc<Mutex<PlanCache>>,
    config: ServiceConfig,
    metrics: Arc<Metrics>,
    breaker: Arc<CircuitBreaker>,
    admission: Arc<AdmissionController>,
    state: Arc<WorkerState>,
) {
    while let Ok(batch) = batch_rx.recv() {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            crate::worker::execute_batch(
                batch,
                &cache,
                &config,
                &metrics,
                &breaker,
                &admission,
                Some(&state),
            );
        }));
        if state.abort.load(Ordering::SeqCst) {
            // The supervisor killed this worker mid-batch. The batch has
            // been answered (WorkerKilled); exit so the supervisor can
            // reap the thread and respawn the slot with fresh state.
            *state.current.lock() = None;
            return;
        }
    }
}
