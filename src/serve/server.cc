#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "store/store.h"
#include "tier/tiered_store.h"

namespace anc::serve {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double MicrosSince(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

}  // namespace

AncServer::AncServer(AncIndex* index, ServeOptions options)
    : index_(index),
      options_(options),
      queue_(options.ingest, &index->metrics()),
      admission_(options.admission, &index->metrics()) {
  ANC_CHECK(index_ != nullptr, "AncServer requires an index");
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.snapshot_every_activations == 0) {
    options_.snapshot_every_activations = 1;
  }
  obs::MetricsRegistry& registry = index_->metrics();
  m_.epochs = registry.Counter("anc.serve.epochs");
  m_.applied = registry.Counter("anc.serve.applied");
  m_.apply_errors = registry.Counter("anc.serve.apply_errors");
  m_.batches = registry.Counter("anc.serve.batches");
  m_.batch_size = registry.Histogram("anc.serve.batch_size");
  m_.snapshot_build_us = registry.Histogram("anc.serve.snapshot_build_us");
  m_.query_us = registry.Histogram("anc.serve.query_us");
  m_.query_staleness_us = registry.Histogram("anc.serve.query_staleness_us");
  m_.watermark_seq = registry.Gauge("anc.serve.watermark_seq");
  m_.publish_lag = registry.Gauge("anc.serve.publish_lag_activations");
  m_.wal_errors = registry.Counter("anc.serve.wal_errors");
  m_.load_lines = registry.Counter("anc.serve.load_lines");
  m_.load_skipped = registry.Counter("anc.serve.load_skipped");
}

AncServer::~AncServer() { Stop(); }

Status AncServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  if (stop_requested_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "server already stopped; create a new AncServer to serve again");
  }
  if (options_.durability != DurabilityPolicy::kNone) {
    if (options_.store == nullptr) {
      return Status::FailedPrecondition(
          "durability policy requires ServeOptions::store");
    }
    store_ = options_.store;
    // Seed from the store's current durable mark (the checkpoint base) and
    // route every fsync-advance back into the durable watermark.
    const store::Mark durable = store_->durable();
    {
      util::MutexLock lock(durable_mutex_);
      durable_ = Watermark{durable.seq, durable.time};
    }
    store_->SetDurableCallback(
        [this](store::Mark mark) { OnDurable(mark.seq, mark.time); });
  }
  writer_done_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  // Epoch 1: readers always have a view, even before the first activation.
  Publish(Watermark{0, 0.0});
  writer_ = std::thread(&AncServer::WriterLoop, this);
  return Status::OK();
}

void AncServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_requested_.store(true, std::memory_order_release);
  queue_.Close();
  if (writer_.joinable()) writer_.join();
  if (store_ != nullptr) {
    // Detach the durable callback; SetDurableCallback serializes with any
    // in-flight invocation, so nothing touches this server afterwards.
    store_->SetDurableCallback(nullptr);
  }
  // Wake waiters stranded on tickets that will never resolve.
  watermark_cv_.NotifyAll();
  durable_cv_.NotifyAll();
  checkpoint_cv_.NotifyAll();
  quiesce_cv_.NotifyAll();
}

void AncServer::WriterLoop() {
  std::vector<Activation> batch;
  batch.reserve(options_.max_batch);
  std::vector<IngestQueue::Popped> info;
  // Distinct trace ids drained but not yet covered by a published view; a
  // "serve.publish" span is emitted for each at the next publish. Sized to
  // hold a full drain batch of distinct traces (publish follows at most a
  // few batches behind); beyond the cap, excess traces simply miss their
  // publish span.
  const size_t max_pending_publish_traces =
      std::max<size_t>(4 * options_.max_batch, 128);
  std::vector<uint64_t> pending_publish_traces;
  uint64_t applied_since_publish = 0;
  uint64_t applied_since_checkpoint = 0;
  uint64_t resolved_seq = 0;
  uint64_t published_seq = 0;
  double last_applied_time = 0.0;
  Clock::time_point last_publish = Clock::now();

  const auto emit_span = [&](obs::TraceSink* sink, const char* name,
                             Clock::time_point start, double dur_us,
                             int depth, uint64_t trace_id) {
    obs::SpanEvent span;
    span.name = name;
    span.ts_us = sink->TsMicros(start);
    span.dur_us = dur_us;
    span.depth = depth;
    span.trace_id = trace_id;
    span.shard = options_.shard_ordinal;
    sink->EmitSpan(span);
  };

  const auto publish = [&] {
    obs::TraceSink* sink =
        obs::kMetricsEnabled ? index_->metrics().trace_sink() : nullptr;
    const Clock::time_point start = Clock::now();
    if (sink != nullptr) obs::TraceSink::EnterSpan(sink->uid());
    Publish(Watermark{resolved_seq, last_applied_time});
    if (sink != nullptr) {
      const int depth = obs::TraceSink::ExitSpan(sink->uid());
      const double dur_us = MicrosSince(start);
      if (pending_publish_traces.empty()) {
        emit_span(sink, "serve.publish", start, dur_us, depth, 0);
      } else {
        for (uint64_t trace_id : pending_publish_traces) {
          emit_span(sink, "serve.publish", start, dur_us, depth, trace_id);
        }
      }
    }
    pending_publish_traces.clear();
    published_seq = resolved_seq;
    applied_since_publish = 0;
    last_publish = Clock::now();
  };

  while (true) {
    obs::TraceSink* sink =
        obs::kMetricsEnabled ? index_->metrics().trace_sink() : nullptr;
    batch.clear();
    info.clear();
    const size_t popped =
        queue_.PopBatch(&batch, options_.max_batch, options_.idle_wait,
                        &resolved_seq, sink != nullptr ? &info : nullptr);
    if (popped == 0) {
      if (stop_requested_.load(std::memory_order_acquire) &&
          queue_.Depth() == 0) {
        break;
      }
      // Idle wakeup: publish pending state (applies, or tickets resolved
      // by drop-oldest eviction) once the staleness budget is spent.
      if ((applied_since_publish > 0 || resolved_seq > published_seq) &&
          SecondsSince(last_publish) >= options_.snapshot_max_age_s) {
        publish();
      }
      if (store_ != nullptr &&
          checkpoint_requested_.load(std::memory_order_acquire)) {
        ServiceCheckpoint(resolved_seq, last_applied_time);
        applied_since_checkpoint = 0;
      }
      if (quiesce_requested_.load(std::memory_order_acquire)) {
        ServiceQuiesced(resolved_seq, last_applied_time);
      }
      // Idle wakeups are quiescent points: let the tier demote pages that
      // decayed under the budget and service any finished compaction. A
      // spill failure freezes tiering but never stops live serving.
      if (options_.tier != nullptr) {
        const Status tiered = options_.tier->Maintain();
        if (!tiered.ok()) RecordStoreError(tiered);
      }
      continue;
    }

    if (store_ != nullptr) {
      // Write-ahead: the popped batch is a contiguous ticket run (drops
      // only evict at the queue head), logged before any apply mutates
      // the index. A store failure freezes the durable watermark but
      // never stops live serving.
      const uint64_t first_seq = resolved_seq - popped + 1;
      Status logged = store_->Append(batch, first_seq);
      if (logged.ok() &&
          options_.durability == DurabilityPolicy::kGroupCommit) {
        logged = store_->Sync();
      }
      if (!logged.ok()) RecordStoreError(logged);
    }

    if (sink != nullptr) {
      // One queue-wait span per distinct trace in the drained batch (the
      // enqueue-to-drain latency), and remember the trace for its publish
      // span. Entries from one traced batch are adjacent in the queue, so
      // adjacent dedup is enough.
      const Clock::time_point drained = Clock::now();
      uint64_t last_trace = 0;
      for (const IngestQueue::Popped& p : info) {
        if (p.trace.trace_id == 0 || p.trace.trace_id == last_trace) continue;
        last_trace = p.trace.trace_id;
        emit_span(sink, "ingest.queue_wait", p.enqueued_at,
                  std::chrono::duration<double, std::micro>(drained -
                                                            p.enqueued_at)
                      .count(),
                  /*depth=*/0, p.trace.trace_id);
        if (pending_publish_traces.size() < max_pending_publish_traces &&
            std::find(pending_publish_traces.begin(),
                      pending_publish_traces.end(),
                      p.trace.trace_id) == pending_publish_traces.end()) {
          pending_publish_traces.push_back(p.trace.trace_id);
        }
      }
    }

    const Clock::time_point apply_start = Clock::now();
    if (sink != nullptr) obs::TraceSink::EnterSpan(sink->uid());
    const AncIndex::BatchOutcome outcome = index_->ApplyBatch(batch);
    index_->metrics().Add(m_.applied, outcome.applied);
    last_applied_time = std::max(last_applied_time, outcome.max_time);
    if (outcome.refused > 0) {
      index_->metrics().Add(m_.apply_errors, outcome.refused);
      util::MutexLock lock(writer_status_mutex_);
      if (writer_status_.ok()) writer_status_ = outcome.first_error;
    }
    if (sink != nullptr) {
      // One batch apply interval, attributed to every trace it covered
      // (the index's untraced "apply" span nests inside).
      const int depth = obs::TraceSink::ExitSpan(sink->uid());
      const double dur_us = MicrosSince(apply_start);
      uint64_t last_trace = 0;
      for (const IngestQueue::Popped& p : info) {
        if (p.trace.trace_id == 0 || p.trace.trace_id == last_trace) continue;
        last_trace = p.trace.trace_id;
        emit_span(sink, "serve.apply", apply_start, dur_us, depth,
                  p.trace.trace_id);
      }
    }
    applied_since_publish += popped;
    applied_since_checkpoint += popped;
    index_->metrics().Add(m_.batches);
    index_->metrics().Record(m_.batch_size, static_cast<double>(popped));

    if (applied_since_publish >= options_.snapshot_every_activations ||
        SecondsSince(last_publish) >= options_.snapshot_max_age_s) {
      publish();
    }
    if (store_ != nullptr &&
        ((options_.checkpoint_every_applied > 0 &&
          applied_since_checkpoint >= options_.checkpoint_every_applied) ||
         checkpoint_requested_.load(std::memory_order_acquire))) {
      // Between batches the index is quiescent and resolved_seq describes
      // exactly what has been applied — the only safe checkpoint mark.
      ServiceCheckpoint(resolved_seq, last_applied_time);
      applied_since_checkpoint = 0;
    }
    if (quiesce_requested_.load(std::memory_order_acquire)) {
      ServiceQuiesced(resolved_seq, last_applied_time);
    }
    // Post-batch quiescent point: demotion/compaction never overlaps an
    // Apply, so the tier can move pages without synchronizing with reads
    // of the live index (docs/storage_tiers.md).
    if (options_.tier != nullptr) {
      const Status tiered = options_.tier->Maintain();
      if (!tiered.ok()) RecordStoreError(tiered);
    }
  }
  // Final quiescent publish: the watermark lands on everything resolved.
  publish();
  if (store_ != nullptr) {
    if (checkpoint_requested_.load(std::memory_order_acquire)) {
      ServiceCheckpoint(resolved_seq, last_applied_time);
    }
    // Everything the writer logged becomes durable before waiters are
    // released: a clean Stop() never loses accepted work.
    const Status synced = store_->Sync();
    if (!synced.ok()) RecordStoreError(synced);
  }
  writer_done_.store(true, std::memory_order_release);
  watermark_cv_.NotifyAll();
  durable_cv_.NotifyAll();
  checkpoint_cv_.NotifyAll();
  // Callbacks still queued never run (the server is stopping); their
  // waiters observe writer_done_ and fail Unavailable.
  quiesce_cv_.NotifyAll();
}

void AncServer::ServiceCheckpoint(uint64_t seq, double time) {
  checkpoint_requested_.store(false, std::memory_order_release);
  const Status status =
      store_->WriteCheckpoint(*index_, store::Mark{seq, time});
  if (!status.ok()) RecordStoreError(status);
  if (status.ok() && options_.tier != nullptr) {
    // The manifest now points at the new head: its segment refs are
    // durable roots, and segments referenced only by the old head can go.
    options_.tier->OnCheckpointInstalled();
  }
  {
    util::MutexLock lock(checkpoint_mutex_);
    ++checkpoints_done_;
    last_checkpoint_status_ = status;
  }
  checkpoint_cv_.NotifyAll();
}

void AncServer::ServiceQuiesced(uint64_t seq, double time) {
  quiesce_requested_.store(false, std::memory_order_release);
  QuiescedContext context;
  context.watermark = Watermark{seq, time};
  context.republish = [this, seq, time] { Publish(Watermark{seq, time}); };
  while (true) {
    QuiesceTicket ticket;
    bool run = false;
    {
      util::MutexLock lock(quiesce_mutex_);
      if (quiesce_callbacks_.empty()) break;
      ticket = std::move(quiesce_callbacks_.front());
      quiesce_callbacks_.erase(quiesce_callbacks_.begin());
      // Decide run-vs-skip under the mutex: cancellation is also decided
      // under it, so once quiesce_running_ names this ticket the owner can
      // no longer cancel — a cancelled callback must never mutate state
      // its caller believes was left untouched.
      run = !ticket.cancelled->load(std::memory_order_acquire);
      if (run) quiesce_running_ = ticket.id;
    }
    // Run outside quiesce_mutex_: the callback may block (migration bulk
    // apply) and may take locks of its own; only the FIFO is guarded.
    if (run) ticket.fn(context);
    {
      util::MutexLock lock(quiesce_mutex_);
      quiesce_running_ = 0;
      quiesce_done_ = ticket.id;
    }
    quiesce_cv_.NotifyAll();
  }
}

Status AncServer::RunQuiesced(std::function<void(const QuiescedContext&)> fn,
                              std::chrono::milliseconds timeout) {
  if (!running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server not running");
  }
  QuiesceTicket ticket;
  ticket.fn = std::move(fn);
  ticket.cancelled = std::make_shared<std::atomic<bool>>(false);
  std::shared_ptr<std::atomic<bool>> cancelled = ticket.cancelled;
  uint64_t target = 0;
  {
    util::MutexLock lock(quiesce_mutex_);
    ticket.id = ++quiesce_issued_;
    target = ticket.id;
    quiesce_callbacks_.push_back(std::move(ticket));
  }
  quiesce_requested_.store(true, std::memory_order_release);
  util::MutexLock lock(quiesce_mutex_);
  quiesce_cv_.WaitFor(quiesce_mutex_, timeout, [&] {
    quiesce_mutex_.AssertHeld();
    return quiesce_done_ >= target ||
           writer_done_.load(std::memory_order_acquire);
  });
  if (quiesce_done_ >= target) return Status::OK();
  if (quiesce_running_ == target) {
    // The writer picked the callback up before the timeout fired: too late
    // to cancel, so wait out the execution — the result must truthfully
    // say whether the callback ran.
    quiesce_cv_.WaitFor(quiesce_mutex_, timeout, [&] {
      quiesce_mutex_.AssertHeld();
      return quiesce_done_ >= target;
    });
    if (quiesce_done_ >= target) return Status::OK();
    return Status::Unavailable("quiesced callback still executing");
  }
  // Never ran (stop or timeout): cancel — decided under quiesce_mutex_, so
  // a later quiescent point can no longer pick the callback up.
  cancelled->store(true, std::memory_order_release);
  return Status::Unavailable(
      writer_done_.load(std::memory_order_acquire)
          ? "server stopped before the quiesced callback ran"
          : "timed out awaiting a writer quiescent point");
}

void AncServer::Publish(Watermark watermark) {
#ifdef ANC_CHECK_INVARIANTS
  // Quiescent-point validation: a snapshot is never built from an index
  // state that fails the Lemma 4-13 validators (docs/serving.md).
  const Status valid = index_->ValidateInvariants(/*deep=*/false);
  ANC_CHECK(valid.ok(), valid.ToString().c_str());
#endif
  const Clock::time_point build_start = Clock::now();
  auto view = std::make_shared<const ClusterView>(
      index_->graph(), index_->ExportClusterState(), ++epoch_, watermark);
  {
    util::MutexLock lock(view_mutex_);
    view_ = std::move(view);
  }
  {
    util::MutexLock lock(watermark_mutex_);
    published_ = watermark;
  }
  watermark_cv_.NotifyAll();
  obs::MetricsRegistry& registry = index_->metrics();
  registry.Add(m_.epochs);
  registry.Record(m_.snapshot_build_us, MicrosSince(build_start));
  registry.Set(m_.watermark_seq, static_cast<int64_t>(watermark.seq));
  registry.Set(m_.publish_lag,
               static_cast<int64_t>(queue_.accepted() - watermark.seq));
}

Result<uint64_t> AncServer::Submit(const Activation& activation,
                                   obs::TraceContext trace) {
  if (activation.edge >= index_->graph().NumEdges()) {
    return Status::InvalidArgument("activation references edge " +
                                   std::to_string(activation.edge) +
                                   " outside the graph");
  }
  if (obs::kMetricsEnabled && !trace.active() &&
      index_->metrics().trace_sink() != nullptr) {
    trace = obs::TraceContext::NewTrace();
  }
  return queue_.Push(activation, trace);
}

Result<size_t> AncServer::SubmitBatch(const Activation* data, size_t count,
                                      uint64_t* last_seq,
                                      const obs::TraceContext* traces) {
  for (size_t i = 0; i < count; ++i) {
    if (data[i].edge >= index_->graph().NumEdges()) {
      return Status::InvalidArgument("activation references edge " +
                                     std::to_string(data[i].edge) +
                                     " outside the graph");
    }
  }
  return queue_.PushBatch(data, count, last_seq, traces);
}

Status AncServer::SubmitStream(const ActivationStream& stream,
                               uint64_t* last_seq) {
  for (const Activation& activation : stream) {
    Result<uint64_t> ticket = Submit(activation);
    if (!ticket.ok()) return ticket.status();
    if (last_seq != nullptr) *last_seq = *ticket;
  }
  return Status::OK();
}

Status AncServer::Flush(std::chrono::milliseconds timeout) {
  return AwaitSeq(queue_.accepted(), timeout);
}

Watermark AncServer::watermark() const {
  util::MutexLock lock(watermark_mutex_);
  return published_;
}

Status AncServer::AwaitSeq(uint64_t seq, std::chrono::milliseconds timeout) {
  util::MutexLock lock(watermark_mutex_);
  if (published_.seq >= seq) return Status::OK();
  const bool reached = watermark_cv_.WaitFor(watermark_mutex_, timeout, [&] {
    watermark_mutex_.AssertHeld();
    return published_.seq >= seq ||
           writer_done_.load(std::memory_order_acquire);
  });
  if (published_.seq >= seq) return Status::OK();
  return Status::Unavailable(
      reached ? "server stopped before ticket " + std::to_string(seq) +
                    " resolved"
              : "timed out awaiting ticket " + std::to_string(seq));
}

Status AncServer::AwaitTime(double t, std::chrono::milliseconds timeout) {
  util::MutexLock lock(watermark_mutex_);
  if (published_.time >= t) return Status::OK();
  const bool reached = watermark_cv_.WaitFor(watermark_mutex_, timeout, [&] {
    watermark_mutex_.AssertHeld();
    return published_.time >= t ||
           writer_done_.load(std::memory_order_acquire);
  });
  if (published_.time >= t) return Status::OK();
  return Status::Unavailable(
      reached ? "server stopped before watermark time " + std::to_string(t)
              : "timed out awaiting watermark time " + std::to_string(t));
}

Watermark AncServer::durable_watermark() const {
  util::MutexLock lock(durable_mutex_);
  return durable_;
}

void AncServer::OnDurable(uint64_t seq, double time) {
  {
    util::MutexLock lock(durable_mutex_);
    if (seq > durable_.seq) durable_.seq = seq;
    if (time > durable_.time) durable_.time = time;
  }
  durable_cv_.NotifyAll();
}

void AncServer::RecordStoreError(const Status& status) {
  index_->metrics().Add(m_.wal_errors);
  util::MutexLock lock(store_status_mutex_);
  if (store_status_.ok()) store_status_ = status;
}

Status AncServer::store_status() const {
  util::MutexLock lock(store_status_mutex_);
  return store_status_;
}

Status AncServer::AwaitDurableSeq(uint64_t seq,
                                  std::chrono::milliseconds timeout) {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "no durability configured (DurabilityPolicy::kNone)");
  }
  util::MutexLock lock(durable_mutex_);
  if (durable_.seq >= seq) return Status::OK();
  durable_cv_.WaitFor(durable_mutex_, timeout, [&] {
    durable_mutex_.AssertHeld();
    return durable_.seq >= seq;
  });
  if (durable_.seq >= seq) return Status::OK();
  return Status::Unavailable("timed out awaiting durability of ticket " +
                             std::to_string(seq));
}

Status AncServer::FlushDurable(std::chrono::milliseconds timeout) {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "no durability configured (DurabilityPolicy::kNone)");
  }
  const uint64_t target = queue_.accepted();
  const Clock::time_point deadline = Clock::now() + timeout;
  // Applied implies appended (the writer logs before applying), so once
  // the live flush resolves the only gap left is the covering fsync.
  ANC_RETURN_NOT_OK(AwaitSeq(target, timeout));
  const Status synced = store_->Sync();
  if (!synced.ok()) {
    RecordStoreError(synced);
    return synced;
  }
  const auto remaining = std::max(
      std::chrono::milliseconds(1),
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                            Clock::now()));
  return AwaitDurableSeq(target, remaining);
}

Status AncServer::RequestCheckpoint(std::chrono::milliseconds timeout) {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "no durability configured (DurabilityPolicy::kNone)");
  }
  if (!running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "server not running; checkpoint through the store directly");
  }
  util::MutexLock lock(checkpoint_mutex_);
  const uint64_t target = checkpoints_done_ + 1;
  checkpoint_requested_.store(true, std::memory_order_release);
  checkpoint_cv_.WaitFor(checkpoint_mutex_, timeout, [&] {
    checkpoint_mutex_.AssertHeld();
    return checkpoints_done_ >= target ||
           writer_done_.load(std::memory_order_acquire);
  });
  if (checkpoints_done_ >= target) return last_checkpoint_status_;
  return Status::Unavailable(
      writer_done_.load(std::memory_order_acquire)
          ? "server stopped before the checkpoint was taken"
          : "timed out awaiting checkpoint");
}

void AncServer::RecordLoadReport(const StreamLoadReport& report) {
  obs::MetricsRegistry& registry = index_->metrics();
  registry.Add(m_.load_lines, report.data_lines);
  registry.Add(m_.load_skipped, report.skipped);
}

std::shared_ptr<const ClusterView> AncServer::View() const {
  util::MutexLock lock(view_mutex_);
  return view_;
}

Result<Clustering> AncServer::Clusters(uint32_t level,
                                       const QueryOptions& query) {
  std::shared_ptr<const ClusterView> view = View();
  if (view == nullptr) {
    return Status::FailedPrecondition("server not started");
  }
  if (level < 1 || level > view->num_levels()) {
    return Status::OutOfRange("level must be in [1, " +
                              std::to_string(view->num_levels()) + "]");
  }
  const AdmissionDecision decision =
      admission_.Admit(level, *view, queue_.Depth(), query);
  if (decision.action == AdmissionDecision::Action::kShed) {
    return decision.status;
  }
  obs::MetricsRegistry& registry = index_->metrics();
  registry.Record(m_.query_staleness_us, view->AgeSeconds() * 1e6);
  const Clock::time_point start = Clock::now();
  Clustering out = view->Clusters(decision.level);
  const double micros = MicrosSince(start);
  registry.Record(m_.query_us, micros);
  admission_.RecordLatency(micros * 1e-6);
  return out;
}

Result<Clustering> AncServer::Clusters() {
  std::shared_ptr<const ClusterView> view = View();
  if (view == nullptr) {
    return Status::FailedPrecondition("server not started");
  }
  return Clusters(view->DefaultLevel());
}

Result<std::vector<NodeId>> AncServer::LocalCluster(NodeId node,
                                                    uint32_t level,
                                                    const QueryOptions& query) {
  std::shared_ptr<const ClusterView> view = View();
  if (view == nullptr) {
    return Status::FailedPrecondition("server not started");
  }
  if (node >= view->graph().NumNodes()) {
    return Status::OutOfRange("node out of range");
  }
  if (level < 1 || level > view->num_levels()) {
    return Status::OutOfRange("level must be in [1, " +
                              std::to_string(view->num_levels()) + "]");
  }
  const AdmissionDecision decision =
      admission_.Admit(level, *view, queue_.Depth(), query);
  if (decision.action == AdmissionDecision::Action::kShed) {
    return decision.status;
  }
  obs::MetricsRegistry& registry = index_->metrics();
  registry.Record(m_.query_staleness_us, view->AgeSeconds() * 1e6);
  const Clock::time_point start = Clock::now();
  std::vector<NodeId> out = view->LocalCluster(node, decision.level);
  const double micros = MicrosSince(start);
  registry.Record(m_.query_us, micros);
  admission_.RecordLatency(micros * 1e-6);
  return out;
}

Result<std::vector<NodeId>> AncServer::SmallestCluster(
    NodeId node, uint32_t min_size, uint32_t* level_out,
    const QueryOptions& query) {
  std::shared_ptr<const ClusterView> view = View();
  if (view == nullptr) {
    return Status::FailedPrecondition("server not started");
  }
  if (node >= view->graph().NumNodes()) {
    return Status::OutOfRange("node out of range");
  }
  // SmallestCluster scans levels itself, so degradation does not apply;
  // the admission check is for shedding only.
  const AdmissionDecision decision =
      admission_.Admit(view->DefaultLevel(), *view, queue_.Depth(), query);
  if (decision.action == AdmissionDecision::Action::kShed) {
    return decision.status;
  }
  obs::MetricsRegistry& registry = index_->metrics();
  registry.Record(m_.query_staleness_us, view->AgeSeconds() * 1e6);
  const Clock::time_point start = Clock::now();
  std::vector<NodeId> out = view->SmallestCluster(node, min_size, level_out);
  const double micros = MicrosSince(start);
  registry.Record(m_.query_us, micros);
  admission_.RecordLatency(micros * 1e-6);
  return out;
}

Status AncServer::writer_status() const {
  util::MutexLock lock(writer_status_mutex_);
  return writer_status_;
}

}  // namespace anc::serve
