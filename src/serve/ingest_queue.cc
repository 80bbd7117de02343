#include "serve/ingest_queue.h"

#include <algorithm>

namespace anc::serve {

IngestQueue::IngestQueue(IngestOptions options, obs::MetricsRegistry* registry)
    : options_(options), metrics_(registry) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (metrics_ != nullptr) {
    accepted_id_ = metrics_->Counter("anc.serve.ingest_accepted");
    rejected_id_ = metrics_->Counter("anc.serve.ingest_rejected");
    depth_id_ = metrics_->Gauge("anc.serve.ingest_depth");
    high_watermark_id_ = metrics_->Gauge("anc.serve.ingest_high_watermark");
    oldest_age_us_id_ = metrics_->Gauge("anc.serve.ingest_oldest_age_us");
    queue_wait_us_ = metrics_->Histogram("anc.serve.ingest_wait_us");
  }
}

void IngestQueue::SetOldestGaugeLocked(
    std::chrono::steady_clock::time_point now) {
  if (metrics_ == nullptr) return;
  const double age_us =
      entries_.empty()
          ? 0.0
          : std::chrono::duration<double, std::micro>(
                now - entries_.front().enqueued_at)
                .count();
  metrics_->Set(oldest_age_us_id_, static_cast<int64_t>(age_us));
}

Result<size_t> IngestQueue::PushBatch(const Activation* data, size_t count,
                                      uint64_t* last_seq,
                                      const obs::TraceContext* traces) {
  size_t accepted = 0;
  uint64_t rejected = 0;
  {
    util::MutexLock lock(mutex_);
    auto now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < count; ++i) {
      // Close() can land while a wait releases the lock: stop and report
      // the accepted prefix (the caller's remaining entries are lost).
      if (closed_) break;
      Activation activation = data[i];
      if (activation.time < last_accepted_time_) {
        if (!options_.clamp_out_of_order) {
          ++rejected;
          continue;
        }
        activation.time = last_accepted_time_;
      }
      if (entries_.size() >= options_.capacity) {
        not_empty_.NotifyOne();  // wake the drainer before waiting on it
        not_full_.Wait(mutex_, [this] {
          mutex_.AssertHeld();
          return closed_ || entries_.size() < options_.capacity;
        });
        if (closed_) break;
        // The entry is enqueued now, not when the batch arrived: its queue
        // wait must not include the producer's own blocking time.
        now = std::chrono::steady_clock::now();
      }
      // A concurrent push may have advanced the watermark during a wait.
      activation.time = std::max(activation.time, last_accepted_time_);
      const uint64_t seq = next_seq_++;
      last_accepted_time_ = activation.time;
      entries_.push_back({activation, seq, now,
                          traces != nullptr ? traces[i]
                                            : obs::TraceContext{}});
      ++accepted;
      if (entries_.size() > high_watermark_) {
        high_watermark_ = entries_.size();
      }
      if (last_seq != nullptr) *last_seq = seq;
    }
    accepted_ += accepted;
    rejected_ += rejected;
    if (metrics_ != nullptr) {
      if (accepted > 0) metrics_->Add(accepted_id_, accepted);
      if (rejected > 0) metrics_->Add(rejected_id_, rejected);
      metrics_->Set(depth_id_, static_cast<int64_t>(entries_.size()));
      metrics_->Set(high_watermark_id_,
                    static_cast<int64_t>(high_watermark_));
      SetOldestGaugeLocked(now);
    }
    if (closed_ && accepted == 0) {
      return Status::FailedPrecondition("ingest queue is closed");
    }
  }
  if (accepted > 0) not_empty_.NotifyOne();
  return accepted;
}

size_t IngestQueue::PopBatch(std::vector<Activation>* out, size_t max_batch,
                             std::chrono::microseconds wait,
                             uint64_t* resolved_seq,
                             std::vector<Popped>* info) {
  size_t popped = 0;
  {
    util::MutexLock lock(mutex_);
    if (entries_.empty() && !closed_) {
      not_empty_.WaitFor(mutex_, wait, [this] {
        mutex_.AssertHeld();
        return closed_ || !entries_.empty();
      });
    }
    const auto now = std::chrono::steady_clock::now();
    while (popped < max_batch && !entries_.empty()) {
      Entry& entry = entries_.front();
      out->push_back(entry.activation);
      if (info != nullptr) info->push_back({entry.trace, entry.enqueued_at});
      resolved_seq_ = entry.seq;
      if (metrics_ != nullptr) {
        metrics_->Record(queue_wait_us_,
                         std::chrono::duration<double, std::micro>(
                             now - entry.enqueued_at)
                             .count());
      }
      entries_.pop_front();
      ++popped;
    }
    if (resolved_seq != nullptr) *resolved_seq = resolved_seq_;
    if (metrics_ != nullptr && popped > 0) {
      metrics_->Set(depth_id_, static_cast<int64_t>(entries_.size()));
      SetOldestGaugeLocked(now);
    }
  }
  if (popped > 0) not_full_.NotifyAll();
  return popped;
}

void IngestQueue::Close() {
  {
    util::MutexLock lock(mutex_);
    closed_ = true;
  }
  not_empty_.NotifyAll();
  not_full_.NotifyAll();
}

bool IngestQueue::closed() const {
  util::MutexLock lock(mutex_);
  return closed_;
}

size_t IngestQueue::Depth() const {
  util::MutexLock lock(mutex_);
  return entries_.size();
}

uint64_t IngestQueue::accepted() const {
  util::MutexLock lock(mutex_);
  return accepted_;
}

uint64_t IngestQueue::rejected() const {
  util::MutexLock lock(mutex_);
  return rejected_;
}

double IngestQueue::last_accepted_time() const {
  util::MutexLock lock(mutex_);
  return last_accepted_time_;
}

size_t IngestQueue::high_watermark() const {
  util::MutexLock lock(mutex_);
  return high_watermark_;
}

double IngestQueue::OldestAgeSeconds() const {
  util::MutexLock lock(mutex_);
  if (entries_.empty()) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       entries_.front().enqueued_at)
      .count();
}

}  // namespace anc::serve
