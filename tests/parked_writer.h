#ifndef ANC_TESTS_PARKED_WRITER_H_
#define ANC_TESTS_PARKED_WRITER_H_

#include <atomic>
#include <future>
#include <thread>

#include <gtest/gtest.h>

#include "serve/server.h"
#include "util/status.h"

namespace anc {

// Parks one shard's writer at a quiescent point (RunQuiesced) until
// Release(); construction returns once the writer is parked.
class ParkedWriter {
 public:
  explicit ParkedWriter(serve::AncServer* shard)
      : parked_future_(parked_.get_future()),
        release_future_(release_.get_future()),
        thread_([this, shard] {
          Status ran = shard->RunQuiesced(
              [this](const serve::AncServer::QuiescedContext&) {
                parked_.set_value();
                release_future_.wait();
              });
          EXPECT_TRUE(ran.ok()) << ran.ToString();
        }) {
    parked_future_.wait();
  }

  ParkedWriter(const ParkedWriter&) = delete;
  ParkedWriter& operator=(const ParkedWriter&) = delete;

  ~ParkedWriter() {
    Release();
    thread_.join();
  }

  void Release() {
    if (!released_.exchange(true)) release_.set_value();
  }
  bool released() const { return released_.load(); }

 private:
  std::promise<void> parked_;
  std::promise<void> release_;
  std::future<void> parked_future_;
  std::future<void> release_future_;
  std::atomic<bool> released_{false};
  std::thread thread_;  // last: it uses the members above
};

}  // namespace anc

#endif  // ANC_TESTS_PARKED_WRITER_H_
