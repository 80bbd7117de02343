// trace_check: validates a JSONL trace file produced by obs::TraceSink
// (docs/observability.md). The AncCliTraceTest ctest runs it over a traced
// anc_cli session to prove that serving emits well-formed, properly
// nested, correlated spans.
//
//   $ ./build/examples/trace_check /tmp/serve.trace [required-name ...]
//
// Checks, in order:
//   1. Every line parses as a JSON object (obs::Json, the same parser the
//      telemetry stack uses).
//   2. Every span line carries numeric ts_us / dur_us / depth / tid.
//   3. Nesting: spans are emitted on completion (children before parents),
//      so for each thread a span at depth d must contain — in time — every
//      not-yet-claimed span at depth > d emitted before it. A depth > 0
//      span left unclaimed at EOF has no parent: error.
//   4. Correlation: every trace id seen on an ingest.queue_wait span also
//      appears on a serve.apply span, and every trace id on a shard.query_*
//      span also appears on a shard.gather span.
//   5. Every name passed on the command line appears at least once.
//
// Exits 0 and prints a summary on success; prints the first few violations
// and exits 1 otherwise.

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

struct Span {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int depth = 0;
};

struct Checker {
  /// Spans overlap-checked with microsecond slack: steady_clock reads for
  /// parent and child are taken at slightly different instants.
  static constexpr double kEpsUs = 1.0;

  std::map<int, std::vector<Span>> pending_by_tid;
  std::set<std::string> names_seen;
  std::set<uint64_t> queue_wait_traces;
  std::set<uint64_t> apply_traces;
  std::set<uint64_t> query_traces;
  std::set<uint64_t> gather_traces;
  std::set<uint64_t> all_traces;
  size_t lines = 0;
  size_t spans = 0;
  size_t errors = 0;

  void Error(size_t line_no, const std::string& what) {
    ++errors;
    if (errors <= 10) {
      std::fprintf(stderr, "line %zu: %s\n", line_no, what.c_str());
    }
  }

  void Ingest(size_t line_no, const std::string& line) {
    ++lines;
    anc::obs::Json doc;
    if (!anc::obs::Json::Parse(line, &doc) || !doc.is_object()) {
      Error(line_no, "not a JSON object: " + line);
      return;
    }
    const anc::obs::Json* name = doc.Find("name");
    const anc::obs::Json* ts = doc.Find("ts_us");
    const anc::obs::Json* dur = doc.Find("dur_us");
    const anc::obs::Json* depth = doc.Find("depth");
    const anc::obs::Json* tid = doc.Find("tid");
    if (name == nullptr || !name->is_string() || ts == nullptr ||
        !ts->is_number() || dur == nullptr || !dur->is_number() ||
        depth == nullptr || !depth->is_number() || tid == nullptr ||
        !tid->is_number()) {
      Error(line_no, "span missing name/ts_us/dur_us/depth/tid: " + line);
      return;
    }
    ++spans;
    Span span;
    span.name = name->str();
    span.ts_us = ts->number();
    span.dur_us = dur->number();
    span.depth = static_cast<int>(depth->number());
    names_seen.insert(span.name);

    uint64_t trace_id = 0;
    if (const anc::obs::Json* trace = doc.Find("trace");
        trace != nullptr && trace->is_number()) {
      trace_id = static_cast<uint64_t>(trace->number());
      all_traces.insert(trace_id);
      if (span.name == "ingest.queue_wait") queue_wait_traces.insert(trace_id);
      if (span.name == "serve.apply") apply_traces.insert(trace_id);
      if (span.name.rfind("shard.query_", 0) == 0) {
        query_traces.insert(trace_id);
      }
      if (span.name == "shard.gather") gather_traces.insert(trace_id);
    }

    // Completion-order nesting: this span claims every deeper span emitted
    // before it on its thread since the last span at <= its depth, and each
    // claimed child must lie inside this span's interval.
    std::vector<Span>& pending = pending_by_tid[static_cast<int>(
        tid->number())];
    while (!pending.empty() && pending.back().depth > span.depth) {
      const Span child = pending.back();
      pending.pop_back();
      if (child.depth != span.depth + 1) {
        // Grandchildren were already claimed by their own parent; a gap
        // means a depth level went missing.
        Error(line_no, "span '" + span.name + "' (depth " +
                           std::to_string(span.depth) + ") claims '" +
                           child.name + "' at non-adjacent depth " +
                           std::to_string(child.depth));
        continue;
      }
      if (child.ts_us < span.ts_us - kEpsUs ||
          child.ts_us + child.dur_us > span.ts_us + span.dur_us + kEpsUs) {
        Error(line_no, "child '" + child.name + "' [" +
                           std::to_string(child.ts_us) + ", " +
                           std::to_string(child.ts_us + child.dur_us) +
                           "] escapes parent '" + span.name + "' [" +
                           std::to_string(span.ts_us) + ", " +
                           std::to_string(span.ts_us + span.dur_us) + "]");
      }
    }
    // Deeper siblings stay pending until their parent claims them. Only
    // depth-0 spans have no parent coming: retire earlier ones so the
    // buffer stays bounded on long runs.
    if (span.depth == 0) {
      while (!pending.empty() && pending.back().depth == 0) {
        pending.pop_back();
      }
    }
    pending.push_back(span);
  }

  void Finish() {
    for (const auto& [tid, pending] : pending_by_tid) {
      for (const Span& span : pending) {
        if (span.depth > 0) {
          Error(lines, "tid " + std::to_string(tid) + ": span '" + span.name +
                           "' at depth " + std::to_string(span.depth) +
                           " has no enclosing parent span");
        }
      }
    }
    for (const uint64_t trace : queue_wait_traces) {
      if (apply_traces.count(trace) == 0) {
        Error(lines, "trace " + std::to_string(trace) +
                         " has an ingest.queue_wait span but no serve.apply");
      }
    }
    for (const uint64_t trace : query_traces) {
      if (gather_traces.count(trace) == 0) {
        Error(lines, "trace " + std::to_string(trace) +
                         " has a shard.query_* span but no shard.gather");
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: trace_check <trace.jsonl> [required-name ...]\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 2;
  }
  Checker checker;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    checker.Ingest(line_no, line);
  }
  checker.Finish();
  for (int i = 2; i < argc; ++i) {
    if (checker.names_seen.count(argv[i]) == 0) {
      checker.Error(line_no,
                    std::string("required span name never emitted: ") +
                        argv[i]);
    }
  }
  std::printf(
      "%zu lines, %zu spans, %zu distinct names, "
      "%zu traces (%zu queue_wait, %zu apply, %zu query, %zu gather), "
      "%zu errors\n",
      checker.lines, checker.spans,
      checker.names_seen.size(), checker.all_traces.size(),
      checker.queue_wait_traces.size(), checker.apply_traces.size(),
      checker.query_traces.size(), checker.gather_traces.size(),
      checker.errors);
  return checker.errors == 0 ? 0 : 1;
}
