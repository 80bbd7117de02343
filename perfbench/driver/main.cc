// perfbench_driver: runs one workload of the serving-stack benchmark and
// prints its result as one JSON object on the last line of stdout.
//
//   perfbench_driver --workload ingest|serve_mixed|net_durable --seed N
//                    --seconds S --trace 0|1 --work-dir DIR
//
// --trace 1 records spans around the benchmark's calls into each layer
// (kept in memory, written to DIR/trace-<workload>.jsonl at the end) and
// adds the layer probes and replays. perfbench/run.py builds this program,
// runs it and stamps the result; run it through that script.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "ingest|serve_mixed|net_durable --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string(value) == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes one value");
  if (!(args.seconds > 0.0) || args.seconds > 600.0) {
    return Usage("--seconds must be in (0, 600]");
  }
  if (args.work_dir.empty()) return Usage("--work-dir is required");
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return Usage(("cannot create " + args.work_dir).c_str());

  perfbench::Tracer tracer(args.trace);
  perfbench::Report report;
  if (args.workload == "ingest") {
    perfbench::RunIngest(args, &tracer, &report);
  } else if (args.workload == "serve_mixed") {
    perfbench::RunServeMixed(args, &tracer, &report);
  } else if (args.workload == "net_durable") {
    perfbench::RunNetDurable(args, &tracer, &report);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (args.trace) {
    perfbench::ReportSpanMetrics(tracer, &report);
    const std::string path =
        args.work_dir + "/trace-" + args.workload + ".jsonl";
    const anc::Status written = tracer.WriteJsonl(path);
    report.Check("trace_written", written.ok(), path);
  }
  std::printf("%s\n", report.Dump(args).c_str());
  return 0;
}
