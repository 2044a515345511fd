// hostbench: runs one workload of the host-cost benchmark in this
// process and prints its metrics, checks and a final JSON result line.
//
//   hostbench --workload paper-scale|serve-zipf|ingest-mixed
//             --seed N --seconds S --trace 0|1 [--spans-out FILE]
//
// Exit status: 0 when every correctness check passed, 1 when one
// failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

using namespace bohr::perfbench;

int usage(const std::string& why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload "
               "paper-scale|serve-zipf|ingest-mixed --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE]\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        return usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }

  Tracer tracer(args.trace);
  ResultSheet sheet;
  try {
    if (args.workload == "paper-scale") {
      run_paper_scale(args, tracer, sheet);
    } else if (args.workload == "serve-zipf") {
      run_serve_zipf(args, tracer, sheet);
    } else if (args.workload == "ingest-mixed") {
      run_ingest_mixed(args, tracer, sheet);
    } else {
      return usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (args.trace && !args.spans_out.empty()) tracer.write(args.spans_out);
  sheet.print(args.workload);
  return sheet.correct() ? 0 : 1;
}
