// Shared helpers for the cicobench harness: clocks, rusage, file I/O,
// argument parsing and the span tracer that produces the per-layer
// numbers.
//
// A span is one call into a layer's public function, recorded from the
// benchmark's own code: name ("layer.call"), start, end, parent span and
// job id.  Spans and counts stay in memory and are written when the run
// ends.  A span's self time is its duration minus the time its child
// spans cover; the per-layer metrics are self times summed by span name.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cico/obs/json.hpp"

namespace cico::sim {
class Machine;
}

namespace pb {

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// getrusage snapshot of this process (all threads).
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  std::int64_t ctx_switches = 0;  ///< voluntary + involuntary
  std::int64_t maxrss_kb = 0;
  [[nodiscard]] double cpu_s() const { return user_s + sys_s; }
};
[[nodiscard]] Usage self_usage();

[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view bytes);

/// `--key value` arguments after the subcommand; every key a subcommand
/// reads is required (a missing one throws).
class Args {
 public:
  Args(int argc, char** argv, int first);
  [[nodiscard]] std::string str(const std::string& key) const;
  [[nodiscard]] double num(const std::string& key) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// Value of `key` in a JSON object (throws when missing).
[[nodiscard]] const cico::obs::Json& field(const cico::obs::Json& j,
                                           std::string_view key);
[[nodiscard]] cico::obs::Json num(double v);
[[nodiscard]] cico::obs::Json num_map(const std::map<std::string, double>& m);

/// Build facts reported beside every result.
[[nodiscard]] cico::obs::Json build_meta();

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool on() const { return on_; }

  /// Opens a span on the calling thread; its parent is the thread's
  /// innermost open span.
  std::size_t begin(std::string_view name, std::int64_t job);
  void end(std::size_t id);
  /// Adds to a named count (recorded at the same boundaries as spans).
  void count(const std::string& name, double v);

  /// Number of spans recorded so far (a pass boundary).
  [[nodiscard]] std::size_t mark() const;
  /// Self seconds by span name over spans [from, now), plus the counts
  /// accumulated since the last call; the counts are then reset.
  [[nodiscard]] std::map<std::string, double> take_pass(std::size_t from);
  /// Chrome trace-event JSON of every span (loadable in Perfetto).
  void write(const std::string& path) const;

 private:
  struct Rec {
    std::string name;
    double start = 0;
    double end = 0;
    std::int64_t parent = -1;
    std::int64_t job = -1;
  };
  bool on_;
  mutable std::mutex mu_;
  std::vector<Rec> spans_;                 // guarded by mu_
  std::map<std::string, double> counts_;   // guarded by mu_
};

/// RAII span; a no-op when the tracer is off.
class Span {
 public:
  Span(Tracer& t, std::string_view name, std::int64_t job = -1)
      : t_(t), id_(t.on() ? t.begin(name, job) : 0) {}
  ~Span() {
    if (t_.on()) t_.end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  std::size_t id_;
};

/// The sim-layer counts of one finished Machine::run: host time split,
/// rusage deltas around it, and the stat totals the per-layer metrics use.
void count_sim(Tracer& tr, const cico::sim::Machine& m, const Usage& before,
               const Usage& after);

// Subcommands (one per workload plus the trace round-trip oracle).
int run_fig6(const Args& a);
int run_replay(const Args& a);
int run_daemon_mix(const Args& a);
int run_trace_check(const Args& a);

}  // namespace pb
