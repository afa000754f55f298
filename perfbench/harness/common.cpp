#include "common.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cico/common/stats.hpp"
#include "cico/common/version.hpp"
#include "cico/kern/kernels.hpp"
#include "cico/sim/machine.hpp"

namespace pb {

using cico::obs::Json;

Usage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  u.maxrss_kb = ru.ru_maxrss;
  return u;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::runtime_error("expected --key value, got " + key);
    }
    kv_[key.substr(2)] = argv[i + 1];
  }
}

std::string Args::str(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

double Args::num(const std::string& key) const {
  return std::stod(str(key));
}

const Json& field(const Json& j, std::string_view key) {
  const Json* v = j.find(key);
  if (v == nullptr) {
    throw std::runtime_error("missing field: " + std::string(key));
  }
  return *v;
}

Json num(double v) { return Json::number(v); }

Json num_map(const std::map<std::string, double>& m) {
  Json j = Json::object();
  for (const auto& [k, v] : m) j.set(k, num(v));
  return j;
}

Json build_meta() {
  Json j = Json::object();
  j.set("kern_level",
        Json::string(cico::kern::level_name(cico::kern::active_level())));
  j.set("compiler", Json::string(std::string("g++ ") + __VERSION__));
#ifdef NDEBUG
  j.set("assertions", Json::boolean(false));
#else
  j.set("assertions", Json::boolean(true));
#endif
  j.set("tool_version", Json::string(cico::common::kToolVersion));
  return j;
}

void count_sim(Tracer& tr, const cico::sim::Machine& m, const Usage& before,
               const Usage& after) {
  using cico::Stat;
  const auto total = [&](Stat s) {
    return static_cast<double>(m.stats().total(s));
  };
  tr.count("sim.runs", 1);
  tr.count("sim.sys_s", after.sys_s - before.sys_s);
  tr.count("sim.ctx_switches",
           static_cast<double>(after.ctx_switches - before.ctx_switches));
  tr.count("sim.boundary_s", m.host_boundary_seconds());
  tr.count("sim.window_s", m.host_total_seconds() - m.host_boundary_seconds());
  tr.count("sim.boundary_rounds", total(Stat::BoundaryRounds));
  tr.count("sim.refs", total(Stat::SharedLoads) + total(Stat::SharedStores));
  tr.count("proto.traps", total(Stat::Traps));
  tr.count("proto.write_faults", total(Stat::WriteFaults));
  tr.count("proto.directives",
           total(Stat::CheckOutX) + total(Stat::CheckOutS) +
               total(Stat::CheckIns) + total(Stat::PrefetchIssued) +
               total(Stat::PostStores));
  tr.count("proto.prefetch_issued", total(Stat::PrefetchIssued));
  tr.count("proto.prefetch_useful", total(Stat::PrefetchUseful));
  tr.count("mem.misses", total(Stat::ReadMisses) + total(Stat::WriteMisses));
  tr.count("net.messages", total(Stat::Messages));
}

namespace {
thread_local std::vector<std::size_t> t_open;  // this thread's span stack
}  // namespace

std::size_t Tracer::begin(std::string_view name, std::int64_t job) {
  Rec r;
  r.name = std::string(name);
  r.job = job;
  r.parent = t_open.empty() ? -1 : static_cast<std::int64_t>(t_open.back());
  std::size_t id = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    id = spans_.size();
    r.start = now_s();
    spans_.push_back(std::move(r));
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(std::size_t id) {
  const double t = now_s();
  {
    std::lock_guard<std::mutex> lk(mu_);
    spans_[id].end = t;
  }
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

void Tracer::count(const std::string& name, double v) {
  if (!on_) return;
  std::lock_guard<std::mutex> lk(mu_);
  counts_[name] += v;
}

std::size_t Tracer::mark() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::take_pass(std::size_t from) {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> self(spans_.size() - from);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    self[i - from] += spans_[i].end - spans_[i].start;
    const std::int64_t p = spans_[i].parent;
    if (p >= static_cast<std::int64_t>(from)) {
      self[static_cast<std::size_t>(p) - from] -=
          spans_[i].end - spans_[i].start;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    out[spans_[i].name + "_s"] += self[i - from];
  }
  for (const auto& [k, v] : counts_) out[k] += v;
  counts_.clear();
  return out;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  Json events = Json::array();
  const double t0 = spans_.empty() ? 0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    Json e = Json::object();
    e.set("name", Json::string(r.name));
    e.set("ph", Json::string("X"));
    e.set("ts", num((r.start - t0) * 1e6));
    e.set("dur", num((r.end - r.start) * 1e6));
    e.set("pid", Json::number(std::uint64_t{1}));
    e.set("tid", Json::number(static_cast<std::int64_t>(r.job)));
    Json args = Json::object();
    args.set("id", Json::number(static_cast<std::uint64_t>(i)));
    args.set("parent", Json::number(r.parent));
    args.set("job", Json::number(r.job));
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  write_file(path, doc.dump_string());
}

}  // namespace pb

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: cicobench <fig6|replay|daemon-mix|trace-check> "
                 "[--key value]...\n");
    return 1;
  }
  const std::string cmd = argv[1];
  try {
    const pb::Args a(argc, argv, 2);
    if (cmd == "fig6") return pb::run_fig6(a);
    if (cmd == "replay") return pb::run_replay(a);
    if (cmd == "daemon-mix") return pb::run_daemon_mix(a);
    if (cmd == "trace-check") return pb::run_trace_check(a);
    std::fprintf(stderr, "cicobench: unknown subcommand %s\n", cmd.c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cicobench: error: %s\n", e.what());
    return 2;
  }
}
