// Workload `daemon-mix`: closed-loop clients submit annotate / run / plan
// (sim class) and lint (static class) jobs through daemon::submit_job,
// the `cachier --daemon` path.  Each client owns its job list; about half
// of its requests repeat one of its own earlier requests, so those must
// come back from the result cache.  Every pass starts a daemon with an
// empty cache and as many workers as there are clients.
//
// Untraced passes talk to the real `cachierd` binary (a child process;
// its rusage is collected when it drains).  In the second half of a
// traced run, passes embed daemon::Server in this process so
// Server::counters() can be read; they alternate untraced and traced, so
// tracing overhead is measured against the same embedded daemon.
// Queue wait ("queued" to "running"/"cached") and service time (to the
// result) are taken from the status frames the client receives.
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <map>
#include <stdexcept>
#include <thread>

#include "cico/daemon/client.hpp"
#include "cico/daemon/server.hpp"
#include "common.hpp"

extern char** environ;

namespace pb {

using cico::obs::Json;
using namespace cico;

namespace {

struct Job {
  std::int64_t id = 0;
  std::string cls;  ///< sim | static
  std::string cmd;  ///< annotate | run | plan | lint
  std::string prog;
  std::uint32_t nodes = 4;
  bool chain = false;   ///< annotate, then run and lint the annotated output
  bool repeat = false;  ///< repeats an earlier request: must be cached
};

Job parse_job(const Json& j) {
  Job job;
  job.id = static_cast<std::int64_t>(field(j, "id").as_u64());
  job.cls = field(j, "cls").as_string();
  job.cmd = field(j, "cmd").as_string();
  job.prog = field(j, "prog").as_string();
  job.nodes = static_cast<std::uint32_t>(field(j, "nodes").as_u64());
  job.chain = field(j, "chain").as_bool();
  job.repeat = field(j, "repeat").as_bool();
  return job;
}

/// One request as the client saw it.
struct Rec {
  std::string key;  ///< identifies the distinct request (for the oracle)
  std::string cls;
  std::string cmd;
  std::string prog;    ///< the source file, also the request's name
  std::string origin;  ///< the bundled program it derives from
  std::uint32_t nodes = 0;
  bool cached = false;
  bool expect_cached = false;
  int exit = 0;
  double latency_ms = 0;
  double queue_ms = 0;
  double service_ms = 0;
  std::string out;
};

daemon::ClientOptions client_opts(const std::string& sock,
                                  std::vector<std::pair<std::string, double>>*
                                      statuses,
                                  bool startup) {
  daemon::ClientOptions c;
  c.socket_path = sock;
  if (startup) {
    // The daemon may still be binding its socket: poll every millisecond,
    // so set-up time is not rounded up to the exponential backoff's steps.
    c.max_attempts = 5000;
    c.backoff_base_ms = 1;
    c.backoff_cap_ms = 1;
  } else {
    c.max_attempts = 200;
    c.backoff_base_ms = 5;
    c.backoff_cap_ms = 50;
  }
  if (statuses != nullptr) {
    c.on_status = [statuses](const std::string& s) {
      statuses->emplace_back(s, now_s());
    };
  }
  return c;
}

Rec submit(Tracer& tr, const std::string& sock, const Job& job,
           const std::string& cls, const std::string& cmd,
           const std::string& path, const std::string& source,
           bool expect_cached, bool startup = false) {
  Span span(tr, "daemon.request", job.id);
  daemon::JobRequest req;
  req.command = cmd;
  req.name = path;
  req.source = source;
  req.cfg.nodes = job.nodes;
  std::vector<std::pair<std::string, double>> st;
  const daemon::ClientOptions copt = client_opts(sock, &st, startup);
  const double t0 = now_s();
  const daemon::JobResult res = daemon::submit_job(copt, req);
  const double t1 = now_s();
  Rec r;
  r.key = cmd + " " + path + " -n " + std::to_string(job.nodes);
  r.cls = cls;
  r.cmd = cmd;
  r.prog = path;
  r.origin = job.prog;
  r.nodes = job.nodes;
  r.cached = res.cached;
  r.expect_cached = expect_cached;
  r.exit = res.exit;
  r.latency_ms = (t1 - t0) * 1e3;
  double queued = t0;
  double started = t1;
  for (const auto& [s, t] : st) {
    if (s == "queued") queued = t;
    if (s == "running" || s == "cached") started = t;
  }
  r.queue_ms = (started - queued) * 1e3;
  r.service_ms = (t1 - started) * 1e3;
  r.out = res.out;
  return r;
}

/// Runs one job and appends its records.  A chained annotate saves the
/// annotated source under `annotated_dir` (that path is the follow-up
/// requests' name, so a one-shot `cachier` on the file prints the same
/// bytes), then runs it (sim class) and lints it (static class).
void run_job(Tracer& tr, const std::string& sock, const Job& job,
             const std::map<std::string, std::string>& sources,
             const std::string& annotated_dir, std::vector<Rec>& out) {
  Rec r = submit(tr, sock, job, job.cls, job.cmd, job.prog,
                 sources.at(job.prog), job.repeat);
  if (!job.chain) {
    out.push_back(std::move(r));
    return;
  }
  const std::string annotated = r.out;
  out.push_back(std::move(r));
  const std::string path =
      annotated_dir + "/" + std::filesystem::path(job.prog).stem().string() +
      "-n" + std::to_string(job.nodes) + ".mp";
  write_file(path, annotated);
  out.push_back(
      submit(tr, sock, job, "sim", "run", path, annotated, job.repeat));
  out.push_back(
      submit(tr, sock, job, "static", "lint", path, annotated, job.repeat));
}

/// One pass: every client runs its whole list, closed loop.
std::vector<Rec> run_clients(Tracer& tr, const std::string& sock,
                             const std::vector<std::vector<Job>>& clients,
                             const std::map<std::string, std::string>& srcs,
                             const std::string& annotated_dir,
                             std::uint64_t* errors) {
  std::vector<std::vector<Rec>> per(clients.size());
  std::vector<std::uint64_t> errs(clients.size(), 0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      for (const Job& job : clients[c]) {
        try {
          run_job(tr, sock, job, srcs, annotated_dir, per[c]);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "daemon-mix: job %lld: %s\n",
                       static_cast<long long>(job.id), e.what());
          ++errs[c];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Rec> all;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    *errors += errs[c];
    for (Rec& r : per[c]) all.push_back(std::move(r));
  }
  return all;
}

/// A `cachierd` child process; drained (SIGTERM) and reaped by stop().
class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& sock,
         const std::string& cache_dir, std::size_t workers,
         const std::string& log) {
    std::vector<std::string> args = {bin,         "--socket",
                                     sock,        "--workers",
                                     std::to_string(workers),
                                     "--cache-dir", cache_dir};
    std::vector<char*> argv;
    for (std::string& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc =
        posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot start " + bin);
  }
  ~Daemon() {
    if (pid_ <= 0) return;
    try {
      (void)stop();
    } catch (const std::exception&) {
      // Already reaped; the error was reported by the pass that stopped it.
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Drains the daemon and returns its rusage (cpu, max RSS).
  Usage stop() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    rusage ru{};
    while (::wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.maxrss_kb = ru.ru_maxrss;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("cachierd did not drain cleanly");
    }
    return u;
  }

 private:
  pid_t pid_ = -1;
};

Json rec_json(const Rec& r) {
  Json j = Json::object();
  j.set("key", Json::string(r.key));
  j.set("cls", Json::string(r.cls));
  j.set("cmd", Json::string(r.cmd));
  j.set("prog", Json::string(r.prog));
  j.set("cached", Json::boolean(r.cached));
  j.set("expect_cached", Json::boolean(r.expect_cached));
  j.set("exit", Json::number(static_cast<std::int64_t>(r.exit)));
  j.set("latency_ms", num(r.latency_ms));
  j.set("queue_ms", num(r.queue_ms));
  j.set("service_ms", num(r.service_ms));
  return j;
}

}  // namespace

int run_daemon_mix(const Args& a) {
  const Json doc = Json::parse(read_file(a.str("jobs")));
  std::vector<std::vector<Job>> clients;
  const Json& cl = field(doc, "clients");
  for (std::size_t c = 0; c < cl.size(); ++c) {
    std::vector<Job> jobs;
    for (std::size_t i = 0; i < cl.at(c).size(); ++i) {
      jobs.push_back(parse_job(cl.at(c).at(i)));
    }
    clients.push_back(std::move(jobs));
  }
  const Job warm = parse_job(field(doc, "warmup"));
  std::map<std::string, std::string> sources;
  for (const auto& jobs : clients) {
    for (const Job& j : jobs) sources.emplace(j.prog, read_file(j.prog));
  }
  sources.emplace(warm.prog, read_file(warm.prog));

  const std::string work = a.str("work");
  const std::string bin = a.str("cachierd");
  const double seconds = a.num("seconds");
  const bool traced_run = a.num("trace") != 0;
  const std::string sock = work + "/d.sock";
  const std::string annotated_dir = work + "/annotated";
  std::filesystem::create_directories(annotated_dir);

  Tracer tr(true);
  Tracer off(false);
  Json passes = Json::array();
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
  std::map<std::string, Rec> first;  // distinct request -> first result
  std::int64_t peak_kb = 0;

  const double t_start = now_s();
  const double untraced_until = t_start + (traced_run ? seconds / 2 : seconds);
  int child_passes = 0;
  int embedded_untraced = 0;
  int traced = 0;
  for (int pass = 0;; ++pass) {
    const double now = now_s();
    if (child_passes > 0 && now >= t_start + seconds &&
        (!traced_run || traced > 0)) {
      break;
    }
    const bool embedded =
        traced_run && child_passes > 0 && now >= untraced_until;
    const bool trace_pass = embedded && embedded_untraced > traced;
    const std::string cache_dir = work + "/cache-" + std::to_string(pass);
    std::filesystem::remove_all(cache_dir);

    // Set-up: start the daemon and get one untimed warm-up job through.
    const double s0 = now_s();
    std::unique_ptr<Daemon> child;
    std::unique_ptr<daemon::Server> server;
    if (embedded) {
      daemon::ServerOptions so;
      so.socket_path = sock;
      so.workers = static_cast<std::uint32_t>(clients.size());
      so.cache_dir = cache_dir;
      server = std::make_unique<daemon::Server>(so);
      server->start();
    } else {
      child = std::make_unique<Daemon>(bin, sock, cache_dir, clients.size(),
                                       work + "/cachierd.log");
    }
    (void)submit(off, sock, warm, warm.cls, warm.cmd, "warmup/" + warm.prog,
                 sources.at(warm.prog), false, true);
    const double setup = now_s() - s0;
    const daemon::Server::Counters c0 =
        server ? server->counters() : daemon::Server::Counters{};

    const Usage u0 = self_usage();
    const std::size_t mark = tr.mark();
    const double t0 = now_s();
    const std::vector<Rec> recs = run_clients(
        trace_pass ? tr : off, sock, clients, sources, annotated_dir, &errors);
    const double wall = now_s() - t0;

    Usage d{};
    Json p = Json::object();
    if (server) {
      server->request_drain();
      server->join();
    }
    if (trace_pass) {
      const daemon::Server::Counters c1 = server->counters();
      const auto delta = [](std::uint64_t a1, std::uint64_t a0) {
        return static_cast<double>(a1 - a0);
      };
      tr.count("daemon.completed", delta(c1.completed, c0.completed));
      tr.count("daemon.cache_hits", delta(c1.cache_hits, c0.cache_hits));
      tr.count("daemon.shed", delta(c1.shed, c0.shed));
      tr.count("daemon.failed", delta(c1.failed, c0.failed));
      tr.count("daemon.cancelled", delta(c1.cancelled, c0.cancelled));
      p.set("layers", num_map(tr.take_pass(mark)));
      ++traced;
    } else if (embedded) {
      ++embedded_untraced;
    } else {
      d = child->stop();
      peak_kb = std::max(peak_kb, d.maxrss_kb);
      ++child_passes;
    }
    const Usage u1 = self_usage();
    std::filesystem::remove_all(cache_dir);

    Json rj = Json::array();
    for (const Rec& r : recs) {
      rj.push_back(rec_json(r));
      const auto it = first.find(r.key);
      if (it == first.end()) {
        first.emplace(r.key, r);
      } else if (it->second.out != r.out || it->second.exit != r.exit) {
        ++mismatches;
        std::fprintf(stderr, "daemon-mix: %s: output differs from its first "
                     "result\n", r.key.c_str());
      }
    }
    p.set("embedded", Json::boolean(embedded));
    p.set("traced", Json::boolean(trace_pass));
    p.set("setup_s", num(setup));
    p.set("wall_s", num(wall));
    p.set("cpu_s", num(u1.cpu_s() - u0.cpu_s() + d.cpu_s()));
    p.set("requests", std::move(rj));
    passes.push_back(std::move(p));
  }
  if (traced_run) tr.write(a.str("spans"));

  // Distinct results for the one-shot oracle (run.py re-runs each with
  // the `cachier` binary and compares bytes).
  const std::string out_dir = work + "/results";
  std::filesystem::create_directories(out_dir);
  Json distinct = Json::array();
  std::size_t n = 0;
  for (const auto& [key, r] : first) {
    Json j = Json::object();
    const std::string path = out_dir + "/" + std::to_string(n++) + ".out";
    write_file(path, r.out);
    j.set("key", Json::string(key));
    j.set("cmd", Json::string(r.cmd));
    j.set("prog", Json::string(r.prog));
    j.set("origin", Json::string(r.origin));
    j.set("nodes", Json::number(std::uint64_t{r.nodes}));
    j.set("exit", Json::number(static_cast<std::int64_t>(r.exit)));
    j.set("out", Json::string(path));
    distinct.push_back(std::move(j));
  }

  Json out = Json::object();
  out.set("meta", build_meta());
  out.set("errors", Json::number(errors));
  out.set("mismatches", Json::number(mismatches));
  out.set("passes", std::move(passes));
  out.set("distinct", std::move(distinct));
  out.set("daemon_peak_rss_kb", Json::number(peak_kb));
  write_file(a.str("out"), out.dump_string());
  return 0;
}

}  // namespace pb
