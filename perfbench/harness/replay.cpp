// Workload `cli-mix`, traced side: replays the job list in-process
// through the public functions the `cachier` CLI calls for each command,
// with a span around every call into a layer.  The replay's stdout bytes
// must equal the CLI's for the same job; run.py checks that.
//
// Also the `trace-check` oracle: a trace put into the store and read back
// with `store get` (epoch-chunked v2 bytes) must decode to the trace that
// was put, up to the canonical record order the store normalizes to.
#include <cstdio>
#include <filesystem>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "cico/analysis/diagnostics.hpp"
#include "cico/analysis/fix.hpp"
#include "cico/analysis/typestate.hpp"
#include "cico/cachier/sharing.hpp"
#include "cico/daemon/job.hpp"
#include "cico/lang/interp.hpp"
#include "cico/lang/parser.hpp"
#include "cico/lang/unparse.hpp"
#include "cico/obs/collector.hpp"
#include "cico/obs/report.hpp"
#include "cico/sim/machine.hpp"
#include "cico/srcann/annotator.hpp"
#include "cico/store/format.hpp"
#include "cico/store/store.hpp"
#include "cico/trace/trace.hpp"
#include "common.hpp"

namespace pb {

using cico::obs::Json;
using namespace cico;

namespace {

/// Text form of a trace in canonical record order (the store keeps
/// traces canonical, so that is the form a round trip preserves).
std::string canonical_text(trace::Trace t) {
  trace::canonicalize(t);
  std::ostringstream os;
  trace::save_text(t, os);
  return os.str();
}

struct Job {
  std::int64_t id = 0;
  std::string cmd;  ///< annotate|compare|trace|annotate-static|lint|lint-fix
  std::string prog;
  std::uint32_t nodes = 4;
  bool prefetch = false;
};

std::vector<Job> load_jobs(const std::string& path) {
  const Json doc = Json::parse(read_file(path));
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const Json& j = doc.at(i);
    Job job;
    job.id = static_cast<std::int64_t>(field(j, "id").as_u64());
    job.cmd = field(j, "cmd").as_string();
    job.prog = field(j, "prog").as_string();
    job.nodes = static_cast<std::uint32_t>(field(j, "nodes").as_u64());
    job.prefetch = field(j, "prefetch").as_bool();
    jobs.push_back(std::move(job));
  }
  return jobs;
}

class Replay {
 public:
  Replay(Tracer& tr, std::string store_dir)
      : tr_(tr), store_dir_(std::move(store_dir)) {}

  /// Runs one job; returns its stdout bytes (the CLI's, byte for byte).
  std::string run(const Job& job) {
    Span js(tr_, "bench.job", job.id);
    const lang::Program prog = parse(read_file(job.prog));
    if (job.cmd == "annotate") return unparse(annotate(prog, job.nodes));
    if (job.cmd == "compare") return compare(prog, job);
    if (job.cmd == "trace") return trace_put_get(prog, job);
    if (job.cmd == "annotate-static") {
      srcann::AnnotateResult res;
      {
        Span s(tr_, "srcann.static");
        res = srcann::annotate_static(
            prog, job.nodes, {.mode = cachier::Mode::Performance,
                              .prefetch = job.prefetch});
      }
      annotate_counts(res);
      return unparse(res.program);
    }
    if (job.cmd == "lint") {
      Span s(tr_, "analysis.lint");
      const analysis::LintResult res = analysis::lint(prog);
      std::ostringstream os;
      analysis::print_text(os, job.prog, res);
      tr_.count("analysis.diagnostics",
                static_cast<double>(res.diagnostics.size()));
      return os.str();
    }
    if (job.cmd == "lint-fix") {
      analysis::FixResult res;
      {
        Span s(tr_, "analysis.fix");
        res = analysis::apply_fixes(prog);
      }
      tr_.count("analysis.fix_passes", static_cast<double>(res.passes));
      tr_.count("analysis.diagnostics",
                static_cast<double>(res.lint.diagnostics.size()));
      return unparse(res.program);
    }
    throw std::runtime_error("replay: unknown job command " + job.cmd);
  }

  [[nodiscard]] std::uint64_t failures() const { return failures_; }

 private:
  lang::Program parse(const std::string& src) {
    Span s(tr_, "lang.parse");
    tr_.count("lang.parse_calls", 1);
    return lang::parse(src);
  }

  std::string unparse(const lang::Program& p) {
    Span s(tr_, "lang.unparse");
    return lang::unparse(p);
  }

  void sim_run(sim::Machine& m, lang::LoadedProgram& lp) {
    const Usage u0 = self_usage();
    {
      Span s(tr_, "sim.run");
      m.run([&](sim::Proc& p) { lp.run_node(p); });
    }
    count_sim(tr_, m, u0, self_usage());
  }

  void annotate_counts(const srcann::AnnotateResult& res) {
    tr_.count("srcann.inserted", static_cast<double>(res.inserted));
    tr_.count("srcann.dropped", static_cast<double>(res.dropped));
  }

  /// The CLI's annotate_program: trace-mode run, then srcann::annotate.
  srcann::AnnotateResult annotate_result(const lang::Program& prog,
                                         std::uint32_t nodes) {
    sim::SimConfig cfg;
    cfg.nodes = nodes;
    cfg.trace_mode = true;
    sim::Machine m(cfg);
    trace::TraceWriter w;
    m.set_trace_writer(&w);
    lang::LoadedProgram lp(prog, m);
    w.set_labels(m.heap().trace_labels());
    sim_run(m, lp);
    const trace::Trace t = w.take();
    srcann::AnnotateResult res;
    {
      Span s(tr_, "srcann.annotate");
      res = srcann::annotate(prog, t, lp, cfg.cache,
                             {.mode = cachier::Mode::Performance});
    }
    annotate_counts(res);
    return res;
  }

  lang::Program annotate(const lang::Program& prog, std::uint32_t nodes) {
    return annotate_result(prog, nodes).program;
  }

  /// `cachier compare prog -n N --report file`.
  std::string compare(const lang::Program& prog, const Job& job) {
    const srcann::AnnotateResult res = annotate_result(prog, job.nodes);
    const lang::Program annotated = parse(unparse(res.program));
    sim::SimConfig cfg;
    cfg.nodes = job.nodes;
    std::string out;
    std::vector<Json> runs;
    Cycle cycles[2] = {0, 0};
    const lang::Program* progs[2] = {&prog, &annotated};
    const char* names[2] = {"baseline", "annotated"};
    for (int i = 0; i < 2; ++i) {
      obs::Collector col;
      sim::Machine m(cfg);
      lang::LoadedProgram lp(*progs[i], m);
      m.set_observer(&col);
      sim_run(m, lp);
      cycles[i] = m.exec_time();
      if (i == 0) {
        out += "-- unannotated --\n";
      } else {
        char line[128];
        std::snprintf(line, sizeof line, "-- %s CICO (%zu annotations) --\n",
                      cachier::mode_name(cachier::Mode::Performance),
                      res.inserted);
        out += line;
      }
      out += daemon::format_run_stats(m, cfg);
      Span s(tr_, "obs.report");
      runs.push_back(obs::run_json(names[i], m.exec_time(),
                                   m.epochs_completed(), m.stats(),
                                   m.network(), col));
    }
    char line[96];
    std::snprintf(line, sizeof line, "\nnormalized execution time: %.3f\n",
                  static_cast<double>(cycles[1]) /
                      static_cast<double>(cycles[0]));
    out += line;
    Span s(tr_, "obs.report");
    const Json cmp = obs::comparison_json(runs[0], runs[1]);
    Json rep = obs::make_report("compare",
                                obs::config_json(cfg, "dir1sw", ""),
                                std::move(runs));
    rep.set("comparison", cmp);
    const std::string bytes = rep.dump_string();
    tr_.count("obs.report_bytes", static_cast<double>(bytes.size()));
    return out;
  }

  /// `cachier trace`, then `store put` and `store get` of its output.
  std::string trace_put_get(const lang::Program& prog, const Job& job) {
    sim::SimConfig cfg;
    cfg.nodes = job.nodes;
    cfg.trace_mode = true;
    sim::Machine m(cfg);
    trace::TraceWriter w;
    m.set_trace_writer(&w);
    lang::LoadedProgram lp(prog, m);
    w.set_labels(m.heap().trace_labels());
    sim_run(m, lp);
    const trace::Trace t = w.take();
    {
      Span s(tr_, "cachier.sharing");
      const cachier::SharingAnalyzer sa(t, cfg.cache);
      (void)sa.report(t, m.pcs());
    }
    std::string text;
    {
      Span s(tr_, "trace.encode");
      std::ostringstream os;
      trace::save_text(t, os);
      text = os.str();
    }
    tr_.count("trace.bytes", static_cast<double>(text.size()));
    const std::string name = "trace-" + std::to_string(job.id) + ".txt";
    std::string got;
    {
      store::ObjectStore st(store_dir_, store::ObjectStore::Open::kCreate);
      store::PutStats ps;
      {
        Span s(tr_, "store.put");
        ps = st.put(name, text);
      }
      tr_.count("store.objects_new", static_cast<double>(ps.objects_new));
      tr_.count("store.objects_total", static_cast<double>(ps.objects_total));
      Span s(tr_, "store.get");
      got = st.get(name);
    }
    trace::Trace back;
    {
      Span s(tr_, "trace.decode");
      std::istringstream in(got);
      back = store::load_v2(in);
    }
    if (canonical_text(back) != canonical_text(t)) ++failures_;
    return got;
  }

  Tracer& tr_;
  std::string store_dir_;
  std::uint64_t failures_ = 0;
};

}  // namespace

int run_replay(const Args& a) {
  const std::vector<Job> jobs = load_jobs(a.str("jobs"));
  const double seconds = a.num("seconds");
  const std::string work = a.str("work");
  const std::string out_dir = a.str("outputs");  // first traced pass only

  // One untraced replay pass, then traced passes until `seconds` is used
  // (at least one).  Both start from an empty store, as each CLI pass does.
  Tracer off(false);
  Tracer tr(true);
  Json passes = Json::array();
  std::uint64_t failures = 0;
  std::uint64_t attempted = 0;
  const double t_end = now_s() + seconds;
  for (int pass = 0; pass < 2 || now_s() < t_end; ++pass) {
    const bool traced = pass > 0;
    const std::string store_dir = work + "/replay-store-" + std::to_string(pass);
    std::filesystem::remove_all(store_dir);
    Replay r(traced ? tr : off, store_dir);
    const std::size_t mark = tr.mark();
    const double t0 = now_s();
    for (const Job& job : jobs) {
      ++attempted;
      std::string out;
      try {
        out = r.run(job);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "replay: job %lld (%s %s): %s\n",
                     static_cast<long long>(job.id), job.cmd.c_str(),
                     job.prog.c_str(), e.what());
        ++failures;
      }
      if (pass == 1) {
        write_file(out_dir + "/" + std::to_string(job.id) + ".out", out);
      }
    }
    const double wall = now_s() - t0;
    failures += r.failures();
    std::filesystem::remove_all(store_dir);
    Json p = Json::object();
    p.set("traced", Json::boolean(traced));
    p.set("wall_s", num(wall));
    if (traced) p.set("layers", num_map(tr.take_pass(mark)));
    passes.push_back(std::move(p));
  }
  tr.write(a.str("spans"));

  Json doc = Json::object();
  doc.set("meta", build_meta());
  doc.set("attempted", Json::number(attempted));
  doc.set("failed", Json::number(failures));
  doc.set("passes", std::move(passes));
  write_file(a.str("out"), doc.dump_string());
  return 0;
}

int run_trace_check(const Args& a) {
  // --pairs: JSON list of [text trace path, `store get` output path].
  const Json pairs = Json::parse(read_file(a.str("pairs")));
  Json bad = Json::array();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const std::string text_path = pairs.at(i).at(0).as_string();
    const std::string v2_path = pairs.at(i).at(1).as_string();
    bool ok = false;
    try {
      std::istringstream text(read_file(text_path));
      std::istringstream v2(read_file(v2_path));
      ok = canonical_text(trace::load_text(text)) ==
           canonical_text(store::load_v2(v2));
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) bad.push_back(Json::string(v2_path));
  }
  Json doc = Json::object();
  doc.set("mismatched", std::move(bad));
  write_file(a.str("out"), doc.dump_string());
  return 0;
}

}  // namespace pb
