// Workload `fig6`: the paper's Fig. 1 / Fig. 6 pipeline in one process.
//
// For each of the five C++ apps, one at a time, apps::Harness traces the
// unannotated program on one input, builds the Cachier plans and measures
// {None, Cachier, CachierPf} on another input, at 32 simulated Dir1SW
// nodes with the default (Fig. 6) caches.  Untraced passes time that
// through Harness::run_variants.  A traced pass repeats run_variants call
// for call with its own sim::Machine, so it can read host_*_seconds(),
// stats() and rusage around every Machine::run; its cycles must equal the
// Harness pass exactly unless the program took another path (see
// check_same below).
#include <cmath>
#include <functional>
#include <memory>

#include "apps/barnes.hpp"
#include "apps/matmul.hpp"
#include "apps/mp3d.hpp"
#include "apps/ocean.hpp"
#include "apps/runner.hpp"
#include "apps/tomcatv.hpp"
#include "cico/cachier/plan_builder.hpp"
#include "cico/cachier/sharing.hpp"
#include "common.hpp"

namespace pb {

using cico::obs::Json;
using namespace cico;
using apps::Variant;

namespace {

struct AppSpec {
  const char* name;
  std::string input;          ///< the input size, for the meta line
  const char* paper_cachier;  ///< paper section 6 ratio, context only
  const char* paper_cachier_pf;
  apps::AppFactory make;
  /// Unannotated data races decide control flow, so the simulated path
  /// (and with it the cycles) follows host thread scheduling.
  bool racy = false;
};

/// Fixed inputs: the bench_fig6 apps cut down to about 3.5 s per pass on
/// one CPU.  matmul, tomcatv and ocean sit at the smallest shape their
/// decomposition at 32 nodes allows (matmul's 8x4 grid, >= 32 rows and
/// columns, an even ocean grid); barnes and mp3d keep ~1/10 of the
/// bench_fig6 bodies and molecules.
std::vector<AppSpec> fig6_apps() {
  std::vector<AppSpec> v;
  {
    apps::MatMulConfig c;
    c.n = 32;
    v.push_back({"matmul", "n=" + std::to_string(c.n), "0.84", "0.80", [c](std::uint64_t s) {
                   return std::make_unique<apps::MatMul>(c, s);
                 }});
  }
  {
    apps::BarnesConfig c;
    c.bodies = 102;
    c.steps = 2;
    v.push_back({"barnes",
                 "bodies=" + std::to_string(c.bodies) +
                     " steps=" + std::to_string(c.steps),
                 "0.89", "0.89",
                 [c](std::uint64_t s) {
                   return std::make_unique<apps::Barnes>(c, s);
                 }});
  }
  {
    apps::TomcatvConfig c;
    c.rows = 64;
    c.cols = 32;
    c.iters = 4;
    v.push_back({"tomcatv",
                 std::to_string(c.rows) + "x" + std::to_string(c.cols) +
                     " iters=" + std::to_string(c.iters),
                 "1.00", "1.00",
                 [c](std::uint64_t s) {
                   return std::make_unique<apps::Tomcatv>(c, s);
                 }});
  }
  {
    apps::OceanConfig c;
    c.n = 64;
    c.iters = 6;
    v.push_back({"ocean",
                 "n=" + std::to_string(c.n) +
                     " iters=" + std::to_string(c.iters),
                 "0.80", "0.75",
                 [c](std::uint64_t s) {
                   return std::make_unique<apps::Ocean>(c, s);
                 }});
  }
  {
    apps::Mp3dConfig c;
    c.molecules = 409;
    c.steps = 6;
    v.push_back({"mp3d",
                 "molecules=" + std::to_string(c.molecules) +
                     " steps=" + std::to_string(c.steps),
                 "0.75", "0.75",
                 [c](std::uint64_t s) {
                   return std::make_unique<apps::Mp3d>(c, s);
                 },
                 /*racy=*/true});
  }
  return v;
}

const std::vector<Variant> kVariants = {Variant::None, Variant::Cachier,
                                        Variant::CachierPf};

std::uint64_t refs_of(const apps::RunResult& r) {
  return r.stat(Stat::SharedLoads) + r.stat(Stat::SharedStores);
}

Json result_json(const apps::RunResult& r) {
  Json j = Json::object();
  j.set("app", Json::string(r.app));
  j.set("variant", Json::string(r.variant));
  j.set("cycles", Json::number(static_cast<std::uint64_t>(r.time)));
  j.set("verified", Json::boolean(r.verified));
  j.set("refs", Json::number(refs_of(r)));
  return j;
}

/// Machine::run with the sim-layer span, rusage deltas and stat counts.
void traced_run(Tracer& tr, sim::Machine& m,
                const std::function<void(sim::Proc&)>& body) {
  const Usage u0 = self_usage();
  {
    Span s(tr, "sim.run");
    m.run(body);
  }
  count_sim(tr, m, u0, self_usage());
}

/// Harness::collect_trace + build_plan, call for call.
sim::DirectivePlan traced_plan(Tracer& tr, const AppSpec& a,
                               const apps::HarnessConfig& hc,
                               const cachier::PlanOptions& opt) {
  sim::SimConfig sc = hc.sim;
  sc.trace_mode = hc.flush_at_barriers;
  sim::Machine m(sc);
  trace::TraceWriter w;
  m.set_trace_writer(&w);
  auto app = a.make(hc.trace_seed);
  app->setup(m, Variant::None);
  w.set_labels(m.heap().trace_labels());
  traced_run(tr, m, [&](sim::Proc& p) { app->body(p); });
  const trace::Trace t = w.take();
  tr.count("cachier.trace_misses", static_cast<double>(t.misses.size()));
  {
    Span s(tr, "cachier.sharing");
    const cachier::SharingAnalyzer sa(t, hc.sim.cache);
    (void)sa.report(t, m.pcs());
  }
  Span s(tr, "cachier.plan");
  tr.count("cachier.plan_calls", 1);
  const cachier::PlanBuilder pbld(t, hc.sim.cache);
  return pbld.build(opt);
}

/// Harness::measure, call for call.
apps::RunResult traced_measure(Tracer& tr, const AppSpec& a,
                               const apps::HarnessConfig& hc, Variant v,
                               const sim::DirectivePlan* plan) {
  sim::Machine m(hc.sim);
  if (plan != nullptr) m.set_plan(plan);
  auto app = a.make(hc.measure_seed);
  app->setup(m, v);
  traced_run(tr, m, [&](sim::Proc& p) { app->body(p); });
  apps::RunResult r;
  r.app = std::string(app->name());
  r.variant = apps::variant_name(v);
  r.time = m.exec_time();
  r.verified = app->verify();
  for (std::size_t s = 0; s < kStatCount; ++s) {
    r.totals[s] = m.stats().total(static_cast<Stat>(s));
  }
  return r;
}

/// Harness::run_variants({None, Cachier, CachierPf}), call for call.
std::vector<apps::RunResult> traced_variants(Tracer& tr, const AppSpec& a,
                                             const apps::HarnessConfig& hc) {
  std::vector<apps::RunResult> out;
  out.push_back(traced_measure(tr, a, hc, Variant::None, nullptr));
  const sim::DirectivePlan plan =
      traced_plan(tr, a, hc, {.mode = cachier::Mode::Performance});
  out.push_back(traced_measure(tr, a, hc, Variant::Cachier, &plan));
  const sim::DirectivePlan plan_pf = traced_plan(
      tr, a, hc, {.mode = cachier::Mode::Performance, .prefetch = true});
  out.push_back(traced_measure(tr, a, hc, Variant::CachierPf, &plan_pf));
  return out;
}

/// Untimed warm-up: one small simulation, so the first pass does not pay
/// for page faults and lazy initialisation.
void warm_up() {
  apps::MatMulConfig c;
  c.n = 32;
  apps::HarnessConfig hc;
  hc.sim.nodes = 32;
  apps::Harness h([c](std::uint64_t s) {
    return std::make_unique<apps::MatMul>(c, s);
  }, hc);
  (void)h.measure(Variant::None);
}

}  // namespace

int run_fig6(const Args& a) {
  const auto seed = static_cast<std::uint64_t>(a.num("seed"));
  const double seconds = a.num("seconds");
  const bool traced = a.num("trace") != 0;
  const std::string out_path = a.str("out");
  const std::string spans_path = a.str("spans");

  apps::HarnessConfig hc;  // fig6_config(): 32 nodes, default caches
  hc.sim.nodes = 32;
  hc.trace_seed = 2 * seed + 1;
  hc.measure_seed = 2 * seed + 2;

  Json passes = Json::array();
  Json traced_passes = Json::array();
  Json failures = Json::array();
  std::uint64_t attempted = 0;
  std::vector<apps::RunResult> first;  // cycles every later pass must match
  std::vector<AppSpec> specs;

  // Simulated cycles must repeat exactly across passes and in the traced
  // replay, except for a racy app: mp3d's unannotated cell scatter races
  // (as in SPLASH), hits run unsynchronised inside a window, and the racy
  // cell values decide collide's branch and the molecules' later cells,
  // so its references, misses and sometimes its cycles follow host
  // thread scheduling.  A racy app's cycles must stay within
  // kRacyDriftLimit of the first pass; any drift is named under
  // host_dependent.  Stat totals may drift on any app: they are noted,
  // and fail nothing while the cycles agree.
  constexpr double kRacyDriftLimit = 0.01;
  Json notes = Json::array();
  std::uint64_t cycle_drifts = 0;
  const auto racy = [&](const std::string& app) {
    for (const AppSpec& s : specs) {
      if (app == s.name) return s.racy;
    }
    return false;
  };
  const auto check_same = [&](const std::vector<apps::RunResult>& rs,
                              const char* what) {
    for (std::size_t i = 0; i < rs.size(); ++i) {
      std::string where = what;
      where.append(": ").append(rs[i].app).append("/").append(rs[i].variant);
      std::string drift;
      for (std::size_t s = 0; s < kStatCount; ++s) {
        if (rs[i].totals[s] != first[i].totals[s]) {
          drift.append(" ").append(stat_name(static_cast<Stat>(s)));
        }
      }
      if (rs[i].time != first[i].time) {
        ++cycle_drifts;
        drift.append(" cycles ").append(std::to_string(first[i].time));
        drift.append("->").append(std::to_string(rs[i].time));
        const double t0 = static_cast<double>(first[i].time);
        const double dt = static_cast<double>(rs[i].time) - t0;
        if (!racy(rs[i].app) || std::abs(dt) > kRacyDriftLimit * t0) {
          failures.push_back(Json::string(where + " cycles differ"));
        }
      }
      if (!drift.empty()) notes.push_back(Json::string(where + drift));
    }
  };

  // Untraced passes take the whole run, or half of it when a traced run
  // follows (the traced passes then use the rest; one of each at least).
  const double t_start = now_s();
  const double untraced_until = t_start + (traced ? seconds / 2 : seconds);
  while (passes.size() == 0 || now_s() < untraced_until) {
    const double s0 = now_s();
    specs = fig6_apps();
    warm_up();
    const double setup = now_s() - s0;

    const Usage u0 = self_usage();
    const double t0 = now_s();
    std::vector<apps::RunResult> rs;
    Json per_app = Json::array();
    for (const AppSpec& spec : specs) {
      const double a0 = now_s();
      apps::Harness h(spec.make, hc);
      for (apps::RunResult& r : h.run_variants(kVariants)) {
        rs.push_back(std::move(r));
      }
      Json pa = Json::object();
      pa.set("app", Json::string(spec.name));
      pa.set("wall_s", num(now_s() - a0));
      per_app.push_back(std::move(pa));
    }
    const double wall = now_s() - t0;
    const Usage u1 = self_usage();

    Json results = Json::array();
    std::uint64_t refs = 0;
    for (const apps::RunResult& r : rs) {
      ++attempted;
      if (!r.verified) {
        failures.push_back(
            Json::string("verify failed: " + r.app + "/" + r.variant));
      }
      refs += refs_of(r);
      results.push_back(result_json(r));
    }
    if (first.empty()) {
      first = rs;
    } else {
      check_same(rs, "pass determinism");
    }
    Json p = Json::object();
    p.set("setup_s", num(setup));
    p.set("wall_s", num(wall));
    p.set("cpu_s", num(u1.cpu_s() - u0.cpu_s()));
    // The process's peak so far: it grows over the passes of a run (the
    // first pass's is the comparable one).
    p.set("peak_rss_kb", Json::number(u1.maxrss_kb));
    p.set("refs", Json::number(refs));
    p.set("apps", std::move(per_app));
    p.set("results", std::move(results));
    passes.push_back(std::move(p));
  }

  Tracer tr(true);
  const double traced_until = t_start + seconds;
  while (traced &&
         (traced_passes.size() == 0 || now_s() < traced_until)) {
    const std::size_t mark = tr.mark();
    const double t0 = now_s();
    std::vector<apps::RunResult> rs;
    std::int64_t job = 0;
    for (const AppSpec& spec : specs) {
      Span s(tr, "bench.job", job++);
      for (apps::RunResult& r : traced_variants(tr, spec, hc)) {
        rs.push_back(std::move(r));
      }
    }
    const double wall = now_s() - t0;
    attempted += rs.size();
    check_same(rs, "traced replay vs Harness");
    Json p = Json::object();
    p.set("wall_s", num(wall));
    p.set("layers", num_map(tr.take_pass(mark)));
    traced_passes.push_back(std::move(p));
  }
  if (traced && !spans_path.empty()) tr.write(spans_path);

  Json paper = Json::object();
  Json inputs = Json::object();
  for (const AppSpec& s : specs) {
    inputs.set(s.name, Json::string(s.input));
    Json row = Json::object();
    row.set("cachier", Json::string(s.paper_cachier));
    row.set("cachier+pf", Json::string(s.paper_cachier_pf));
    paper.set(s.name, std::move(row));
  }
  Json meta = build_meta();
  meta.set("inputs", std::move(inputs));
  meta.set("nodes", Json::number(std::uint64_t{hc.sim.nodes}));
  meta.set("trace_seed", Json::number(hc.trace_seed));
  meta.set("measure_seed", Json::number(hc.measure_seed));
  meta.set("paper_fig6", std::move(paper));

  Json doc = Json::object();
  doc.set("meta", std::move(meta));
  doc.set("attempted", Json::number(attempted));
  doc.set("failures", std::move(failures));
  doc.set("host_dependent", std::move(notes));
  doc.set("cycle_drifts", Json::number(cycle_drifts));
  doc.set("passes", std::move(passes));
  doc.set("traced", std::move(traced_passes));
  write_file(out_path, doc.dump_string());
  return 0;
}

}  // namespace pb
