// Tests for the telemetry layer: RunStats (sim/stats.hpp), AdmissionStats,
// ExploreStats determinism across thread counts and against the full-replay
// oracle (tests/support/explore_oracle.hpp), and the
// telemetry::Json / BenchEmitter machinery behind BENCH_E<n>.json.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "algo/one_concurrent.hpp"
#include "core/solvability.hpp"
#include "core/telemetry.hpp"
#include "fd/detectors.hpp"
#include "sim/schedule.hpp"
#include "sim/stats.hpp"
#include "sim/world.hpp"
#include "support/explore_oracle.hpp"
#include "support/outcome_eq.hpp"
#include "tasks/set_agreement.hpp"

namespace efd {
namespace {

Proc count_steps(Context& ctx) {
  for (int i = 0; i < 100; ++i) co_await ctx.yield();
}

Proc decide_after(Context& ctx, int steps) {
  for (int i = 0; i < steps; ++i) co_await ctx.yield();
  co_await ctx.decide(Value(steps));
}

Proc mixed_ops(Context& ctx) {
  co_await ctx.write(reg("tel/R", ctx.pid().index), Value(1));
  const Value v = co_await ctx.read(reg("tel/R", ctx.pid().index));
  co_await ctx.decide(v);
}

// ---------------------------------------------------------------------------
// RunStats
// ---------------------------------------------------------------------------

TEST(RunStats, OpCountersSumToTraceLength) {
  World w = World::failure_free(1);
  w.enable_trace();
  w.spawn_c(0, mixed_ops);
  w.spawn_c(1, [](Context& ctx) { return decide_after(ctx, 2); });
  for (int i = 0; i < 3; ++i) w.step(cpid(0));
  for (int i = 0; i < 3; ++i) w.step(cpid(1));
  w.step(cpid(0));  // null step: already terminated
  const RunStats& st = w.run_stats();
  EXPECT_EQ(st.steps, static_cast<std::int64_t>(w.trace().size()));
  EXPECT_EQ(st.op_total(), st.steps);
  EXPECT_EQ(st.reads, 1);
  EXPECT_EQ(st.writes, 1);
  EXPECT_EQ(st.yields, 2);
  EXPECT_EQ(st.decides, 2);
  EXPECT_EQ(st.null_steps, 1);
}

TEST(RunStats, CrashedAttemptsStayOutsideTheInvariant) {
  FailurePattern f(2);
  f.crash(0, 0);
  World w(f, TrivialFd{}.history(f, 0));
  w.enable_trace();
  w.spawn_s(0, count_steps);  // crashed from time 0
  w.spawn_s(1, count_steps);
  for (int i = 0; i < 4; ++i) w.step(spid(0));  // refused: no step, no record
  for (int i = 0; i < 3; ++i) w.step(spid(1));
  const RunStats& st = w.run_stats();
  EXPECT_EQ(st.crashed_attempts, 4);
  EXPECT_EQ(st.steps, 3);
  EXPECT_EQ(st.steps, static_cast<std::int64_t>(w.trace().size()));
  EXPECT_EQ(st.op_total(), st.steps);
}

TEST(RunStats, FormatRunReportMentionsTheMix) {
  World w = World::failure_free(1);
  w.enable_trace();
  w.spawn_c(0, mixed_ops);
  for (int i = 0; i < 3; ++i) w.step(cpid(0));
  const std::string report = format_run_report(w);
  EXPECT_NE(report.find("steps"), std::string::npos);
  EXPECT_NE(report.find("decided"), std::string::npos);
}

// ---------------------------------------------------------------------------
// AdmissionStats
// ---------------------------------------------------------------------------

TEST(AdmissionStats, CountsAdmissionsAndRetirements) {
  World w = World::failure_free(1);
  std::vector<int> arrival;
  for (int i = 0; i < 5; ++i) {
    arrival.push_back(i);
    w.spawn_c(i, [](Context& ctx) { return decide_after(ctx, 4); });
  }
  KConcurrencyScheduler ks(2, arrival, 0);
  const auto r = drive(w, ks, 10000);
  ASSERT_TRUE(r.all_c_decided);
  const AdmissionStats& st = ks.admission_stats();
  EXPECT_EQ(st.admitted, 5);
  // Retirements are counted when the window refreshes; drive() stops as soon
  // as the last process decides, before any further refresh, so up to
  // `peak_active` just-finished processes are still counted as active.
  EXPECT_GE(st.retired, st.admitted - st.peak_active);
  EXPECT_LE(st.retired, st.admitted);
  EXPECT_LE(st.peak_active, 2);
  EXPECT_GE(st.peak_active, 1);
}

// ---------------------------------------------------------------------------
// ExploreStats
// ---------------------------------------------------------------------------

/// The (3,2)-set-agreement level-2 sweep, by the explorer at `threads`
/// threads or by the full-replay oracle.
ExploreOutcome sweep(int threads, bool oracle = false) {
  auto task = std::make_shared<SetAgreementTask>(3, 2);
  ValueVec in(3);
  for (int i = 0; i < 3; ++i) in[static_cast<std::size_t>(i)] = Value(i);
  auto body = [task](int, Value input) { return make_one_concurrent(task, input, "tel"); };
  ExploreConfig cfg;
  cfg.k = 2;
  cfg.arrival = {0, 1, 2};
  cfg.max_states = 200000;
  cfg.threads = threads;
  return oracle ? explore_full_replay(task, body, in, cfg)
                : explore_k_concurrent(task, body, in, cfg);
}

TEST(ExploreStats, MirrorsTheOutcome) {
  const ExploreOutcome o = sweep(1);
  ASSERT_TRUE(o.ok);
  ASSERT_FALSE(o.budget_exhausted);
  EXPECT_EQ(o.stats.states, o.states);
  EXPECT_EQ(o.stats.terminal_runs, o.terminal_runs);
  EXPECT_GT(o.stats.dedup_queries, 0);
  EXPECT_GT(o.stats.dedup_misses, 0);
  EXPECT_LE(o.stats.dedup_misses, o.stats.dedup_queries);
  EXPECT_EQ(o.stats.dedup_hits, o.stats.dedup_queries - o.stats.dedup_misses);
  EXPECT_GT(o.stats.max_undo_depth, 0);
  EXPECT_GT(o.stats.respawns, 0);  // k=2 backtracking must rebuild frames
  EXPECT_EQ(o.stats.threads, 1);
}

TEST(ExploreStats, DeterministicSubsetMatchesAcrossEngines) {
  const ExploreOutcome full = sweep(1, /*oracle=*/true);
  const ExploreOutcome inc = sweep(1);
  ASSERT_TRUE(full.ok);
  ASSERT_TRUE(inc.ok);
  expect_outcome_eq(full, inc, "full-replay oracle vs explorer");
  // The oracle has no undo log, so its run-shape fields stay zero.
  EXPECT_EQ(full.stats.respawns, 0);
  EXPECT_EQ(full.stats.max_undo_depth, 0);
}

TEST(ExploreStats, DeterministicSubsetMatchesAcrossThreadCounts) {
  const ExploreOutcome one = sweep(1);
  ASSERT_TRUE(one.ok);
  for (int threads : {2, 8}) {
    const ExploreOutcome many = sweep(threads);
    ASSERT_TRUE(many.ok) << threads;
    expect_outcome_eq(one, many, "1 thread vs parallel frontier");
    EXPECT_EQ(many.stats.threads, threads);
  }
}

TEST(ExploreStats, MergeSumsCountsAndMaxesDepth) {
  ExploreStats a;
  a.states = 10;
  a.terminal_runs = 2;
  a.dedup_queries = 7;
  a.dedup_misses = 5;
  a.dedup_hits = 2;
  a.max_undo_depth = 4;
  a.respawns = 1;
  a.threads = 1;
  ExploreStats b;
  b.states = 3;
  b.terminal_runs = 1;
  b.dedup_queries = 2;
  b.dedup_misses = 2;
  b.max_undo_depth = 9;
  b.threads = 4;
  a.merge(b);
  EXPECT_EQ(a.states, 13);
  EXPECT_EQ(a.terminal_runs, 3);
  EXPECT_EQ(a.dedup_queries, 9);
  EXPECT_EQ(a.dedup_misses, 7);
  EXPECT_EQ(a.dedup_hits, 2);
  EXPECT_EQ(a.max_undo_depth, 9);
  EXPECT_EQ(a.respawns, 1);
  EXPECT_EQ(a.threads, 4);
}

// ---------------------------------------------------------------------------
// telemetry::Json
// ---------------------------------------------------------------------------

TEST(TelemetryJson, DumpsInInsertionOrderAndLooksUpFields) {
  namespace tj = telemetry;
  tj::Json doc = tj::Json::object();
  doc["schema"] = tj::Json("efd-bench-v1");
  doc["count"] = tj::Json(static_cast<std::int64_t>(42));
  doc["rate"] = tj::Json(1.5);
  doc["flag"] = tj::Json(true);
  doc["escaped"] = tj::Json("tab\there \"quoted\" back\\slash\nnewline");
  tj::Json arr = tj::Json::array();
  arr.push_back(tj::Json(static_cast<std::int64_t>(1)));
  arr.push_back(tj::Json("two"));
  arr.push_back(tj::Json());
  doc["items"] = std::move(arr);

  EXPECT_EQ(doc.dump(0),
            R"({"schema":"efd-bench-v1","count":42,"rate":1.5,"flag":true,)"
            R"("escaped":"tab\there \"quoted\" back\\slash\nnewline","items":[1,"two",null]})");
  EXPECT_EQ(doc.find("count")->as_int(), 42);
  EXPECT_DOUBLE_EQ(doc.find("rate")->as_double(), 1.5);
  EXPECT_TRUE(doc.find("flag")->as_bool());
  EXPECT_EQ(doc.find("escaped")->as_string(), "tab\there \"quoted\" back\\slash\nnewline");
  ASSERT_EQ(doc.find("items")->size(), 3u);
  EXPECT_EQ(doc.find("items")->at(1).as_string(), "two");
  EXPECT_TRUE(doc.find("items")->at(2).is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

// ---------------------------------------------------------------------------
// telemetry::BenchEmitter
// ---------------------------------------------------------------------------

TEST(BenchEmitter, BuildsTheSchemaDocument) {
  telemetry::BenchEmitter em;
  em.set_experiment("ETEST");
  em.add_table("first", "a b");
  em.add_row("1 2\n");
  em.add_table("second", "c");
  em.add_row("3\n");
  em.record_benchmark("Bench/1", {{"steps", 12.0}, {"allocs_per_step", 0.5}});
  em.record_benchmark("Bench/2", {{"steps", 14.0}});

  const telemetry::Json doc = em.to_json();
  EXPECT_EQ(doc.find("schema")->as_string(), "efd-bench-v1");
  EXPECT_EQ(doc.find("experiment")->as_string(), "ETEST");
  EXPECT_FALSE(doc.find("git")->as_string().empty());
  ASSERT_EQ(doc.find("benchmarks")->size(), 2u);
  const telemetry::Json& b = doc.find("benchmarks")->at(0);
  EXPECT_EQ(b.find("name")->as_string(), "Bench/1");
  EXPECT_EQ(b.find("iterations"), nullptr);
  // Counters come out sorted by name.
  const telemetry::Json& counters = *b.find("counters");
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters.items()[0].first, "allocs_per_step");
  EXPECT_DOUBLE_EQ(counters.find("steps")->as_double(), 12.0);
  EXPECT_EQ(doc.find("benchmarks")->at(1).find("name")->as_string(), "Bench/2");
  ASSERT_EQ(doc.find("tables")->size(), 2u);
  EXPECT_EQ(doc.find("tables")->at(0).find("title")->as_string(), "first");
  EXPECT_EQ(doc.find("tables")->at(0).find("columns")->as_string(), "a b");
  EXPECT_EQ(doc.find("tables")->at(0).find("rows")->at(0).as_string(), "1 2");
  EXPECT_EQ(doc.find("tables")->at(1).find("rows")->at(0).as_string(), "3");
}

TEST(BenchEmitter, WritesTheFileWhereAsked) {
  telemetry::BenchEmitter em;
  em.set_experiment("ETESTFILE");
  em.record_benchmark("B", {{"x", 1.0}});
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(em.write_file(dir));
  const std::string path = dir + "/BENCH_ETESTFILE.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), em.to_json().dump(2) + "\n");
  std::remove(path.c_str());
}

TEST(BenchEmitter, EmptyEmitterWritesNothing) {
  telemetry::BenchEmitter em;
  em.set_experiment("ENOTHING");
  EXPECT_FALSE(em.write_file(::testing::TempDir()));
}

}  // namespace
}  // namespace efd
