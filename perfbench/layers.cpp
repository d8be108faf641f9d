// Per-layer unit costs for the traced run: each probe times calls into one
// layer's public functions on fixed inputs, in batches large enough that the
// clock reads are negligible. The explore.accounting_ratio model multiplies
// these costs by the per-state counts of a traced sweep (workloads.cpp).
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algo/one_concurrent.hpp"
#include "core/campaign.hpp"
#include "core/corpus.hpp"
#include "core/diskset.hpp"
#include "core/monitors.hpp"
#include "core/workpool.hpp"
#include "perfbench.hpp"
#include "sim/channel.hpp"
#include "sim/world.hpp"
#include "tasks/set_agreement.hpp"

namespace perfbench {
namespace {

using namespace efd;

/// Keeps probe results observable so the timed calls cannot be elided.
volatile std::uint64_t g_sink = 0;

/// World::step over 7 one_concurrent processes of (7,2)-set-agreement,
/// round-robin until every process finished. The schedule and its op mix are
/// found in an untimed pass; the timed pass replays the same pids on a fresh
/// world, so only step() calls are inside the clock reads.
void probe_world(LayerCosts& c) {
  constexpr int kN = 7;
  const TaskPtr task = std::make_shared<SetAgreementTask>(kN, 2);
  std::vector<ProcBody> bodies;
  for (int i = 0; i < kN; ++i) {
    bodies.push_back(make_one_concurrent(task, Value(i), "perfbench/layer"));
  }
  const auto fresh = [&] {
    World w = World::failure_free(1);
    for (int i = 0; i < kN; ++i) w.spawn_c(i, bodies[static_cast<std::size_t>(i)]);
    return w;
  };
  std::vector<Pid> sched;
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  {
    World w = fresh();
    for (bool live = true; live;) {
      live = false;
      for (int i = 0; i < kN; ++i) {
        const PendingOp* op = w.pending_op(cpid(i));
        if (op == nullptr) continue;
        live = true;
        reads += op->kind == OpKind::kRead ? 1 : 0;
        writes += op->kind == OpKind::kWrite ? 1 : 0;
        sched.push_back(cpid(i));
        w.step(cpid(i));
      }
    }
  }
  double t = 0;
  std::int64_t runs = 0;
  const auto per_run = static_cast<std::int64_t>(sched.size());
  while (runs * per_run < 400000) {
    World w = fresh();
    const double a = wall_now();
    for (const Pid p : sched) w.step(p);
    t += wall_now() - a;
    g_sink = g_sink + static_cast<std::uint64_t>(w.now());
    ++runs;
  }
  const double steps = static_cast<double>(runs * per_run);
  c.step_ns = t * 1e9 / steps;
  const double apply_ns =
      (static_cast<double>(reads) * c.read_ns + static_cast<double>(writes) * c.write_ns) /
      static_cast<double>(per_run);
  c.resume_ns = std::max(0.0, c.step_ns - apply_ns);
}

/// RegisterFile::write / undo_write / read over 64 registers, undone LIFO in
/// batches exactly like the explorer's undo log.
void probe_memory(LayerCosts& c) {
  constexpr std::size_t kRegs = 64;
  constexpr std::size_t kBatch = 4096;
  RegisterFile m;
  const Sym base = sym("perfbench/layer/M");
  std::vector<RegAddr> addrs;
  for (std::size_t i = 0; i < kRegs; ++i) addrs.push_back(reg(base, static_cast<int>(i)));
  for (const RegAddr a : addrs) m.write(a, Value(-1));
  std::vector<Value> vals(kBatch);
  std::vector<Value> prev(kBatch);
  for (std::size_t j = 0; j < kBatch; ++j) {
    const auto v = static_cast<std::int64_t>(j);
    vals[j] = Value(v);
    prev[j] = j >= kRegs ? Value(v - static_cast<std::int64_t>(kRegs)) : Value(-1);
  }
  double tw = 0;
  double tu = 0;
  double tr = 0;
  constexpr int kRounds = 500;
  std::int64_t sink = 0;
  for (int r = 0; r < kRounds; ++r) {
    const double a = wall_now();
    for (std::size_t j = 0; j < kBatch; ++j) m.write(addrs[j % kRegs], vals[j]);
    const double b = wall_now();
    for (std::size_t j = kBatch; j-- > 0;) m.undo_write(addrs[j % kRegs], prev[j], true);
    const double d = wall_now();
    for (std::size_t j = 0; j < kBatch; ++j) sink += m.read(addrs[j % kRegs]).int_or(0);
    tr += wall_now() - d;
    tw += b - a;
    tu += d - b;
  }
  g_sink = g_sink + static_cast<std::uint64_t>(sink) + m.content_hash();
  const double ops = static_cast<double>(kRounds) * kBatch;
  c.write_ns = tw * 1e9 / ops;
  c.undo_write_ns = tu * 1e9 / ops;
  c.read_ns = tr * 1e9 / ops;
}

/// World::state_hash(), the public part of the explorer's configuration
/// signature, over 64 worlds with distinct memory so no call can be hoisted.
/// The per-process chain fold that completes the signature is internal to
/// core/solvability and is not timed (README.md, "Stage accounting").
void probe_fold(LayerCosts& c) {
  constexpr std::size_t kWorlds = 64;
  const Sym base = sym("perfbench/layer/F");
  std::vector<World> worlds;
  for (std::size_t j = 0; j < kWorlds; ++j) {
    World w = World::failure_free(1);
    for (int i = 0; i < 16; ++i) w.memory().write(reg(base, i), Value(i + static_cast<int>(j)));
    worlds.push_back(std::move(w));
  }
  constexpr std::size_t kOps = 4000000;
  std::uint64_t acc = 0;
  const double a = wall_now();
  for (std::size_t k = 0; k < kOps; ++k) acc += worlds[k % kWorlds].state_hash();
  c.fold_ns = (wall_now() - a) * 1e9 / kOps;
  g_sink = g_sink + acc;
}

/// 2^21 signatures, ~46% repeats (the sweep's dedup hit ratio).
std::vector<std::uint64_t> probe_keys() {
  constexpr std::size_t kKeys = std::size_t{1} << 21;
  std::vector<std::uint64_t> keys(kKeys);
  std::uint64_t s = 0x5EED;
  for (std::size_t j = 0; j < kKeys; ++j) {
    s = mix(s);
    keys[j] = (j > 0 && s % 100 < 46) ? keys[(s >> 8) % j] : (mix(s ^ 0xABCD) | 1);
  }
  return keys;
}

template <class Set>
double time_inserts(Set& set, const std::vector<std::uint64_t>& keys) {
  std::uint64_t fresh = 0;
  const double a = wall_now();
  for (const std::uint64_t k : keys) fresh += set.insert(k) ? 1 : 0;
  const double t = wall_now() - a;
  g_sink = g_sink + fresh;
  return t * 1e9 / static_cast<double>(keys.size());
}

void probe_sigsets(const Options& opt, LayerCosts& c, Result& res) {
  const std::vector<std::uint64_t> keys = probe_keys();
  {
    FlatSigSet flat;
    c.flat_insert_ns = time_inserts(flat, keys);
  }
  {
    const auto sharded = std::make_unique<ShardedSigSet>();
    c.sharded_insert_ns_x1 = time_inserts(*sharded, keys);
  }
  {
    const auto sharded = std::make_unique<ShardedSigSet>();
    const int p = opt.threads;
    std::atomic<bool> go{false};
    std::atomic<std::int64_t> fresh{0};
    std::vector<std::thread> crew;
    for (int t = 0; t < p; ++t) {
      crew.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        std::int64_t f = 0;
        const auto stride = static_cast<std::size_t>(p);
        for (auto j = static_cast<std::size_t>(t); j < keys.size(); j += stride) {
          f += sharded->insert(keys[j]) ? 1 : 0;
        }
        fresh.fetch_add(f, std::memory_order_relaxed);
      });
    }
    const double a = wall_now();
    go.store(true, std::memory_order_release);
    for (std::thread& th : crew) th.join();
    const double wall = wall_now() - a;
    c.sharded_insert_ns_par = wall * 1e9 * p / static_cast<double>(keys.size());
    res.check(static_cast<std::size_t>(fresh.load()) == sharded->size(),
              "sharded set: concurrent first-inserts match its size");
  }
  {
    DedupConfig cfg;
    cfg.disk_tier = true;
    cfg.mem_budget_bytes = 4u << 20;
    cfg.spill_dir = opt.tmp + "/layer-spill";
    std::filesystem::create_directories(cfg.spill_dir);
    {
      TieredSigSet tiered(cfg);
      c.diskset_insert_ns = time_inserts(tiered, keys);
      FlatSigSet ref;
      std::size_t unique = 0;
      for (const std::uint64_t k : keys) unique += ref.insert(k) ? 1 : 0;
      res.check(tiered.size() == unique, "tiered set: unique count matches the flat set");
    }
    res.check(dir_empty(cfg.spill_dir), "tiered set: spill dir empty after destruction");
  }
}

void probe_pools(const Options& opt, LayerCosts& c, Result& res) {
  const int p = opt.threads;
  const auto batch = static_cast<std::size_t>(4 * p);
  std::atomic<std::int64_t> ran{0};
  const auto make = [&] {
    return std::vector<std::function<void()>>(
        batch, [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  };
  constexpr int kSpawnRuns = 200;
  constexpr int kResidentRuns = 2000;
  double t = 0;
  for (int i = 0; i < kSpawnRuns; ++i) {
    auto tasks = make();
    const double a = wall_now();
    WorkStealingPool::run(std::move(tasks), p);
    t += wall_now() - a;
  }
  c.pool_dispatch_us = t * 1e6 / kSpawnRuns;
  ResidentPool pool(p);
  t = 0;
  for (int i = 0; i < kResidentRuns; ++i) {
    auto tasks = make();
    const double a = wall_now();
    pool.run(std::move(tasks));
    t += wall_now() - a;
  }
  c.resident_dispatch_us = t * 1e6 / kResidentRuns;
  res.check(ran.load() == static_cast<std::int64_t>(batch) * (kSpawnRuns + kResidentRuns),
            "pools: every dispatched task ran");
}

/// SetAgreementTask(7,2)::relation on partial output vectors, a quarter of
/// them violating (three distinct decisions).
void probe_relation(LayerCosts& c) {
  constexpr int kN = 7;
  const SetAgreementTask task(kN, 2);
  ValueVec in(kN);
  for (int i = 0; i < kN; ++i) in[static_cast<std::size_t>(i)] = Value(i);
  std::vector<ValueVec> outs;
  std::uint64_t s = 7;
  for (int v = 0; v < 64; ++v) {
    ValueVec out(kN);
    const int distinct = v % 4 == 0 ? 3 : 2;
    for (int i = 0; i < kN; ++i) {
      s = mix(s);
      if (s % 3 != 0) out[static_cast<std::size_t>(i)] = Value(static_cast<int>(s % distinct));
    }
    outs.push_back(std::move(out));
  }
  constexpr std::size_t kCalls = 1000000;
  std::uint64_t ok = 0;
  const double a = wall_now();
  for (std::size_t k = 0; k < kCalls; ++k) ok += task.relation(in, outs[k & 63]) ? 1 : 0;
  c.relation_ns = (wall_now() - a) * 1e9 / kCalls;
  g_sink = g_sink + ok;
}

/// ChannelFabric::deliver on a daemon-mode link: idle, then with drop, dup
/// and delay charges pending. Both variants drain the link the same way.
void probe_channel(LayerCosts& c) {
  const Sym mb = sym("perfbench/layer/mbox");
  const Sym ln = sym("perfbench/layer/link");
  const std::vector<RegAddr> mboxes = {reg(mb, 0), reg(mb, 1)};
  std::vector<RegAddr> links;
  for (int i = 0; i < 4; ++i) links.push_back(reg(ln, i));  // sender-major: link 0 = (0, mbox 0)
  ChannelFabric f(2, mboxes, links, false);
  // Short bursts, as in the message-passing scenarios: a mailbox's hash term
  // covers its whole pending FIFO, so long queues would dominate the probe.
  constexpr int kMsgs = 4;
  constexpr int kRounds = 50000;
  const auto run = [&](bool charged) {
    double t = 0;
    std::int64_t delivers = 0;
    std::int64_t sink = 0;
    for (int r = 0; r < kRounds; ++r) {
      for (int k = 0; k < kMsgs; ++k) f.send(cpid(0), mboxes[0], Value(k));
      if (charged) {
        f.charge_fault(links[0], LinkFaultKind::kDup, 1);
        f.charge_fault(links[0], LinkFaultKind::kDelay, 1);
        f.charge_fault(links[0], LinkFaultKind::kDrop, 1);
      }
      const double a = wall_now();
      while (f.in_flight(links[0]) > 0) {
        sink += f.deliver(links[0]).int_or(0);
        ++delivers;
      }
      t += wall_now() - a;
      while (!f.peek(mboxes[0]).is_nil()) sink += f.recv(mboxes[0]).int_or(0);
    }
    g_sink = g_sink + static_cast<std::uint64_t>(sink);
    return t * 1e9 / static_cast<double>(delivers);
  };
  c.deliver_ns = run(false);
  c.deliver_charged_ns = run(true);
}

void probe_monitor(LayerCosts& c) {
  MonitorBounds b;
  b.own_steps_to_decide = 1 << 30;
  b.starvation_window = 1 << 30;
  b.livelock_window = 1 << 30;
  LivenessMonitor mon(b);
  constexpr int kSteps = 2000000;
  const double a = wall_now();
  for (int k = 0; k < kSteps; ++k) {
    mon.on_step(cpid(k % 7), (k & 3) == 0 ? OpKind::kWrite : OpKind::kRead, false, false, false);
  }
  c.observe_ns = (wall_now() - a) * 1e9 / kSteps;
  g_sink = g_sink + static_cast<std::uint64_t>(mon.monitored_steps());
}

/// In-memory CorpusStore::insert of a real finding tape under distinct keys.
void probe_corpus(const Options& opt, LayerCosts& c, Result& res) {
  ScheduleTape tape;
  for (const CampaignTarget& t : campaign_targets()) {
    if (t.expect_clean) continue;
    for (int i = 0; i < 200 && tape.steps.empty(); ++i) {
      const std::uint64_t ps = campaign_plan_seed(opt.seed, t.name, i);
      const PlanOutcome out = run_plan(t, FaultPlan::sample(ps, t.space), ps, true);
      if (out.violated()) tape = out.tape;
    }
    break;
  }
  res.check(!tape.steps.empty(), "corpus probe: a seeded bug produced a finding tape");
  CorpusStore store;
  constexpr int kInserts = 20000;
  int fresh = 0;
  const double a = wall_now();
  for (int i = 0; i < kInserts; ++i) {
    fresh += store.insert(mix(static_cast<std::uint64_t>(i)), tape, "probe") ? 1 : 0;
  }
  c.corpus_insert_us = (wall_now() - a) * 1e6 / kInserts;
  res.check(fresh == kInserts && store.size() == static_cast<std::size_t>(kInserts),
            "corpus probe: distinct keys all inserted");
}

}  // namespace

LayerCosts measure_layers(const Options& opt, Result& res) {
  LayerCosts c;
  probe_memory(c);  // first: probe_world derives resume = step - apply
  probe_world(c);
  probe_fold(c);
  probe_sigsets(opt, c, res);
  probe_pools(opt, c, res);
  probe_relation(c);
  probe_channel(c);
  probe_monitor(c);
  probe_corpus(opt, c, res);
  return c;
}

void add_layer_metrics(const LayerCosts& c, Result& res) {
  res.add("world.step_ns", c.step_ns, "ns");
  res.add("proc.resume_ns", c.resume_ns, "ns");
  res.add("memory.read_ns", c.read_ns, "ns");
  res.add("memory.write_ns", c.write_ns, "ns");
  res.add("memory.undo_write_ns", c.undo_write_ns, "ns");
  res.add("sig.fold_ns", c.fold_ns, "ns");
  res.add("sigset.flat_insert_ns", c.flat_insert_ns, "ns");
  res.add("sigset.sharded_insert_ns_x1", c.sharded_insert_ns_x1, "ns");
  res.add("sigset.sharded_insert_ns_par", c.sharded_insert_ns_par, "ns");
  res.add("diskset.insert_ns", c.diskset_insert_ns, "ns");
  res.add("workpool.dispatch_us", c.pool_dispatch_us, "us");
  res.add("workpool.resident_dispatch_us", c.resident_dispatch_us, "us");
  res.add("task.relation_ns", c.relation_ns, "ns");
  res.add("channel.deliver_ns", c.deliver_ns, "ns");
  res.add("channel.deliver_charged_ns", c.deliver_charged_ns, "ns");
  res.add("monitors.observe_ns", c.observe_ns, "ns");
  res.add("corpus.insert_us", c.corpus_insert_us, "us");
}

}  // namespace perfbench
