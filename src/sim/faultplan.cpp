#include "sim/faultplan.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "sim/hash.hpp"
#include "sim/world.hpp"

namespace efd {
namespace {

const char* op_token(OpKind op) { return op == OpKind::kRead ? "read" : "write"; }

[[noreturn]] void plan_fail(const std::string& what) {
  throw std::invalid_argument("FaultPlan::parse: " + what);
}

}  // namespace

std::string FaultPlan::to_string() const {
  std::ostringstream os;
  os << "plan-v1";
  if (fd.kind != FdFaultKind::kNone) {
    os << "; fd " << efd::to_string(fd.kind) << ' ' << fd.gst << ' ' << fd.param;
  }
  for (const auto& c : storm) os << "; storm " << c.step_index << ' ' << c.s_index;
  for (const auto& t : triggers) {
    os << "; trig " << t.reg_prefix << ' ' << op_token(t.op) << ' ' << t.delay << ' '
       << t.occurrence;
  }
  for (const auto& b : bursts) {
    os << "; burst " << b.start_step << ' ' << b.length << ' ' << b.victim.to_string();
  }
  for (const auto& l : links) {
    os << "; link " << link_fault_token(l.kind) << ' ' << l.step << ' ' << l.from << ' '
       << l.to << ' ' << l.amount;
  }
  return os.str();
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::size_t pos = 0;
  bool first = true;
  while (pos <= text.size()) {
    std::size_t semi = text.find(';', pos);
    if (semi == std::string::npos) semi = text.size();
    std::istringstream seg(text.substr(pos, semi - pos));
    pos = semi + 1;
    std::string key;
    if (!(seg >> key)) {
      if (first) plan_fail("empty plan text");
      plan_fail("empty segment");
    }
    if (first) {
      if (key != "plan-v1") plan_fail("missing 'plan-v1' header, got '" + key + "'");
      std::string extra;
      if (seg >> extra) plan_fail("trailing token '" + extra + "' after header");
      first = false;
      if (pos > text.size()) break;
      continue;
    }
    if (key == "fd") {
      std::string kind;
      if (!(seg >> kind >> plan.fd.gst >> plan.fd.param) || plan.fd.gst < 0 ||
          plan.fd.param < 1) {
        plan_fail("fd: want '<kind> <gst> <param>'");
      }
      plan.fd.kind = fd_fault_kind_from(kind);  // throws on unknown kind
      if (plan.fd.kind == FdFaultKind::kNone) plan_fail("fd: kind 'none' is the default; drop the segment");
    } else if (key == "storm") {
      CrashPoint c;
      if (!(seg >> c.step_index >> c.s_index) || c.step_index < 0 || c.s_index < 0) {
        plan_fail("storm: want '<step> <qi>' (both >= 0)");
      }
      plan.storm.push_back(c);
    } else if (key == "trig") {
      CrashTrigger t;
      std::string op;
      if (!(seg >> t.reg_prefix >> op >> t.delay >> t.occurrence) || t.delay < 1 ||
          t.occurrence < 1) {
        plan_fail("trig: want '<prefix> <op> <delay>=1.. <occurrence>=1..'");
      }
      if (op == "read") {
        t.op = OpKind::kRead;
      } else if (op == "write") {
        t.op = OpKind::kWrite;
      } else {
        plan_fail("trig: op must be 'read' or 'write', got '" + op + "'");
      }
      plan.triggers.push_back(std::move(t));
    } else if (key == "burst") {
      StarvationBurst b;
      std::string victim;
      if (!(seg >> b.start_step >> b.length >> victim) || b.start_step < 0 || b.length < 1) {
        plan_fail("burst: want '<start>=0.. <len>=1.. <pid>'");
      }
      const auto pid = parse_pid(victim);
      if (!pid) plan_fail("burst: bad pid token '" + victim + "'");
      b.victim = *pid;
      plan.bursts.push_back(b);
    } else if (key == "link") {
      LinkAction l;
      std::string kind;
      if (!(seg >> kind >> l.step >> l.from >> l.to >> l.amount) || l.step < 0 || l.from < 0 ||
          l.to < 0 || l.amount < 1) {
        plan_fail("link: want '<kind> <step>=0.. <i>=0.. <j>=0.. <k>=1..'");
      }
      if (!parse_link_fault_token(kind, l.kind)) {
        plan_fail("link: unknown fault kind '" + kind + "'");
      }
      plan.links.push_back(l);
    } else {
      plan_fail("unknown segment '" + key + "'");
    }
    std::string extra;
    if (seg >> extra) plan_fail(key + ": trailing token '" + extra + "'");
    if (pos > text.size()) break;
  }
  if (first) plan_fail("empty plan text");
  return plan;
}

std::vector<LinkFaultPoint> FaultPlan::resolve_links() const {
  std::vector<LinkFaultPoint> out;
  out.reserve(links.size());
  for (const auto& l : links) {
    const std::string name =
        "ch[" + std::to_string(l.from) + "][" + std::to_string(l.to) + "]";
    if (l.kind == LinkFaultKind::kSever) {
      out.push_back(LinkFaultPoint{l.step, name, LinkFaultKind::kSever, 1});
      // Saturating: a sever parsed near INT64_MAX heals "never", not at a
      // wrapped negative step.
      const std::int64_t heal = sat_add(l.step, std::max(1, l.amount));
      out.push_back(LinkFaultPoint{heal, name, LinkFaultKind::kHeal, 1});
    } else {
      out.push_back(LinkFaultPoint{l.step, name, l.kind, l.amount});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const LinkFaultPoint& a, const LinkFaultPoint& b) {
                     return a.step_index < b.step_index;
                   });
  return out;
}

namespace {

/// What a Space implies for sampling, mutating and clamping: the step
/// horizon and the caps that default to a share of it when left at 0.
struct SpaceLimits {
  std::int64_t horizon = 1;        ///< step-index range, at least 1
  Time max_gst = 1;                ///< FD corruption window cap
  std::int64_t max_burst_len = 1;  ///< starvation burst length cap
  std::int64_t sever_window = 1;   ///< link sever window cap
  int charge_cap = 1;              ///< drop/dup/delay charge cap
  int population = 0;              ///< burst victims: the C-, then the S-processes
  bool links = false;              ///< the space has a link grid and link actions
};

SpaceLimits limits_of(const FaultPlan::Space& space) {
  SpaceLimits lim;
  lim.horizon = std::max<std::int64_t>(1, space.horizon);
  const std::int64_t eighth = std::max<std::int64_t>(1, lim.horizon / 8);
  lim.max_gst = space.max_gst > 0 ? space.max_gst : std::max<Time>(1, lim.horizon / 4);
  lim.max_burst_len = space.max_burst_len > 0 ? space.max_burst_len : eighth;
  lim.sever_window = space.max_sever_window > 0 ? space.max_sever_window : eighth;
  lim.charge_cap = std::max(1, space.max_link_charge);
  lim.population = space.num_c + space.num_s;
  lim.links = space.max_link_actions > 0 && space.mp_senders > 0 && space.mp_mailboxes > 0;
  return lim;
}

/// Uniform draw in [0, n).
std::uint64_t draw(SplitMix64& rng, std::int64_t n) {
  return rng.below(static_cast<std::uint64_t>(n));
}

/// Victim number v of the population: C-processes first, then S-processes.
Pid victim_of(int v, const FaultPlan::Space& space) {
  return v < space.num_c ? cpid(v) : spid(v - space.num_c);
}

Pid draw_victim(SplitMix64& rng, const SpaceLimits& lim, const FaultPlan::Space& space) {
  return victim_of(static_cast<int>(draw(rng, lim.population)), space);
}

CrashPoint draw_storm_point(SplitMix64& rng, const SpaceLimits& lim,
                            const FaultPlan::Space& space) {
  CrashPoint c;
  c.step_index = static_cast<std::int64_t>(draw(rng, lim.horizon));
  c.s_index = static_cast<int>(draw(rng, space.num_s));
  return c;
}

CrashTrigger draw_trigger(SplitMix64& rng, const FaultPlan::Space& space) {
  CrashTrigger t;
  t.reg_prefix = space.trigger_prefixes[rng.below(space.trigger_prefixes.size())];
  t.op = rng.below(4) == 0 ? OpKind::kRead : OpKind::kWrite;
  t.delay = 1 + static_cast<int>(rng.below(8));
  t.occurrence = 1 + static_cast<int>(rng.below(3));
  return t;
}

/// A fresh burst whose length is drawn from [1, len_cap].
StarvationBurst draw_burst(SplitMix64& rng, const SpaceLimits& lim,
                           const FaultPlan::Space& space, std::int64_t len_cap) {
  StarvationBurst b;
  b.victim = draw_victim(rng, lim, space);
  b.start_step = static_cast<std::int64_t>(draw(rng, lim.horizon));
  b.length = 1 + static_cast<std::int64_t>(draw(rng, len_cap));
  return b;
}

void draw_link_ends(SplitMix64& rng, LinkAction& l, const FaultPlan::Space& space) {
  l.from = static_cast<int>(draw(rng, space.mp_senders));
  l.to = static_cast<int>(draw(rng, space.mp_mailboxes));
}

/// A sever window for kSever, else a charge count.
int draw_link_amount(SplitMix64& rng, LinkFaultKind kind, const SpaceLimits& lim) {
  return 1 + static_cast<int>(
                 draw(rng, kind == LinkFaultKind::kSever ? lim.sever_window : lim.charge_cap));
}

/// A fresh link action whose kind is drawn modulo `kinds`: 1-4 pick dup,
/// delay, reorder and sever, every other value drop. Sampling draws modulo
/// 7, weighting drop 3/7: loss is the fault class that actually starves
/// protocols (dup/delay/reorder/sever mostly perturb timing), so a uniform
/// draw wastes most of the campaign's action budget.
LinkAction draw_link(SplitMix64& rng, const SpaceLimits& lim, const FaultPlan::Space& space,
                     std::uint64_t kinds) {
  LinkAction l;
  switch (rng.below(kinds)) {
    case 1: l.kind = LinkFaultKind::kDup; break;
    case 2: l.kind = LinkFaultKind::kDelay; break;
    case 3: l.kind = LinkFaultKind::kReorder; break;
    case 4: l.kind = LinkFaultKind::kSever; break;
    default: l.kind = LinkFaultKind::kDrop; break;
  }
  l.step = static_cast<std::int64_t>(draw(rng, lim.horizon));
  draw_link_ends(rng, l, space);
  l.amount = draw_link_amount(rng, l.kind, lim);
  return l;
}

/// Clamps a plan into `space`: at most max_crashes S-kills (storm points
/// first, then triggers), at most max_bursts bursts, every index inside the
/// horizon and every victim inside the population. sample() respects the
/// caps by construction; mutate/splice re-clamp after editing.
FaultPlan clamp_to_space(FaultPlan plan, const FaultPlan::Space& space) {
  const SpaceLimits lim = limits_of(space);
  const auto in_horizon = [&lim](std::int64_t step) {
    return std::clamp<std::int64_t>(step, 0, lim.horizon - 1);
  };
  if (space.num_s <= 0 || space.max_crashes == 0) {
    plan.storm.clear();
    plan.triggers.clear();
  }
  for (auto& c : plan.storm) {
    c.step_index = in_horizon(c.step_index);
    c.s_index = std::clamp(c.s_index, 0, std::max(0, space.num_s - 1));
  }
  while (static_cast<int>(plan.storm.size()) > space.max_crashes) plan.storm.pop_back();
  while (static_cast<int>(plan.storm.size() + plan.triggers.size()) > space.max_crashes) {
    plan.triggers.pop_back();
  }
  if (!space.allow_fd_faults || space.num_s <= 0) plan.fd = FdFault{};
  if (plan.fd.kind != FdFaultKind::kNone) {
    plan.fd.gst = std::clamp<Time>(plan.fd.gst, 1, lim.max_gst);
    plan.fd.param = std::max(1, plan.fd.param);
  }
  if (space.max_bursts <= 0 || lim.population <= 0) plan.bursts.clear();
  while (static_cast<int>(plan.bursts.size()) > space.max_bursts) plan.bursts.pop_back();
  for (auto& b : plan.bursts) {
    b.start_step = in_horizon(b.start_step);
    b.length = std::clamp<std::int64_t>(b.length, 1, lim.max_burst_len);
    const bool in_world = b.victim.is_s() ? b.victim.index < space.num_s
                                          : b.victim.index < space.num_c;
    if (!in_world) b.victim = victim_of(b.victim.index % std::max(1, lim.population), space);
  }
  if (!lim.links) plan.links.clear();
  while (static_cast<int>(plan.links.size()) > space.max_link_actions) plan.links.pop_back();
  for (auto& l : plan.links) {
    l.step = in_horizon(l.step);
    l.from = std::clamp(l.from, 0, std::max(0, space.mp_senders - 1));
    l.to = std::clamp(l.to, 0, std::max(0, space.mp_mailboxes - 1));
    if (l.kind == LinkFaultKind::kSever) {
      l.amount = static_cast<int>(std::clamp<std::int64_t>(l.amount, 1, lim.sever_window));
    } else {
      l.amount = std::clamp(l.amount, 1, lim.charge_cap);
    }
  }
  return plan;
}

}  // namespace

FaultPlan FaultPlan::sample(std::uint64_t seed, const Space& space) {
  SplitMix64 rng{seed * 0x2545F4914F6CDD1DULL + 0x632BE59BD9B4E019ULL};
  FaultPlan plan;
  const SpaceLimits lim = limits_of(space);

  if (space.num_s > 0 && space.max_crashes > 0) {
    const auto n_crash = rng.below(static_cast<std::uint64_t>(space.max_crashes) + 1);
    for (std::uint64_t i = 0; i < n_crash; ++i) {
      if (!space.trigger_prefixes.empty() && rng.below(2) == 0) {
        plan.triggers.push_back(draw_trigger(rng, space));
      } else {
        plan.storm.push_back(draw_storm_point(rng, lim, space));
      }
    }
  }

  if (space.allow_fd_faults && space.num_s > 0) {
    switch (rng.below(4)) {
      case 1: plan.fd.kind = FdFaultKind::kLying; break;
      case 2: plan.fd.kind = FdFaultKind::kOmissive; break;
      case 3: plan.fd.kind = FdFaultKind::kStuttering; break;
      default: break;  // kNone: honest advice keeps the baseline in the mix
    }
    if (plan.fd.kind != FdFaultKind::kNone) {
      plan.fd.gst = 1 + static_cast<Time>(draw(rng, lim.max_gst));
      plan.fd.param = 2 + static_cast<int>(rng.below(14));
    }
  }

  if (space.max_bursts > 0 && lim.population > 0) {
    const auto n_burst = rng.below(static_cast<std::uint64_t>(space.max_bursts) + 1);
    for (std::uint64_t i = 0; i < n_burst; ++i) {
      plan.bursts.push_back(draw_burst(rng, lim, space, lim.max_burst_len));
    }
  }

  // Link actions last: non-MP spaces (grid dims zero) draw nothing here, so
  // their sampling streams are unchanged from earlier plan versions.
  if (lim.links) {
    const auto n_link = rng.below(static_cast<std::uint64_t>(space.max_link_actions) + 1);
    for (std::uint64_t i = 0; i < n_link; ++i) plan.links.push_back(draw_link(rng, lim, space, 7));
  }
  return plan;
}

FaultPlan FaultPlan::mutate(std::uint64_t seed, const Space& space) const {
  SplitMix64 rng{seed * 0xD1342543DE82EF95ULL + 0x9E6C63D0876A9A47ULL};
  FaultPlan plan = *this;
  const SpaceLimits lim = limits_of(space);
  const std::int64_t jitter = std::max<std::int64_t>(1, lim.horizon / 8);
  const auto jittered = [&rng, jitter](std::int64_t step) {
    return sat_add(step, static_cast<std::int64_t>(rng.below(2 * jitter + 1)) - jitter);
  };

  const int edits = 1 + static_cast<int>(rng.below(2));
  for (int e = 0; e < edits; ++e) {
    switch (rng.below(6)) {
      case 0:  // perturb (or seed) a storm point
        if (!plan.storm.empty()) {
          CrashPoint& c = plan.storm[rng.below(plan.storm.size())];
          if (rng.below(4) == 0 && space.num_s > 0) {
            c.s_index = static_cast<int>(draw(rng, space.num_s));
          } else {
            c.step_index = jittered(c.step_index);
          }
        } else if (space.num_s > 0 && space.max_crashes > 0) {
          plan.storm.push_back(draw_storm_point(rng, lim, space));
        }
        break;
      case 1:  // perturb (or seed) a trigger
        if (!plan.triggers.empty()) {
          CrashTrigger& t = plan.triggers[rng.below(plan.triggers.size())];
          switch (rng.below(3)) {
            case 0: t.delay = 1 + static_cast<int>(rng.below(16)); break;
            case 1: t.occurrence = 1 + static_cast<int>(rng.below(5)); break;
            default:
              if (!space.trigger_prefixes.empty()) {
                t.reg_prefix = space.trigger_prefixes[rng.below(space.trigger_prefixes.size())];
              }
              break;
          }
        } else if (!space.trigger_prefixes.empty() && space.num_s > 0 && space.max_crashes > 0) {
          plan.triggers.push_back(draw_trigger(rng, space));
        }
        break;
      case 2:  // widen / narrow / retarget the FD corruption window
        if (space.allow_fd_faults && space.num_s > 0) {
          if (plan.fd.kind == FdFaultKind::kNone) {
            plan.fd.kind = rng.below(3) == 0   ? FdFaultKind::kLying
                           : rng.below(2) == 0 ? FdFaultKind::kOmissive
                                               : FdFaultKind::kStuttering;
            plan.fd.gst = 1 + static_cast<Time>(rng.below(16));
            plan.fd.param = 2 + static_cast<int>(rng.below(14));
          } else if (rng.below(2) == 0) {
            plan.fd.gst =
                rng.below(2) == 0 ? sat_mul(plan.fd.gst, 2) : std::max<Time>(1, plan.fd.gst / 2);
          } else {
            plan.fd.param = 1 + static_cast<int>(rng.below(16));
          }
        }
        break;
      case 3:  // jitter (or seed) a burst window
        if (!plan.bursts.empty()) {
          StarvationBurst& b = plan.bursts[rng.below(plan.bursts.size())];
          switch (rng.below(3)) {
            case 0:
              b.start_step = jittered(b.start_step);
              break;
            case 1: {
              const std::int64_t span = std::max<std::int64_t>(1, sat_mul(2, b.length));
              b.length = 1 + static_cast<std::int64_t>(draw(rng, span));
              break;
            }
            default:
              if (lim.population > 0) b.victim = draw_victim(rng, lim, space);
              break;
          }
        } else if (space.max_bursts > 0 && lim.population > 0) {
          plan.bursts.push_back(draw_burst(rng, lim, space, 8));
        }
        break;
      case 4:  // drop one fault element (shrinking move)
        if (!plan.storm.empty() && rng.below(2) == 0) {
          plan.storm.erase(plan.storm.begin() +
                           static_cast<std::ptrdiff_t>(rng.below(plan.storm.size())));
        } else if (!plan.triggers.empty()) {
          plan.triggers.erase(plan.triggers.begin() +
                              static_cast<std::ptrdiff_t>(rng.below(plan.triggers.size())));
        } else if (!plan.bursts.empty()) {
          plan.bursts.erase(plan.bursts.begin() +
                            static_cast<std::ptrdiff_t>(rng.below(plan.bursts.size())));
        } else {
          plan.fd = FdFault{};
        }
        break;
      default:  // drop the advice corruption entirely
        plan.fd = FdFault{};
        break;
    }
  }
  // Link edit drawn after the generic loop: non-MP spaces skip it entirely,
  // keeping their mutation streams identical to earlier plan versions.
  if (lim.links) {
    switch (rng.below(3)) {
      case 0:  // perturb (or seed) a link action
        if (!plan.links.empty()) {
          LinkAction& l = plan.links[rng.below(plan.links.size())];
          switch (rng.below(3)) {
            case 0: l.step = jittered(l.step); break;
            case 1: draw_link_ends(rng, l, space); break;
            default: l.amount = draw_link_amount(rng, l.kind, lim); break;
          }
          break;
        }
        [[fallthrough]];
      case 1:  // add a link action, every kind equally likely
        plan.links.push_back(draw_link(rng, lim, space, 5));
        break;
      default:  // drop one link action (shrinking move)
        if (!plan.links.empty()) {
          plan.links.erase(plan.links.begin() +
                           static_cast<std::ptrdiff_t>(rng.below(plan.links.size())));
        }
        break;
    }
  }
  return clamp_to_space(std::move(plan), space);
}

FaultPlan FaultPlan::splice(const FaultPlan& a, const FaultPlan& b, std::uint64_t seed,
                            const Space& space) {
  SplitMix64 rng{seed * 0xA24BAED4963EE407ULL + 0x9FB21C651E98DF25ULL};
  FaultPlan plan;
  plan.storm = a.storm;
  plan.triggers = a.triggers;
  plan.fd = b.fd;
  // Interleave bursts: draw each slot from a or b.
  const std::size_t total = a.bursts.size() + b.bursts.size();
  std::size_t ia = 0;
  std::size_t ib = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const bool from_a = ib >= b.bursts.size() || (ia < a.bursts.size() && rng.below(2) == 0);
    plan.bursts.push_back(from_a ? a.bursts[ia++] : b.bursts[ib++]);
  }
  // Link actions: a's first, then b's; clamping trims past the cap.
  plan.links = a.links;
  plan.links.insert(plan.links.end(), b.links.begin(), b.links.end());
  return clamp_to_space(std::move(plan), space);
}

bool BurstScheduler::suppressed(Pid pid, std::int64_t step) const {
  for (const auto& b : bursts_) {
    // step - start_step cannot overflow once step >= start_step >= 0, where
    // start_step + length can for plan text naming huge values.
    if (b.victim == pid && step >= b.start_step && step - b.start_step < b.length) return true;
  }
  return false;
}

std::optional<Pid> BurstScheduler::next(const World& w) {
  const std::int64_t idx = attempt_++;
  auto pick = inner_.next(w);
  if (!pick || !suppressed(*pick, idx)) return pick;

  // The inner scheduler proposed a suppressed victim: poll it a bounded
  // number of times for an alternative (randomized/cyclic inners will move
  // on; the extra polls are invisible to replay because the RecordingScheduler
  // wraps THIS scheduler and records only the final choice).
  for (int i = 0; i < 64; ++i) {
    const auto alt = inner_.next(w);
    if (!alt) return std::nullopt;  // inner exhausted mid-burst
    if (!suppressed(*alt, idx)) return alt;
    pick = alt;
  }
  // Stubborn inner (e.g. an admission window whose only admitted process is
  // the victim): the burst yields rather than override the inner scheduler's
  // invariants — a finite burst may starve a process, not the world.
  return pick;
}

}  // namespace efd
