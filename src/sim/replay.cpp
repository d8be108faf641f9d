#include "sim/replay.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "sim/channel.hpp"
#include "sim/world.hpp"

namespace efd {
namespace {

// ---- value literals -------------------------------------------------------
//
// Same surface syntax as Value::to_string — nil / 123 / "str" / [a, b] —
// except strings are escaped (\\ and \") so arbitrary payloads round-trip.

void encode_value(std::ostream& os, const Value& v) {
  if (v.is_nil()) {
    os << "nil";
  } else if (v.is_int()) {
    os << v.as_int();
  } else if (v.is_str()) {
    os << '"';
    for (const char c : v.as_str()) {
      if (c == '\\' || c == '"') os << '\\';
      os << c;
    }
    os << '"';
  } else {
    os << '[';
    const auto& vec = v.as_vec();
    for (std::size_t i = 0; i < vec.size(); ++i) {
      if (i != 0) os << ", ";
      encode_value(os, vec[i]);
    }
    os << ']';
  }
}

struct ValueParser {
  /// Vectors nest at most this deep: parse() recurses once per '[', so an
  /// unbounded literal would overflow the stack instead of failing.
  static constexpr int kMaxDepth = 256;

  std::string_view s;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    // At most 64 bytes quoted: a huge literal still gets a short diagnostic.
    const std::string quoted = std::string(s.substr(0, 64)) + (s.size() > 64 ? "..." : "");
    throw std::runtime_error("tape value literal: " + what + " at offset " +
                             std::to_string(pos) + " in '" + quoted + "'");
  }
  void skip_ws() {
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) ++pos;
  }
  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  Value parse(int depth = 0) {
    skip_ws();
    if (pos >= s.size()) fail("empty literal");
    const char c = s[pos];
    if (c == 'n') {
      if (s.substr(pos, 3) != "nil") fail("expected 'nil'");
      pos += 3;
      return Value{};
    }
    if (c == '"') {
      ++pos;
      std::string out;
      while (pos < s.size() && s[pos] != '"') {
        if (s[pos] == '\\') {
          ++pos;
          if (pos >= s.size()) fail("dangling escape");
        }
        out.push_back(s[pos++]);
      }
      if (!consume('"')) fail("unterminated string");
      return Value(std::move(out));
    }
    if (c == '[') {
      if (depth == kMaxDepth) fail("vectors nested deeper than " + std::to_string(kMaxDepth));
      ++pos;
      ValueVec out;
      skip_ws();
      if (consume(']')) return Value(std::move(out));
      for (;;) {
        out.push_back(parse(depth + 1));
        if (consume(']')) return Value(std::move(out));
        if (!consume(',')) fail("expected ',' or ']'");
      }
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      const std::size_t start = pos;
      if (c == '-') ++pos;
      while (pos < s.size() && std::isdigit(static_cast<unsigned char>(s[pos]))) ++pos;
      if (pos == start || (c == '-' && pos == start + 1)) fail("malformed integer");
      return Value(std::int64_t(std::stoll(std::string(s.substr(start, pos - start)))));
    }
    fail("unrecognized literal");
  }
};

Value parse_value(std::string_view text) {
  ValueParser p{text};
  const Value v = p.parse();
  p.skip_ws();
  if (p.pos != text.size()) p.fail("trailing garbage");
  return v;
}

[[noreturn]] void parse_fail(int line_no, const std::string& what) {
  throw TapeParseError("efd-tape parse error, line " + std::to_string(line_no) + ": " + what);
}

}  // namespace

FailurePattern ScheduleTape::pattern() const {
  if (static_cast<int>(base_crash.size()) != num_s) {
    throw TapeParseError("ScheduleTape: pattern width " +
                             std::to_string(base_crash.size()) + " != s " +
                             std::to_string(num_s));
  }
  return FailurePattern(base_crash);
}

HistoryPtr ScheduleTape::history() const {
  // Per-process chronological delta lists (fd is chronological overall, so
  // a stable partition preserves per-process order).
  auto deltas = std::make_shared<std::map<int, std::vector<std::pair<Time, Value>>>>();
  for (const auto& d : fd) (*deltas)[d.qi].emplace_back(d.time, d.value);
  return std::make_shared<FnHistory>([deltas](int qi, Time t) {
    const auto it = deltas->find(qi);
    if (it == deltas->end()) return Value{};
    Value cur;
    for (const auto& [when, v] : it->second) {
      if (when > t) break;
      cur = v;
    }
    return cur;
  });
}

ScheduleTape ScheduleTape::capture(std::string scenario, const FailurePattern& base,
                                   std::vector<Pid> steps, const PlanDriveResult& run, World& w) {
  ScheduleTape t;
  t.scenario = std::move(scenario);
  t.num_s = base.n();
  t.base_crash.reserve(static_cast<std::size_t>(base.n()));
  for (int i = 0; i < base.n(); ++i) t.base_crash.push_back(base.crash_time(i));
  t.steps = std::move(steps);
  t.crashes = run.applied;  // sorted by step index, as the drive applied them
  t.linkfaults = run.applied_links;
  if (w.substrate_set() && w.substrate().kind() == SubstrateKind::kMsg) t.substrate = "msg";
  // FD deltas: one entry whenever a process's sampled output changes.
  std::map<int, Value> last;
  for (const auto& s : w.trace()) {
    if (s.op != OpKind::kQuery || s.null_step) continue;
    const auto it = last.find(s.pid.index);
    if (it != last.end() && it->second == s.result) continue;
    last[s.pid.index] = s.result;
    t.fd.push_back(FdDelta{s.pid.index, s.time, s.result});
  }
  t.expect_hash = trace_hash(w.trace());
  return t;
}

std::string ScheduleTape::serialize() const {
  std::ostringstream os;
  os << kFormat << "\n";
  if (!scenario.empty()) os << "scenario " << scenario << "\n";
  if (!plan.empty()) os << "plan " << plan << "\n";
  if (!finding.empty()) os << "finding " << finding << "\n";
  if (!substrate.empty()) os << "substrate " << substrate << "\n";
  if (expect_violated) os << "expect " << (*expect_violated ? "violated" : "ok") << "\n";
  if (expect_hash) {
    os << "hash " << std::hex << *expect_hash << std::dec << "\n";
  }
  os << "s " << num_s << "\n";
  if (num_s > 0) {
    os << "pattern";
    for (const auto& c : base_crash) {
      os << ' ';
      if (c) {
        os << *c;
      } else {
        os << '-';
      }
    }
    os << "\n";
  }
  for (const auto& c : crashes) os << "crash " << c.step_index << " " << c.s_index << "\n";
  if (!linkfaults.empty()) {
    // One line, ';'-separated actions in step order: canonical because parse
    // stable-sorts by step_index and same-step order is preserved.
    std::vector<LinkFaultPoint> pts = linkfaults;
    std::stable_sort(pts.begin(), pts.end(), [](const LinkFaultPoint& a,
                                                const LinkFaultPoint& b) {
      return a.step_index < b.step_index;
    });
    os << "linkfaults ";
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (i != 0) os << "; ";
      os << link_fault_token(pts[i].kind) << " " << pts[i].step_index << " " << pts[i].link
         << " " << pts[i].amount;
    }
    os << "\n";
  }
  for (const auto& d : fd) {
    os << "fd " << d.qi << " " << d.time << " ";
    encode_value(os, d.value);
    os << "\n";
  }
  os << "steps " << steps.size() << "\n";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    os << steps[i].to_string() << (((i + 1) % 20 == 0 || i + 1 == steps.size()) ? '\n' : ' ');
  }
  os << "end\n";
  return os.str();
}

ScheduleTape ScheduleTape::parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  auto next_line = [&]() -> bool {
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line[0] == '#') continue;
      return true;
    }
    return false;
  };

  if (!next_line() || line != kFormat) parse_fail(line_no, "missing '" + std::string(kFormat) + "' header");

  ScheduleTape t;
  bool saw_s = false;
  std::optional<std::size_t> declared_steps;
  while (next_line()) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "scenario") {
      if (!(ls >> t.scenario)) parse_fail(line_no, "scenario: missing name");
    } else if (key == "plan") {
      std::string rest;
      std::getline(ls, rest);
      const std::size_t at = rest.find_first_not_of(" \t");
      if (at == std::string::npos) parse_fail(line_no, "plan: missing text");
      t.plan = rest.substr(at);
    } else if (key == "finding") {
      if (!(ls >> t.finding)) parse_fail(line_no, "finding: missing kind");
    } else if (key == "substrate") {
      if (!(ls >> t.substrate) || (t.substrate != "shm" && t.substrate != "msg")) {
        parse_fail(line_no, "substrate: want 'shm' or 'msg'");
      }
    } else if (key == "expect") {
      std::string v;
      if (!(ls >> v) || (v != "violated" && v != "ok")) {
        parse_fail(line_no, "expect: want 'violated' or 'ok'");
      }
      t.expect_violated = (v == "violated");
    } else if (key == "hash") {
      std::uint64_t h = 0;
      if (!(ls >> std::hex >> h)) parse_fail(line_no, "hash: malformed hex");
      t.expect_hash = h;
    } else if (key == "s") {
      if (!(ls >> t.num_s) || t.num_s < 0) parse_fail(line_no, "s: malformed count");
      saw_s = true;
      if (t.num_s == 0) t.base_crash.clear();
    } else if (key == "pattern") {
      t.base_crash.clear();
      std::string tok;
      while (ls >> tok) {
        if (tok == "-") {
          t.base_crash.push_back(std::nullopt);
        } else {
          try {
            t.base_crash.push_back(Time(std::stoll(tok)));
          } catch (const std::exception&) {
            parse_fail(line_no, "pattern: malformed crash time '" + tok + "'");
          }
        }
      }
      if (static_cast<int>(t.base_crash.size()) != t.num_s) {
        parse_fail(line_no, "pattern: width != s");
      }
    } else if (key == "crash") {
      CrashPoint c;
      if (!(ls >> c.step_index >> c.s_index) || c.step_index < 0 || c.s_index < 0 ||
          c.s_index >= t.num_s) {
        parse_fail(line_no, "crash: malformed or out-of-range entry");
      }
      t.crashes.push_back(c);
    } else if (key == "linkfaults") {
      std::string rest;
      std::getline(ls, rest);
      std::istringstream entries(rest);
      std::string entry;
      bool any = false;
      while (std::getline(entries, entry, ';')) {
        std::istringstream es(entry);
        LinkFaultPoint p;
        std::string kind_tok;
        if (!(es >> kind_tok)) continue;  // tolerate a trailing ';'
        any = true;
        if (!parse_link_fault_token(kind_tok, p.kind)) {
          parse_fail(line_no, "linkfaults: unknown fault kind '" + kind_tok + "'");
        }
        if (!(es >> p.step_index >> p.link >> p.amount) || p.step_index < 0 || p.amount < 1) {
          parse_fail(line_no, "linkfaults: malformed entry '" + entry + "'");
        }
        std::string extra;
        if (es >> extra) parse_fail(line_no, "linkfaults: trailing garbage '" + extra + "'");
        t.linkfaults.push_back(std::move(p));
      }
      if (!any) parse_fail(line_no, "linkfaults: empty list");
    } else if (key == "fd") {
      FdDelta d;
      if (!(ls >> d.qi >> d.time) || d.qi < 0 || d.qi >= t.num_s) {
        parse_fail(line_no, "fd: malformed or out-of-range entry");
      }
      std::string rest;
      std::getline(ls, rest);
      try {
        d.value = parse_value(rest);
      } catch (const std::exception& e) {
        parse_fail(line_no, e.what());
      }
      t.fd.push_back(std::move(d));
    } else if (key == "steps") {
      std::size_t n = 0;
      if (!(ls >> n)) parse_fail(line_no, "steps: malformed count");
      declared_steps = n;
      // A pid token and its separator take at least three bytes: a count
      // the text cannot hold fails below as truncated, never reserves.
      t.steps.reserve(std::min(n, text.size() / 3 + 1));
      // The schedule body: whitespace-separated pid tokens up to 'end'.
      std::string tok;
      while (t.steps.size() < n) {
        if (!(in >> tok) || tok == "end") parse_fail(line_no, "steps: truncated schedule");
        const auto pid = parse_pid(tok);
        if (!pid) parse_fail(line_no, "steps: bad pid token '" + tok + "'");
        t.steps.push_back(*pid);
      }
      std::string endtok;
      if (!(in >> endtok) || endtok != "end") parse_fail(line_no, "missing 'end' after schedule");
      break;
    } else {
      parse_fail(line_no, "unknown key '" + key + "'");
    }
  }
  if (!saw_s) parse_fail(line_no, "missing 's' line");
  if (!declared_steps) parse_fail(line_no, "missing 'steps' section");
  if (static_cast<int>(t.base_crash.size()) != t.num_s) parse_fail(line_no, "missing 'pattern' line");
  std::sort(t.crashes.begin(), t.crashes.end(),
            [](const CrashPoint& a, const CrashPoint& b) { return a.step_index < b.step_index; });
  // stable: same-step charges keep their written order (sever before heal).
  std::stable_sort(t.linkfaults.begin(), t.linkfaults.end(),
                   [](const LinkFaultPoint& a, const LinkFaultPoint& b) {
                     return a.step_index < b.step_index;
                   });
  return t;
}

ScheduleTape load_tape(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw TapeIoError("load_tape: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) throw TapeIoError("load_tape: read failed for " + path);
  return ScheduleTape::parse(buf.str());
}

void save_tape(const ScheduleTape& tape, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw TapeIoError("save_tape: cannot open " + path);
  out << tape.serialize();
  if (!out) throw TapeIoError("save_tape: write failed for " + path);
}

DriveResult drive_tape(World& w, const ScheduleTape& tape) {
  w.enable_trace();
  w.reserve_trace(tape.steps.size());
  ExplicitSchedule rs(tape.steps);
  const PlanDriveResult d = drive_with_faults(w, rs, static_cast<std::int64_t>(tape.steps.size()),
                                              {tape.crashes, tape.linkfaults, {}});
  // The loop skips a fault its world cannot take; replay refuses it instead.
  const auto reached = [&d](const auto& p) { return p.step_index <= d.drive.steps; };
  for (const CrashPoint& c : tape.crashes) {
    if (reached(c) && (c.s_index < 0 || c.s_index >= w.pattern().n())) {
      throw std::out_of_range("replay: crash point names q" + std::to_string(c.s_index + 1) +
                              ", which this world does not have");
    }
  }
  const auto due = std::count_if(tape.linkfaults.begin(), tape.linkfaults.end(), reached);
  if (static_cast<std::size_t>(due) != d.applied_links.size()) {
    // Charging the reached points again, after the run, raises the refused
    // one's own diagnostic ("ChannelFabric: unknown link ch[7][7]", ...):
    // whether a charge is refused depends only on the world's links.
    for (const LinkFaultPoint& p : tape.linkfaults) {
      if (reached(p)) w.substrate().apply_link_fault(RegAddr(p.link), p.kind, p.amount);
    }
    throw TapeError("replay: a link fault of the tape could not be charged");
  }
  return d.drive;
}

ReplayResult replay_tape(World& w, const ScheduleTape& tape) {
  ReplayResult out;
  out.drive = drive_tape(w, tape);
  out.hash = trace_hash(w.trace());
  out.hash_match = !tape.expect_hash || *tape.expect_hash == out.hash;
  return out;
}

}  // namespace efd
