#include "sim/channel.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/memory.hpp"  // cell_content_hash

namespace efd {
namespace {

std::uint64_t pack_pair(int sender, int slot) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(sender)) << 32) |
         static_cast<std::uint32_t>(slot);
}

}  // namespace

const char* link_fault_token(LinkFaultKind kind) noexcept {
  switch (kind) {
    case LinkFaultKind::kDrop: return "drop";
    case LinkFaultKind::kDup: return "dup";
    case LinkFaultKind::kDelay: return "delay";
    case LinkFaultKind::kReorder: return "reorder";
    case LinkFaultKind::kSever: return "sever";
    case LinkFaultKind::kHeal: return "heal";
  }
  return "?";
}

bool parse_link_fault_token(const std::string& tok, LinkFaultKind& out) noexcept {
  if (tok == "drop") out = LinkFaultKind::kDrop;
  else if (tok == "dup") out = LinkFaultKind::kDup;
  else if (tok == "delay") out = LinkFaultKind::kDelay;
  else if (tok == "reorder") out = LinkFaultKind::kReorder;
  else if (tok == "sever") out = LinkFaultKind::kSever;
  else if (tok == "heal") out = LinkFaultKind::kHeal;
  else return false;
  return true;
}

ChannelFabric::ChannelFabric(int num_senders, std::vector<RegAddr> mailboxes,
                             std::vector<RegAddr> links, bool eager)
    : num_senders_(num_senders), eager_(eager) {
  if (num_senders < 0) throw std::invalid_argument("ChannelFabric: negative sender count");
  mailboxes_.reserve(mailboxes.size());
  for (std::size_t j = 0; j < mailboxes.size(); ++j) {
    const RegAddr addr = mailboxes[j];
    if (!mbox_slot_.emplace(addr.id(), static_cast<int>(j)).second) {
      throw std::invalid_argument("ChannelFabric: duplicate mailbox " + addr.name());
    }
    Mailbox m;
    m.addr = addr;
    m.name_hash = addr.name_hash();
    mailboxes_.push_back(std::move(m));
  }
  if (eager_ && !links.empty()) {
    throw std::invalid_argument("ChannelFabric: eager fabrics have no links");
  }
  if (!eager_ && links.size() != mailboxes_.size() * static_cast<std::size_t>(num_senders_)) {
    throw std::invalid_argument("ChannelFabric: need one link per (sender, mailbox)");
  }
  links_.reserve(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    const RegAddr addr = links[i];
    if (!link_slot_.emplace(addr.id(), static_cast<int>(i)).second) {
      throw std::invalid_argument("ChannelFabric: duplicate link " + addr.name());
    }
    Link l;
    l.addr = addr;
    // Link order is sender-major: link i serves (sender i / m, mailbox i % m).
    l.mbox_slot = static_cast<int>(i % mailboxes_.size());
    links_.push_back(std::move(l));
  }
}

ChannelFabric::Mailbox& ChannelFabric::mbox_at(RegAddr addr) {
  const auto it = mbox_slot_.find(addr.id());
  if (it == mbox_slot_.end()) {
    throw std::out_of_range("ChannelFabric: unknown mailbox " + addr.name());
  }
  return mailboxes_[static_cast<std::size_t>(it->second)];
}

const ChannelFabric::Mailbox& ChannelFabric::mbox_at(RegAddr addr) const {
  const auto it = mbox_slot_.find(addr.id());
  if (it == mbox_slot_.end()) {
    throw std::out_of_range("ChannelFabric: unknown mailbox " + addr.name());
  }
  return mailboxes_[static_cast<std::size_t>(it->second)];
}

void ChannelFabric::rehash(Mailbox& m) {
  if (m.touched) hash_acc_ -= m.term;  // not touched => term == 0 already
  m.touched = true;
  const Value as_cell(m.pending.data(), m.pending.data() + m.pending.size());
  m.term = cell_content_hash(m.name_hash, as_cell.hash());
  hash_acc_ += m.term;
}

void ChannelFabric::send(Pid sender, RegAddr mbox, const Value& msg) {
  if (eager_) {
    Mailbox& m = mbox_at(mbox);
    if (!lossy_.empty() && sender.is_c()) {
      const std::uint64_t key = pack_pair(sender.index, mbox_slot_.at(m.addr.id()));
      if (std::find(lossy_.begin(), lossy_.end(), key) != lossy_.end()) {
        ++fault_counters_.lost_sends;  // statically lossy: nothing mutates
        return;
      }
    }
    m.pending.push_back(msg);
    rehash(m);
    return;
  }
  if (!sender.is_c() || sender.index < 0 || sender.index >= num_senders_) {
    throw std::logic_error("ChannelFabric: sender " + sender.to_string() +
                           " has no outgoing links");
  }
  Mailbox& m = mbox_at(mbox);  // validates the destination
  const int slot = mbox_slot_.at(m.addr.id());
  if (!lossy_.empty() &&
      std::find(lossy_.begin(), lossy_.end(), pack_pair(sender.index, slot)) != lossy_.end()) {
    ++fault_counters_.lost_sends;
    return;
  }
  Link& l = links_[static_cast<std::size_t>(sender.index) * mailboxes_.size() +
                   static_cast<std::size_t>(slot)];
  l.in_flight.push_back(msg);
}

Value ChannelFabric::recv(RegAddr mbox) {
  Mailbox& m = mbox_at(mbox);
  if (m.pending.empty()) {
    rehash(m);  // empty recv still marks the mailbox touched
    return Value{};
  }
  Value head = std::move(m.pending.front());
  m.pending.erase(m.pending.begin());
  rehash(m);
  return head;
}

Value ChannelFabric::deliver(RegAddr link) {
  if (eager_) throw std::logic_error("ChannelFabric: eager fabrics deliver inside send");
  const auto it = link_slot_.find(link.id());
  if (it == link_slot_.end()) {
    throw std::out_of_range("ChannelFabric: unknown link " + link.name());
  }
  Link& l = links_[static_cast<std::size_t>(it->second)];
  if (!link_faults_.empty() && link_faults_.count(it->second) != 0) {
    return faulty_deliver(l, it->second);
  }
  if (l.in_flight.empty()) return Value{};
  Value msg = std::move(l.in_flight.front());
  l.in_flight.pop_front();
  Mailbox& m = mailboxes_[static_cast<std::size_t>(l.mbox_slot)];
  m.pending.push_back(msg);
  rehash(m);
  return msg;
}

Value ChannelFabric::faulty_deliver(Link& l, int slot) {
  // Charge precedence is part of the replay contract (see header): severed
  // holds everything; an empty channel consumes nothing; a delay charge is
  // consumed by the STEP (the head stays in flight); a reorder charge picks
  // the pop position; drop and dup charges are consumed by the popped
  // MESSAGE, drop before dup.
  LinkFaultModel& f = link_faults_[slot];
  const auto reclaim = [this, slot, &f] {
    if (f.idle()) link_faults_.erase(slot);
  };
  if (f.severed) {
    ++fault_counters_.held_severed;
    return Value{};
  }
  if (l.in_flight.empty()) {
    reclaim();
    return Value{};
  }
  if (f.delay_next > 0) {
    --f.delay_next;
    ++fault_counters_.delayed;
    reclaim();
    return Value{};
  }
  std::size_t pick = 0;
  if (f.reorder_window > 0) {
    pick = std::min(static_cast<std::size_t>(f.reorder_window), l.in_flight.size() - 1);
    --f.reorder_window;
    if (pick > 0) ++fault_counters_.reordered;
  }
  Value msg = std::move(l.in_flight[pick]);
  l.in_flight.erase(l.in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
  if (f.drop_next > 0) {
    --f.drop_next;
    ++fault_counters_.dropped;
    reclaim();
    return Value{};  // the message is gone; the step reads as an empty deliver
  }
  if (f.dup_next > 0) {
    --f.dup_next;
    ++fault_counters_.duplicated;
    l.in_flight.push_back(msg);
  }
  reclaim();
  Mailbox& m = mailboxes_[static_cast<std::size_t>(l.mbox_slot)];
  m.pending.push_back(msg);
  rehash(m);
  return msg;
}

void ChannelFabric::charge_fault(RegAddr link, LinkFaultKind kind, int amount) {
  if (eager_) {
    throw std::logic_error("ChannelFabric: eager fabrics have no links to fault");
  }
  const auto it = link_slot_.find(link.id());
  if (it == link_slot_.end()) {
    throw std::out_of_range("ChannelFabric: unknown link " + link.name());
  }
  if (amount < 0) throw std::invalid_argument("ChannelFabric: negative fault charge");
  LinkFaultModel& f = link_faults_[it->second];
  switch (kind) {
    case LinkFaultKind::kDrop: f.drop_next += amount; break;
    case LinkFaultKind::kDup: f.dup_next += amount; break;
    case LinkFaultKind::kDelay: f.delay_next += amount; break;
    case LinkFaultKind::kReorder: f.reorder_window += amount; break;
    case LinkFaultKind::kSever: f.severed = true; break;
    case LinkFaultKind::kHeal: f.severed = false; break;
  }
  if (f.idle()) link_faults_.erase(it->second);
}

void ChannelFabric::set_lossy(int sender, RegAddr mbox, bool lossy) {
  const Mailbox& m = mbox_at(mbox);  // validates the destination
  const std::uint64_t key = pack_pair(sender, mbox_slot_.at(m.addr.id()));
  const auto it = std::find(lossy_.begin(), lossy_.end(), key);
  if (lossy && it == lossy_.end()) lossy_.push_back(key);
  if (!lossy && it != lossy_.end()) lossy_.erase(it);
}

LinkFaultModel ChannelFabric::link_faults(RegAddr link) const {
  const auto it = link_slot_.find(link.id());
  if (it == link_slot_.end()) {
    throw std::out_of_range("ChannelFabric: unknown link " + link.name());
  }
  const auto fit = link_faults_.find(it->second);
  return fit == link_faults_.end() ? LinkFaultModel{} : fit->second;
}

Value ChannelFabric::peek(RegAddr mbox) const {
  const Mailbox& m = mbox_at(mbox);
  return m.pending.empty() ? Value{} : m.pending.front();
}

bool ChannelFabric::state(RegAddr mbox, Value& out) const {
  const Mailbox& m = mbox_at(mbox);
  out = m.touched ? Value(m.pending.data(), m.pending.data() + m.pending.size()) : Value{};
  return m.touched;
}

void ChannelFabric::restore(RegAddr mbox, const Value& prev, bool prev_present) {
  Mailbox& m = mbox_at(mbox);
  if (m.touched) hash_acc_ -= m.term;
  m.pending.clear();
  m.term = 0;
  m.touched = prev_present;
  if (!prev_present) return;
  if (prev.is_vec()) prev.unpack_vec(m.pending);  // a Nil prev restores an empty queue
  const Value as_cell(m.pending.data(), m.pending.data() + m.pending.size());
  m.term = cell_content_hash(m.name_hash, as_cell.hash());
  hash_acc_ += m.term;
}

std::size_t ChannelFabric::in_flight(RegAddr link) const {
  const auto it = link_slot_.find(link.id());
  if (it == link_slot_.end()) {
    throw std::out_of_range("ChannelFabric: unknown link " + link.name());
  }
  return links_[static_cast<std::size_t>(it->second)].in_flight.size();
}

}  // namespace efd
