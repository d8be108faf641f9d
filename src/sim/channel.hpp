// Per-link FIFO channels for the message-passing substrate.
//
// A ChannelFabric owns the mailbox queues of a message-passing world and,
// in daemon (non-eager) mode, one in-flight FIFO per (sender, mailbox) link:
//
//     send  —  eager: message lands directly on the destination mailbox
//              (sends are instantaneous, the subfamily exhaustive
//              exploration certifies over);
//              daemon: message lands on the (sender, mailbox) link's
//              in-flight channel and only a later deliver step moves it
//              onto the mailbox — delivery order/timing is the scheduler's
//              choice, so RecordingScheduler and replay_tape drive it
//              unchanged, and crashing a link's daemon severs the link
//              permanently (a partition is just a set of daemon crashes).
//     recv  —  pops the mailbox head; an empty recv marks the mailbox
//              touched (see Substrate's contract).
//     deliver — pops the link's in-flight head onto the mailbox FIFO.
//
// Hashing: the fabric maintains the same commutative accumulator a
// RegisterFile would if each mailbox were one register holding its pending
// FIFO as a vector Value — per touched mailbox, cell_content_hash(name hash
// of the mailbox address, Value(pending).hash()), summed mod 2^64. That is
// what makes World::state_hash() byte-identical across ShmSubstrate and
// MsgSubstrate for equal mailbox contents. In-flight channel contents are
// NOT hashed: exploration runs eager mode only, and driven (recorded) runs
// never consult state hashes.
//
// Link faults (PR 10): each daemon-mode link can carry a LinkFaultModel —
// drop-next-k, duplicate-next-k, bounded delay (hold the head for the next
// k deliver steps), a reorder window, and transient sever/heal. Faults are
// CHARGES consumed deterministically at deliver steps in a fixed precedence
// order (severed > empty > delay > reorder pick > pop > drop > dup), so a
// faulty delivery is an ordinary schedulable step and any run is replayed
// exactly by re-charging the same faults at the same step indices — no
// randomness lives in the fabric. Fault state is kept in a sparse side map
// that the hot path consults only through one `empty()` test, so a fabric
// with no charges behaves (and hashes) byte-identically to PR 9's.
// Exploration (eager mode) supports only the STATELESS subset: statically
// lossy (sender, mailbox) pairs whose sends silently vanish — safe under
// explorer undo because a dropped send mutates nothing.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/ids.hpp"
#include "sim/regid.hpp"
#include "sim/value.hpp"

namespace efd {

/// The link-fault vocabulary shared by the fabric, the Substrate contract,
/// tape `linkfaults` directives and plan-v1 `link` actions.
enum class LinkFaultKind : std::uint8_t {
  kDrop,     ///< discard the next `amount` popped messages
  kDup,      ///< re-enqueue a copy of the next `amount` popped messages
  kDelay,    ///< hold the head through the next `amount` deliver steps
  kReorder,  ///< next `amount` delivers pop from deeper in the channel
  kSever,    ///< transient partition: deliveries hold until healed
  kHeal,     ///< end a transient sever
};

/// Token <-> kind for tapes and plans ("drop", "dup", "delay", "reorder",
/// "sever", "heal"). parse returns false on an unknown token.
[[nodiscard]] const char* link_fault_token(LinkFaultKind kind) noexcept;
[[nodiscard]] bool parse_link_fault_token(const std::string& tok, LinkFaultKind& out) noexcept;

/// Per-link fault charges (see header comment for consumption order). All
/// counters are small and saturating semantics are the caller's problem —
/// the fabric only ever decrements toward the idle state.
struct LinkFaultModel {
  int drop_next = 0;
  int dup_next = 0;
  int delay_next = 0;
  int reorder_window = 0;
  bool severed = false;

  [[nodiscard]] bool idle() const noexcept {
    return drop_next == 0 && dup_next == 0 && delay_next == 0 && reorder_window == 0 &&
           !severed;
  }
};

/// Fabric-wide tallies of consumed fault charges (monitoring / benches).
struct LinkFaultCounters {
  std::int64_t dropped = 0;      ///< messages discarded at a deliver step
  std::int64_t duplicated = 0;   ///< messages re-enqueued after delivery
  std::int64_t delayed = 0;      ///< deliver steps that held the head
  std::int64_t reordered = 0;    ///< delivers that popped out of FIFO order
  std::int64_t held_severed = 0; ///< deliver steps refused while severed
  std::int64_t lost_sends = 0;   ///< sends swallowed by a lossy pair
};

class ChannelFabric {
 public:
  /// `mailboxes[j]` is the register-namespace address of mailbox j; links
  /// are (sender c-index, mailbox slot) pairs addressed via `links` (empty
  /// in eager mode). Duplicate addresses throw std::invalid_argument.
  ChannelFabric(int num_senders, std::vector<RegAddr> mailboxes,
                std::vector<RegAddr> links, bool eager);

  [[nodiscard]] bool eager() const noexcept { return eager_; }
  [[nodiscard]] int num_senders() const noexcept { return num_senders_; }

  /// One send step. Eager: straight onto the mailbox. Daemon: onto the
  /// (sender, mbox) link's in-flight FIFO — `sender` must then be a
  /// C-process with index < num_senders.
  void send(Pid sender, RegAddr mbox, const Value& msg);

  /// One recv step: pops and returns the mailbox head (Nil when empty; the
  /// mailbox is marked touched either way).
  [[nodiscard]] Value recv(RegAddr mbox);

  /// One deliver step on a link address: moves the link's in-flight head
  /// onto its destination mailbox. Returns the delivered message, Nil when
  /// the channel was empty. Throws std::logic_error in eager mode.
  [[nodiscard]] Value deliver(RegAddr link);

  /// The value the next recv(mbox) returns, without mutating.
  [[nodiscard]] Value peek(RegAddr mbox) const;

  /// Pending FIFO of `mbox` as a vector Value (Nil when never touched);
  /// returns the touched flag. Feeds restore() on explorer backtrack.
  [[nodiscard]] bool state(RegAddr mbox, Value& out) const;

  /// Exact inverse of the one send/recv since (prev, prev_present) was
  /// observed via state() on the same mailbox.
  void restore(RegAddr mbox, const Value& prev, bool prev_present);

  /// Messages sitting in `link`'s in-flight channel (0 in eager mode).
  [[nodiscard]] std::size_t in_flight(RegAddr link) const;

  /// Adds `amount` fault charges of `kind` to a daemon-mode link (sever /
  /// heal ignore the amount). Throws std::logic_error in eager mode and
  /// std::out_of_range on an unknown link.
  void charge_fault(RegAddr link, LinkFaultKind kind, int amount);

  /// Marks the (sender c-index, mailbox) pair statically lossy: its sends
  /// are silently swallowed (both modes; the only fault eager exploration
  /// supports — it never mutates state, so explorer undo stays exact).
  void set_lossy(int sender, RegAddr mbox, bool lossy);

  /// Current fault charges of a link (idle model when never charged).
  [[nodiscard]] LinkFaultModel link_faults(RegAddr link) const;
  /// True iff no link carries charges and no pair is lossy.
  [[nodiscard]] bool faults_idle() const noexcept {
    return link_faults_.empty() && lossy_.empty();
  }
  [[nodiscard]] const LinkFaultCounters& fault_counters() const noexcept { return fault_counters_; }

  /// Commutative accumulator over touched mailboxes (see header comment).
  [[nodiscard]] std::uint64_t hash_acc() const noexcept { return hash_acc_; }

 private:
  struct Mailbox {
    RegAddr addr;
    std::uint64_t name_hash = 0;
    ValueVec pending;
    bool touched = false;
    std::uint64_t term = 0;  ///< current contribution to hash_acc_
  };
  struct Link {
    RegAddr addr;
    int mbox_slot = 0;
    std::deque<Value> in_flight;
  };

  [[nodiscard]] Mailbox& mbox_at(RegAddr addr);
  [[nodiscard]] const Mailbox& mbox_at(RegAddr addr) const;
  /// Recomputes a mailbox's hash term after a pending/touched mutation.
  void rehash(Mailbox& m);
  /// deliver() with a non-idle fault model on the link; erases the map entry
  /// once the model drains back to idle.
  Value faulty_deliver(Link& l, int slot);

  int num_senders_;
  bool eager_;
  std::vector<Mailbox> mailboxes_;
  std::vector<Link> links_;
  std::unordered_map<RegId, int> mbox_slot_;  ///< RegId -> mailboxes_ index
  std::unordered_map<RegId, int> link_slot_;  ///< RegId -> links_ index
  std::uint64_t hash_acc_ = 0;
  std::unordered_map<int, LinkFaultModel> link_faults_;  ///< links_ index -> charges
  std::vector<std::uint64_t> lossy_;  ///< packed (sender, mbox slot) lossy pairs
  LinkFaultCounters fault_counters_;
};

}  // namespace efd
