#include "mixradix/verify/verify.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <utility>

namespace mr::verify {

using simmpi::Combine;
using simmpi::Region;
using simmpi::Round;
using simmpi::Schedule;

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

const char* to_string(Check check) {
  switch (check) {
    case Check::Structure: return "structure";
    case Check::Conservation: return "conservation";
    case Check::Deadlock: return "deadlock";
    case Check::Race: return "race";
    case Check::DeadWrite: return "dead-write";
    case Check::UninitRead: return "uninit-read";
    case Check::Binding: return "binding";
  }
  return "?";
}

std::string Diagnostic::to_string() const {
  std::ostringstream os;
  os << verify::to_string(severity) << "[" << verify::to_string(check) << "]";
  if (rank >= 0) os << " rank " << rank;
  if (round >= 0) os << " round " << round;
  if (msg >= 0) os << " msg " << msg;
  os << ": " << text;
  return os.str();
}

std::size_t Report::count(Severity severity) const {
  std::size_t n = 0;
  for (const auto& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

std::string Report::summary() const {
  std::ostringstream os;
  os << count(Severity::Error) << " errors, " << count(Severity::Warning)
     << " warnings, " << count(Severity::Info) << " infos";
  return os.str();
}

std::string Report::to_string() const {
  std::ostringstream os;
  for (const auto& d : diagnostics) os << d.to_string() << "\n";
  os << summary();
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Report& report) {
  return os << report.to_string();
}

namespace {

const char* combine_name(Combine combine) {
  switch (combine) {
    case Combine::Replace: return "replace";
    case Combine::Sum: return "sum";
    case Combine::Max: return "max";
    case Combine::Min: return "min";
    case Combine::Prod: return "prod";
  }
  return "?";
}

/// "[offset, end)", or "[offset, offset + count)" when end overflows int64.
std::string region_str(const Region& r) {
  const bool fits = r.count >= 0 ? r.offset <= INT64_MAX - r.count
                                 : r.offset >= INT64_MIN - r.count;
  return "[" + std::to_string(r.offset) + ", " +
         (fits ? std::to_string(r.offset + r.count)
               : std::to_string(r.offset) + " + " + std::to_string(r.count)) +
         ")";
}

/// "N B" for `count` doubles, or "count x 8 B" when N overflows int64.
std::string bytes_str(std::int64_t count) {
  const bool fits = count <= INT64_MAX / 8 && count >= -(INT64_MAX / 8);
  return fits ? std::to_string(count * 8) + " B"
              : std::to_string(count) + " x 8 B";
}

/// No overflow: the arena is checked to lie in [0, INT64_MAX / 8] first.
bool region_in_arena(const Region& r, std::int64_t arena) {
  return r.offset >= 0 && r.count >= 0 && r.count <= arena - r.offset;
}

/// Combines whose accumulation commutes, so concurrent overlapping receives
/// still produce one well-defined value per element. Replace is excluded:
/// last-writer-wins depends on completion order.
bool commutative(Combine combine) { return combine != Combine::Replace; }

/// Passes a run makes: structure and conservation, plus deadlock, or all.
enum class Depth { Structure, Deadlock, All };

class Analyzer {
 public:
  Analyzer(const Schedule& schedule, const Options& options)
      : s_(schedule), opt_(options) {}

  Report run(Depth depth) {
    if (structure_and_conservation() && depth != Depth::Structure) {
      deadlock();
      if (depth == Depth::All) {
        races();
        dataflow();
      }
    }
    if (suppressed_ > 0) {
      Diagnostic d;
      d.severity = Severity::Info;
      d.check = Check::Structure;
      d.text = std::to_string(suppressed_) +
               " further diagnostics suppressed (max_diagnostics = " +
               std::to_string(opt_.max_diagnostics) + ")";
      report_.diagnostics.push_back(std::move(d));
    }
    return std::move(report_);
  }

 private:
  void emit(Severity severity, Check check, std::int32_t rank, int round,
            std::int32_t msg, std::string text) {
    if (severity == Severity::Error) ++errors_;
    if (report_.diagnostics.size() >= opt_.max_diagnostics) {
      ++suppressed_;
      return;
    }
    report_.diagnostics.push_back(
        Diagnostic{severity, check, rank, round, msg, std::move(text)});
  }

  std::string msg_str(std::int32_t m) const {
    const auto& msg = s_.messages[static_cast<std::size_t>(m)];
    std::ostringstream os;
    os << "message " << m << " (rank " << msg.src << " -> rank " << msg.dst
       << ", " << bytes_str(msg.src_region.count) << ")";
    return os.str();
  }

  /// One op of `rank` in `round`, a send if `send`, else a receive: it must
  /// name an existing message that `rank` sends (receives). Counts it in
  /// `count` and records the round of the message's first op.
  bool check_op(bool send, std::int32_t id, std::int32_t rank, int round,
                std::vector<int>& count, std::vector<int>& first_round) {
    const auto at = [&] {
      return std::string(send ? "send" : "recv") + " op on rank " +
             std::to_string(rank) + " round " + std::to_string(round);
    };
    if (id < 0 || static_cast<std::size_t>(id) >= s_.messages.size()) {
      emit(Severity::Error, Check::Structure, rank, round, id,
           at() + " references unknown message " + std::to_string(id));
      return false;
    }
    const auto& msg = s_.messages[static_cast<std::size_t>(id)];
    const std::int32_t owner = send ? msg.src : msg.dst;
    if (owner != rank) {
      emit(Severity::Error, Check::Structure, rank, round, id,
           at() + (send ? " posts " : " waits for ") + msg_str(id) +
               (send ? " owned by rank " : " addressed to rank ") +
               std::to_string(owner));
      return false;
    }
    if (++count[static_cast<std::size_t>(id)] == 1) {
      first_round[static_cast<std::size_t>(id)] = round;
    }
    return true;
  }

  /// Validates everything the deeper passes dereference and records each
  /// message's posting/receiving round. Returns false when the schedule is
  /// too damaged for the deeper passes to index safely.
  bool structure_and_conservation() {
    const std::size_t errors_before = errors_;
    if (s_.nranks <= 0) {
      emit(Severity::Error, Check::Structure, -1, -1, -1, "schedule has no ranks");
      return false;
    }
    if (static_cast<std::int32_t>(s_.programs.size()) != s_.nranks) {
      emit(Severity::Error, Check::Structure, -1, -1, -1,
           "schedule has " + std::to_string(s_.programs.size()) +
               " rank programs for " + std::to_string(s_.nranks) + " ranks");
      return false;
    }
    if (s_.arena_size < 0 || s_.arena_size > INT64_MAX / 8) {
      emit(Severity::Error, Check::Structure, -1, -1, -1,
           "arena of " + std::to_string(s_.arena_size) +
               " doubles is negative or too large to address in bytes");
      return false;
    }

    for (std::size_t m = 0; m < s_.messages.size(); ++m) {
      const auto& msg = s_.messages[m];
      const auto id = static_cast<std::int32_t>(m);
      if (msg.src < 0 || msg.src >= s_.nranks || msg.dst < 0 ||
          msg.dst >= s_.nranks) {
        emit(Severity::Error, Check::Structure, -1, -1, id,
             "message " + std::to_string(m) + " has endpoints " +
                 std::to_string(msg.src) + " -> " + std::to_string(msg.dst) +
                 " outside [0, " + std::to_string(s_.nranks) + ")");
        continue;
      }
      if (msg.src == msg.dst) {
        emit(Severity::Warning, Check::Structure, msg.src, -1, id,
             msg_str(id) + " is a self-message; the IR contract wants local "
                           "copies instead");
      }
      if (!region_in_arena(msg.src_region, s_.arena_size)) {
        emit(Severity::Error, Check::Structure, msg.src, -1, id,
             msg_str(id) + " source region " + region_str(msg.src_region) +
                 " leaves the arena of " + std::to_string(s_.arena_size) +
                 " doubles");
      }
      if (!region_in_arena(msg.dst_region, s_.arena_size)) {
        emit(Severity::Error, Check::Structure, msg.dst, -1, id,
             msg_str(id) + " destination region " + region_str(msg.dst_region) +
                 " leaves the arena of " + std::to_string(s_.arena_size) +
                 " doubles");
      }
      if (msg.src_region.count != msg.dst_region.count) {
        emit(Severity::Error, Check::Conservation, msg.dst, -1, id,
             "message " + std::to_string(m) + " sends " +
                 bytes_str(msg.src_region.count) + " from rank " +
                 std::to_string(msg.src) + " but receives " +
                 bytes_str(msg.dst_region.count) + " on rank " +
                 std::to_string(msg.dst) + ": payload not conserved");
      }
    }

    send_round_.assign(s_.messages.size(), -1);
    recv_round_.assign(s_.messages.size(), -1);
    bool ops_sound = true;
    std::vector<int> sent(s_.messages.size(), 0);
    std::vector<int> received(s_.messages.size(), 0);
    for (std::int32_t rank = 0; rank < s_.nranks; ++rank) {
      const auto& rounds = s_.programs[static_cast<std::size_t>(rank)].rounds;
      for (std::size_t k = 0; k < rounds.size(); ++k) {
        const auto round = static_cast<int>(k);
        for (const auto& op : rounds[k].sends) {
          if (!check_op(true, op.msg, rank, round, sent, send_round_)) {
            ops_sound = false;
          }
        }
        for (const auto& op : rounds[k].recvs) {
          if (!check_op(false, op.msg, rank, round, received, recv_round_)) {
            ops_sound = false;
          }
        }
        for (std::size_t c = 0; c < rounds[k].copies.size(); ++c) {
          const auto& op = rounds[k].copies[c];
          if (!region_in_arena(op.src, s_.arena_size) ||
              !region_in_arena(op.dst, s_.arena_size)) {
            emit(Severity::Error, Check::Structure, rank, round, -1,
                 "copy " + std::to_string(c) + " on rank " +
                     std::to_string(rank) + " round " + std::to_string(round) +
                     " touches " + region_str(op.src) + " -> " +
                     region_str(op.dst) + " outside the arena of " +
                     std::to_string(s_.arena_size) + " doubles");
          }
          if (op.src.count != op.dst.count) {
            emit(Severity::Error, Check::Structure, rank, round, -1,
                 "copy " + std::to_string(c) + " on rank " +
                     std::to_string(rank) + " round " + std::to_string(round) +
                     " copies " + std::to_string(op.src.count) +
                     " doubles into a region of " +
                     std::to_string(op.dst.count));
          }
        }
        if (rounds[k].compute_seconds < 0) {
          emit(Severity::Error, Check::Structure, rank, round, -1,
               "negative compute time on rank " + std::to_string(rank) +
                   " round " + std::to_string(round));
        }
      }
    }

    for (std::size_t m = 0; m < s_.messages.size(); ++m) {
      const auto& msg = s_.messages[m];
      if (msg.src < 0 || msg.src >= s_.nranks || msg.dst < 0 ||
          msg.dst >= s_.nranks) {
        ops_sound = false;  // endpoint errors already reported above
        continue;
      }
      const auto id = static_cast<std::int32_t>(m);
      if (sent[m] != 1) {
        emit(Severity::Error, Check::Conservation, msg.src, send_round_[m], id,
             msg_str(id) + " is posted " + std::to_string(sent[m]) +
                 " times by rank " + std::to_string(msg.src) +
                 " (must be exactly once)");
        ops_sound = false;
      }
      if (received[m] != 1) {
        emit(Severity::Error, Check::Conservation, msg.dst, recv_round_[m], id,
             msg_str(id) + " is received " + std::to_string(received[m]) +
                 " times by rank " + std::to_string(msg.dst) +
                 " (must be exactly once)");
        ops_sound = false;
      }
    }

    // Deeper passes index messages[op.msg] and send/recv rounds freely; any
    // dangling reference or multiplicity error above makes that unsafe or
    // meaningless. (Warnings — e.g. self-messages — do not block them.)
    return ops_sound && errors_ == errors_before;
  }

  // ---- Deadlock ------------------------------------------------------------
  //
  // Node (rank, round) stands for "rank completes round": its receives have
  // all been delivered and the rank may enter the next round. Dependencies:
  //   * (rank, k) depends on (rank, k-1): rounds complete in program order;
  //   * (dst, recv_round) depends on (src, send_round - 1) for each message:
  //     the payload is snapshotted when the sender *enters* send_round,
  //     i.e. right after it completes send_round - 1 (no dependency when
  //     send_round == 0 — entering round 0 is unconditional).
  // The executor realises exactly these edges, so it deadlocks iff this
  // graph has a cycle.

  std::size_t node(std::int32_t rank, int round) const {
    return node_base_[static_cast<std::size_t>(rank)] +
           static_cast<std::size_t>(round);
  }

  void deadlock() {
    // Fast acyclicity certificate: when every message is posted no later
    // than the round that waits for it, every happens-before edge strictly
    // decreases the round number — program-order edges by construction,
    // message edges because (dst, recv_round) then depends on
    // (src, send_round - 1) with send_round - 1 < recv_round. A strictly
    // decreasing potential admits no cycle, so the graph search is only
    // needed for schedules that message "backwards" across rounds.
    bool monotone = true;
    for (std::size_t m = 0; m < s_.messages.size(); ++m) {
      if (send_round_[m] > recv_round_[m]) {
        monotone = false;
        break;
      }
    }
    if (monotone) return;
    node_base_.assign(static_cast<std::size_t>(s_.nranks) + 1, 0);
    for (std::int32_t rank = 0; rank < s_.nranks; ++rank) {
      node_base_[static_cast<std::size_t>(rank) + 1] =
          node_base_[static_cast<std::size_t>(rank)] +
          s_.programs[static_cast<std::size_t>(rank)].rounds.size();
    }
    const std::size_t nodes = node_base_.back();
    if (nodes == 0) return;

    // CSR adjacency (count, prefix-sum, fill): one allocation for all edges
    // instead of one per node — this pass runs on every plan compile, so
    // constant factors matter.
    struct Dep {
      std::size_t to;
      std::int32_t msg;  ///< -1 for a program-order edge.
    };
    std::vector<std::size_t> head(nodes + 1, 0);
    for (std::int32_t rank = 0; rank < s_.nranks; ++rank) {
      const auto& rounds = s_.programs[static_cast<std::size_t>(rank)].rounds;
      for (std::size_t k = 1; k < rounds.size(); ++k) {
        ++head[node(rank, static_cast<int>(k)) + 1];
      }
    }
    for (std::size_t m = 0; m < s_.messages.size(); ++m) {
      if (send_round_[m] <= 0) continue;  // posted unconditionally
      ++head[node(s_.messages[m].dst, recv_round_[m]) + 1];
    }
    for (std::size_t n = 0; n < nodes; ++n) head[n + 1] += head[n];
    std::vector<Dep> deps(head.back());
    std::vector<std::size_t> cursor(head.begin(), head.end() - 1);
    for (std::int32_t rank = 0; rank < s_.nranks; ++rank) {
      const auto& rounds = s_.programs[static_cast<std::size_t>(rank)].rounds;
      for (std::size_t k = 1; k < rounds.size(); ++k) {
        deps[cursor[node(rank, static_cast<int>(k))]++] =
            Dep{node(rank, static_cast<int>(k) - 1), -1};
      }
    }
    for (std::size_t m = 0; m < s_.messages.size(); ++m) {
      if (send_round_[m] <= 0) continue;
      const auto& msg = s_.messages[m];
      deps[cursor[node(msg.dst, recv_round_[m])]++] =
          Dep{node(msg.src, send_round_[m] - 1), static_cast<std::int32_t>(m)};
    }

    // Iterative colored DFS over the dependency edges; a gray target is a
    // cycle, recovered from the explicit stack.
    enum : unsigned char { White, Gray, Black };
    std::vector<unsigned char> color(nodes, White);
    struct Frame {
      std::size_t node;
      std::size_t next_dep;
      std::int32_t via_msg;  ///< edge that led here from the frame below.
    };
    std::vector<Frame> stack;
    for (std::size_t root = 0; root < nodes; ++root) {
      if (color[root] != White) continue;
      stack.push_back(Frame{root, 0, -1});
      color[root] = Gray;
      while (!stack.empty()) {
        Frame& f = stack.back();
        if (head[f.node] + f.next_dep < head[f.node + 1]) {
          const Dep d = deps[head[f.node] + f.next_dep++];
          if (color[d.to] == White) {
            color[d.to] = Gray;
            stack.push_back(Frame{d.to, 0, d.msg});
          } else if (color[d.to] == Gray) {
            report_cycle(stack, d);
            return;  // one cycle is enough to prove deadlock
          }
        } else {
          color[f.node] = Black;
          stack.pop_back();
        }
      }
    }
  }

  std::pair<std::int32_t, int> rank_round(std::size_t n) const {
    const auto it =
        std::upper_bound(node_base_.begin(), node_base_.end(), n) - 1;
    const auto rank =
        static_cast<std::int32_t>(it - node_base_.begin());
    return {rank, static_cast<int>(n - *it)};
  }

  template <typename Frame, typename Dep>
  void report_cycle(const std::vector<Frame>& stack, const Dep& closing) {
    // The cycle is the suffix of the DFS stack from the frame holding
    // closing.to, plus the closing edge back to it.
    std::size_t start = stack.size();
    while (start > 0 && stack[start - 1].node != closing.to) --start;
    --start;  // frame whose node == closing.to

    std::ostringstream os;
    const std::size_t len = stack.size() - start;
    os << "happens-before cycle over " << len
       << (len == 1 ? " round" : " rounds") << ":\n";
    // Walk the cycle in dependency direction: each frame waits on the next
    // (frames above in the stack), and the last edge closes back onto the
    // first frame.
    for (std::size_t i = start; i < stack.size(); ++i) {
      const auto [rank, round] = rank_round(stack[i].node);
      const std::int32_t via =
          i + 1 < stack.size() ? stack[i + 1].via_msg : closing.msg;
      os << "  rank " << rank << " cannot complete round " << round;
      if (via >= 0) {
        const auto& msg = s_.messages[static_cast<std::size_t>(via)];
        os << ": it waits for " << msg_str(via) << ", which rank " << msg.src
           << " only posts on entering round "
           << send_round_[static_cast<std::size_t>(via)];
      } else {
        os << " before its own earlier round (program order)";
      }
      os << "\n";
    }
    const auto [rank0, round0] = rank_round(stack[start].node);
    os << "  ... which closes the cycle at rank " << rank0 << " round "
       << round0;

    const auto [r, k] = rank_round(stack[start].node);
    std::int32_t first_msg = closing.msg;
    for (std::size_t i = start + 1; i < stack.size() && first_msg < 0; ++i) {
      first_msg = stack[i].via_msg;
    }
    emit(Severity::Error, Check::Deadlock, r, k, first_msg, os.str());
  }

  // ---- Write races ---------------------------------------------------------
  //
  // Within one round on one rank the executor's contract is copies -> sends
  // (snapshot) -> receives, but a real MPI runtime completes the posted
  // receives in arbitrary order and DMA-writes their buffers concurrently
  // with local work. Two same-round writes to overlapping regions are
  // therefore nondeterministic unless they accumulate with the same
  // commutative combine:
  //   * recv/recv — Error unless both use the same commutative combine;
  //   * recv/copy — Error: the copy is ordered before the combine in the
  //     simulator but races with the DMA write on real hardware;
  //   * copy/copy — Warning: deterministic under the executor's in-order
  //     copy execution, but order-dependent (a refactoring hazard).

  void races() {
    struct Write {
      Region region;
      Combine combine;
      bool is_recv;
      std::int32_t id;  ///< message id for recvs, copy index for copies.
    };
    std::vector<Write> writes;
    for (std::int32_t rank = 0; rank < s_.nranks; ++rank) {
      const auto& rounds = s_.programs[static_cast<std::size_t>(rank)].rounds;
      for (std::size_t k = 0; k < rounds.size(); ++k) {
        const auto round = static_cast<int>(k);
        writes.clear();
        for (std::size_t c = 0; c < rounds[k].copies.size(); ++c) {
          const auto& op = rounds[k].copies[c];
          if (op.dst.count <= 0) continue;
          writes.push_back(Write{op.dst, op.combine, false,
                                 static_cast<std::int32_t>(c)});
        }
        for (const auto& op : rounds[k].recvs) {
          const auto& msg = s_.messages[static_cast<std::size_t>(op.msg)];
          if (msg.dst_region.count <= 0) continue;
          writes.push_back(Write{msg.dst_region, msg.combine, true, op.msg});
        }
        if (writes.size() < 2) continue;
        std::sort(writes.begin(), writes.end(),
                  [](const Write& a, const Write& b) {
                    return a.region.offset < b.region.offset;
                  });
        for (std::size_t i = 0; i < writes.size(); ++i) {
          for (std::size_t j = i + 1; j < writes.size(); ++j) {
            if (writes[j].region.offset >=
                writes[i].region.offset + writes[i].region.count) {
              break;  // sorted by offset: nothing later overlaps i either
            }
            conflict(rank, round, writes[i], writes[j]);
          }
        }
      }
    }
  }

  template <typename Write>
  void conflict(std::int32_t rank, int round, const Write& a, const Write& b) {
    const auto describe = [&](const Write& w) {
      std::ostringstream os;
      if (w.is_recv) {
        os << "recv of " << msg_str(w.id);
      } else {
        os << "copy " << w.id;
      }
      os << " (" << combine_name(w.combine) << " into "
         << region_str(w.region) << ")";
      return os.str();
    };
    if (a.is_recv && b.is_recv) {
      if (a.combine == b.combine && commutative(a.combine)) return;
      emit(Severity::Error, Check::Race, rank, round, a.id,
           "overlapping receives on rank " + std::to_string(rank) + " round " +
               std::to_string(round) + ": " + describe(a) + " vs " +
               describe(b) +
               "; completion order decides the result");
    } else if (a.is_recv || b.is_recv) {
      const Write& recv = a.is_recv ? a : b;
      const Write& copy = a.is_recv ? b : a;
      emit(Severity::Error, Check::Race, rank, round, recv.id,
           "local copy races a posted receive on rank " + std::to_string(rank) +
               " round " + std::to_string(round) + ": " + describe(copy) +
               " vs " + describe(recv) +
               "; the receive buffer may be written concurrently");
    } else {
      emit(Severity::Warning, Check::Race, rank, round, -1,
           "overlapping local copies on rank " + std::to_string(rank) +
               " round " + std::to_string(round) + ": " + describe(a) +
               " vs " + describe(b) +
               "; result depends on the executor's in-order copy execution");
    }
  }

  // ---- Dataflow lints ------------------------------------------------------
  //
  // Arenas are rank-private, so dataflow is a per-rank sequential replay in
  // the executor's op order (copies, then send snapshots, then receive
  // combines). A segment map tracks, per double, the last writing op and
  // whether anything read it since; a write whose every double is
  // overwritten unread is dead, and a read of a never-written double is an
  // external input (or uninitialised data, per Options).

  struct Event {
    std::int32_t rank;
    int round;
    bool is_recv;
    std::int32_t id;  ///< message id for recvs, copy index for copies.
    std::int64_t total = 0;
    std::int64_t read = 0;
    std::int64_t killed = 0;
  };

  struct Segment {
    std::int64_t start;
    std::int64_t end;
    std::size_t writer;
    bool read_since_write;
  };
  /// Sorted, non-overlapping segments. A flat vector beats a node-based map
  /// here: a rank's arena decomposes into a handful of live intervals, and
  /// this replay runs on every plan compile.
  using SegMap = std::vector<Segment>;

  static SegMap::iterator seg_lower_bound(SegMap& segs, std::int64_t x) {
    return std::lower_bound(
        segs.begin(), segs.end(), x,
        [](const Segment& seg, std::int64_t v) { return seg.start < v; });
  }

  /// Ensure no segment straddles `x`.
  static void split_at(SegMap& segs, std::int64_t x) {
    auto it = seg_lower_bound(segs, x);
    if (it == segs.begin()) return;
    --it;
    if (it->start < x && x < it->end) {
      Segment upper = *it;
      upper.start = x;
      it->end = x;
      segs.insert(it + 1, upper);
    }
  }

  void dataflow_read(SegMap& segs, std::vector<Event>& events,
                     std::vector<Region>& inputs, const Region& r) {
    if (r.count <= 0) return;
    const std::int64_t lo = r.offset, hi = r.offset + r.count;
    split_at(segs, lo);
    split_at(segs, hi);
    // After the splits no segment straddles lo or hi, so every segment that
    // intersects [lo, hi) lies entirely inside it.
    std::int64_t cursor = lo;
    for (auto it = seg_lower_bound(segs, lo); it != segs.end() && it->start < hi;
         ++it) {
      if (it->start > cursor) inputs.push_back(Region{cursor, it->start - cursor});
      events[it->writer].read += it->end - it->start;
      it->read_since_write = true;
      cursor = it->end;
    }
    if (cursor < hi) inputs.push_back(Region{cursor, hi - cursor});
  }

  void dataflow_write(SegMap& segs, std::vector<Event>& events,
                      std::size_t writer, const Region& r) {
    if (r.count <= 0) return;
    const std::int64_t lo = r.offset, hi = r.offset + r.count;
    split_at(segs, lo);
    split_at(segs, hi);
    const auto first = seg_lower_bound(segs, lo);
    auto it = first;
    for (; it != segs.end() && it->start < hi; ++it) {
      if (!it->read_since_write) {
        events[it->writer].killed += it->end - it->start;
      }
    }
    events[writer].total += r.count;
    // Replace the covered segments with the single new one in place.
    if (first != it) {
      *first = Segment{lo, hi, writer, false};
      segs.erase(first + 1, it);
    } else {
      segs.insert(first, Segment{lo, hi, writer, false});
    }
  }

  void dataflow() {
    std::vector<Event> events;
    SegMap segs;
    std::vector<Region> inputs;
    for (std::int32_t rank = 0; rank < s_.nranks; ++rank) {
      events.clear();
      segs.clear();
      inputs.clear();
      const auto& rounds = s_.programs[static_cast<std::size_t>(rank)].rounds;
      for (std::size_t k = 0; k < rounds.size(); ++k) {
        const auto round = static_cast<int>(k);
        for (std::size_t c = 0; c < rounds[k].copies.size(); ++c) {
          const auto& op = rounds[k].copies[c];
          dataflow_read(segs, events, inputs, op.src);
          if (op.combine != Combine::Replace) {
            dataflow_read(segs, events, inputs, op.dst);
          }
          events.push_back(
              Event{rank, round, false, static_cast<std::int32_t>(c)});
          dataflow_write(segs, events, events.size() - 1, op.dst);
        }
        for (const auto& op : rounds[k].sends) {
          const auto& msg = s_.messages[static_cast<std::size_t>(op.msg)];
          dataflow_read(segs, events, inputs, msg.src_region);
        }
        for (const auto& op : rounds[k].recvs) {
          const auto& msg = s_.messages[static_cast<std::size_t>(op.msg)];
          if (msg.combine != Combine::Replace) {
            dataflow_read(segs, events, inputs, msg.dst_region);
          }
          events.push_back(Event{rank, round, true, op.msg});
          dataflow_write(segs, events, events.size() - 1, msg.dst_region);
        }
      }
      for (const auto& e : events) {
        if (e.total > 0 && e.read == 0 && e.killed == e.total) {
          std::ostringstream os;
          if (e.is_recv) {
            os << "payload of " << msg_str(e.id);
          } else {
            os << "result of copy " << e.id;
          }
          os << " on rank " << e.rank << " round " << e.round
             << " is fully overwritten before any read (dead write)";
          emit(Severity::Warning, Check::DeadWrite, e.rank, e.round,
               e.is_recv ? e.id : -1, os.str());
        }
      }
      if (!inputs.empty()) report_inputs(rank, inputs);
    }
  }

  void report_inputs(std::int32_t rank, std::vector<Region>& inputs) {
    // Inputs are expected under the default contract and not reported:
    // skip the merge/format work entirely.
    if (opt_.assume_inputs_initialized && !opt_.report_inputs) return;
    std::sort(inputs.begin(), inputs.end(),
              [](const Region& a, const Region& b) {
                return a.offset < b.offset;
              });
    std::vector<Region> merged;
    for (const auto& r : inputs) {
      if (!merged.empty() && r.offset <= merged.back().offset + merged.back().count) {
        merged.back().count = std::max(merged.back().count,
                                       r.offset + r.count - merged.back().offset);
      } else {
        merged.push_back(r);
      }
    }
    std::ostringstream os;
    os << "rank " << rank << " reads ";
    for (std::size_t i = 0; i < merged.size(); ++i) {
      if (i) os << ", ";
      os << region_str(merged[i]);
    }
    if (opt_.assume_inputs_initialized) {
      if (!opt_.report_inputs) return;
      os << " before any write: inferred external input regions";
      emit(Severity::Info, Check::UninitRead, rank, -1, -1, os.str());
    } else {
      os << " before any write, and nothing initialises the arena: "
            "uninitialised data flows into the result";
      emit(Severity::Warning, Check::UninitRead, rank, -1, -1, os.str());
    }
  }

  const Schedule& s_;
  const Options& opt_;
  Report report_;
  std::size_t suppressed_ = 0;
  std::size_t errors_ = 0;
  std::vector<int> send_round_;
  std::vector<int> recv_round_;
  std::vector<std::size_t> node_base_;
};

}  // namespace

namespace {
std::atomic<std::uint64_t> g_analyze_calls{0};
}  // namespace

Report analyze(const Schedule& schedule, const Options& options) {
  g_analyze_calls.fetch_add(1, std::memory_order_relaxed);
  return Analyzer(schedule, options).run(Depth::All);
}

Report analyze_structure(const Schedule& schedule) {
  const Options defaults;
  return Analyzer(schedule, defaults).run(Depth::Structure);
}

Report analyze_deadlock(const Schedule& schedule) {
  const Options defaults;
  return Analyzer(schedule, defaults).run(Depth::Deadlock);
}

std::uint64_t analyze_call_count() {
  return g_analyze_calls.load(std::memory_order_relaxed);
}

}  // namespace mr::verify
