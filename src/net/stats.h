// Per-processor communication accounting.
//
// Theorem 1's headline claim is Õ(√n) bits *sent per processor*; the ledger
// tracks sends and receipts separately for good and corrupted processors so
// benches can report protocol cost (good sends) independently of adversarial
// flooding (corrupt sends).
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "net/message.h"

namespace ba {

class BitLedger {
 public:
  explicit BitLedger(std::size_t n)
      : bits_sent_(n, 0), msgs_sent_(n, 0), bits_recv_(n, 0) {}

  void charge_send(ProcId p, std::size_t bits) {
    bits_sent_[p] += bits;
    msgs_sent_[p] += 1;
  }
  /// Charge `msgs` messages from p totalling `bits` (headers included).
  /// Equivalent to `msgs` charge_send calls.
  void charge_send_batch(ProcId p, std::uint64_t msgs, std::uint64_t bits) {
    bits_sent_[p] += bits;
    msgs_sent_[p] += msgs;
  }
  void charge_recv(ProcId p, std::size_t bits) { bits_recv_[p] += bits; }

  std::uint64_t bits_sent(ProcId p) const { return bits_sent_[p]; }
  std::uint64_t msgs_sent(ProcId p) const { return msgs_sent_[p]; }
  std::uint64_t bits_received(ProcId p) const { return bits_recv_[p]; }

  /// Max bits sent over processors p with mask[p] == keep.
  std::uint64_t max_bits_sent(const std::vector<bool>& mask, bool keep) const {
    std::uint64_t best = 0;
    for (std::size_t p = 0; p < bits_sent_.size(); ++p)
      if (mask[p] == keep) best = std::max(best, bits_sent_[p]);
    return best;
  }

  std::uint64_t total_bits_sent(const std::vector<bool>& mask, bool keep) const {
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < bits_sent_.size(); ++p)
      if (mask[p] == keep) total += bits_sent_[p];
    return total;
  }

  std::uint64_t total_msgs_sent(const std::vector<bool>& mask, bool keep) const {
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < msgs_sent_.size(); ++p)
      if (mask[p] == keep) total += msgs_sent_[p];
    return total;
  }

 private:
  std::vector<std::uint64_t> bits_sent_;
  std::vector<std::uint64_t> msgs_sent_;
  std::vector<std::uint64_t> bits_recv_;
};

}  // namespace ba
