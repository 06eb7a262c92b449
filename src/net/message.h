// Message types for the synchronous point-to-point network.
//
// The paper's cost measure is *bits sent per processor*; every payload
// therefore carries an explicit bit size. Helpers construct payloads with
// honest information-theoretic sizes (a vote is 1 bit, a field element is
// 61 bits, a bin choice is log2(numBins) bits). Addressing/framing overhead
// is charged as a small constant header, matching the paper's Õ(·)
// accounting which absorbs O(log n) factors.
//
// Payload storage is small-buffer-optimized: almost every message in the
// protocols carries at most two words (a vote, a field element, a tagged
// coin flip), so `WordVec` keeps up to two words inline and only spills to
// the heap for bulk arrays. At n = 4096 a single all-to-all round is ~16M
// payloads; making them allocation-free is what keeps the simulator at the
// protocol's asymptotics instead of the allocator's. A spilled WordVec
// owns its heap words, and a copy copies them.
#pragma once

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "common/check.h"
#include "common/field.h"  // kWordBits

namespace ba {

using ProcId = std::uint32_t;

/// Bits charged per message for addressing/round framing.
inline constexpr std::size_t kHeaderBits = 16;

/// Word storage with inline capacity for the common tiny messages.
/// Mirrors the slice of std::vector<uint64_t> the protocols use
/// (push_back / reserve / insert-at-end / indexing / iteration) but never
/// touches the heap for sizes <= kInlineWords.
class WordVec {
 public:
  static constexpr std::size_t kInlineWords = 2;

  WordVec() = default;
  WordVec(std::initializer_list<std::uint64_t> init) {
    assign(init.begin(), init.size());
  }
  /// Convenience bridge from vector-producing call sites (bulk arrays).
  WordVec(const std::vector<std::uint64_t>& v) { assign(v.data(), v.size()); }

  WordVec(const WordVec& o) { assign(o.data(), o.size_); }
  WordVec(WordVec&& o) noexcept { steal(o); }
  WordVec& operator=(const WordVec& o) {
    if (this != &o) assign(o.data(), o.size_);
    return *this;
  }
  WordVec& operator=(WordVec&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  ~WordVec() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }
  /// True while the contents live in the inline buffer (no allocation).
  bool is_inline() const { return heap_ == nullptr; }

  std::uint64_t* data() { return heap_ ? heap_ : inline_; }
  const std::uint64_t* data() const { return heap_ ? heap_ : inline_; }

  std::uint64_t& operator[](std::size_t i) { return data()[i]; }
  std::uint64_t operator[](std::size_t i) const { return data()[i]; }

  std::uint64_t* begin() { return data(); }
  std::uint64_t* end() { return data() + size_; }
  const std::uint64_t* begin() const { return data(); }
  const std::uint64_t* end() const { return data() + size_; }

  void clear() { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  void push_back(std::uint64_t w) {
    if (size_ == cap_) grow(size_ + 1);
    data()[size_++] = w;
  }

  /// Insert [first, last) before pos (pos must point into this WordVec).
  template <typename It>
  std::uint64_t* insert(std::uint64_t* pos, It first, It last) {
    const std::size_t at = static_cast<std::size_t>(pos - begin());
    BA_REQUIRE(at <= size_, "insert position out of range");
    const std::size_t count = static_cast<std::size_t>(std::distance(first, last));
    if (count == 0) return begin() + at;
    if (size_ + count > cap_) grow(size_ + count);
    std::uint64_t* base = data();
    std::memmove(base + at + count, base + at, (size_ - at) * sizeof(std::uint64_t));
    for (std::size_t i = 0; i < count; ++i, ++first) base[at + i] = *first;
    size_ += count;
    return base + at;
  }

  friend bool operator==(const WordVec& a, const WordVec& b) {
    if (a.size_ != b.size_) return false;
    return std::memcmp(a.data(), b.data(), a.size_ * sizeof(std::uint64_t)) == 0;
  }
  friend bool operator!=(const WordVec& a, const WordVec& b) { return !(a == b); }

 private:
  void assign(const std::uint64_t* src, std::size_t n) {
    if (n > cap_) grow(n);
    // An empty source may be a null pointer, which memcpy must not get.
    if (n != 0) std::memcpy(data(), src, n * sizeof(std::uint64_t));
    size_ = static_cast<std::uint32_t>(n);
  }
  void steal(WordVec& o) noexcept {
    heap_ = o.heap_;
    size_ = o.size_;
    cap_ = o.cap_;
    if (!heap_) std::memcpy(inline_, o.inline_, sizeof(inline_));
    o.heap_ = nullptr;
    o.size_ = 0;
    o.cap_ = kInlineWords;
  }
  void grow(std::size_t need) {
    std::size_t ncap = cap_ * 2;
    if (ncap < need) ncap = need;
    auto* nheap = new std::uint64_t[ncap];
    std::memcpy(nheap, data(), size_ * sizeof(std::uint64_t));
    delete[] heap_;
    heap_ = nheap;
    cap_ = static_cast<std::uint32_t>(ncap);
  }
  void release() {
    delete[] heap_;
    heap_ = nullptr;
    cap_ = kInlineWords;
    size_ = 0;
  }

  std::uint64_t inline_[kInlineWords];
  std::uint64_t* heap_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInlineWords;
};

struct Payload {
  /// Protocol-defined message kind (each protocol defines its own enum).
  std::uint32_t tag = 0;
  /// Word-granular content (field elements, indices, packed bits).
  WordVec words;
  /// Exact content size in bits, excluding the header; defaults to
  /// 64 * words.size() unless the sender declares a tighter size.
  std::size_t content_bits = 0;

  std::size_t bits() const { return content_bits + kHeaderBits; }
};

/// Payload whose content is `words` full words of `bits_per_word` bits each.
inline Payload make_words_payload(std::uint32_t tag, WordVec words,
                                  std::size_t bits_per_word = kWordBits) {
  Payload p;
  p.tag = tag;
  p.content_bits = words.size() * bits_per_word;
  p.words = std::move(words);
  return p;
}

/// Payload carrying a single value of `bits` bits (e.g. a 1-bit vote).
inline Payload make_value_payload(std::uint32_t tag, std::uint64_t value,
                                  std::size_t bits) {
  Payload p;
  p.tag = tag;
  p.words = {value};
  p.content_bits = bits;
  return p;
}

/// One message as a reader sees it — a receiver or a transport backend:
/// sender, receiver, send round, and a reference to the payload.
/// Envelopes are views. The payload lives in the network's round store
/// (net/network.h), which keeps it alive for as long as the message can
/// be read, so no delivery step copies it. A reader that keeps a message
/// past that copies the payload.
struct Envelope {
  ProcId from = 0;
  ProcId to = 0;
  std::uint64_t round = 0;  ///< round in which the message was sent
  const Payload& payload;
};

}  // namespace ba
