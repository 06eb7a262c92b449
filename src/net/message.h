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
// protocol's asymptotics instead of the allocator's.
//
// Heap spills are copy-on-write: the spilled buffer carries an atomic
// refcount, copying a spilled WordVec shares the buffer, and the first
// mutating access (non-const data()/operator[]/iterators, push_back,
// insert, reserve-growth) detaches a private copy. Bulk fan-out — the
// same multi-word payload replicated to every receiver of a dealing
// group, an adversary echoing a captured payload — degrades from one
// O(words) allocation+copy per receiver to one pointer copy plus a
// relaxed increment. The inline fast path is untouched: tiny payloads
// never allocate, never refcount. Sharing is thread-compatible the same
// way shared_ptr is (the count is atomic; distinct WordVec instances
// sharing one buffer may be copied/destroyed from different pool
// workers, concurrent mutation of one instance is still the caller's
// race).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
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
/// touches the heap for sizes <= kInlineWords. Heap spills are shared
/// copy-on-write buffers (see the header comment): copies alias, mutation
/// detaches.
class WordVec {
 public:
  static constexpr std::size_t kInlineWords = 2;

  WordVec() = default;
  WordVec(std::initializer_list<std::uint64_t> init) {
    assign(init.begin(), init.size());
  }
  /// Convenience bridge from vector-producing call sites (bulk arrays).
  WordVec(const std::vector<std::uint64_t>& v) { assign(v.data(), v.size()); }

  WordVec(const WordVec& o) { adopt(o); }
  WordVec(WordVec&& o) noexcept { steal(o); }
  WordVec& operator=(const WordVec& o) {
    if (this != &o) {
      release();
      adopt(o);
    }
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
  /// True while this spilled buffer is aliased by other WordVecs
  /// (instrumentation; inline contents are never shared).
  bool is_shared() const {
    return heap_ != nullptr &&
           refs_of(heap_).load(std::memory_order_acquire) > 1;
  }

  std::uint64_t* data() {
    detach();
    return heap_ ? heap_ : inline_;
  }
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
    if (size_ == cap_)
      grow(size_ + 1);  // grow always lands on a private buffer
    else
      detach();
    (heap_ ? heap_ : inline_)[size_++] = w;
  }

  /// Insert [first, last) before pos (pos must point into this WordVec,
  /// obtained from a non-const begin()/end() — i.e. after any detach).
  template <typename It>
  std::uint64_t* insert(std::uint64_t* pos, It first, It last) {
    const std::size_t at = static_cast<std::size_t>(pos - begin());
    BA_REQUIRE(at <= size_, "insert position out of range");
    const std::size_t count = static_cast<std::size_t>(std::distance(first, last));
    if (count == 0) return begin() + at;
    if (size_ + count > cap_) grow(size_ + count);
    std::uint64_t* base = heap_ ? heap_ : inline_;
    std::memmove(base + at + count, base + at, (size_ - at) * sizeof(std::uint64_t));
    for (std::size_t i = 0; i < count; ++i, ++first) base[at + i] = *first;
    size_ += count;
    return base + at;
  }

  friend bool operator==(const WordVec& a, const WordVec& b) {
    if (a.size_ != b.size_) return false;
    if (a.heap_ != nullptr && a.heap_ == b.heap_) return true;  // aliased
    return std::memcmp(a.data(), b.data(), a.size_ * sizeof(std::uint64_t)) == 0;
  }
  friend bool operator!=(const WordVec& a, const WordVec& b) { return !(a == b); }

 private:
  using RefCount = std::atomic<std::uint64_t>;

  /// Heap buffers carry an atomic refcount in an 8-byte header directly
  /// before the words (keeps the word run 8-aligned).
  static std::uint64_t* new_buf(std::size_t cap) {
    void* raw = ::operator new(sizeof(RefCount) + cap * sizeof(std::uint64_t));
    new (raw) RefCount(1);
    return reinterpret_cast<std::uint64_t*>(static_cast<char*>(raw) +
                                            sizeof(RefCount));
  }
  static RefCount& refs_of(std::uint64_t* heap) {
    return *reinterpret_cast<RefCount*>(reinterpret_cast<char*>(heap) -
                                        sizeof(RefCount));
  }
  static void release_buf(std::uint64_t* heap) {
    RefCount& r = refs_of(heap);
    if (r.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      r.~RefCount();
      ::operator delete(reinterpret_cast<char*>(heap) - sizeof(RefCount));
    }
  }

  void assign(const std::uint64_t* src, std::size_t n) {
    if (n > cap_) grow(n);
    // An empty source may be a null pointer, which memcpy must not get.
    if (n != 0)
      std::memcpy(heap_ ? heap_ : inline_, src, n * sizeof(std::uint64_t));
    size_ = static_cast<std::uint32_t>(n);
  }
  /// Copy-construct from o into a released/fresh state: inline contents
  /// copy, spilled contents share.
  void adopt(const WordVec& o) {
    size_ = o.size_;
    if (o.heap_ != nullptr) {
      refs_of(o.heap_).fetch_add(1, std::memory_order_relaxed);
      heap_ = o.heap_;
      cap_ = o.cap_;
    } else {
      std::memcpy(inline_, o.inline_, size_ * sizeof(std::uint64_t));
    }
  }
  /// Replace a shared buffer with a private copy before the first write.
  /// One acquire load on the (common) unique path.
  void detach() {
    if (heap_ == nullptr ||
        refs_of(heap_).load(std::memory_order_acquire) == 1)
      return;
    auto* nheap = new_buf(cap_);
    std::memcpy(nheap, heap_, size_ * sizeof(std::uint64_t));
    release_buf(heap_);
    heap_ = nheap;
  }
  void steal(WordVec& o) noexcept {
    heap_ = o.heap_;
    size_ = o.size_;
    cap_ = o.cap_;
    if (!heap_)
      std::memcpy(inline_, o.inline_, size_ * sizeof(std::uint64_t));
    o.heap_ = nullptr;
    o.size_ = 0;
    o.cap_ = kInlineWords;
  }
  void grow(std::size_t need) {
    std::size_t ncap = cap_ * 2;
    if (ncap < need) ncap = need;
    auto* nheap = new_buf(ncap);
    std::memcpy(nheap, heap_ ? heap_ : inline_,
                size_ * sizeof(std::uint64_t));
    if (heap_ != nullptr) release_buf(heap_);
    heap_ = nheap;
    cap_ = static_cast<std::uint32_t>(ncap);
  }
  void release() {
    if (heap_ != nullptr) release_buf(heap_);
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
