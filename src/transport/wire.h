// The wire format: length-prefixed, opcode-tagged frames for the socket
// transport (transport/tcp.h).
//
// Every frame is `u32 body_len (LE) | body`, and every body starts with a
// one-byte opcode. Fields are fixed-width little-endian — no varints, no
// padding — so encode(decode(bytes)) and decode(encode(frame)) are both
// byte-exact (the transport_wire_test fuzz referee pins this for every
// opcode shape).
//
//   kHello     version handshake: magic, wire version, node id, node
//              count, processor count, and a digest of the run's full job
//              line — two endpoints speaking different protocol versions
//              or different runs refuse each other at connect time.
//   kEnvelope  one protocol message: sender, receiver, send round, tag,
//              honest content bit size, and the WordVec payload. The
//              receiver id is explicit because a node owns a *block* of
//              processors — one TCP stream carries envelopes for all of
//              them. The honest bit size rides the wire because it is the
//              paper's cost measure, not derivable from the word count
//              (a 1-bit vote still occupies a 64-bit word).
//   kRoundDone the round barrier marker: "every round-r envelope I owe
//              you precedes this frame", with the count and a running
//              digest of those frames so the receiver can verify
//              completeness before advancing.
//   kBye       end-of-run cross-check: decided bit, run fingerprint, and
//              combined transcript digest — peers that disagree on the
//              outcome fail loudly at shutdown instead of silently.
//
// Decoding is strict: a body whose length does not exactly match its
// opcode's layout (truncated or trailing bytes), an unknown opcode, a bad
// magic/version, an oversized word count, or a length prefix beyond the
// configured frame cap all throw WireError with a precise message. The
// FrameReader below is the deferred-parsing half: it slices complete raw
// frame bodies out of a byte stream (bytes may arrive in any fragmentation)
// without decoding them — bodies are parsed only when consumed.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"  // Fnv1a
#include "net/message.h"

namespace ba::transport {

/// Malformed frame: truncated, oversized, unknown opcode, bad handshake.
struct WireError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kMagic = 0x42415750u;  // "PWAB" on the wire
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kLenPrefixBytes = 4;
/// Default cap on one frame's body; a length prefix beyond the cap is
/// rejected before any allocation (flood/corruption containment).
inline constexpr std::size_t kDefaultMaxFrameBytes = 1u << 20;

enum class Opcode : std::uint8_t {
  kHello = 1,
  kEnvelope = 2,
  kRoundDone = 3,
  kBye = 4,
};

struct HelloFrame {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kWireVersion;
  std::uint32_t node_id = 0;       ///< sender's node (process) id
  std::uint32_t nodes = 0;         ///< node count in the peer table
  std::uint32_t n = 0;             ///< processor count of the run
  std::uint64_t config_digest = 0; ///< digest of the run's job line
};

struct EnvelopeFrame {
  ProcId from = 0;
  ProcId to = 0;
  std::uint64_t round = 0;
  std::uint32_t tag = 0;
  std::uint64_t content_bits = 0;  ///< honest size, excluding header bits
  WordVec words;
};

struct RoundDoneFrame {
  std::uint64_t round = 0;
  std::uint32_t count = 0;   ///< envelope frames sent to this peer in round
  std::uint64_t digest = 0;  ///< running digest of those frames
};

struct ByeFrame {
  std::int32_t decided = -1;
  std::uint64_t fingerprint = 0;        ///< RunReport fingerprint
  std::uint64_t transcript_digest = 0;  ///< TranscriptCapture::combined()
};

/// Append one length-prefixed frame to `out`.
void encode(std::vector<std::uint8_t>& out, const HelloFrame& f);
void encode(std::vector<std::uint8_t>& out, const EnvelopeFrame& f);
void encode(std::vector<std::uint8_t>& out, const RoundDoneFrame& f);
void encode(std::vector<std::uint8_t>& out, const ByeFrame& f);

/// The envelope frame for an Envelope (honest bit size preserved).
EnvelopeFrame make_envelope_frame(const Envelope& e);

/// Total stream bytes (length prefix + body) of an envelope frame
/// carrying `nwords` payload words — what the loopback backend meters
/// with, so its byte accounting matches what a socket run would ship.
inline constexpr std::size_t envelope_frame_bytes(std::size_t nwords) {
  return kLenPrefixBytes + 1 /*op*/ + 4 /*from*/ + 4 /*to*/ + 8 /*round*/ +
         4 /*tag*/ + 8 /*content_bits*/ + 4 /*nwords*/ + 8 * nwords;
}

/// Mix an envelope frame into the round's running ack digest, field by
/// field — both ends compute it over the same frame sequence.
void mix_envelope_frame(Fnv1a& d, const EnvelopeFrame& f);

/// Opcode of a raw frame body. Throws WireError on empty body or a value
/// outside the opcode enum.
Opcode peek_opcode(const std::uint8_t* body, std::size_t len);

/// Strict decoders: the body must match the opcode's exact layout.
HelloFrame decode_hello(const std::uint8_t* body, std::size_t len);
EnvelopeFrame decode_envelope(const std::uint8_t* body, std::size_t len,
                              std::size_t max_frame_bytes =
                                  kDefaultMaxFrameBytes);
RoundDoneFrame decode_round_done(const std::uint8_t* body, std::size_t len);
ByeFrame decode_bye(const std::uint8_t* body, std::size_t len);

/// Incremental frame scanner over one peer's byte stream (deferred
/// parsing): feed() accepts bytes in arbitrary fragmentation, next() pops
/// complete raw frame *bodies* in stream order without decoding them.
/// Oversized or zero-length prefixes throw at feed time — a corrupt
/// stream is detected at the frame boundary, before any body allocation.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Append stream bytes; slices any newly-completed frames into the
  /// ready queue. Throws WireError on a bad length prefix.
  void feed(const std::uint8_t* data, std::size_t len);

  /// Pop the next complete frame body (false when none is ready).
  bool next(std::vector<std::uint8_t>& body);

  /// Complete frames ready to pop.
  std::size_t ready() const { return ready_.size(); }
  /// Bytes of the trailing incomplete frame still buffered.
  std::size_t partial_bytes() const { return buf_.size() - head_; }

 private:
  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buf_;  ///< undecoded tail of the stream
  std::size_t head_ = 0;           ///< consumed prefix of buf_
  std::deque<std::vector<std::uint8_t>> ready_;
};

}  // namespace ba::transport
