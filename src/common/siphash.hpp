#pragma once
/// \file siphash.hpp
/// \brief Streaming SipHash-2-4 (Aumasson & Bernstein, "SipHash: a fast
/// short-input PRF", 2012) and the per-process random keys the plan and
/// shard caches hash their keys under.
///
/// A cache hit trusts a key match, so an unkeyed hash would let a
/// `serve --listen` client craft a request whose key collides with
/// another client's entry. SipHash is a keyed PRF: without the secret key
/// a collision cannot be aimed. Keys never leave the process, so a random
/// per-process key costs no determinism.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace adept {

/// A 128-bit SipHash key (two little-endian 64-bit halves).
struct SipKey {
  std::uint64_t k0 = 0;  ///< Key bytes 0-7.
  std::uint64_t k1 = 0;  ///< Key bytes 8-15.
};

/// Incremental SipHash-2-4 with a 64-bit output: update() any number of
/// times, then digest(). Chunking does not change the result.
class SipHasher {
 public:
  explicit SipHasher(SipKey key);

  /// Feeds the next bytes of the message.
  void update(std::string_view bytes);
  /// The hash of every byte fed so far (the hasher stays usable).
  std::uint64_t digest() const;

 private:
  void compress(std::uint64_t word);

  std::uint64_t v0_, v1_, v2_, v3_;
  std::uint64_t tail_ = 0;       ///< Bytes of the unfinished word.
  std::size_t tail_bytes_ = 0;   ///< How many (0-7).
  std::uint64_t length_ = 0;     ///< Message length so far.
};

/// The process's random SipHash key number `stream` (0 or 1), drawn once
/// from std::random_device on first use.
SipKey process_sip_key(std::size_t stream);

}  // namespace adept
