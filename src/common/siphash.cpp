#include "common/siphash.hpp"

#include <array>
#include <random>

#include "common/error.hpp"

namespace adept {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int bits) {
  return (x << bits) | (x >> (64 - bits));
}

void sip_round(std::uint64_t& v0, std::uint64_t& v1, std::uint64_t& v2,
               std::uint64_t& v3) {
  v0 += v1;
  v1 = rotl(v1, 13);
  v1 ^= v0;
  v0 = rotl(v0, 32);
  v2 += v3;
  v3 = rotl(v3, 16);
  v3 ^= v2;
  v0 += v3;
  v3 = rotl(v3, 21);
  v3 ^= v0;
  v2 += v1;
  v1 = rotl(v1, 17);
  v1 ^= v2;
  v2 = rotl(v2, 32);
}

std::uint64_t load_le64(const char* p) {
  std::uint64_t word = 0;
  for (int i = 7; i >= 0; --i)
    word = (word << 8) | static_cast<unsigned char>(p[i]);
  return word;
}

}  // namespace

SipHasher::SipHasher(SipKey key)
    : v0_(0x736f6d6570736575ull ^ key.k0),
      v1_(0x646f72616e646f6dull ^ key.k1),
      v2_(0x6c7967656e657261ull ^ key.k0),
      v3_(0x7465646279746573ull ^ key.k1) {}

void SipHasher::compress(std::uint64_t word) {
  v3_ ^= word;
  sip_round(v0_, v1_, v2_, v3_);
  sip_round(v0_, v1_, v2_, v3_);
  v0_ ^= word;
}

void SipHasher::update(std::string_view bytes) {
  length_ += bytes.size();
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  while (tail_bytes_ != 0 && n != 0) {  // finish a word split by chunking
    tail_ |= std::uint64_t{static_cast<unsigned char>(*p++)}
             << (8 * tail_bytes_);
    --n;
    if (++tail_bytes_ == 8) {
      compress(tail_);
      tail_ = 0;
      tail_bytes_ = 0;
    }
  }
  for (; n >= 8; p += 8, n -= 8) compress(load_le64(p));
  for (; n != 0; --n)
    tail_ |= std::uint64_t{static_cast<unsigned char>(*p++)}
             << (8 * tail_bytes_++);
}

std::uint64_t SipHasher::digest() const {
  std::uint64_t v0 = v0_, v1 = v1_, v2 = v2_, v3 = v3_;
  const std::uint64_t last = (length_ << 56) | tail_;
  v3 ^= last;
  sip_round(v0, v1, v2, v3);
  sip_round(v0, v1, v2, v3);
  v0 ^= last;
  v2 ^= 0xff;
  for (int i = 0; i < 4; ++i) sip_round(v0, v1, v2, v3);
  return v0 ^ v1 ^ v2 ^ v3;
}

SipKey process_sip_key(std::size_t stream) {
  static const std::array<SipKey, 2> keys = [] {
    std::random_device device;
    const auto draw = [&device] {
      return (std::uint64_t{device()} << 32) | device();
    };
    std::array<SipKey, 2> out;
    for (SipKey& key : out) key = SipKey{draw(), draw()};
    return out;
  }();
  ADEPT_ASSERT(stream < keys.size(), "no such SipHash key stream");
  return keys[stream];
}

}  // namespace adept
