#ifndef MORSELDB_COMMON_HASH_H_
#define MORSELDB_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace morsel {

// 64-bit mixers and hash functions used throughout the engine. The join
// hash table (§4.2 of the paper) derives both the slot index (high bits)
// and the 16-bit pointer tag from the same 64-bit hash, so these must have
// well-distributed high bits; we use finalizer-style multiply-xorshift
// mixers (Murmur3/SplitMix64 lineage).

// Mixes a 64-bit value; suitable as an integer key hash.
inline uint64_t Hash64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Combines two hashes (order-dependent), for multi-column keys.
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Hash64(a * 0x9e3779b97f4a7c15ULL + b + 0x7f4a7c15ULL);
}

// Hashes an arbitrary byte string (FNV-1a core with a 64-bit finalizer).
// Inline: string keys are hashed once per row on the build, probe and
// aggregation paths, where an out-of-line call per key shows.
inline uint64_t HashBytes(const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  // Consume 8-byte blocks, then the tail, FNV-1a style per block.
  while (len >= 8) {
    uint64_t block;
    std::memcpy(&block, p, 8);
    h = (h ^ block) * 0x100000001b3ULL;
    p += 8;
    len -= 8;
  }
  if (len > 0) {
    uint64_t tail = 0;
    std::memcpy(&tail, p, len);
    h = (h ^ tail) * 0x100000001b3ULL;
  }
  return Hash64(h);
}

inline uint64_t HashString(std::string_view s) {
  return HashBytes(s.data(), s.size());
}

}  // namespace morsel

#endif  // MORSELDB_COMMON_HASH_H_
