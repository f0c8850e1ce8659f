//===- Hash.h - Stable content hashing --------------------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FNV-1a hashing for content addressing (the IR parser's name tables,
/// fuzz seeds, the goldens' text hashes). The function is fixed by
/// specification — not std::hash, whose value is implementation-defined
/// — so hashes are stable across builds, platforms and standard
/// libraries, and may be recorded in reports and compared between runs.
///
/// Collision policy: every consumer that addresses by hash must either
/// tolerate collisions or, like core::ResultCache, store the full key and
/// compare it on lookup. The hash is an index, never an identity.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SUPPORT_HASH_H
#define SRP_SUPPORT_HASH_H

#include <cstdint>
#include <string_view>

namespace srp {

inline constexpr uint64_t Fnv1a64Offset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t Fnv1a64Prime = 0x100000001b3ULL;

/// FNV-1a over \p Bytes, continuing from \p State (chain calls to hash
/// multi-part content without concatenating it first).
constexpr uint64_t fnv1a64(std::string_view Bytes,
                           uint64_t State = Fnv1a64Offset) {
  for (char C : Bytes) {
    State ^= static_cast<uint8_t>(C);
    State *= Fnv1a64Prime;
  }
  return State;
}

/// Mixes an integer into an FNV-1a chain (hashed as 8 little-endian
/// bytes, so the result is endian-independent by construction).
constexpr uint64_t fnv1a64(uint64_t Value, uint64_t State) {
  for (int I = 0; I < 8; ++I) {
    State ^= (Value >> (I * 8)) & 0xff;
    State *= Fnv1a64Prime;
  }
  return State;
}

} // namespace srp

#endif // SRP_SUPPORT_HASH_H
