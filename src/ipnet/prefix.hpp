// IPv4 prefixes and longest-prefix-match tables.
//
// The real metAScritic pipeline works on IP-level traceroutes: interfaces
// must be mapped to ASes (bdrmapit), matched against IXP prefixes, and
// geolocated before any AS-level reasoning can happen. This module provides
// the address-plumbing substrate those steps run on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace metas::ipnet {

using Ip = std::uint32_t;

/// An IPv4 prefix addr/len. The address is stored with host bits zeroed.
struct Prefix {
  Ip addr = 0;
  int len = 0;

  Prefix() = default;
  /// Throws std::invalid_argument for len outside [0, 32].
  Prefix(Ip address, int length);

  bool contains(Ip ip) const;
  Ip mask() const;

  bool operator==(const Prefix& o) const {
    return addr == o.addr && len == o.len;
  }
};

/// Longest-prefix-match table mapping prefixes to an integer owner id
/// (an AS number here). Lookup is O(32) hash probes.
class PrefixTable {
 public:
  /// Inserts or overwrites the owner of a prefix.
  void insert(const Prefix& p, int owner);

  /// Longest-prefix match; nullopt when no covering prefix exists.
  std::optional<int> lookup(Ip ip) const;

  std::size_t size() const { return count_; }

 private:
  // Per-length exact-match maps, probed from longest to shortest.
  std::unordered_map<std::uint64_t, int> entries_;  // key = addr<<6 | len
  std::vector<bool> lens_present_ = std::vector<bool>(33, false);
  std::size_t count_ = 0;
};

}  // namespace metas::ipnet
