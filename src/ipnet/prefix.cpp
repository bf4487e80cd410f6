#include "ipnet/prefix.hpp"

#include <stdexcept>

#include "util/numeric.hpp"

namespace metas::ipnet {

namespace {
std::uint64_t key_of(Ip addr, int len) {
  return (mac::checked_cast<std::uint64_t>(addr) << 6) | mac::checked_cast<std::uint64_t>(len);
}
}  // namespace

Prefix::Prefix(Ip address, int length) : len(length) {
  if (length < 0 || length > 32)
    throw std::invalid_argument("Prefix: length out of [0,32]");
  addr = address & mask();
}

Ip Prefix::mask() const {
  return len == 0 ? 0 : mac::checked_cast<Ip>(~0u << (32 - len));
}

bool Prefix::contains(Ip ip) const { return (ip & mask()) == addr; }

void PrefixTable::insert(const Prefix& p, int owner) {
  auto [it, inserted] = entries_.insert_or_assign(key_of(p.addr, p.len), owner);
  if (inserted) ++count_;
  lens_present_[mac::checked_cast<std::size_t>(p.len)] = true;
}

std::optional<int> PrefixTable::lookup(Ip ip) const {
  for (int len = 32; len >= 0; --len) {
    if (!lens_present_[mac::checked_cast<std::size_t>(len)]) continue;
    Ip masked = len == 0 ? 0 : (ip & mac::checked_cast<Ip>(~0u << (32 - len)));
    auto it = entries_.find(key_of(masked, len));
    if (it != entries_.end()) return it->second;
  }
  return std::nullopt;
}

}  // namespace metas::ipnet
