// AS-level entities: classes, publicly observable features, and the latent
// peering-strategy factors that generate ground truth.
//
// The feature set mirrors Appendix C of the paper: peering policy and traffic
// profile (PeeringDB), eyeball population (APNIC), customer-cone size (CAIDA
// AS-rank), country of registration, geographic footprint size, and address-
// space size.  The latent factor vector is the *hidden* generative quantity:
// features correlate with it (with noise), ground-truth links are drawn from
// it, and metAScritic never reads it directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace metas::topology {

/// Business class of an AS, following the taxonomy of Appendix D.3.
enum class AsClass : std::uint8_t {
  kTier1,
  kTier2,
  kHypergiant,   // large cloud/content providers (AWS/Google/Microsoft-like)
  kLargeIsp,     // eyeball-heavy national ISPs
  kContent,      // smaller content networks / regional CDNs
  kEnterprise,
  kTransit,      // regional transit providers
  kStub,
};
constexpr int kNumAsClasses = 8;
std::string to_string(AsClass c);

/// Self-reported peering policy (PeeringDB-style).
enum class PeeringPolicy : std::uint8_t { kOpen, kSelective, kRestrictive, kNone };
constexpr int kNumPeeringPolicies = 4;

/// Self-reported dominant traffic direction (PeeringDB-style).
enum class TrafficProfile : std::uint8_t {
  kHeavyInbound,
  kMostlyInbound,
  kBalanced,
  kMostlyOutbound,
  kHeavyOutbound,
};
constexpr int kNumTrafficProfiles = 5;
std::string to_string(TrafficProfile t);

using AsId = std::int32_t;
using MetroId = std::int32_t;
constexpr AsId kInvalidAs = -1;

/// Publicly observable per-AS features fed to the hybrid recommender.
struct AsFeatures {
  PeeringPolicy policy = PeeringPolicy::kNone;
  TrafficProfile traffic = TrafficProfile::kBalanced;
  double eyeballs = 0.0;            // estimated user population
  double customer_cone = 0.0;       // number of ASes in the customer cone
  double ip_space = 0.0;            // announced address-space size
  int country = 0;                  // country of registration (categorical id)
  int footprint_size = 0;           // number of metros with presence
  bool policy_known = true;         // PeeringDB data is incomplete in reality
};

/// One autonomous system.
struct AsNode {
  AsId id = kInvalidAs;
  AsClass cls = AsClass::kStub;
  AsFeatures features;
  int home_country = 0;
  int home_continent = 0;
  std::vector<MetroId> footprint;   // metros where this AS has presence

  // Hidden generative state -- used only by the simulator and controlled
  // experiments, never by the inference pipeline.
  std::vector<double> latent;       // peering-strategy factor vector
  double latent_bias = 0.0;         // overall peering appetite
  bool consistent_routing = true;   // §3.4: CDNs/clouds/large transits often not
  double responsiveness = 1.0;      // probability a hop in this AS answers probes
};

}  // namespace metas::topology
