#include "attacks/attack.hpp"

#include <cmath>
#include <stdexcept>

#include "attacks/adaptive.hpp"
#include "attacks/auxiliary_attacks.hpp"
#include "attacks/fall_of_empires.hpp"
#include "attacks/little_is_enough.hpp"

namespace dpbyz {

std::vector<std::string> attack_names() {
  return {"little",       "empire",          "signflip",      "random",
          "zero",         "mimic",           "adaptive_alie", "adaptive_empire",
          "adaptive_mimic", "stale_boost"};
}

std::unique_ptr<Attack> make_attack(const std::string& name, double nu,
                                    const AdaptiveSpec& spec) {
  const bool use_default = std::isnan(nu);
  if (name == "little")
    return std::make_unique<ALittleIsEnough>(use_default ? 1.5 : nu);
  if (name == "empire")
    return std::make_unique<FallOfEmpires>(use_default ? 1.1 : nu);
  if (name == "signflip")
    return std::make_unique<SignFlip>(use_default ? 1.0 : nu);
  if (name == "random")
    return std::make_unique<RandomGaussian>(use_default ? 1.0 : nu);
  if (name == "zero") return std::make_unique<ZeroGradient>();
  if (name == "mimic") return std::make_unique<Mimic>();
  if (name == "adaptive_alie")
    return std::make_unique<AdaptiveAttack>(AdaptiveAttack::Mode::kAlie, nu, spec);
  if (name == "adaptive_empire")
    return std::make_unique<AdaptiveAttack>(AdaptiveAttack::Mode::kEmpire, nu, spec);
  if (name == "adaptive_mimic") return std::make_unique<MimicBoundary>(spec);
  if (name == "stale_boost") return std::make_unique<StaleBoost>(nu);
  throw std::invalid_argument("make_attack: unknown attack '" + name + "'");
}

std::unique_ptr<Attack> make_attack(const std::string& name, double nu) {
  return make_attack(name, nu, AdaptiveSpec{});
}

}  // namespace dpbyz
