#include "attack/random_uniform.h"

#include <stdexcept>

#include "attack/bpa.h"
#include "attack/hotspot.h"
#include "attack/uaa.h"

namespace nvmsec {

LogicalLineAddr RandomUniformAttack::next(Rng& rng, std::uint64_t user_lines) {
  if (user_lines == 0) {
    throw std::invalid_argument("RandomUniformAttack: empty address space");
  }
  return LogicalLineAddr{rng.uniform_u64(user_lines)};
}

bool RandomUniformAttack::next_counts(Rng& rng, std::uint64_t user_lines,
                                      std::uint64_t n_writes,
                                      WriteCountVector& out) {
  if (user_lines == 0) {
    throw std::invalid_argument("RandomUniformAttack: empty address space");
  }
  multinomial_uniform(rng, n_writes, user_lines, out);
  return true;
}

const char* batch_contract_name(BatchContract contract) {
  switch (contract) {
    case BatchContract::kBitIdentical:
      return "bit_identical";
    case BatchContract::kMultisetExact:
      return "multiset_exact";
    case BatchContract::kDistributionEquivalent:
      return "distribution_equivalent";
  }
  throw std::invalid_argument("batch_contract_name: unknown contract");
}

BatchContract attack_batch_contract(const std::string& name) {
  if (name == "uaa" || name == "bpa") return BatchContract::kBitIdentical;
  if (name == "hotspot") return BatchContract::kMultisetExact;
  if (name == "random" || name == "zipf") {
    return BatchContract::kDistributionEquivalent;
  }
  throw std::invalid_argument("attack_batch_contract: unknown attack '" +
                              name + "'");
}

std::unique_ptr<Attack> make_uaa() {
  return std::make_unique<UniformAddressAttack>();
}

std::unique_ptr<Attack> make_bpa(std::uint64_t burst_length) {
  return std::make_unique<BirthdayParadoxAttack>(burst_length);
}

std::unique_ptr<Attack> make_hotspot(std::uint64_t working_set) {
  return std::make_unique<HotspotAttack>(working_set);
}

std::unique_ptr<Attack> make_random_uniform() {
  return std::make_unique<RandomUniformAttack>();
}

std::unique_ptr<Attack> make_attack(const std::string& name) {
  if (name == "uaa") return make_uaa();
  if (name == "bpa") return make_bpa();
  if (name == "hotspot") return make_hotspot();
  if (name == "random") return make_random_uniform();
  throw std::invalid_argument("make_attack: unknown attack '" + name + "'");
}

}  // namespace nvmsec
