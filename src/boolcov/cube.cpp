#include "boolcov/cube.hpp"

#include <algorithm>
#include <bit>

namespace mcdft::boolcov {

namespace {
std::size_t LimbCount(std::size_t nvars) { return (nvars + 63) / 64; }
}  // namespace

Cube::Cube(std::size_t variable_count)
    : nvars_(variable_count), bits_(LimbCount(variable_count), 0) {}

Cube::Cube(std::size_t variable_count, std::initializer_list<std::size_t> vars)
    : Cube(variable_count) {
  for (std::size_t v : vars) Set(v);
}

void Cube::CheckVar(std::size_t var) const {
  if (var >= nvars_) {
    throw util::OptimizationError("cube variable " + std::to_string(var) +
                                  " outside universe of " +
                                  std::to_string(nvars_));
  }
}

std::size_t Cube::LiteralCount() const {
  std::size_t n = 0;
  for (auto limb : bits_) n += static_cast<std::size_t>(std::popcount(limb));
  return n;
}

bool Cube::Test(std::size_t var) const {
  CheckVar(var);
  return (bits_[var / 64] >> (var % 64)) & 1u;
}

void Cube::Set(std::size_t var) {
  CheckVar(var);
  bits_[var / 64] |= std::uint64_t{1} << (var % 64);
}

void Cube::Reset(std::size_t var) {
  CheckVar(var);
  bits_[var / 64] &= ~(std::uint64_t{1} << (var % 64));
}

Cube Cube::Union(const Cube& other) const {
  if (other.nvars_ != nvars_) {
    throw util::OptimizationError("cube union across different universes");
  }
  Cube out(nvars_);
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    out.bits_[i] = bits_[i] | other.bits_[i];
  }
  return out;
}

Cube Cube::Intersect(const Cube& other) const {
  if (other.nvars_ != nvars_) {
    throw util::OptimizationError("cube intersection across different universes");
  }
  Cube out(nvars_);
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    out.bits_[i] = bits_[i] & other.bits_[i];
  }
  return out;
}

bool Cube::SubsetOf(const Cube& other) const {
  if (other.nvars_ != nvars_) {
    throw util::OptimizationError("cube subset test across different universes");
  }
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    if ((bits_[i] & ~other.bits_[i]) != 0) return false;
  }
  return true;
}

std::vector<std::size_t> Cube::Variables() const {
  std::vector<std::size_t> vars;
  vars.reserve(LiteralCount());
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    for (std::uint64_t limb = bits_[i]; limb != 0; limb &= limb - 1) {
      vars.push_back(64 * i + static_cast<std::size_t>(std::countr_zero(limb)));
    }
  }
  return vars;
}

std::string Cube::ToString(
    const std::function<std::string(std::size_t)>& namer) const {
  const auto vars = Variables();
  if (vars.empty()) return "1";
  std::string out;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (i != 0) out += ".";
    out += namer(vars[i]);
  }
  return out;
}

bool Cube::OrderBySize(const Cube& a, const Cube& b) {
  const std::size_t la = a.LiteralCount();
  const std::size_t lb = b.LiteralCount();
  if (la != lb) return la < lb;
  // Equal sizes: lexicographic on the ascending variable lists.  Below the
  // lowest differing bit both lists agree, and the cube holding that bit
  // lists it where the other lists a larger index, so it sorts first.
  const std::size_t limbs = std::max(a.bits_.size(), b.bits_.size());
  for (std::size_t i = 0; i < limbs; ++i) {
    const std::uint64_t wa = i < a.bits_.size() ? a.bits_[i] : 0;
    const std::uint64_t wb = i < b.bits_.size() ? b.bits_[i] : 0;
    const std::uint64_t diff = wa ^ wb;
    if (diff != 0) {
      const std::uint64_t lowest = diff & (~diff + 1);
      return (wa & lowest) != 0;
    }
  }
  return false;
}

std::size_t Cube::Hash::operator()(const Cube& c) const {
  std::size_t h = c.nvars_;
  for (auto limb : c.bits_) {
    h ^= static_cast<std::size_t>(limb) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
  }
  return h;
}

}  // namespace mcdft::boolcov
