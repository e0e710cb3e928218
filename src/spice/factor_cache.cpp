#include "spice/factor_cache.hpp"

#include <cstdint>
#include <cstdio>

#include "util/faultpoint.hpp"
#include "util/metrics.hpp"

namespace mcdft::spice {

namespace metrics = util::metrics;
namespace faultpoint = util::faultpoint;

SharedFactorCache::SharedFactorCache(std::size_t capacity_bytes)
    : cache_(capacity_bytes) {}

std::string SharedFactorCache::KeyOf(const linalg::CsrMatrix& m) {
  const auto& row_ptr = m.RowPointers();
  const auto& col_idx = m.ColumnIndices();
  const auto& values = m.Values();
  std::uint64_t pattern = faultpoint::DigestBytes(
      row_ptr.data(), row_ptr.size() * sizeof(std::size_t));
  pattern = faultpoint::DigestCombine(
      pattern, faultpoint::DigestBytes(
                   col_idx.data(), col_idx.size() * sizeof(std::size_t)));
  const std::uint64_t value_digest = faultpoint::DigestBytes(
      values.data(), values.size() * sizeof(linalg::Complex));
  // Dimensions + entry count in the clear, two independent 64-bit digests
  // over pattern and values: a collision must defeat both at equal shape.
  char buf[128];
  std::snprintf(buf, sizeof buf, "%zux%zu/%zu/%016llx/%016llx", m.Rows(),
                m.Cols(), values.size(),
                static_cast<unsigned long long>(pattern),
                static_cast<unsigned long long>(value_digest));
  return std::string(buf);
}

std::shared_ptr<const linalg::SparseLu> SharedFactorCache::Acquire(
    const std::string& key) {
  static metrics::Counter& hit =
      metrics::GetCounter("spice.factor_cache.hit");
  static metrics::Counter& miss =
      metrics::GetCounter("spice.factor_cache.miss");
  static metrics::Counter& bypass =
      metrics::GetCounter("spice.factor_cache.bypass");
  if (faultpoint::AnyArmed()) {
    bypass.Add();
    return nullptr;
  }
  std::shared_ptr<void> found = cache_.Get(key);
  if (!found) {
    miss.Add();
    return nullptr;
  }
  hit.Add();
  return std::static_pointer_cast<const linalg::SparseLu>(found);
}

void SharedFactorCache::Publish(const std::string& key,
                                const linalg::SparseLu& lu) {
  static metrics::Counter& published =
      metrics::GetCounter("spice.factor_cache.publish");
  static metrics::Counter& rejected =
      metrics::GetCounter("spice.factor_cache.reject");
  if (faultpoint::AnyArmed()) return;
  // Approximate residency: the factor entries dominate (value + column +
  // slot bookkeeping per nonzero) plus the pattern arrays.
  const std::size_t bytes =
      sizeof(linalg::SparseLu) +
      lu.FactorNonZeroCount() *
          (sizeof(linalg::Complex) + 3 * sizeof(std::size_t)) +
      2 * lu.Size() * sizeof(std::size_t);
  auto snapshot = std::make_shared<linalg::SparseLu>(lu);
  if (cache_.Put(key, std::static_pointer_cast<void>(std::move(snapshot)),
                 bytes)) {
    published.Add();
  } else {
    rejected.Add();
  }
}

}  // namespace mcdft::spice
