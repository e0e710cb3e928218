#include "util/lru.hpp"

#include <functional>

namespace mcdft::util {

ShardedLruCache::ShardedLruCache(std::size_t capacity_bytes,
                                 std::size_t stripes)
    : capacity_(capacity_bytes) {
  if (stripes == 0) stripes = 1;
  stripe_capacity_ = capacity_ / stripes;
  // A nonzero total capacity must never round down to zero-byte stripes.
  if (capacity_ > 0 && stripe_capacity_ == 0) stripe_capacity_ = capacity_;
  stripes_.reserve(stripes);
  for (std::size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

ShardedLruCache::Stripe& ShardedLruCache::StripeOf(const std::string& key) {
  return *stripes_[std::hash<std::string>{}(key) % stripes_.size()];
}

std::shared_ptr<void> ShardedLruCache::Get(const std::string& key) {
  Stripe& s = StripeOf(key);
  std::lock_guard<std::mutex> lock(s.m);
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    ++s.misses;
    return nullptr;
  }
  ++s.hits;
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // touch
  return it->second->value;
}

bool ShardedLruCache::MakeRoom(Stripe& s, std::size_t need) {
  if (need > stripe_capacity_) return false;
  while (s.bytes + need > stripe_capacity_) {
    const Entry& victim = s.lru.back();
    s.bytes -= victim.bytes;
    ++s.evictions;
    s.index.erase(victim.key);
    s.lru.pop_back();
  }
  return true;
}

bool ShardedLruCache::Put(const std::string& key, std::shared_ptr<void> value,
                          std::size_t bytes) {
  Stripe& s = StripeOf(key);
  std::lock_guard<std::mutex> lock(s.m);
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    // Overwrite: drop the old entry up front.  Calling MakeRoom while the
    // node is still in the LRU list would let it evict the entry under
    // update (it may be the tail), double-subtracting its bytes and leaving
    // `it` dangling.
    s.bytes -= it->second->bytes;
    s.lru.erase(it->second);
    s.index.erase(it);
  }
  if (!MakeRoom(s, bytes)) {
    ++s.rejected;
    return false;
  }
  s.lru.push_front(Entry{key, std::move(value), bytes});
  s.index.emplace(key, s.lru.begin());
  s.bytes += bytes;
  ++s.insertions;
  return true;
}

ShardedLruCache::Stats ShardedLruCache::TotalStats() const {
  Stats total;
  for (const auto& sp : stripes_) {
    const Stripe& s = *sp;
    std::lock_guard<std::mutex> lock(s.m);
    total.hits += s.hits;
    total.misses += s.misses;
    total.insertions += s.insertions;
    total.evictions += s.evictions;
    total.rejected += s.rejected;
    total.bytes += s.bytes;
    total.entries += s.lru.size();
  }
  return total;
}

}  // namespace mcdft::util
