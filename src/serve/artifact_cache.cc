#include "serve/artifact_cache.h"

#include "storage/movd_file.h"
#include "util/check.h"

namespace movd {

size_t ArtifactBytes(const Movd& movd) {
  size_t bytes = 16 + 8;  // file header and checksum trailer
  for (const Ovr& ovr : movd.ovrs) bytes += SerializedOvrSize(ovr);
  return bytes;
}

ArtifactCache::ArtifactCache(size_t capacity_bytes)
    : capacity_(capacity_bytes) {}

std::shared_ptr<const Movd> ArtifactCache::GetOrBuild(
    const std::string& key, const Builder& builder, bool* was_hit,
    CancelToken::Clock::time_point wait_deadline) {
  if (was_hit != nullptr) *was_hit = false;
  // Manual Lock/Unlock (not MutexLock): the single-flight protocol drops
  // the lock around the builder call. Clang's thread-safety analysis
  // checks that every return path below releases mu_ exactly once.
  mu_.Lock();
  for (;;) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      ++hits_;
      if (was_hit != nullptr) *was_hit = true;
      std::shared_ptr<const Movd> artifact = it->second->artifact;
      mu_.Unlock();
      return artifact;
    }
    const auto fl = inflight_.find(key);
    if (fl == inflight_.end()) break;  // this caller becomes the builder
    // Join the in-flight build. When it completes the loop re-runs: either
    // the artifact is cached now, or the build was abandoned and this
    // caller takes over as the next builder.
    const std::shared_ptr<InFlight> flight = fl->second;
    if (wait_deadline == CancelToken::Clock::time_point::max()) {
      while (!flight->done) flight->cv.Wait(mu_);
    } else {
      while (!flight->done) {
        if (!flight->cv.WaitUntil(mu_, wait_deadline) && !flight->done) {
          ++wait_timeouts_;
          mu_.Unlock();
          return nullptr;
        }
      }
    }
  }
  ++misses_;
  const auto flight = std::make_shared<InFlight>();
  inflight_.emplace(key, flight);
  mu_.Unlock();

  std::shared_ptr<const Movd> artifact = builder();  // outside the lock

  mu_.Lock();
  inflight_.erase(key);
  flight->done = true;
  flight->cv.NotifyAll();
  if (artifact != nullptr) InsertLocked(key, artifact);
  mu_.Unlock();
  return artifact;
}

std::shared_ptr<const Movd> ArtifactCache::Lookup(const std::string& key) {
  MutexLock lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->artifact;
}

void ArtifactCache::Insert(const std::string& key,
                           std::shared_ptr<const Movd> artifact) {
  MOVD_CHECK_MSG(artifact != nullptr,
                 "the artifact cache stores built diagrams, never null");
  MutexLock lock(mu_);
  InsertLocked(key, std::move(artifact));
}

void ArtifactCache::InsertLocked(const std::string& key,
                                 std::shared_ptr<const Movd> artifact) {
  const size_t bytes = ArtifactBytes(*artifact);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Refresh in place (warm-start load over a live entry, or a re-build
    // racing an insert): swap the value and the accounting.
    bytes_ -= it->second->bytes;
    it->second->artifact = std::move(artifact);
    it->second->bytes = bytes;
    bytes_ += bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    if (bytes > capacity_) {
      ++oversize_;  // bigger than the whole budget: serve it uncached
      return;
    }
    lru_.push_front(Entry{key, std::move(artifact), bytes});
    index_.emplace(key, lru_.begin());
    bytes_ += bytes;
    ++inserts_;
  }
  // Evict from the cold end until the budget holds. The just-inserted
  // entry sits at the front and is never evicted here (it fits on its
  // own, per the oversize check above).
  while (bytes_ > capacity_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

ArtifactCache::Stats ArtifactCache::stats() const {
  MutexLock lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.inserts = inserts_;
  s.oversize = oversize_;
  s.wait_timeouts = wait_timeouts_;
  s.bytes = bytes_;
  s.capacity = capacity_;
  s.entries = lru_.size();
  return s;
}

std::vector<std::pair<std::string, std::shared_ptr<const Movd>>>
ArtifactCache::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<std::pair<std::string, std::shared_ptr<const Movd>>> out;
  out.reserve(lru_.size());
  for (const Entry& e : lru_) out.emplace_back(e.key, e.artifact);
  return out;
}

}  // namespace movd
