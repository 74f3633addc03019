#include "kalis/knowledge.hpp"

#include <algorithm>
#include <cassert>

namespace kalis::ids {

std::string encodeKey(std::string_view creator, std::string_view label,
                      std::string_view entity) {
  std::string key;
  key.reserve(creator.size() + label.size() + entity.size() + 2);
  key.append(creator);
  key.push_back('$');
  key.append(label);
  if (!entity.empty()) {
    key.push_back('@');
    key.append(entity);
  }
  return key;
}

std::optional<KeyParts> decodeKey(std::string_view key) {
  const std::size_t dollar = key.find('$');
  if (dollar == std::string_view::npos) return std::nullopt;
  KeyParts parts;
  parts.creator = std::string(key.substr(0, dollar));
  std::string_view rest = key.substr(dollar + 1);
  const std::size_t at = rest.rfind('@');
  if (at == std::string_view::npos) {
    parts.label = std::string(rest);
  } else {
    parts.label = std::string(rest.substr(0, at));
    parts.entity = std::string(rest.substr(at + 1));
  }
  return parts;
}

BaselineSegment::BaselineSegment(std::vector<Knowgget> entries) {
  entries_.reserve(entries.size());
  for (Knowgget& k : entries) {
    entries_.emplace_back(encodeKey(k.creator, k.label, k.entity),
                          std::move(k));
  }
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  // Later duplicates win, mirroring repeated map insertion.
  for (std::size_t i = entries_.size(); i-- > 1;) {
    if (entries_[i].first == entries_[i - 1].first) {
      entries_[i - 1] = std::move(entries_[i]);
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
}

namespace {

template <typename Key>
const Knowgget* findSorted(
    const std::vector<std::pair<std::string, Knowgget>>& entries,
    const Key& key) {
  const KeyLess less;
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), key,
      [&](const auto& e, const Key& k) { return less(e.first, k); });
  if (it == entries.end() || less(key, it->first)) return nullptr;
  return &it->second;
}

}  // namespace

const Knowgget* BaselineSegment::find(std::string_view key) const {
  return findSorted(entries_, key);
}

const Knowgget* BaselineSegment::find(const KeyRef& key) const {
  return findSorted(entries_, key);
}

std::size_t BaselineSegment::memoryBytes() const {
  std::size_t bytes = sizeof(BaselineSegment);
  for (const auto& [key, k] : entries_) {
    bytes += key.size() + k.label.size() + k.value.size() + k.creator.size() +
             k.entity.size() + sizeof(std::pair<std::string, Knowgget>);
  }
  return bytes;
}

KnowledgeBase::KnowledgeBase(std::string selfId) : selfId_(std::move(selfId)) {}

void KnowledgeBase::putEncoded(std::string_view label, std::string value,
                               std::string_view entity, bool collective) {
  owner_.check("KnowledgeBase::put");
  if (!writesEnabled_) return;
  const KeyRef key{selfId_, label, entity};
  auto it = store_.lower_bound(key);
  const bool stored = it != store_.end() && !store_.key_comp()(key, it->first);
  if (stored) {
    if (it->second.value == value) return;  // unchanged
  } else if (baseline_) {
    // Copy-on-write: re-asserting the baseline value costs no overlay entry.
    const Knowgget* base = baseline_->find(key);
    if (base != nullptr && base->value == value) return;
  }
  if (!stored) {
    Knowgget fresh;
    fresh.label = label;
    fresh.creator = selfId_;
    fresh.entity = entity;
    it = store_.emplace_hint(it, encodeKey(selfId_, label, entity),
                             std::move(fresh));
  }

  Knowgget& k = it->second;
  k.value = std::move(value);
  k.collective = collective;
  k.updated = nowTs();
  publishes_.inc();
  notify(k);
  if (collective) notifySinks(k);
}

bool KnowledgeBase::putRemote(const Knowgget& k) {
  owner_.check("KnowledgeBase::putRemote");
  if (!writesEnabled_) {
    remoteRejected_.inc();
    return false;
  }
  if (k.creator == selfId_) {  // nobody may impersonate us
    remoteRejected_.inc();
    return false;
  }
  const KeyRef key{k.creator, k.label, k.entity};
  auto it = store_.find(key);
  if (it != store_.end()) {
    if (it->second.creator != k.creator) {  // one-way rule
      remoteRejected_.inc();
      return false;
    }
    if (it->second.value == k.value) return true;  // no change
  } else if (baseline_ != nullptr) {
    const Knowgget* base = baseline_->find(key);
    if (base != nullptr) {
      if (base->creator != k.creator) {  // one-way rule vs the baseline
        remoteRejected_.inc();
        return false;
      }
      // Matching the shared baseline costs no overlay entry (CoW).
      if (base->value == k.value) return true;
    }
  }
  if (it == store_.end()) {
    it = store_.emplace(encodeKey(k.creator, k.label, k.entity), k).first;
  } else {
    it->second = k;
  }
  it->second.updated = nowTs();
  remoteAccepted_.inc();
  notify(it->second);
  return true;
}

bool KnowledgeBase::remove(std::string_view label, std::string_view entity) {
  owner_.check("KnowledgeBase::remove");
  assert(notifyDepth_ == 0 && "remove() from a subscription callback");
  const auto it = store_.find(KeyRef{selfId_, label, entity});
  if (it == store_.end()) return false;
  store_.erase(it);
  return true;
}

std::optional<std::string> KnowledgeBase::raw(std::string_view key) const {
  auto it = store_.find(key);
  if (it != store_.end()) return it->second.value;
  if (baseline_ != nullptr) {
    const Knowgget* base = baseline_->find(key);
    if (base != nullptr) return base->value;
  }
  return std::nullopt;
}

const Knowgget* KnowledgeBase::find(const KeyRef& key) const {
  auto it = store_.find(key);
  if (it != store_.end()) return &it->second;
  return baseline_ != nullptr ? baseline_->find(key) : nullptr;
}

std::vector<Knowgget> KnowledgeBase::byLabel(std::string_view label) const {
  std::vector<Knowgget> out;
  forEachEntry([&](const std::string&, const Knowgget& k) {
    if (k.label == label) out.push_back(k);
  });
  return out;
}

std::vector<Knowgget> KnowledgeBase::byEntity(std::string_view entity) const {
  std::vector<Knowgget> out;
  forEachEntry([&](const std::string&, const Knowgget& k) {
    if (k.entity == entity) out.push_back(k);
  });
  return out;
}

std::vector<Knowgget> KnowledgeBase::byLabelPrefix(
    std::string_view labelPrefix) const {
  std::vector<Knowgget> out;
  forEachEntry([&](const std::string&, const Knowgget& k) {
    if (k.label == labelPrefix ||
        (k.label.size() > labelPrefix.size() &&
         startsWith(k.label, labelPrefix) &&
         k.label[labelPrefix.size()] == '.')) {
      out.push_back(k);
    }
  });
  return out;
}

std::vector<Knowgget> KnowledgeBase::byCreator(std::string_view creator) const {
  std::vector<Knowgget> out;
  const std::string prefix = std::string(creator) + "$";
  forEachEntry([&](const std::string& key, const Knowgget& k) {
    if (startsWith(key, prefix)) out.push_back(k);
  });
  return out;
}

std::vector<Knowgget> KnowledgeBase::all() const {
  std::vector<Knowgget> out;
  out.reserve(size());
  forEachEntry(
      [&](const std::string&, const Knowgget& k) { out.push_back(k); });
  return out;
}

std::size_t KnowledgeBase::size() const {
  if (baseline_ == nullptr) return store_.size();
  std::size_t shadowed = 0;
  for (const auto& [key, k] : store_) {
    if (baseline_->find(key) != nullptr) ++shadowed;
  }
  return store_.size() + baseline_->size() - shadowed;
}

std::size_t KnowledgeBase::memoryBytes() const {
  std::size_t bytes = 0;
  for (const auto& [key, k] : store_) {
    bytes += key.size() + k.label.size() + k.value.size() + k.creator.size() +
             k.entity.size() + sizeof(Knowgget);
  }
  return bytes;
}

int KnowledgeBase::subscribe(const std::string& labelPattern, Subscription fn) {
  owner_.check("KnowledgeBase::subscribe");
  const int id = nextSubId_++;
  subs_.push_back(std::make_unique<Sub>(Sub{id, labelPattern, std::move(fn)}));
  return id;
}

void KnowledgeBase::addCollectiveSink(CollectiveSink* sink) {
  owner_.check("KnowledgeBase::addCollectiveSink");
  if (sink == nullptr) return;
  for (CollectiveSink* existing : collectiveSinks_) {
    if (existing == sink) return;
  }
  collectiveSinks_.push_back(sink);
}

void KnowledgeBase::removeCollectiveSink(CollectiveSink* sink) {
  owner_.check("KnowledgeBase::removeCollectiveSink");
  collectiveSinks_.erase(
      std::remove(collectiveSinks_.begin(), collectiveSinks_.end(), sink),
      collectiveSinks_.end());
}

void KnowledgeBase::unsubscribe(int id) {
  owner_.check("KnowledgeBase::unsubscribe");
  for (const auto& sub : subs_) {
    if (sub->id == id) sub->unsubscribed = true;
  }
  // A running notify may still fire it; it is erased when that one ends.
  unsubscribedPending_ = true;
  if (notifyDepth_ == 0) purgeUnsubscribed();
}

void KnowledgeBase::purgeUnsubscribed() {
  subs_.erase(std::remove_if(subs_.begin(), subs_.end(),
                             [](const auto& s) { return s->unsubscribed; }),
              subs_.end());
  unsubscribedPending_ = false;
}

bool KnowledgeBase::Sub::matches(std::string_view label) const {
  if (!pattern.empty() && pattern.back() == '*') {
    return startsWith(label,
                      std::string_view(pattern).substr(0, pattern.size() - 1));
  }
  return label == pattern;
}

void KnowledgeBase::notify(const Knowgget& k) {
  // Fix the matching subscribers before the first callback runs: callbacks
  // may subscribe/unsubscribe (see subscribe()).
  const std::size_t first = firing_.size();
  for (const auto& sub : subs_) {
    if (!sub->unsubscribed && sub->matches(k.label)) firing_.push_back(sub.get());
  }
  const std::size_t last = firing_.size();
  ++notifyDepth_;
  for (std::size_t i = first; i < last; ++i) {
    subscriptionFires_.inc();
    firing_[i]->fn(k);
  }
  --notifyDepth_;
  firing_.resize(first);
  if (notifyDepth_ == 0 && unsubscribedPending_) purgeUnsubscribed();
}

void KnowledgeBase::notifySinks(const Knowgget& k) {
  // Fixed before the first call: a sink may (un)register sinks while
  // handling the knowgget.
  const std::size_t first = firingSinks_.size();
  firingSinks_.insert(firingSinks_.end(), collectiveSinks_.begin(),
                      collectiveSinks_.end());
  const std::size_t last = firingSinks_.size();
  for (std::size_t i = first; i < last; ++i) firingSinks_[i]->onCollective(k);
  firingSinks_.resize(first);
}

void KnowledgeBase::collectMetrics(obs::Registry& reg,
                                   const std::string& prefix) const {
  reg.counter(prefix + ".publishes", publishes_);
  reg.counter(prefix + ".subscription_fires", subscriptionFires_);
  reg.counter(prefix + ".remote_accepted", remoteAccepted_);
  reg.counter(prefix + ".remote_rejected", remoteRejected_);
  reg.gauge(prefix + ".knowggets", static_cast<double>(size()),
            static_cast<double>(size()));
  reg.gauge(prefix + ".memory_bytes", static_cast<double>(memoryBytes()),
            static_cast<double>(memoryBytes()));
  reg.gauge(prefix + ".subscriptions", static_cast<double>(subs_.size()),
            static_cast<double>(subs_.size()));
}

}  // namespace kalis::ids
