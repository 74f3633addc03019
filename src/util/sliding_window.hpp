// Time-based sliding window containers.
//
// The Traffic Statistics sensing module and several detection modules reason
// about "events in the last W microseconds". These containers keep exactly
// the events inside the window, evicting lazily on access, and maintain O(1)
// aggregate queries.
#pragma once

#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace kalis {

/// Timestamped occurrences within a trailing window the caller passes on
/// every call: the storage of SlidingCounter, for owners that keep many
/// counters over one window and need not store it in each.
class SlidingTimes {
 public:
  void record(SimTime t, Duration window) {
    evict(t, window);
    times_.push_back(t);
  }

  /// Number of events in (now - window, now].
  std::size_t count(SimTime now, Duration window) {
    evict(now, window);
    return times_.size();
  }

  /// Events per second over the window.
  double rate(SimTime now, Duration window) {
    evict(now, window);
    if (window == 0) return 0.0;
    return static_cast<double>(times_.size()) / toSeconds(window);
  }

  void clear() { times_.clear(); }

  /// Approximate live memory footprint, for the RAM accounting proxy.
  std::size_t memoryBytes() const { return times_.size() * sizeof(SimTime); }

 private:
  void evict(SimTime now, Duration window) {
    const SimTime cutoff = now > window ? now - window : 0;
    while (!times_.empty() && times_.front() <= cutoff) times_.pop_front();
  }

  std::deque<SimTime> times_;
};

/// Counts timestamped occurrences within a fixed-duration trailing window.
class SlidingCounter {
 public:
  explicit SlidingCounter(Duration window) : window_(window) {}

  void record(SimTime t) { times_.record(t, window_); }

  /// Number of events in (now - window, now].
  std::size_t count(SimTime now) { return times_.count(now, window_); }

  /// Events per second over the window.
  double rate(SimTime now) { return times_.rate(now, window_); }

  void clear() { times_.clear(); }

  Duration window() const { return window_; }

  /// Approximate live memory footprint, for the RAM accounting proxy.
  std::size_t memoryBytes() const { return times_.memoryBytes(); }

 private:
  Duration window_;
  SlidingTimes times_;
};

/// Fixed-capacity most-recent-items buffer (the Data Store packet window).
///
/// Implemented as a circular vector with slot reuse: once the window has
/// filled, pushing overwrites the oldest slot by *copy assignment*, so any
/// heap buffers the slot already owns (e.g. a CapturedPacket's raw Bytes)
/// are recycled instead of reallocated. After warmup the steady-state
/// packet window performs no allocation unless an incoming frame outgrows
/// the slot it lands in.
template <typename T>
class RingWindow {
 public:
  explicit RingWindow(std::size_t capacity) : capacity_(capacity) {}

  /// Returns true when the push evicted the oldest item (window was full).
  bool push(const T& item) {
    if (items_.size() < capacity_) {
      items_.push_back(item);
      return false;
    }
    items_[head_] = item;  // copy-assign into the slot: reuses its buffers
    head_ = (head_ + 1) % capacity_;
    return true;
  }
  bool push(T&& item) {
    if (items_.size() < capacity_) {
      items_.push_back(std::move(item));
      return false;
    }
    items_[head_] = std::move(item);
    head_ = (head_ + 1) % capacity_;
    return true;
  }

  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return items_.empty(); }

  /// 0 = oldest retained item.
  const T& at(std::size_t i) const {
    return items_[(head_ + i) % items_.size()];
  }
  const T& newest() const { return at(items_.size() - 1); }

  /// Forward iteration oldest -> newest (same order the deque-backed
  /// implementation exposed).
  class const_iterator {
   public:
    using value_type = T;
    using reference = const T&;
    using difference_type = std::ptrdiff_t;
    const_iterator(const RingWindow* w, std::size_t i) : w_(w), i_(i) {}
    reference operator*() const { return w_->at(i_); }
    const T* operator->() const { return &w_->at(i_); }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++i_;
      return tmp;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const RingWindow* w_;
    std::size_t i_;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, items_.size()); }

  void clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< index of the oldest slot once full
  std::vector<T> items_;
};

}  // namespace kalis
