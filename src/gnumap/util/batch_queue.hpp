// Bounded multi-producer/multi-consumer queue and an order-restoring
// companion, the two seams of the streaming read pipeline.
//
// BatchQueue<T> carries batches from the decoder to the mapper workers with
// backpressure: push() blocks while the queue is at capacity, so a fast
// decoder can never hold more than `capacity` batches ahead of the slowest
// consumer — the invariant that makes pipeline memory O(queue_depth x
// batch) instead of O(dataset).
//
// ReorderBuffer<T> sits between the (out-of-order) workers and the single
// ordered drain: workers push completed items tagged with their input
// sequence number, the drain pops them back in exactly input order.  Its
// capacity bound doubles as backpressure on stragglers — a worker that
// finished item seq cannot park it while the drain is still more than
// `capacity` items behind — with the guarantee that the item the drain is
// waiting for is always accepted, so the window can never deadlock.
//
// The optional weight budget extends the same admission window to a second
// resource: each push may carry a weight (the pipeline uses rendered output
// bytes), and a push beyond the window's weight budget blocks like a push
// beyond its count capacity.  The in-order item (seq == next_seq) is exempt
// from BOTH limits, which is what makes the window deadlock-free: the
// upstream queue hands sequence numbers to workers in order, so the
// smallest undrained seq is always held by some worker whose push is
// admitted unconditionally, and popping it releases budget for everyone
// else.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "gnumap/util/error.hpp"

namespace gnumap {

template <typename T>
class BatchQueue {
 public:
  /// `capacity` > 0: the most items that can be queued at once.
  explicit BatchQueue(std::size_t capacity) : capacity_(capacity) {
    require(capacity > 0, "BatchQueue: capacity must be positive");
  }

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  /// Blocks while the queue is full.  Returns false (dropping `item`) if the
  /// queue was closed before space opened up.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    peak_size_ = std::max(peak_size_, items_.size());
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty.  Returns nullopt once the queue is
  /// closed *and* drained; items queued before close() are still delivered.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Ends the stream: blocked pushers return false, poppers drain what is
  /// queued and then get nullopt.  Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  /// High-water mark of size() over the queue's lifetime (for the
  /// bounded-memory assertions and the queue-depth gauge).
  std::size_t peak_size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_size_;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  std::size_t peak_size_ = 0;
  bool closed_ = false;
};

template <typename T>
class ReorderBuffer {
 public:
  /// `capacity` bounds how far ahead of the drain a parked item may be:
  /// push(seq) admits seq < next_seq + capacity.  Choose capacity >= the
  /// number of items that can be in flight upstream (queue depth + workers)
  /// so every producer's push is eventually admissible.  `weight_capacity`
  /// additionally bounds the summed weight of parked items (0 = no weight
  /// limit); the in-order item is exempt so the limit cannot deadlock.
  explicit ReorderBuffer(std::size_t capacity,
                         std::uint64_t weight_capacity = 0)
      : capacity_(capacity), weight_capacity_(weight_capacity) {
    require(capacity > 0, "ReorderBuffer: capacity must be positive");
  }

  ReorderBuffer(const ReorderBuffer&) = delete;
  ReorderBuffer& operator=(const ReorderBuffer&) = delete;

  /// Parks `item` as sequence number `seq` (each seq pushed exactly once)
  /// carrying `weight` against the weight budget.  Blocks while seq is
  /// beyond the admission window or the budget is exhausted; the item the
  /// drain needs next (seq == next_seq) is always admitted immediately.
  /// Returns false if the buffer was closed first.
  bool push(std::uint64_t seq, T item, std::uint64_t weight = 0) {
    std::unique_lock<std::mutex> lock(mutex_);
    admissible_.wait(lock, [&] {
      if (closed_ || seq == next_seq_) return true;
      if (seq >= next_seq_ + capacity_) return false;
      return weight_capacity_ == 0 ||
             weight_pending_ + weight <= weight_capacity_;
    });
    if (closed_) return false;
    pending_.emplace(seq, Parked{std::move(item), weight});
    weight_pending_ += weight;
    peak_pending_ = std::max(peak_pending_, pending_.size());
    peak_weight_pending_ = std::max(peak_weight_pending_, weight_pending_);
    if (seq == next_seq_) {
      lock.unlock();
      next_ready_.notify_one();
    }
    return true;
  }

  /// Blocks until the item with the next input sequence number arrives,
  /// then returns it.  Returns nullopt once closed with no next item parked.
  std::optional<T> pop_next() {
    return pop_next([](const T&) {});
  }

  /// pop_next() that first calls `release(item)` under the buffer's lock,
  /// before the admission window advances past the item.  Anything the
  /// caller accounts against that window (reads in flight, say) is thus
  /// released before any producer can be admitted at the new window edge.
  /// `release` must not call back into the buffer.
  template <typename Release>
  std::optional<T> pop_next(Release&& release) {
    std::unique_lock<std::mutex> lock(mutex_);
    next_ready_.wait(lock, [&] {
      return (!pending_.empty() && pending_.begin()->first == next_seq_) ||
             closed_;
    });
    auto it = pending_.begin();
    if (it == pending_.end() || it->first != next_seq_) return std::nullopt;
    release(std::as_const(it->second.item));
    T item = std::move(it->second.item);
    weight_pending_ -= it->second.weight;
    pending_.erase(it);
    ++next_seq_;
    lock.unlock();
    // Advancing next_seq_ widens the admission window (and popping released
    // weight budget) for every waiter.
    admissible_.notify_all();
    next_ready_.notify_one();
    return item;
  }

  /// Unblocks every waiter; pending out-of-order items are discarded.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    admissible_.notify_all();
    next_ready_.notify_all();
  }

  std::size_t peak_pending() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_pending_;
  }

  /// High-water mark of the summed weight of parked items.  The in-order
  /// exemption means this can exceed weight_capacity by one item's weight.
  std::uint64_t peak_weight_pending() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_weight_pending_;
  }

  std::size_t capacity() const { return capacity_; }
  std::uint64_t weight_capacity() const { return weight_capacity_; }

 private:
  struct Parked {
    T item;
    std::uint64_t weight = 0;
  };

  const std::size_t capacity_;
  const std::uint64_t weight_capacity_;
  mutable std::mutex mutex_;
  std::condition_variable admissible_;
  std::condition_variable next_ready_;
  std::map<std::uint64_t, Parked> pending_;
  std::uint64_t next_seq_ = 0;
  std::size_t peak_pending_ = 0;
  std::uint64_t weight_pending_ = 0;
  std::uint64_t peak_weight_pending_ = 0;
  bool closed_ = false;
};

}  // namespace gnumap
