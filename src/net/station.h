#ifndef DCWS_NET_STATION_H_
#define DCWS_NET_STATION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/server.h"
#include "src/util/mutex.h"

namespace dcws::net {

// One round of the statistics module and pinger (Server::Tick spaces the
// real work by T_st / T_pi / T_val), then the duty thread's 20 ms pause.
void StationDutyRound(core::Server* server, core::PeerClient* peers);

// What Station::Offer did with an item.
enum class Offered { kQueued, kFull, kClosed };

// The paper's §5.1 server station, shared by the real transports: a
// front end offers items (a TCP connection, an in-process request) into
// a FIFO socket queue bounded by L_sq, N_wk worker threads pop and serve
// them, and one duty thread runs StationDutyRound.  The caller answers a
// full queue 503 (§5.2) outside the station lock, so a slow client
// reading its rejection cannot stall the queue.
template <typename Item>
class Station {
 public:
  // Serves one dequeued item; `trace` arrives with queue_wait set.
  using Handler = std::function<void(Item item, core::RequestTrace* trace)>;

  Station(core::Server* server, core::PeerClient* peers, Handler handler)
      : server_(server), peers_(peers), handler_(std::move(handler)) {}
  ~Station() { Stop(); }

  // Spawns the workers and the duty thread.  Start() after Stop()
  // restarts the station against the same Server state.
  void Start() {
    MutexLock lock(mutex_);
    if (state_ != State::kStopped) return;
    state_ = State::kRunning;
    for (int i = 0; i < server_->params().worker_threads; ++i) {
      threads_.emplace_back([this]() { WorkerLoop(); });
    }
    threads_.emplace_back([this]() { DutyLoop(); });
  }

  // True while Offer can queue: started, not draining, not stopping.
  bool accepting() const {
    MutexLock lock(mutex_);
    return state_ == State::kRunning;
  }

  // Non-blocking hand-off from the front end, stamped with the enqueue
  // time.  On kQueued `item` has been moved into the queue; on kFull
  // (counted as a drop) and kClosed it is left with the caller.
  Offered Offer(Item& item) {
    MicroTime now = server_->clock()->Now();
    {
      MutexLock lock(mutex_);
      if (state_ != State::kRunning) return Offered::kClosed;
      if (queue_.size() >=
          static_cast<size_t>(server_->params().socket_queue_length)) {
        dropped_ += 1;
        return Offered::kFull;
      }
      queue_.push_back(Entry{std::move(item), now});
      accepted_ += 1;
    }
    queue_cv_.NotifyOne();
    return Offered::kQueued;
  }

  // Abrupt kill: offers are refused, in-flight items complete, and the
  // queued ones are returned unserved.  `stop_front_end` runs once,
  // before the joins, to quiesce whatever feeds Offer.  A concurrent
  // second Stop returns at once with nothing.
  std::vector<Item> Stop(const std::function<void()>& stop_front_end = {}) {
    {
      MutexLock lock(mutex_);
      if (state_ == State::kStopped || state_ == State::kStopping) return {};
      state_ = State::kStopping;
    }
    queue_cv_.NotifyAll();
    if (stop_front_end) stop_front_end();
    return JoinAndClear();
  }

  // Graceful drain: offers are refused, queued items are served to
  // completion, then the threads stop.
  void Drain() {
    {
      MutexLock lock(mutex_);
      if (state_ != State::kRunning) return;
      state_ = State::kDraining;
      while (!queue_.empty() && state_ == State::kDraining) {
        queue_cv_.Wait(mutex_);
      }
      if (state_ != State::kDraining) return;  // a Stop() took over
      state_ = State::kStopping;
    }
    queue_cv_.NotifyAll();
    JoinAndClear();
  }

  uint64_t accepted() const {
    MutexLock lock(mutex_);
    return accepted_;
  }
  uint64_t dropped() const {
    MutexLock lock(mutex_);
    return dropped_;
  }

 private:
  enum class State { kStopped, kRunning, kDraining, kStopping };
  struct Entry {
    Item item;
    MicroTime enqueued = 0;
  };

  void WorkerLoop() {
    while (true) {
      Entry entry;
      {
        MutexLock lock(mutex_);
        while (state_ != State::kStopping && queue_.empty()) {
          queue_cv_.Wait(mutex_);
        }
        if (state_ == State::kStopping) return;
        entry = std::move(queue_.front());
        queue_.pop_front();
        // A Drain() waiter watches for the queue to empty.
        if (state_ == State::kDraining && queue_.empty()) {
          queue_cv_.NotifyAll();
        }
      }
      core::RequestTrace trace;
      MicroTime now = server_->clock()->Now();
      if (now > entry.enqueued) trace.queue_wait = now - entry.enqueued;
      handler_(std::move(entry.item), &trace);
    }
  }

  void DutyLoop() {
    while (true) {
      {
        MutexLock lock(mutex_);
        if (state_ == State::kStopping) return;
      }
      StationDutyRound(server_, peers_);
    }
  }

  // With state_ at kStopping: joins every thread, returns what is queued.
  std::vector<Item> JoinAndClear() {
    std::vector<std::thread> threads;
    {
      MutexLock lock(mutex_);
      threads.swap(threads_);
    }
    for (std::thread& thread : threads) thread.join();
    std::vector<Item> unserved;
    {
      MutexLock lock(mutex_);
      for (Entry& entry : queue_) unserved.push_back(std::move(entry.item));
      queue_.clear();
      state_ = State::kStopped;
    }
    // Workers and duties are quiesced, so no more Emits: settle the
    // JSONL mirror before Stop/Drain returns (artifact collectors read
    // it next).
    server_->journal().Flush();
    return unserved;
  }

  core::Server* const server_;
  core::PeerClient* const peers_;
  const Handler handler_;

  mutable Mutex mutex_;
  CondVar queue_cv_;
  std::deque<Entry> queue_ DCWS_GUARDED_BY(mutex_);
  State state_ DCWS_GUARDED_BY(mutex_) = State::kStopped;
  // The workers, then the duty thread.  Only the caller that moved
  // state_ to kStopping swaps it out to join.
  std::vector<std::thread> threads_ DCWS_GUARDED_BY(mutex_);
  uint64_t accepted_ DCWS_GUARDED_BY(mutex_) = 0;
  uint64_t dropped_ DCWS_GUARDED_BY(mutex_) = 0;
};

}  // namespace dcws::net

#endif  // DCWS_NET_STATION_H_
